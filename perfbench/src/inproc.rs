//! The in-process half of every workload: repeated construction and
//! solve of one problem through `TransportSolver`, the output checks,
//! and (traced runs) the per-layer probes around each crate's public
//! entry points.

use std::hint::black_box;
use std::time::Instant;

use unsnap_core::data::{CrossSections, ProblemData};
use unsnap_core::kernel::{assemble, KernelScratch, UpwindFace, UpwindSource};
use unsnap_core::session::NoopObserver;
use unsnap_core::{
    AngularQuadrature, Problem, RunStats, SolveOutcome, StrategyKind, TransportSolver,
};
use unsnap_fem::face::face_node_indices;
use unsnap_fem::{ElementIntegrals, HexVertices, ReferenceElement, FACES};
use unsnap_mesh::NeighborRef;
use unsnap_sweep::SweepSchedule;

use crate::affinity::Rotation;
use crate::trace::{PhaseSpans, Recorder};

/// Fewest repetitions a run makes, however short its budget.
pub const MIN_REPS: usize = 3;
/// Constructions timed per repetition (the last one is solved), so
/// `setup_s` is a median over several set-ups even when solves are long.
pub const SETUPS_PER_REP: usize = 3;
/// Shortest span of repetitions one slot covers, seconds.  Solves are
/// averaged per slot before the median: on a shared host the CPU speed
/// shifts on a scale of seconds, and the median of many millisecond
/// solves then flips between fast and slow states from run to run.
pub const SLOT_S: f64 = 0.25;

/// The work a problem implies.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Kernel tasks (cells × angles × groups) in one sweep.
    pub tasks_per_sweep: u64,
    /// Sweeps a solve must make, when the iteration count is fixed
    /// (source iteration with a zero tolerance runs every iteration).
    pub fixed_sweeps: Option<usize>,
}

impl Shape {
    /// The shape of `problem`.
    pub fn of(problem: &Problem) -> Self {
        let fixed = problem.convergence_tolerance == 0.0
            && problem.strategy == StrategyKind::SourceIteration;
        Self {
            tasks_per_sweep: (problem.num_cells() * problem.num_angles() * problem.num_groups)
                as u64,
            fixed_sweeps: fixed.then_some(problem.inner_iterations * problem.outer_iterations),
        }
    }
}

/// The parts of a solve's output the checks read.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// `scalar_flux_total`.
    pub total: f64,
    /// Every flux value the check could see is finite.
    pub finite: bool,
    /// `kernel_invocations`.
    pub invocations: u64,
    /// `sweep_count`.
    pub sweeps: usize,
    /// Whether the solve met its tolerance.
    pub converged: bool,
}

impl Answer {
    /// Read an in-process outcome; `phi` is the solver's scalar flux.
    pub fn from_outcome(outcome: &SolveOutcome, phi: &[f64]) -> Self {
        Self {
            total: outcome.scalar_flux_total,
            finite: outcome.scalar_flux_total.is_finite() && phi.iter().all(|v| v.is_finite()),
            invocations: outcome.kernel_invocations,
            sweeps: outcome.sweep_count,
            converged: outcome.converged,
        }
    }
}

/// A committed reference result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// Expected `scalar_flux_total`.
    pub total: f64,
    /// Allowed relative deviation.
    pub rel_tol: f64,
}

/// The output checks every timed solve must pass: finite flux, the
/// work counters the shape implies, a total bit-identical to the run's
/// first, and (when given) agreement with the committed reference.
pub fn verify(
    answer: &Answer,
    shape: &Shape,
    reference: Option<&Reference>,
    baseline: &mut Option<u64>,
) -> Result<(), String> {
    if !answer.finite {
        return Err("non-finite scalar flux".into());
    }
    if answer.invocations != shape.tasks_per_sweep * answer.sweeps as u64 {
        return Err(format!(
            "kernel_invocations {} != {} tasks/sweep x {} sweeps",
            answer.invocations, shape.tasks_per_sweep, answer.sweeps
        ));
    }
    match shape.fixed_sweeps {
        Some(n) if answer.sweeps != n => {
            return Err(format!("sweep_count {} != {n}", answer.sweeps));
        }
        None if !answer.converged => return Err("solve did not converge".into()),
        _ => {}
    }
    let bits = answer.total.to_bits();
    match *baseline {
        Some(b) if b != bits => {
            return Err(format!(
                "scalar_flux_total {:?} differs from the run's first {:?}",
                answer.total,
                f64::from_bits(b)
            ));
        }
        None => *baseline = Some(bits),
        _ => {}
    }
    if let Some(r) = reference {
        let rel = ((answer.total - r.total) / r.total).abs();
        if rel.is_nan() || rel > r.rel_tol {
            return Err(format!(
                "scalar_flux_total {:?} is {rel:.3e} from the reference {:?} (tolerance {:.0e})",
                answer.total, r.total, r.rel_tol
            ));
        }
    }
    Ok(())
}

/// Attempted/failed accounting.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    /// Why each failure failed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation with its check result.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

/// Per-layer figures of one traced repetition, read off its spans.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    pub solve_s: f64,
    pub mesh_s: f64,
    pub integrals_s: f64,
    pub integrals_bytes: f64,
    pub schedule_s: f64,
    pub buckets_per_angle: f64,
    pub cells_per_bucket: f64,
    pub sweep_s: f64,
    pub source_s: f64,
    pub cg_s: f64,
    pub assemble_ns: f64,
    pub task_ns: f64,
    pub spans_per_solve: f64,
    pub sweeps: f64,
    pub cg_iters: f64,
}

/// Everything the in-process phase measured.
#[derive(Debug, Default)]
pub struct Samples {
    /// Construction (`TransportSolver::new`) seconds.
    pub setup: Vec<f64>,
    /// Untraced `run()` seconds.
    pub solve: Vec<f64>,
    /// Construction + solve of each solved repetition (the batch
    /// workloads' closed-loop request latency).
    pub request: Vec<f64>,
    /// Solve wall time per kernel task (SNAP's grind time), ns.
    pub grind_ns: Vec<f64>,
    /// The slot each untraced solve ran in (see [`SLOT_S`]), numbered
    /// across absorbed phases.
    pub slot: Vec<usize>,
    /// Traced repetitions.
    pub traced: Vec<Traced>,
}

impl Samples {
    /// Append another phase's samples.
    pub fn absorb(&mut self, other: Samples) {
        self.setup.extend(other.setup);
        self.solve.extend(other.solve);
        self.request.extend(other.request);
        self.grind_ns.extend(other.grind_ns);
        let offset = self.slot.last().map_or(0, |s| s + 1);
        self.slot.extend(other.slot.iter().map(|s| s + offset));
        self.traced.extend(other.traced);
    }

    /// Number of slots the solves fell in.
    pub fn slots(&self) -> usize {
        self.slot.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!self.slot.is_empty())
    }
}

/// The state one run's checks carry across repetitions.
pub struct Checker<'a> {
    pub shape: Shape,
    pub reference: Option<&'a Reference>,
    pub baseline: Option<u64>,
    pub tally: &'a mut Tally,
}

impl Checker<'_> {
    fn check(&mut self, what: &str, solver: &TransportSolver, outcome: &SolveOutcome) {
        let answer = Answer::from_outcome(outcome, solver.scalar_flux().as_slice());
        let result = verify(&answer, &self.shape, self.reference, &mut self.baseline);
        self.tally.record(what, result);
    }
}

/// Construct and solve `problem` once, untimed and checked (warm-up),
/// then repeat timed repetitions until `budget_s` seconds have passed
/// (at least [`MIN_REPS`]).  A traced run follows each untraced
/// repetition with a traced one.  Repetitions are grouped into slots of
/// at least [`SLOT_S`]; a problem that runs at pool width 1 is pinned
/// to the next allowed CPU at the start of every slot (see
/// [`Rotation`]).
pub fn measure(
    problem: &Problem,
    budget_s: f64,
    traced: bool,
    recorder: &mut Recorder,
    checker: &mut Checker<'_>,
) -> Samples {
    let mut samples = Samples::default();
    let mut rotation = if problem.num_threads.map(crate::effective_width) == Some(1) {
        Rotation::new()
    } else {
        None
    };
    match TransportSolver::new(problem).and_then(|mut s| s.run().map(|o| (s, o))) {
        Ok((solver, outcome)) => checker.check("warm-up", &solver, &outcome),
        Err(e) => checker.tally.record("warm-up", Err(e.to_string())),
    }

    let first_run = recorder.spans().last().map_or(0, |s| s.run + 1);
    let start = Instant::now();
    let mut reps = 0;
    let mut slot = None;
    let mut slot_start = start;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = if reps == 0 {
            0.0
        } else {
            elapsed / reps as f64
        };
        if reps >= MIN_REPS && elapsed + per_rep > budget_s {
            break;
        }
        if slot.is_none() || slot_start.elapsed().as_secs_f64() >= SLOT_S {
            slot = Some(slot.map_or(0, |s| s + 1));
            slot_start = Instant::now();
            if let Some(r) = rotation.as_mut() {
                r.advance();
            }
        }
        untraced_rep(problem, &mut samples, checker);
        samples.slot.resize(samples.solve.len(), slot.unwrap_or(0));
        if traced {
            recorder.set_run(first_run + reps);
            if let Some(t) = traced_rep(problem, recorder, checker) {
                samples.traced.push(t);
            }
        }
        reps += 1;
    }
    samples
}

fn untraced_rep(problem: &Problem, samples: &mut Samples, checker: &mut Checker<'_>) {
    let mut last = None;
    for _ in 0..SETUPS_PER_REP {
        drop(last.take());
        let t0 = Instant::now();
        let built = TransportSolver::new(problem);
        samples.setup.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    let Some(built) = last else { return };
    let mut solver = match built {
        Ok(solver) => solver,
        Err(e) => return checker.tally.record("setup", Err(e.to_string())),
    };
    let setup_s = *samples.setup.last().expect("a set-up was timed");
    let t1 = Instant::now();
    let result = solver.run();
    let solve_s = t1.elapsed().as_secs_f64();
    match result {
        Ok(outcome) => {
            samples.solve.push(solve_s);
            samples.request.push(setup_s + solve_s);
            let tasks = checker.shape.tasks_per_sweep * outcome.sweep_count as u64;
            samples.grind_ns.push(solve_s * 1e9 / tasks.max(1) as f64);
            checker.check("solve", &solver, &outcome);
        }
        Err(e) => checker.tally.record("solve", Err(e.to_string())),
    }
}

/// One traced repetition: set-up decomposed into its layers, a solve
/// with phase spans, then direct probes of source assembly, one sweep,
/// the local assemble kernel and the dense solve.
fn traced_rep(problem: &Problem, rec: &mut Recorder, checker: &mut Checker<'_>) -> Option<Traced> {
    let mut t = Traced::default();
    rec.open("setup");
    let id = rec.open("mesh.build");
    let mesh = problem.build_mesh();
    rec.close();
    t.mesh_s = rec.span(id).seconds();

    let element = ReferenceElement::new(problem.element_order);
    let id = rec.open("fem.integrals");
    let integrals: Vec<ElementIntegrals> = (0..mesh.num_cells())
        .map(|cell| {
            let hex = HexVertices {
                corners: *mesh.cell_corners(cell),
            };
            ElementIntegrals::compute(&element, &hex)
        })
        .collect();
    rec.close();
    rec.set_count(id, integrals.len() as u64);
    t.integrals_s = rec.span(id).seconds();
    t.integrals_bytes = integrals.iter().map(|i| i.footprint_bytes() as f64).sum();

    let quadrature = AngularQuadrature::product(problem.angles_per_octant);
    let id = rec.open("sweep.schedule");
    let schedules: Result<Vec<SweepSchedule>, _> = quadrature
        .directions()
        .iter()
        .map(|d| SweepSchedule::build(&mesh, d.omega))
        .collect();
    rec.close();
    rec.set_count(id, quadrature.num_angles() as u64);
    t.schedule_s = rec.span(id).seconds();
    match schedules {
        Ok(list) => {
            let buckets: usize = list.iter().map(SweepSchedule::num_buckets).sum();
            t.buckets_per_angle = buckets as f64 / list.len() as f64;
            t.cells_per_bucket = mesh.num_cells() as f64 / t.buckets_per_angle;
        }
        Err(e) => checker.tally.record("sweep.schedule", Err(e.to_string())),
    }

    rec.open("core.new");
    let built = TransportSolver::new(problem);
    rec.close();
    rec.close();
    let mut solver = match built {
        Ok(solver) => solver,
        Err(e) => {
            checker.tally.record("traced setup", Err(e.to_string()));
            return None;
        }
    };

    let id = rec.open("core.run");
    let result = solver.run_observed(&mut PhaseSpans(rec));
    rec.close();
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            checker.tally.record("traced solve", Err(e.to_string()));
            return None;
        }
    };
    checker.check("traced solve", &solver, &outcome);
    t.solve_s = rec.span(id).seconds();
    t.cg_s = rec.child_seconds(id, "accel_cg");
    t.spans_per_solve = (outcome.trace.spans.len() as u64 + outcome.trace.dropped) as f64;
    t.sweeps = outcome.sweep_count as f64;
    t.cg_iters = outcome.accel_cg_iterations as f64;

    rec.open("probe");
    let id = rec.open("core.source");
    solver.compute_source();
    rec.close();
    t.source_s = rec.span(id).seconds();

    // The bare-kernel passes bracket the sweep, so the two are compared
    // over the same stretch of time.
    let probe = KernelProbe::new(problem, &solver, &integrals);
    let id = rec.open("kernel.assemble");
    let assembled = probe.pass(&solver, false);
    rec.close();
    t.assemble_ns = rec.span(id).seconds() * 1e9;
    let first = rec.open("kernel.task");
    let solved = probe.pass(&solver, true);
    rec.close();
    let id = rec.open("core.sweep");
    solver.sweep_once(&mut RunStats::default(), &mut NoopObserver);
    rec.close();
    rec.set_count(id, checker.shape.tasks_per_sweep);
    t.sweep_s = rec.span(id).seconds();
    let second = rec.open("kernel.task");
    let solved_again = probe.pass(&solver, true);
    rec.close();
    rec.close();
    match (assembled, solved, solved_again) {
        (Ok(k), Ok(_), Ok(_)) => {
            for id in [first, second] {
                rec.set_count(id, k);
            }
            t.assemble_ns /= k as f64;
            t.task_ns = (rec.span(first).seconds() + rec.span(second).seconds()) * 0.5e9 / k as f64;
        }
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            checker.tally.record("kernel probe", Err(e));
            return None;
        }
    }
    Some(t)
}

/// Replays the sweep's per-task kernel — upwind gather, local assemble
/// and dense solve — outside the sweep driver, on the solver's final
/// fluxes, for every fourth angle.
struct KernelProbe<'a> {
    problem: &'a Problem,
    integrals: &'a [ElementIntegrals],
    data: ProblemData,
    face_nodes: [Vec<usize>; 6],
}

impl<'a> KernelProbe<'a> {
    fn new(
        problem: &'a Problem,
        solver: &TransportSolver,
        integrals: &'a [ElementIntegrals],
    ) -> Self {
        let mesh = solver.mesh();
        let grid = problem.grid();
        let mut data = ProblemData::generate(
            mesh.num_cells(),
            |cell| mesh.cell_centroid(cell),
            [grid.lx, grid.ly, grid.lz],
            problem.num_groups,
            problem.material,
            problem.source,
        );
        if let Some(c) = problem.scattering_ratio {
            data.xs = CrossSections::with_scattering_ratio(
                problem.num_groups,
                data.xs.num_materials(),
                c,
            );
        }
        Self {
            problem,
            integrals,
            data,
            face_nodes: std::array::from_fn(|f| face_node_indices(FACES[f], problem.element_order)),
        }
    }

    /// One pass over the probe's tasks, with or without the dense
    /// solve; returns the task count.
    fn pass(&self, solver: &TransportSolver, solve: bool) -> Result<u64, String> {
        let mesh = solver.mesh();
        let psi = solver.angular_flux();
        let phi = solver.scalar_flux();
        let n = self.integrals[0].nodes_per_element();
        let linear = self.problem.solver.build();
        let mut scratch = KernelScratch::new(n);
        let mut upwind: Vec<UpwindFace<'_>> = Vec::with_capacity(6);
        let mut tasks = 0u64;
        for angle in (0..solver.quadrature().num_angles()).step_by(4) {
            let schedule = &solver.schedules()[angle];
            for cell in schedule.cells_in_order() {
                let material = self.data.material(cell);
                for g in 0..self.problem.num_groups {
                    upwind.clear();
                    for &face in &schedule.inflow_faces[cell] {
                        let source = match mesh.neighbor(cell, face) {
                            NeighborRef::Boundary { domain_face } => UpwindSource::Boundary(
                                self.problem.boundaries.face(domain_face).incoming_flux(),
                            ),
                            NeighborRef::Interior { cell: up, face: nf } => {
                                UpwindSource::Interior {
                                    neighbor_psi: psi.nodes(up, g, angle),
                                    neighbor_face_nodes: &self.face_nodes[nf],
                                }
                            }
                        };
                        upwind.push(UpwindFace { face, source });
                    }
                    assemble(
                        &self.integrals[cell],
                        schedule.omega,
                        self.data.xs.total(material, g),
                        phi.nodes(cell, g, 0),
                        &upwind,
                        &mut scratch,
                    );
                    if solve {
                        linear
                            .solve_in_place(&mut scratch.matrix, &mut scratch.rhs)
                            .map_err(|e| e.to_string())?;
                    }
                    black_box(&scratch.rhs);
                    tasks += 1;
                }
            }
        }
        Ok(tasks)
    }
}
