//! End-to-end and per-layer benchmark of the UnSNAP workspace.
//!
//! Three workloads (see `README.md` for why each exists) run through the
//! workspace's public API only.  An untraced run reports the end-to-end
//! metrics; a traced run (`--trace 1`) reports the per-layer metrics,
//! measured from spans the benchmark records around its own calls into
//! each crate.

pub mod affinity;
pub mod inproc;
pub mod report;
pub mod roofline;
pub mod serve_mixed;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

use unsnap_core::Problem;
use unsnap_linalg::solve_flops;
use unsnap_obs::reader::{self, JsonValue};

use inproc::{Checker, Reference, Samples, Shape, Tally, Traced};
use report::{nproc, Report, Stamp};
use roofline::Ceilings;
use stats::{grouped_median, median, percentile, SplitMix64};
use trace::Recorder;

/// The seed a run uses when none is given; the committed reference
/// results are for this seed.
pub const DEFAULT_SEED: u64 = 1;

/// The committed reference results (`reference.json`).
const REFERENCE_JSON: &str = include_str!("../reference.json");

/// End-to-end metric names, in print order.
pub const END_TO_END: [&str; 5] = ["setup_s", "solve_s", "grind_ns", "peak_rss_mb", "req_p50_s"];

/// Per-layer metric names (traced run), in print order.
pub const PER_LAYER: [&str; 29] = [
    "mesh.build_s",
    "fem.integrals_s",
    "fem.integrals_mb",
    "sweep.schedule_s",
    "sweep.buckets_per_angle",
    "sweep.cells_per_bucket",
    "linalg.solve_ns",
    "linalg.gflops",
    "linalg.roofline_frac",
    "kernel.assemble_ns",
    "kernel.ns_per_task",
    "core.sweep_s",
    "core.sweep_ns_per_task",
    "core.outside_kernel_frac",
    "core.source_s",
    "core.sweeps",
    "accel.cg_iters",
    "accel.cg_s",
    "obs.spans_per_solve",
    "serve.submit_s",
    "serve.queue_wait_s",
    "serve.exec_s",
    "serve.cache_hit_ratio",
    "serve.late_s",
    "serve.utilisation",
    "serve.req_p95_s",
    "trace.overhead_s",
    "roofline.peak_gflops",
    "roofline.stream_gbs",
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3 shape: order-1 elements, many groups, pool width 2.
    SweepLinear,
    /// Diffusive c = 0.99 problem solved to 1e-6 with DSA.
    ConvergeDiffusive,
    /// Open-loop mix of cached and fresh small solves over HTTP.
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SweepLinear,
        Workload::ConvergeDiffusive,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepLinear => "sweep-linear",
            Workload::ConvergeDiffusive => "converge-diffusive",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The problem the workload solves in process (for `serve-mixed`,
    /// its first inline problem).
    pub fn problem(self, seed: u64, scale: Scale) -> Problem {
        let tiny = scale == Scale::Tiny;
        let mut p = match self {
            Workload::SweepLinear => {
                let p = Problem::figure3_scaled().with_threads(solver_width(2));
                if tiny {
                    p.with_mesh(3).with_phase_space(1, 2)
                } else {
                    p
                }
            }
            Workload::ConvergeDiffusive => Problem::dsa_regime()
                .with_mesh(if tiny { 3 } else { 8 })
                .with_threads(solver_width(2)),
            Workload::ServeMixed => return serve_mixed::inline_problem(seed, 0),
        };
        p.twist = twist(seed, 0);
        p
    }
}

/// Problem size: the real workloads, or a seconds-scale version of each
/// for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Mesh twist drawn from the seed (stream `stream`), within the paper's
/// 0.001 rad: [0.0005, 0.001).
pub fn twist(seed: u64, stream: u64) -> f64 {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ stream);
    0.001 * (0.5 + 0.5 * rng.next_f64())
}

/// A requested solver pool width, capped at the CPUs available.
pub fn solver_width(requested: usize) -> usize {
    requested.min(nproc()).max(1)
}

/// The width a pool requested at `requested` really gets (the
/// `RAYON_NUM_THREADS` override wins, as it does for the solver).
pub fn effective_width(requested: usize) -> usize {
    rayon::ThreadPoolBuilder::new()
        .num_threads(requested)
        .build()
        .map_or(requested, |pool| pool.current_num_threads())
}

/// The committed reference for `workload`, if `reference.json` has one
/// for `seed`.
pub fn committed_reference(workload: Workload, seed: u64) -> Option<Reference> {
    let doc = reader::parse(REFERENCE_JSON).expect("reference.json is valid JSON");
    if doc.get("seed").and_then(JsonValue::as_u64) != Some(seed) {
        return None;
    }
    Some(Reference {
        total: doc
            .get("scalar_flux_total")?
            .get(workload.name())?
            .as_f64()?,
        rel_tol: doc.get("rel_tol")?.as_f64()?,
    })
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
    /// Reference the in-process result must match.
    pub reference: Option<Reference>,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

impl Options {
    /// A full-size run, checked against the committed reference and
    /// writing spans under `out/` in the benchmark directory.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
        Self {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            reference: committed_reference(workload, seed),
            trace_out: trace.then_some(out),
        }
    }
}

/// Share of a `serve-mixed` run spent solving in process (the rest
/// drives the server).  The single-thread solve follows the host's
/// speed, which drifts on a scale of seconds, so it needs a long sample;
/// the request median, over many concurrent requests, needs less.
const SERVE_INPROC_SHARE: f64 = 0.45;
/// Share of a `serve-mixed` run the arrival schedule spans.
const SERVE_LOAD_SHARE: f64 = 0.5;
/// Slices a `serve-mixed` run is cut into.  Each runs its share of the
/// in-process solves, server starts and schedule, so every metric's
/// samples are spread over the whole run rather than caught in one
/// stretch of host speed.
const SERVE_SLICES: usize = 4;
/// Server start/stop cycles timed per slice for `serve-mixed`'s
/// `setup_s`, besides the start of the server the slice loads.
const STARTS_PER_SLICE: usize = 25;

/// Run one workload and report it.
pub fn run(opts: &Options) -> Report {
    let problem = opts.workload.problem(opts.seed, opts.scale);
    let width = effective_width(problem.num_threads.unwrap_or_else(nproc));
    let serving = opts.workload == Workload::ServeMixed;
    let mut report = Report {
        workload: opts.workload.name(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        notes: Vec::new(),
        stamp: Stamp::new(opts.seed, width, serving.then(serve_mixed::workers)),
    };
    let ceilings = opts
        .trace
        .then(|| measure_ceilings(opts.scale, &mut report));
    let shape = Shape::of(&problem);
    report.notes.push(format!(
        "problem: {}^3 cells, order {}, {} angles, {} groups, twist {:.6} rad, {} tasks/sweep",
        problem.nx,
        problem.element_order,
        problem.num_angles(),
        problem.num_groups,
        problem.twist,
        shape.tasks_per_sweep
    ));
    let mut tally = Tally::default();
    let mut recorder = Recorder::new();
    let mut checker = Checker {
        shape,
        reference: opts.reference.as_ref(),
        baseline: None,
        tally: &mut tally,
    };
    let (samples, load) = if serving {
        serve_run(opts, &problem, &mut recorder, &mut checker, &mut report)
    } else {
        let samples = inproc::measure(
            &problem,
            opts.seconds,
            opts.trace,
            &mut recorder,
            &mut checker,
        );
        (samples, None)
    };
    if let Some(bits) = checker.baseline {
        report.notes.push(format!(
            "scalar_flux_total {:?}; reference {}",
            f64::from_bits(bits),
            opts.reference
                .map_or("not checked at this seed".to_string(), |r| format!(
                    "{:?} within {:.0e} relative",
                    r.total, r.rel_tol
                ))
        ));
    }

    if let Some(ceilings) = ceilings {
        layer_metrics(&mut report, &problem, &samples, width, &ceilings);
        serve_layer_metrics(&mut report, load.as_ref());
    } else {
        end_to_end_metrics(&mut report, &samples, load.as_ref());
    }

    if let Some(path) = &opts.trace_out {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, recorder.to_jsonl()));
        match written {
            Ok(()) => report.notes.push(format!(
                "{} spans written to {}",
                recorder.spans().len(),
                path.display()
            )),
            Err(e) => report.notes.push(format!("spans not written: {e}")),
        }
    }
    let order = |name: &str| END_TO_END.iter().chain(&PER_LAYER).position(|n| *n == name);
    report.metrics.sort_by_key(|m| order(m.name));
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.failures = tally.failures;
    report
}

fn measure_ceilings(scale: Scale, report: &mut Report) -> Ceilings {
    let llc = roofline::last_level_cache_bytes();
    // Bandwidth arrays are at least 4x the last-level cache, so the
    // stream comes from memory; the tests use a small array.
    let array_bytes = match scale {
        Scale::Full => 4 * llc.unwrap_or(64 << 20),
        Scale::Tiny => 8 << 20,
    };
    let c = Ceilings::measure(array_bytes);
    report.notes.push(format!(
        "ceilings (1 thread): FMA peak {:.2} GFLOP/s ({}), stream read {:.2} GB/s over a {:.1} MiB array (last-level cache {})",
        c.peak_gflops,
        c.fma_isa,
        c.stream_gbs,
        c.array_bytes as f64 / (1 << 20) as f64,
        c.llc_bytes
            .map_or("unknown".to_string(), |b| format!("{:.1} MiB", b as f64 / (1 << 20) as f64)),
    ));
    c
}

/// `serve-mixed`: `tiny` solved in process as the expected answer, then
/// [`SERVE_SLICES`] slices of in-process solves of the first inline
/// problem, timed server starts and open-loop load.
fn serve_run(
    opts: &Options,
    problem: &Problem,
    recorder: &mut Recorder,
    checker: &mut Checker<'_>,
    report: &mut Report,
) -> (Samples, Option<serve_mixed::Load>) {
    let tiny = Problem::tiny();
    let tiny_shape = Shape::of(&tiny);
    let mut tiny_checker = Checker {
        shape: tiny_shape,
        reference: None,
        baseline: None,
        tally: &mut *checker.tally,
    };
    inproc::measure(&tiny, 0.0, false, &mut Recorder::new(), &mut tiny_checker);
    let tiny_total = tiny_checker.baseline.map(f64::from_bits);

    let arrivals = serve_mixed::schedule(opts.seed, opts.seconds * SERVE_LOAD_SHARE);
    let span = arrivals.last().map_or(0.0, |a| a.due_s);
    report.notes.push(format!(
        "open loop: {} arrivals over {span:.1} s in {SERVE_SLICES} slices ({} req/s, gaps jittered +-50%, {:.0}% tiny repeats), {} client threads, {} server workers x pool width 1",
        arrivals.len(),
        serve_mixed::RATE_PER_S,
        serve_mixed::HIT_SHARE * 100.0,
        nproc().min(2),
        serve_mixed::workers(),
    ));
    let mut samples = Samples::default();
    let mut load = serve_mixed::Load::default();
    let chunk = arrivals.len().div_ceil(SERVE_SLICES).max(1);
    let budget = opts.seconds * SERVE_INPROC_SHARE / SERVE_SLICES as f64;
    let mut origin_s = 0.0;
    for slice in arrivals.chunks(chunk) {
        samples.absorb(inproc::measure(
            problem, budget, opts.trace, recorder, checker,
        ));
        let Some(tiny_total) = tiny_total else {
            return (samples, None);
        };
        let expect = serve_mixed::Expect {
            tiny_shape,
            tiny_total,
            inline_shape: checker.shape,
            inline0_total: checker.baseline.map(f64::from_bits),
            reference: opts.reference.as_ref(),
        };
        let served = serve_mixed::time_starts(STARTS_PER_SLICE, &mut load.starts).and_then(|()| {
            serve_mixed::run(
                opts.seed,
                slice,
                origin_s,
                &expect,
                checker.tally,
                &mut load,
            )
        });
        if let Err(e) = served {
            checker.tally.record("server", Err(e));
            return (samples, None);
        }
        origin_s = slice.last().map_or(origin_s, |a| a.due_s);
    }

    let utilisation = load.utilisation();
    report.notes.push(format!(
        "load: request latency percentiles are medians over {} slices of each slice's percentile ({} requests); worker utilisation {utilisation:.3} (ceiling {}), generator lateness p95 {:.6} s",
        load.latency.len(),
        load.requests(),
        serve_mixed::UTILISATION_CEILING,
        if load.late.is_empty() {
            0.0
        } else {
            percentile(&load.late, 0.95)
        },
    ));
    let below = if utilisation <= serve_mixed::UTILISATION_CEILING {
        Ok(())
    } else {
        Err(format!(
            "worker utilisation {utilisation:.3} exceeds {}: the open loop is not below capacity",
            serve_mixed::UTILISATION_CEILING
        ))
    };
    checker.tally.record("utilisation", below);
    (samples, Some(load))
}

fn end_to_end_metrics(report: &mut Report, samples: &Samples, load: Option<&serve_mixed::Load>) {
    if samples.solve.is_empty() {
        return;
    }
    let slots = samples.slots();
    if slots < samples.solve.len() {
        report.notes.push(format!(
            "solve_s and grind_ns: median of {slots} slot means ({} solves)",
            samples.solve.len()
        ));
    }
    let setup = match load {
        Some(load) if !load.starts.is_empty() => &load.starts,
        _ => &samples.setup,
    };
    report.metric("setup_s", median(setup), "s", setup.len());
    report.metric(
        "solve_s",
        grouped_median(&samples.solve, &samples.slot),
        "s",
        slots,
    );
    report.metric(
        "grind_ns",
        grouped_median(&samples.grind_ns, &samples.slot),
        "ns",
        slots,
    );
    if let Some(rss) = report::peak_rss_mib() {
        report.metric("peak_rss_mb", rss, "MiB", 1);
    }
    // The result must carry every end-to-end metric on every workload,
    // so the batch workloads report their per-repetition set-up + solve
    // as a closed-loop request latency.
    let (p50, n) = match load {
        Some(load) if load.requests() > 0 => (load.latency_percentile(0.5), load.requests()),
        None if !samples.request.is_empty() => {
            (percentile(&samples.request, 0.5), samples.request.len())
        }
        _ => return,
    };
    report.metric("req_p50_s", p50, "s", n);
}

fn layer_metrics(
    report: &mut Report,
    problem: &Problem,
    samples: &Samples,
    width: usize,
    c: &Ceilings,
) {
    let traced = &samples.traced;
    if traced.is_empty() || samples.solve.is_empty() {
        return;
    }
    let n = traced.len();
    let med = |f: fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let tasks = Shape::of(problem).tasks_per_sweep as f64;
    let nodes = problem.nodes_per_element();
    let flops = solve_flops(nodes);
    // Computed traffic of one solve: the matrix and right-hand side,
    // each moved once.
    let bytes = (8 * (nodes * nodes + nodes)) as f64;
    let attainable = c.attainable_gflops(flops / bytes);
    report.notes.push(format!(
        "local system n={nodes}: {flops:.0} flop/solve and {:.0} flop/assembly (computed: solve_flops, assembly_flops), {bytes:.0} B/solve (computed), roofline bound {attainable:.2} GFLOP/s",
        unsnap_linalg::solver::assembly_flops(nodes, 6),
    ));
    let solve_ns = med(|t| t.task_ns - t.assemble_ns);
    let task_ns = med(|t| t.task_ns);
    let sweep_s = med(|t| t.sweep_s);
    let gflops = flops / solve_ns;

    report.metric("mesh.build_s", med(|t| t.mesh_s), "s", n);
    report.metric("fem.integrals_s", med(|t| t.integrals_s), "s", n);
    report.metric(
        "fem.integrals_mb",
        med(|t| t.integrals_bytes) / (1 << 20) as f64,
        "MiB",
        n,
    );
    report.metric("sweep.schedule_s", med(|t| t.schedule_s), "s", n);
    report.metric(
        "sweep.buckets_per_angle",
        med(|t| t.buckets_per_angle),
        "count",
        n,
    );
    report.metric(
        "sweep.cells_per_bucket",
        med(|t| t.cells_per_bucket),
        "count",
        n,
    );
    report.metric("linalg.solve_ns", solve_ns, "ns", n);
    report.metric("linalg.gflops", gflops, "GFLOP/s", n);
    report.metric("linalg.roofline_frac", gflops / attainable, "ratio", n);
    report.metric("kernel.assemble_ns", med(|t| t.assemble_ns), "ns", n);
    report.metric("kernel.ns_per_task", task_ns, "ns", n);
    report.metric("core.sweep_s", sweep_s, "s", n);
    report.metric("core.sweep_ns_per_task", sweep_s * 1e9 / tasks, "ns", n);
    report.metric(
        "core.outside_kernel_frac",
        1.0 - task_ns * tasks / (sweep_s * 1e9 * width as f64),
        "ratio",
        n,
    );
    report.metric("core.source_s", med(|t| t.source_s), "s", n);
    report.metric("core.sweeps", med(|t| t.sweeps), "count", n);
    report.metric("accel.cg_iters", med(|t| t.cg_iters), "count", n);
    report.metric("accel.cg_s", med(|t| t.cg_s), "s", n);
    report.metric(
        "obs.spans_per_solve",
        med(|t| t.spans_per_solve),
        "count",
        n,
    );
    report.metric(
        "trace.overhead_s",
        med(|t| t.solve_s) - median(&samples.solve),
        "s",
        n,
    );
    report.metric("roofline.peak_gflops", c.peak_gflops, "GFLOP/s", 3);
    report.metric("roofline.stream_gbs", c.stream_gbs, "GB/s", 3);
}

/// The serving layer's metrics; zero where no server ran.
fn serve_layer_metrics(report: &mut Report, load: Option<&serve_mixed::Load>) {
    let Some(l) = load.filter(|l| l.requests() > 0) else {
        for name in [
            "serve.submit_s",
            "serve.queue_wait_s",
            "serve.exec_s",
            "serve.cache_hit_ratio",
            "serve.late_s",
            "serve.utilisation",
            "serve.req_p95_s",
        ] {
            let unit = if name.ends_with("_s") { "s" } else { "ratio" };
            report.metric(name, 0.0, unit, 0);
        }
        return;
    };
    let n = l.requests();
    report.metric("serve.submit_s", median(&l.submit), "s", n);
    report.metric("serve.queue_wait_s", l.queue_wait_s(), "s", l.exec.len());
    let exec = if l.exec.is_empty() {
        0.0
    } else {
        median(&l.exec)
    };
    report.metric("serve.exec_s", exec, "s", l.exec.len());
    report.metric(
        "serve.cache_hit_ratio",
        l.hits as f64 / n as f64,
        "ratio",
        n,
    );
    report.metric("serve.late_s", percentile(&l.late, 0.95), "s", n);
    report.metric("serve.utilisation", l.utilisation(), "ratio", l.exec.len());
    report.metric("serve.req_p95_s", l.latency_percentile(0.95), "s", n);
}
