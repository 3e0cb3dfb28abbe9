//! The `serve-mixed` load: an open-loop, seeded arrival schedule of
//! small solves sent over real HTTP to an in-process `unsnap-serve`
//! server.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use unsnap_core::wire::problem_to_json;
use unsnap_core::Problem;
use unsnap_obs::reader::{self, JsonValue};
use unsnap_serve::{http, ServeConfig, Server};

use crate::inproc::{verify, Answer, Reference, Shape, Tally};
use crate::stats::{median, percentile, SplitMix64};

/// Mean arrival rate of the open loop, requests per second.  There is
/// no recorded traffic to draw it from, so it is a chosen assumption: a
/// cache miss keeps a worker busy for 13–17 ms (202 to done, 2-vCPU
/// Xeon), so 40 req/s with 70% misses loads 2 workers to about a fifth,
/// well below capacity, while a 40 s run still collects several hundred
/// requests for the tail.  Every run measures the load it put on the
/// workers and fails if it exceeds [`UTILISATION_CEILING`].
pub const RATE_PER_S: f64 = 40.0;
/// Share of requests that repeat the registry `tiny` problem (cache
/// hits after the first); the rest are distinct inline problems.  Also
/// a chosen assumption, not a measured mix: most requests take the
/// solve path, so `req_p50_s` follows the solver, while enough hit the
/// cache that a slower hit path still moves the median.
pub const HIT_SHARE: f64 = 0.3;
/// Highest share of the workers' time the misses may keep them busy
/// (summed 202-to-done times over workers x schedule span) for the run
/// to count as below capacity.
pub const UTILISATION_CEILING: f64 = 0.5;
/// Fewest arrivals a schedule holds, so at least ten requests lie
/// beyond the p95.
pub const MIN_ARRIVALS: usize = 200;

/// What one arrival asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// The registry `tiny` problem, by name.
    Tiny,
    /// Inline problem number `k` (see [`inline_problem`]).
    Inline(usize),
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When it is due, seconds after the schedule starts.
    pub due_s: f64,
    /// What it asks for.
    pub request: Request,
}

/// The seeded arrival schedule over `duration_s` seconds, extended to
/// [`MIN_ARRIVALS`] if that is longer: arrivals at a fixed mean rate
/// [`RATE_PER_S`], each gap drawn uniformly from 0.5 to 1.5 times the
/// mean (bursts would make the tail depend on the seed more than on the
/// server), each a `tiny` repeat with probability [`HIT_SHARE`] and
/// otherwise the next inline problem.
pub fn schedule(seed: u64, duration_s: f64) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed ^ 0x5e57_e00d);
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut inline = 0;
    loop {
        t += (0.5 + rng.next_f64()) / RATE_PER_S;
        if t >= duration_s && out.len() >= MIN_ARRIVALS {
            return out;
        }
        let request = if rng.next_f64() < HIT_SHARE {
            Request::Tiny
        } else {
            inline += 1;
            Request::Inline(inline)
        };
        out.push(Arrival { due_s: t, request });
    }
}

/// Inline problem `k` of seed `seed`: the `tiny` preset on a 4³ mesh
/// with its own twist, so every inline request misses the cache.
pub fn inline_problem(seed: u64, k: usize) -> Problem {
    let mut p = Problem::tiny().with_mesh(4);
    p.twist = crate::twist(seed, k as u64 + 1);
    p
}

fn body(seed: u64, request: Request) -> String {
    match request {
        Request::Tiny => r#"{"problem": "tiny"}"#.to_string(),
        Request::Inline(k) => format!(
            r#"{{"problem": {}}}"#,
            problem_to_json(&inline_problem(seed, k))
        ),
    }
}

/// Server worker threads: each solve runs at pool width 1, so the
/// server's total solver width is the worker count, kept within the
/// CPUs available.
pub fn workers() -> usize {
    crate::report::nproc().min(2)
}

fn config() -> ServeConfig {
    ServeConfig {
        port: 0,
        workers: workers(),
        queue_capacity: 1024,
        ..ServeConfig::default()
    }
}

/// Start (and shut down) a server `cycles` times, adding each start's
/// seconds to `starts`.
pub fn time_starts(cycles: usize, starts: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..cycles {
        let (server, seconds) = start()?;
        starts.push(seconds);
        server.shutdown();
    }
    Ok(())
}

fn start() -> Result<(Server, f64), String> {
    let config = config();
    let t0 = Instant::now();
    let server = Server::start(&config).map_err(|e| e.to_string())?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// One completed exchange.
#[derive(Debug, Clone)]
struct Sample {
    latency_s: f64,
    late_s: f64,
    submit_s: f64,
    /// 202 → job done, for cache misses.
    exec_s: Option<f64>,
    cached: bool,
}

/// What the load phase measured, summed over its slices.
#[derive(Debug, Default)]
pub struct Load {
    /// `Server::start` seconds, per timed start.
    pub starts: Vec<f64>,
    /// Due time → outcome in hand, per successful request, one list
    /// per slice.
    pub latency: Vec<Vec<f64>>,
    /// Send time − due time (generator lateness), per request.
    pub late: Vec<f64>,
    /// POST round trip, per request.
    pub submit: Vec<f64>,
    /// 202 → done, per cache miss.
    pub exec: Vec<f64>,
    /// Requests answered from the cache.
    pub hits: usize,
    /// Sum and count of the server-side queue waits of timed requests.
    pub queue_wait: (f64, u64),
    /// Seconds the schedule slices spanned.
    pub span_s: f64,
}

impl Load {
    /// Requests answered successfully.
    pub fn requests(&self) -> usize {
        self.latency.iter().map(Vec::len).sum()
    }

    /// Latency percentile `p`: the median over slices of each slice's
    /// percentile, as every other timing is a median over a run's
    /// repetitions.  A host stall that spoils one slice's tail then
    /// does not set the run's figure.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .latency
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| percentile(l, p))
            .collect();
        median(&per_slice)
    }

    /// Mean server-side queue wait of the timed requests.
    pub fn queue_wait_s(&self) -> f64 {
        match self.queue_wait {
            (_, 0) => 0.0,
            (sum, n) => sum / n as f64,
        }
    }

    /// Share of the workers' time the misses kept them busy: summed
    /// 202-to-done seconds over workers × schedule span.  The 202-to-done
    /// time includes the queue wait and the event stream, so this
    /// overstates the load.
    pub fn utilisation(&self) -> f64 {
        if self.span_s <= 0.0 {
            return 0.0;
        }
        self.exec.iter().sum::<f64>() / (workers() as f64 * self.span_s)
    }
}

/// Expected outcomes the checks compare against.
pub struct Expect<'a> {
    /// `tiny` solved in process: shape and total.
    pub tiny_shape: Shape,
    pub tiny_total: f64,
    /// Inline problems (all share a shape).
    pub inline_shape: Shape,
    /// Inline problem 0 solved in process (`None` if that solve failed).
    pub inline0_total: Option<f64>,
    /// The committed reference for inline problem 0, if checked.
    pub reference: Option<&'a Reference>,
}

/// Run one slice of the schedule against a fresh server: a checked,
/// untimed warm-up burst, then `arrivals` sent at their due times,
/// counted from `origin_s` of the schedule.  Adds what it measured to
/// `load`.
pub fn run(
    seed: u64,
    arrivals: &[Arrival],
    origin_s: f64,
    expect: &Expect<'_>,
    tally: &mut Tally,
    load: &mut Load,
) -> Result<(), String> {
    let (server, start_s) = start()?;
    load.starts.push(start_s);
    let addr = server.addr();
    let fresh_tiny = Mutex::new(None::<String>);
    let check = |request: Request, outcome: &str, cached: bool| -> Result<(), String> {
        let answer = parse_answer(outcome)?;
        let (shape, bits) = match request {
            Request::Tiny => (&expect.tiny_shape, Some(expect.tiny_total)),
            Request::Inline(0) => (&expect.inline_shape, expect.inline0_total),
            Request::Inline(_) => (&expect.inline_shape, None),
        };
        let mut baseline = bits.map(f64::to_bits);
        let reference = (request == Request::Inline(0))
            .then_some(expect.reference)
            .flatten();
        verify(&answer, shape, reference, &mut baseline)?;
        if request == Request::Tiny {
            let mut fresh = fresh_tiny.lock().expect("fresh-outcome lock poisoned");
            match (cached, fresh.as_deref()) {
                (true, Some(f)) if f != outcome => {
                    return Err("cache hit differs from the fresh outcome".into())
                }
                (true, None) => return Err("cache hit before any fresh outcome".into()),
                (false, _) => *fresh = Some(outcome.to_string()),
                _ => {}
            }
        }
        Ok(())
    };

    // Warm-up (untimed, checked): fills the cache with `tiny` and
    // exercises the inline path once.
    for request in [Request::Tiny, Request::Inline(0), Request::Tiny] {
        let result = exchange(addr, &body(seed, request))
            .and_then(|(_, _, cached, outcome)| check(request, &outcome, cached));
        tally.record("warm-up request", result);
    }
    let wait_before = queue_wait(&server)?;

    let bodies: Vec<String> = arrivals.iter().map(|a| body(seed, a.request)).collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Result<Sample, String>>> =
        Mutex::new(Vec::with_capacity(arrivals.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..crate::report::nproc().min(2) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(arrival) = arrivals.get(i) else {
                    return;
                };
                let due = start + Duration::from_secs_f64(arrival.due_s - origin_s);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let result =
                    exchange(addr, &bodies[i]).and_then(|(submitted, done, cached, outcome)| {
                        check(arrival.request, &outcome, cached)?;
                        Ok(Sample {
                            latency_s: (done - due).as_secs_f64(),
                            late_s: (sent - due).as_secs_f64(),
                            submit_s: (submitted - sent).as_secs_f64(),
                            exec_s: (!cached).then(|| (done - submitted).as_secs_f64()),
                            cached,
                        })
                    });
                results.lock().expect("results lock poisoned").push(result);
            });
        }
    });

    let wait_after = queue_wait(&server)?;
    server.shutdown();
    let mut latency = Vec::with_capacity(arrivals.len());
    for result in results.into_inner().expect("results lock poisoned") {
        let sample = match result {
            Ok(sample) => sample,
            Err(why) => {
                tally.record("request", Err(why));
                continue;
            }
        };
        tally.record("request", Ok(()));
        latency.push(sample.latency_s);
        load.late.push(sample.late_s);
        load.submit.push(sample.submit_s);
        load.exec.extend(sample.exec_s);
        load.hits += usize::from(sample.cached);
    }
    load.latency.push(latency);
    load.queue_wait.0 += wait_after.0 - wait_before.0;
    load.queue_wait.1 += wait_after.1.saturating_sub(wait_before.1);
    load.span_s += arrivals.last().map_or(0.0, |a| a.due_s - origin_s);
    Ok(())
}

/// POST the body, wait for the job to finish, fetch its outcome.
/// Returns (202 received, outcome received, cache hit, raw outcome).
fn exchange(addr: SocketAddr, body: &str) -> Result<(Instant, Instant, bool, String), String> {
    let receipt =
        http::request(addr, "POST", "/v1/solve", Some(body)).map_err(|e| e.to_string())?;
    let submitted = Instant::now();
    if receipt.status != 202 {
        return Err(format!(
            "POST /v1/solve answered {}: {}",
            receipt.status, receipt.body
        ));
    }
    let doc = reader::parse(&receipt.body)?;
    let id = doc
        .get("job_id")
        .and_then(JsonValue::as_u64)
        .ok_or("receipt without job_id")?;
    let cached = doc.get("cache").and_then(JsonValue::as_str) == Some("hit");
    if !cached {
        // The event stream ends when the job's channel closes.
        let events = http::request(addr, "GET", &format!("/v1/jobs/{id}/events"), None)
            .map_err(|e| e.to_string())?;
        if events.status != 200 {
            return Err(format!("GET events answered {}", events.status));
        }
    }
    let status =
        http::request(addr, "GET", &format!("/v1/jobs/{id}"), None).map_err(|e| e.to_string())?;
    let done = Instant::now();
    if status.status != 200 {
        return Err(format!("GET /v1/jobs/{id} answered {}", status.status));
    }
    let outcome = raw_outcome(&status.body)?;
    Ok((submitted, done, cached, outcome.to_string()))
}

/// The raw `outcome` member of a job-status body, so cache hits compare
/// with fresh outcomes byte for byte.  The status body ends with the
/// `error` member, which follows `outcome`.
fn raw_outcome(body: &str) -> Result<&str, String> {
    let doc = reader::parse(body)?;
    if doc.get("status").and_then(JsonValue::as_str) != Some("done") {
        return Err(format!("job did not finish: {body}"));
    }
    let start = body.find("\"outcome\":").ok_or("no outcome member")? + "\"outcome\":".len();
    let end = body.rfind(",\"error\":").ok_or("no error member")?;
    Ok(&body[start..end])
}

fn parse_answer(outcome: &str) -> Result<Answer, String> {
    let doc = reader::parse(outcome)?;
    let num = |key: &str| doc.get(key).and_then(JsonValue::as_f64);
    let finite = ["scalar_flux_total", "scalar_flux_max", "scalar_flux_min"]
        .iter()
        .all(|k| num(k).is_some_and(f64::is_finite));
    Ok(Answer {
        total: num("scalar_flux_total").unwrap_or(f64::NAN),
        finite,
        invocations: doc
            .get("kernel_invocations")
            .and_then(JsonValue::as_u64)
            .ok_or("no kernel_invocations")?,
        sweeps: doc
            .get("sweep_count")
            .and_then(JsonValue::as_usize)
            .ok_or("no sweep_count")?,
        converged: doc
            .get("converged")
            .and_then(JsonValue::as_bool)
            .ok_or("no converged")?,
    })
}

/// (sum, count) of the server's queue-wait histogram.
fn queue_wait(server: &Server) -> Result<(f64, u64), String> {
    let doc = reader::parse(&server.queue().metrics_json())?;
    let Some(h) = doc
        .get("wallclock")
        .and_then(|w| w.get("histograms"))
        .and_then(|h| h.get("serve_queue_wait_seconds"))
    else {
        return Ok((0.0, 0));
    };
    Ok((
        h.get("sum").and_then(JsonValue::as_f64).unwrap_or(0.0),
        h.get("count").and_then(JsonValue::as_u64).unwrap_or(0),
    ))
}
