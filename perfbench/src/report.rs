//! The run report: metrics with units and sample counts, failure
//! accounting, the machine stamp, and the one-line JSON result.

use std::path::Path;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value (finite).
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a count).
    pub samples: usize,
}

/// What the result was measured on.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Width of the solver pool that actually ran (after any
    /// `RAYON_NUM_THREADS` override).
    pub pool_width: usize,
    /// Server worker threads (`serve-mixed` only).
    pub serve_workers: Option<usize>,
    /// CPU model string.
    pub cpu_model: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Workload seed.
    pub seed: u64,
    /// Git commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Stamp {
    /// Stamp a run of `seed` at solver width `pool_width`.
    pub fn new(seed: u64, pool_width: usize, serve_workers: Option<usize>) -> Self {
        Self {
            pool_width,
            serve_workers,
            cpu_model: cpu_model(),
            nproc: nproc(),
            seed,
            commit: git_commit(Path::new(env!("CARGO_MANIFEST_DIR")).parent()),
        }
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolve `HEAD` of the checkout at `root` by reading `.git` directly.
fn git_commit(root: Option<&Path>) -> String {
    let resolve = |root: &Path| -> Option<String> {
        let git = root.join(".git");
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
            return Some(id.trim().to_string());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed
            .lines()
            .find(|l| l.ends_with(reference))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    };
    root.and_then(resolve)
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics (sizes, ceilings,
    /// computed operation counts).
    pub notes: Vec<String>,
    /// Machine and run stamp.
    pub stamp: Stamp,
}

impl Report {
    /// Add a metric.  Non-finite values are a benchmark bug.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every attempted operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines printed before the result.
    pub fn render(&self) -> String {
        let s = &self.stamp;
        let mut out = format!(
            "# workload={} seed={} pool_width={}{} nproc={} cpu=\"{}\" commit={}\n",
            self.workload,
            s.seed,
            s.pool_width,
            s.serve_workers
                .map_or(String::new(), |w| format!(" serve_workers={w}")),
            s.nproc,
            s.cpu_model,
            s.commit
        );
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<26} {:>16} {:<8} (n={})\n",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.samples
            ));
        }
        out.push_str(&format!(
            "# checked {} operations, {} failed\n",
            self.attempted, self.failed
        ));
        for failure in self.failures.iter().take(10) {
            out.push_str(&format!("# FAILED: {failure}\n"));
        }
        out
    }

    /// The one-line JSON result (the last line the benchmark prints).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}
