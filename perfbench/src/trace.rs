//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! workspace's public API (and, inside a solve, from the solver's
//! phase events through the public `RunObserver` hook).  They stay in
//! memory while the run measures and are written out once at exit.

use std::time::Instant;

use unsnap_core::session::{Phase, RunObserver};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `fem.integrals`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition the span belongs to (spans of one repetition
    /// share it).
    pub run: usize,
    /// Open time, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Close time, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Work items the span covers (tasks, cells, …); 1 by default.
    pub count: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A stack-structured span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag subsequently opened spans with repetition `run`.
    pub fn set_run(&mut self, run: usize) {
        self.run = run;
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            run: self.run,
            start_ns,
            end_ns: start_ns,
            count: 1,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close without an open span");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Set the work count of span `id`.
    pub fn set_count(&mut self, id: usize, count: u64) {
        self.spans[id].count = count;
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`.
    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Total seconds of the direct children of `parent` named `name`.
    pub fn child_seconds(&self, parent: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(Span::seconds)
            .fold(0.0, |a, b| a + b)
    }

    /// The spans as JSON lines (`name`, `run`, `parent`, `start_ns`,
    /// `end_ns`, `count`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}\n",
                s.name, s.run, s.start_ns, s.end_ns, s.count
            ));
        }
        out
    }
}

/// Opens a child span for every solver phase of a traced solve.
pub struct PhaseSpans<'a>(pub &'a mut Recorder);

impl RunObserver for PhaseSpans<'_> {
    fn on_phase_start(&mut self, phase: Phase) {
        // Preassembly is reported as a zero-width marker on the first
        // run; its real cost is the traced `core.new` span.
        if phase != Phase::Preassembly {
            self.0.open(phase.label());
        }
    }

    fn on_phase_end(&mut self, phase: Phase, _seconds: f64) {
        if phase != Phase::Preassembly {
            self.0.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut rec = Recorder::new();
        rec.set_run(3);
        let root = rec.open("solve");
        for _ in 0..2 {
            rec.open("sweep");
            rec.close();
        }
        rec.close();
        assert_eq!(rec.spans().len(), 3);
        assert_eq!(rec.span(1).parent, Some(root));
        assert!(rec
            .spans()
            .iter()
            .all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert!(rec.child_seconds(root, "sweep") <= rec.span(root).seconds());
        assert_eq!(rec.to_jsonl().lines().count(), 3);
    }
}
