//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. Every span
//! carries a name, start and end (seconds since the run's origin), its
//! parent span and the id of the request it belongs to. Spans are kept in
//! memory and written out once, when the run ends.
//!
//! Some public functions do the work of two layers in one call: for example
//! `ExactBackend::run_with_template` with a mission grid is the metrics
//! solve plus the transient sweep. The benchmark then times the inner layer
//! separately, in a *probe* call outside any request (the same call without
//! the grid, on the same warm template), and attaches the probe's duration
//! to the outer span as a *derived* child. Derived children are flagged as
//! such in the output and are clamped to fit inside their parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Synthetic child whose duration was measured by a probe call.
    pub derived: bool,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span store of one traced pass.
pub struct Tracer {
    origin: Instant,
    /// Label of the pass (thread count), written with every span.
    pub pass: String,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, pass: &str) -> Self {
        Self {
            origin,
            pass: pass.to_string(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            request,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.duration()
    }

    /// Rename a closed span (a cache lookup is named by its outcome).
    pub fn rename(&mut self, id: usize, name: &str) {
        self.spans[id].name = name.to_string();
    }

    /// Attach a derived child of `duration` seconds to the closed span
    /// `parent`, laid after the parent's earlier derived children and
    /// clamped so the children never exceed the parent.
    pub fn derived(&mut self, parent: usize, name: &str, duration: f64) {
        let used: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::duration)
            .sum();
        let p = &self.spans[parent];
        let start = p.start + used;
        let d = duration.min(p.duration() - used).max(0.0);
        let request = p.request;
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start + d,
            parent: Some(parent),
            request,
            derived: true,
        });
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name.clone()).or_insert(0.0) += s.duration() - child_time[i];
        }
        out
    }

    /// Total inclusive time of the spans named `name`.
    pub fn inclusive(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Append the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"pass\":\"{}\",\"id\":{},\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"parent\":{},\"request\":{},\"derived\":{}}}",
                self.pass, id, s.name, s.start, s.end, parent, s.request, s.derived
            );
        }
    }
}
