//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the solver crates is instrumented.
//! Every span keeps its name, start, end and parent; the whole list is
//! written once, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, parented to the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded so far; pass it to [`Tracer::self_ms_since`]
    /// to look at the spans of one iteration.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name (ms) over the spans recorded since `mark`:
    /// each span's duration minus the part its direct children cover.
    pub fn self_ms_since(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[mark..];
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent.and_then(|p| p.checked_sub(mark)) {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let self_ns = span.duration_ns().saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 / 1.0e6;
        }
        out
    }

    /// Wall time (ms) of the span at `index`.
    pub fn duration_ms(&self, index: usize) -> f64 {
        self.spans[index].duration_ns() as f64 / 1.0e6
    }

    /// All spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tracer = Tracer::new(Instant::now());
        let mark = tracer.mark();
        tracer.span("root", |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(4))
                });
            });
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let self_ms = tracer.self_ms_since(mark);
        let total: f64 = self_ms.values().sum();
        assert!((total - tracer.duration_ms(mark)).abs() < 1e-6);
        assert!(self_ms["b"] >= 4.0);
        assert!(self_ms["a"] >= 2.0 && self_ms["a"] < self_ms["b"] + 2.0);
        assert_eq!(tracer.to_json_lines().lines().count(), 4);
    }
}
