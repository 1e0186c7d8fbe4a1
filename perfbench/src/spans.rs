//! The benchmark's own span buffer.
//!
//! Spans are recorded from the benchmark's files around each call into a
//! layer's public functions, never from inside the program, so the
//! measuring tool does not change along with the code it measures. A
//! disabled buffer records nothing and never reads the clock: untraced
//! ops run the same code with tracing compiled down to a branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the buffer.
pub type SpanId = usize;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `rt.drive`.
    pub name: &'static str,
    /// The enclosing span, `None` for an op's root.
    pub parent: Option<SpanId>,
    /// The unit of work (an op or a set-up repetition) it belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the buffer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the buffer was created.
    pub end_ns: u64,
}

/// A count or ratio measured where the work happens, tied to an op.
#[derive(Debug, Clone)]
pub struct Counter {
    /// Metric name, e.g. `rt.max_batch`.
    pub name: &'static str,
    /// The op it belongs to.
    pub op: u64,
    /// The measured value.
    pub value: f64,
}

/// In-memory span and counter buffer.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    op: u64,
    open: Vec<SpanId>,
    spans: Vec<Span>,
    counters: Vec<Counter>,
}

impl Spans {
    /// A recording buffer.
    pub fn new() -> Self {
        Spans {
            enabled: true,
            origin: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// A buffer that records nothing.
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::new()
        }
    }

    /// Whether spans are being recorded (selects the traced op variant).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new unit of work; later spans and counters belong to it.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records a counter for the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counters.push(Counter {
                name,
                op: self.op,
                value,
            });
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (duration minus its direct children's
    /// durations), summed per `(op, name)`, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<(u64, &'static str), u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry((span.op, span.name)).or_insert(0) +=
                (span.end_ns - span.start_ns).saturating_sub(children);
        }
        out
    }

    /// Per-op self times of the layer `name`, in milliseconds, one value
    /// per op that entered it.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.self_times()
            .into_iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Every value recorded for counter `name`.
    pub fn counter(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// The buffer as tab-separated text: one `span` row per span
    /// (`op id parent name start_ns end_ns`) and one `count` row per
    /// counter (`op name value`).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("kind\top\tid\tparent\tname\tstart_ns\tend_ns\tvalue\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span\t{}\t{id}\t{parent}\t{}\t{}\t{}\t-",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        for c in &self.counters {
            let _ = writeln!(out, "count\t{}\t-\t-\t{}\t-\t-\t{}", c.op, c.name, c.value);
        }
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.next_op();
        spans.enter("root");
        spans.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.exit();
        let root = spans.self_ms("root")[0];
        let child = spans.self_ms("child")[0];
        assert!(child >= 2.0, "child {child}");
        assert!(root < child, "root self {root} should exclude the child");
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut spans = Spans::disabled();
        spans.next_op();
        spans.time("x", || ());
        spans.count("c", 1.0);
        assert!(spans.spans().is_empty());
        assert!(spans.counter("c").is_empty());
    }
}
