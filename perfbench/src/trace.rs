//! The benchmark's own tracing: spans around its calls into each layer's
//! public functions, and snapshots of the counters the program exports.
//! Spans stay in memory and are written out once, after the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, `layer.call` (`net.count`, `core.estimate`, …).
    pub name: &'static str,
    /// The op (job, delta or probe call) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Which benchmark thread recorded it.
    pub thread: u32,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A span recorder for one thread. A disabled tracer records nothing, so
/// the timed runs carry no tracing cost.
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder timing from `epoch`; `enabled = false` records nothing.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            thread: 0,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// An empty recorder for another thread, sharing this one's epoch and
    /// switch; fold it back with [`absorb`](Tracer::absorb).
    pub fn for_thread(&self, thread: u32) -> Tracer {
        Tracer {
            thread,
            ..Tracer::new(self.epoch, self.enabled)
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`exit`](Tracer::exit).
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(index) = self.stack.pop() {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// Appends another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|span| Span {
            parent: span.parent.map(|p| p + offset),
            ..span
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span name: how many, total time, and self time (total minus the
/// time covered by direct children).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times, in nanoseconds.
    pub self_ns: u64,
}

/// Aggregates spans by name into [`LayerTime`]s.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let duration = span.end_ns - span.start_ns;
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(children);
    }
    out
}

/// A parsed `name value` exposition, as `Server::exposition` renders it.
#[derive(Clone, Debug, Default)]
pub struct Exposition(pub BTreeMap<String, u64>);

impl Exposition {
    /// Parses the exposition text; malformed lines are skipped.
    pub fn parse(text: &str) -> Self {
        Exposition(
            text.lines()
                .filter_map(|line| {
                    let (name, value) = line.split_once(' ')?;
                    Some((name.to_string(), value.trim().parse().ok()?))
                })
                .collect(),
        )
    }

    /// A metric's value, `0` when absent.
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// How much a counter grew since `before`.
    pub fn since(&self, before: &Exposition, name: &str) -> u64 {
        self.get(name).saturating_sub(before.get(name))
    }
}

/// Renders the trace file: one JSON object per line: every span, every
/// exposition snapshot, and the self-time table.
pub fn render_jsonl(
    spans: &[Span],
    snapshots: &[(String, Exposition)],
    times: &BTreeMap<&'static str, LayerTime>,
) -> String {
    let mut out = String::new();
    for (i, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
             \"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            span.name, span.op, span.thread, span.start_ns, span.end_ns
        );
    }
    for (label, snapshot) in snapshots {
        let metrics: Vec<String> = snapshot
            .0
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"type\":\"exposition\",\"at\":\"{label}\",\"metrics\":{{{}}}}}",
            metrics.join(",")
        );
    }
    for (name, time) in times {
        let _ = writeln!(
            out,
            "{{\"type\":\"self_time\",\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            time.count, time.total_ns, time.self_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            op: 1,
            parent,
            thread: 0,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("op", None, 0, 100),
            span("net", Some(0), 10, 70),
            span("inner", Some(1), 20, 30),
            span("net", Some(0), 80, 90),
        ];
        let times = self_times(&spans);
        assert_eq!(times["op"].self_ns, 30);
        assert_eq!(times["net"].count, 2);
        assert_eq!(times["net"].total_ns, 70);
        assert_eq!(times["net"].self_ns, 60);
        assert_eq!(times["inner"].self_ns, 10);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch, true);
        main.enter("outer", 1);
        main.span("leaf", 1, || ());
        main.exit();
        let mut other = main.for_thread(1);
        other.enter("a", 2);
        other.span("b", 2, || ());
        other.exit();
        main.absorb(other);
        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].thread, 1);
        let mut off = Tracer::new(epoch, false);
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());
    }

    #[test]
    fn exposition_deltas() {
        let before = Exposition::parse("a 3\nb 10");
        let after = Exposition::parse("a 5\nb 10\nc 7\nbroken");
        assert_eq!(after.since(&before, "a"), 2);
        assert_eq!(after.since(&before, "c"), 7);
        assert_eq!(after.get("missing"), 0);
    }
}
