//! In-memory spans recorded around calls into the engine's layers, plus
//! the percentile and self-time arithmetic the report is built from.
//!
//! A [`Tracer`] belongs to one client thread. Each request the client
//! issues opens a root span; every call into a layer's public function
//! opens a child span. Spans nest strictly (a client calls one layer at a
//! time), so a span's self time is its duration minus the summed
//! durations of its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Static span name, `layer.function` (for example `core.point`).
    pub name: &'static str,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch.
    pub end_ns: u64,
    /// Index of the parent span in [`Tracer::spans`], or [`NO_PARENT`].
    pub parent: u32,
    /// Request the span belongs to; every span of one request shares it.
    pub request: u64,
}

/// Aggregates of all spans with one name.
#[derive(Debug, Clone, Default)]
pub struct SpanAgg {
    /// Spans closed.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus direct children), ns.
    pub self_ns: u64,
    /// Every duration, ns, for percentiles.
    pub durations_ns: Vec<u64>,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    index: u32,
}

/// Span recorder of one client thread. When disabled every wrapper is a
/// plain call: no clock reads, no allocation.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    /// Raw spans of other threads' tracers folded in by [`Tracer::absorb`].
    absorbed: Vec<Vec<Span>>,
    /// Raw spans kept in memory; later spans still feed the aggregates.
    cap: usize,
    dropped: u64,
    next_request: u64,
    request: u64,
    aggs: BTreeMap<&'static str, SpanAgg>,
    /// Self time per (root span name, span name): where each request
    /// class spent its time.
    by_root: BTreeMap<(&'static str, &'static str), u64>,
}

impl Tracer {
    /// A tracer keeping at most `cap` raw spans. `enabled = false` makes
    /// every wrapper a plain call.
    pub fn new(enabled: bool, epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            enabled,
            epoch,
            stack: Vec::new(),
            spans: Vec::new(),
            absorbed: Vec::new(),
            cap,
            dropped: 0,
            next_request: 0,
            request: 0,
            aggs: BTreeMap::new(),
            by_root: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start or stop recording; call between requests.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "switch between requests");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = self.now_ns();
        self.enter(name, t);
        let out = f();
        let t = self.now_ns();
        self.exit(t);
        out
    }

    /// Run `f` as a new request: a root span named `name` with a fresh
    /// request id. `f` gets the tracer back to open child spans.
    pub fn request<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        debug_assert!(self.stack.is_empty(), "requests do not nest");
        self.next_request += 1;
        self.request = self.next_request;
        let t = self.now_ns();
        self.enter(name, t);
        let out = f(self);
        let t = self.now_ns();
        self.exit(t);
        out
    }

    /// Open a span at `now_ns`.
    pub fn enter(&mut self, name: &'static str, now_ns: u64) {
        let index = if self.spans.len() < self.cap {
            let parent = self.stack.last().map_or(NO_PARENT, |o| o.index);
            self.spans.push(Span {
                name,
                start_ns: now_ns,
                end_ns: now_ns,
                parent,
                request: self.request,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.stack.push(Open {
            name,
            start_ns: now_ns,
            child_ns: 0,
            index,
        });
    }

    /// Close the innermost open span at `now_ns`.
    pub fn exit(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = now_ns.saturating_sub(open.start_ns);
        let self_ns = dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.index != NO_PARENT {
            self.spans[open.index as usize].end_ns = now_ns;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += self_ns;
        agg.durations_ns.push(dur);
        let root = self.stack.first().map_or(open.name, |o| o.name);
        *self.by_root.entry((root, open.name)).or_default() += self_ns;
    }

    /// Raw spans kept so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that closed after the raw-span cap was reached (they still
    /// count in the aggregates).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Aggregates of the spans named `name`.
    pub fn agg(&self, name: &str) -> Option<&SpanAgg> {
        self.aggs.get(name)
    }

    /// Summed self time, ns, of spans named `name` inside requests whose
    /// root span is `root`.
    pub fn self_ns_under(&self, root: &'static str, name: &'static str) -> u64 {
        self.by_root.get(&(root, name)).copied().unwrap_or(0)
    }

    /// Summed self time of every span whose name starts with `prefix`.
    pub fn self_ns_with_prefix(&self, prefix: &str) -> u64 {
        self.aggs
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, a)| a.self_ns)
            .sum()
    }

    /// Fold another thread's tracer into this one. Its raw spans stay a
    /// separate list (parent indexes and request ids are per thread), so
    /// the written trace carries a thread column.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, a) in other.aggs {
            let mine = self.aggs.entry(name).or_default();
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.self_ns += a.self_ns;
            mine.durations_ns.extend(a.durations_ns);
        }
        for (k, v) in other.by_root {
            *self.by_root.entry(k).or_default() += v;
        }
        self.dropped += other.dropped;
        self.absorbed.push(other.spans);
    }

    /// Write every kept span as tab-separated
    /// `thread name start_ns end_ns parent request` lines.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "thread\tname\tstart_ns\tend_ns\tparent\trequest")?;
        let threads = std::iter::once(&self.spans).chain(self.absorbed.iter());
        for (thread, spans) in threads.enumerate() {
            for s in spans {
                let parent = if s.parent == NO_PARENT {
                    "-".to_string()
                } else {
                    s.parent.to_string()
                };
                writeln!(
                    out,
                    "{thread}\t{}\t{}\t{}\t{parent}\t{}",
                    s.name, s.start_ns, s.end_ns, s.request
                )?;
            }
        }
        Ok(())
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it. `None` for an
/// empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Self time of every span in `spans` (duration minus the durations of
/// its direct children), by index. The reference the online arithmetic
/// in [`Tracer::exit`] is tested against.
#[cfg(test)]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        // Ten samples: the median is the fifth, p99 the largest.
        let v: Vec<u64> = (10..20).collect();
        assert_eq!(percentile(&v, 50.0), Some(14));
        assert_eq!(percentile(&v, 99.0), Some(19));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // p99 of 1000 samples leaves exactly ten samples above it.
        let v: Vec<u64> = (0..1000).collect();
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true, Instant::now(), 16);
        // req [0, 100): core.point [10, 70) containing nothing,
        // txn.commit [70, 90) containing persist.fsync [75, 85).
        t.enter("req.lookup", 0);
        t.enter("core.point", 10);
        t.exit(70);
        t.enter("txn.commit", 70);
        t.enter("persist.fsync", 75);
        t.exit(85);
        t.exit(90);
        t.exit(100);
        assert_eq!(t.agg("req.lookup").unwrap().self_ns, 20);
        assert_eq!(t.agg("core.point").unwrap().self_ns, 60);
        assert_eq!(t.agg("txn.commit").unwrap().self_ns, 10);
        assert_eq!(t.agg("persist.fsync").unwrap().self_ns, 10);
        assert_eq!(t.agg("txn.commit").unwrap().total_ns, 20);
        // Self times partition the request's duration.
        let total: u64 = ["req.lookup", "core.point", "txn.commit", "persist.fsync"]
            .iter()
            .map(|n| t.agg(n).unwrap().self_ns)
            .sum();
        assert_eq!(total, 100);
        assert_eq!(t.self_ns_under("req.lookup", "core.point"), 60);
        assert_eq!(t.self_ns_with_prefix("txn."), 10);
        // The post-hoc reference over the kept raw spans agrees.
        let st = self_times(t.spans());
        let names: Vec<_> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["req.lookup", "core.point", "txn.commit", "persist.fsync"]
        );
        assert_eq!(st, vec![20, 60, 10, 10]);
        assert_eq!(t.spans()[3].parent, 2);
        assert_eq!(t.spans()[1].parent, 0);
    }

    #[test]
    fn cap_keeps_aggregates_exact() {
        let mut t = Tracer::new(true, Instant::now(), 2);
        for i in 0..5u64 {
            t.enter("req.x", i * 10);
            t.enter("core.insert", i * 10 + 2);
            t.exit(i * 10 + 5);
            t.exit(i * 10 + 8);
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 8);
        let a = t.agg("core.insert").unwrap();
        assert_eq!((a.count, a.total_ns, a.self_ns), (5, 15, 15));
        assert_eq!(t.agg("req.x").unwrap().self_ns, 25);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.request("req.x", |t| t.span("core.point", || 41) + 1);
        assert_eq!(v, 42);
        assert!(t.agg("core.point").is_none());
        assert!(t.spans().is_empty());
    }
}
