//! Host-time spans recorded by the benchmark around its calls into the
//! library crates.
//!
//! Spans are kept in memory and written out once, at the end of a traced
//! run, as Chrome `trace_event` JSON (viewable in Perfetto or
//! `chrome://tracing`). A layer's self time is the duration of its spans
//! minus the part of each span that its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies one span; children name their parent by it.
pub type SpanId = u32;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// The crate called (`core`, `machine`, `campaign`, ...).
    pub layer: &'static str,
    pub name: &'static str,
    /// The benchmark run (input) the span belongs to.
    pub run: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Small per-thread index, for the exported timeline.
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span sink shared by all worker threads of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_ns` and ends now, and returns
    /// its id.
    pub fn record(
        &self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        run: u64,
        start_ns: u64,
    ) -> SpanId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, layer, name, run, start_ns);
        id
    }

    /// Times `f` as one span. `f` receives the span's id so that calls it
    /// makes can record child spans.
    pub fn span<T>(
        &self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        run: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        self.push(id, parent, layer, name, run, start_ns);
        out
    }

    fn push(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        run: u64,
        start_ns: u64,
    ) {
        let span = Span {
            id,
            parent,
            layer,
            name,
            run,
            start_ns,
            end_ns: self.now_ns(),
            thread: THREAD.with(|t| *t),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// All spans recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span sink poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Length of the union of the intervals in `iv` (which it sorts).
fn covered_ns(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of each span: its duration minus the union of its children's
/// intervals, clipped to the span (children may run on other threads and
/// overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<(SpanId, u64)> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children.entry(p.id).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| covered_ns(iv.as_mut_slice()));
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let layer: BTreeMap<SpanId, &'static str> = spans.iter().map(|s| (s.id, s.layer)).collect();
    let mut out = BTreeMap::new();
    for (id, ns) in self_times(spans) {
        *out.entry(layer[&id]).or_insert(0) += ns;
    }
    out
}

/// Renders spans as Chrome `trace_event` JSON (complete events, µs).
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"run\":{}}}}}{}\n",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.thread,
            s.id,
            parent,
            s.run,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, layer: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x",
            run: 0,
            start_ns: s,
            end_ns: e,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with two overlapping children on other threads
        // (10..40 and 30..60) and one disjoint child 80..90: the children
        // cover 50 + 10 ns, so the root keeps 40 ns of self time.
        let spans = vec![
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "core", 10, 40),
            span(2, Some(0), "core", 30, 60),
            span(3, Some(0), "machine", 80, 90),
            // A grandchild covers part of child 1 only.
            span(4, Some(1), "machine", 15, 25),
        ];
        let st: BTreeMap<SpanId, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(st[&0], 40);
        assert_eq!(st[&1], 20);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 10);
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer["bench"], 40);
        assert_eq!(by_layer["core"], 50);
        assert_eq!(by_layer["machine"], 20);
        // Self times add up to the root's wall time when children nest.
        assert_eq!(by_layer.values().sum::<u64>(), 110);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(0, None, "bench", 10, 20),
            span(1, Some(0), "core", 5, 15),
        ];
        let st: BTreeMap<SpanId, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(st[&0], 5);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let tr = Tracer::default();
        let v = tr.span(None, "bench", "outer", 7, |id| {
            tr.span(Some(id), "core", "inner", 7, |_| 42)
        });
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let json = to_chrome_json(&spans);
        assert!(json.contains("\"cat\":\"core\""), "{json}");
    }
}
