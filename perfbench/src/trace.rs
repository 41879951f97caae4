//! Spans recorded by the benchmark itself, around its calls into each layer.
//!
//! A traced round keeps `{id, parent, op, name, start_ns, end_ns}` in memory
//! at every boundary the benchmark crosses (`bench.op` → `apps.*` /
//! `core.hostapi.*` on the host side, `runtime.env.*` inside bench-owned
//! guests) and writes them out when the run ends.  End-to-end numbers never
//! come from a traced round.  Spans inside the product are a later change.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use browsix_http::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The operation (request) this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any thread.  A disabled tracer hands out id 0 and
/// records nothing, so untraced rounds pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id to pass on as the
    /// parent of the spans it causes.
    pub fn span<R>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("no span holder panics").push(span);
        result
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span holder panics"))
    }
}

/// Total self time (span duration minus the part of it its children cover)
/// per span name, in ns.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in spans {
        let mut covered = 0u64;
        if let Some(intervals) = children.get_mut(&span.id) {
            // Union of the child intervals, clipped to the parent: children
            // of one span may overlap when they ran on different threads.
            intervals.sort_unstable();
            let mut cursor = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        *totals.entry(span.name).or_default() += (span.end_ns - span.start_ns).saturating_sub(covered);
    }
    totals
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Array(
        spans
            .iter()
            .map(|s| {
                Json::object()
                    .with("id", s.id as f64)
                    .with("parent", s.parent as f64)
                    .with("op", s.op as f64)
                    .with("name", s.name)
                    .with("start_ns", s.start_ns as f64)
                    .with("end_ns", s.end_ns as f64)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = [
            span(1, 0, "bench.op", 0, 100),
            span(2, 1, "apps.x", 10, 60),
            // Overlaps its sibling by 10 and overruns the parent by 20.
            span(3, 1, "apps.x", 50, 120),
            span(4, 2, "core.hostapi.y", 20, 30),
        ];
        let totals = self_times(&spans);
        // Children cover 10..100 of the parent.
        assert_eq!(totals["bench.op"], 10);
        // 50 - 10 covered, plus 70 with no children.
        assert_eq!(totals["apps.x"], 40 + 70);
        assert_eq!(totals["core.hostapi.y"], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nests_ids_when_enabled() {
        let off = Tracer::new(false);
        assert_eq!(off.span("a", 0, 0, |id| id), 0);
        assert!(off.take().is_empty());

        let on = Tracer::new(true);
        on.span("outer", 0, 7, |outer| on.span("inner", outer, 7, |_| ()));
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!((inner.op, outer.op), (7, 7));
    }
}
