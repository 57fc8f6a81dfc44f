//! In-memory spans around the calls into each layer.
//!
//! The benchmark records spans from its own code — around
//! `Sampler::sample_into`, `local_energies_into`, the `log_psi` closure
//! it passes in, and so on — and nothing inside the crates it measures.
//! Spans live in a pre-sized vector and are written out once, when the
//! run ends; recording one is two `Instant::now` calls and a push.

use std::time::Instant;

use crate::json::Json;

/// Index of a span in its [`Tracer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Iteration or request number: spans of one unit of work share it.
    pub trace_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it reads as zero-length until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, trace_id: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, trace_id)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Records a span whose ends were timed elsewhere (request spans
    /// are closed when the reply is decoded, long after they opened).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        trace_id: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id,
        });
        SpanId(self.spans.len() - 1)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of it its direct
    /// children cover.  Children are clipped to the parent and their
    /// overlaps counted once, so concurrent children cannot drive the
    /// result below zero.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id.0];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        parent.duration_ns() - covered
    }

    /// Per-`trace_id` totals of every span called `name`, in
    /// milliseconds, ordered by `trace_id`; `self_time` subtracts
    /// children.
    pub fn per_trace_ms(&self, name: &str, self_time: bool) -> Vec<f64> {
        let mut totals = std::collections::BTreeMap::<u64, u64>::new();
        for (k, s) in self.spans.iter().enumerate() {
            if s.name == name {
                let ns = if self_time {
                    self.self_ns(SpanId(k))
                } else {
                    s.duration_ns()
                };
                *totals.entry(s.trace_id).or_default() += ns;
            }
        }
        totals.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// The spans as a JSON array, capped at `limit` (a high-rate serving
    /// run records hundreds of thousands; the file keeps the first).
    pub fn to_json(&self, limit: usize) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .take(limit)
                .map(|s| {
                    Json::obj()
                        .set("name", s.name)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set("parent", s.parent.map_or(Json::Null, |p| Json::from(p.0)))
                        .set("trace_id", s.trace_id)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::with_capacity(8);
        let root = t.record("step", 100, 1_100, None, 7);
        let le = t.record("local_energy", 200, 900, Some(root), 7);
        t.record("log_psi", 250, 450, Some(le), 7);
        t.record("log_psi", 500, 800, Some(le), 7);
        assert_eq!(t.self_ns(le), 700 - 200 - 300);
        assert_eq!(t.self_ns(root), 1_000 - 700);
        // Grandchildren do not count against the root twice.
        assert_eq!(t.per_trace_ms("log_psi", false), vec![500.0 / 1e6]);
        assert_eq!(t.per_trace_ms("local_energy", true), vec![200.0 / 1e6]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let mut t = Tracer::with_capacity(8);
        let p = t.record("parent", 0, 100, None, 0);
        t.record("a", 10, 60, Some(p), 0);
        t.record("b", 40, 80, Some(p), 0); // overlaps a by 20
        t.record("c", 90, 150, Some(p), 0); // overhangs the parent by 50
        t.record("d", 200, 300, Some(p), 0); // entirely outside
        assert_eq!(t.self_ns(p), 100 - 70 - 10);
    }

    #[test]
    fn begin_end_nest_and_group_by_trace_id() {
        let mut t = Tracer::with_capacity(8);
        for iter in 0..3u64 {
            let outer = t.begin("outer", None, iter);
            let inner = t.begin("inner", Some(outer), iter);
            t.end(inner);
            t.end(outer);
        }
        assert_eq!(t.spans().len(), 6);
        assert_eq!(t.per_trace_ms("outer", false).len(), 3);
        for k in [0, 2, 4] {
            let (outer, inner) = (&t.spans()[k], &t.spans()[k + 1]);
            assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
            assert_eq!(inner.parent, Some(SpanId(k)));
        }
    }
}
