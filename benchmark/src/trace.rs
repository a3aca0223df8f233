//! In-memory spans recorded by the harness around its calls into each
//! layer. Spans stay in a `Vec` for the whole run and are written once,
//! at exit, as JSON lines. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Index of a span inside its [`Trace`]; doubles as the parent link.
pub type SpanId = u32;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer metric name, e.g. `broker.engine.choose_us`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (`None` for a request's root).
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request_id: u32,
}

/// The run's span log. Timestamps are nanoseconds since `origin`.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the trace origin of an `Instant` taken elsewhere
    /// (a sender thread's clock reading).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request_id: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        })
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a span whose endpoints were measured elsewhere.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the union of its direct
    /// children's intervals (clipped to the span, so overlapping or
    /// adjacent children are never subtracted twice).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start_ns;
                for (start, end) in kids {
                    let start = start.clamp(cursor, span.end_ns);
                    let end = end.clamp(start, span.end_ns);
                    covered += end - start;
                    cursor = end;
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Self times in nanoseconds grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            by_name.entry(span.name).or_default().push(self_ns as f64);
        }
        by_name
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request_id
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let mut t = Trace::new();
        let root = t.push(span("root", 0, 100, None));
        // Two adjacent children and a gap: 10..30, 30..50, then 70..90.
        let a = t.push(span("a", 10, 30, Some(root)));
        t.push(span("b", 30, 50, Some(root)));
        let c = t.push(span("c", 70, 90, Some(root)));
        // A grandchild counts against its parent only.
        t.push(span("a.inner", 12, 20, Some(a)));
        t.push(span("c.inner", 70, 90, Some(c)));
        let selfs = t.self_times_ns();
        assert_eq!(selfs[root as usize], 100 - 20 - 20 - 20);
        assert_eq!(selfs[a as usize], 20 - 8);
        assert_eq!(
            selfs[c as usize], 0,
            "a child covering its whole parent leaves no self time"
        );
        let total: u64 = selfs.iter().sum();
        assert_eq!(total, 100, "self times partition the root interval");
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let mut t = Trace::new();
        let root = t.push(span("root", 0, 100, None));
        t.push(span("x", 10, 60, Some(root)));
        t.push(span("y", 40, 80, Some(root)));
        // A child that overruns its parent is clipped to it.
        t.push(span("z", 90, 140, Some(root)));
        assert_eq!(t.self_times_ns()[root as usize], 100 - 70 - 10);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Trace::new();
        let root = t.begin("root", None, 7);
        let child = t.begin("child", Some(root), 7);
        t.end(child);
        t.end(root);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\":0,\"request_id\":7"));
    }
}
