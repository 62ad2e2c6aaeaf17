//! The traced run's span recorder. The benchmark wraps each call it makes
//! into a layer entry point in a span (name, start, end, parent, query
//! id), keeps every span in memory, and writes them out once the run is
//! over. A span's self time is its duration minus the time its children
//! cover; summing self times by name gives the per-layer table.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Server query id the span works for (0 = none).
    pub query: u64,
}

/// Records nested spans from one thread. When disabled every call is a
/// no-op, so the untraced run pays one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off between spans (the traced run alternates
    /// traced and untraced cycles to measure the tracer's own cost).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, query: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        query: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let s = self.begin(name, query);
        let out = f(self);
        self.end(s);
        out
    }

    /// Sets the query id of an open span once it becomes known (a
    /// `SUBMIT` span learns its id from the reply).
    pub fn set_query(&mut self, span: SpanId, query: u64) {
        if let Some(id) = span.0 {
            self.spans[id].query = query;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of the spans that have no parent and start
    /// at or after `from_ns`.
    pub fn root_ns_since(&self, from_ns: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start_ns >= from_ns)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Nanoseconds since the tracer's epoch (for bracketing a phase).
    pub fn mark(&self) -> u64 {
        self.now_ns()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}",
                s.name, s.start_ns, s.end_ns, s.query
            )?;
        }
        Ok(())
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub calls: u64,
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover (children never overlap: one thread records
/// them, innermost first).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let row = table.entry(s.name).or_default();
        row.calls += 1;
        row.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("query", 0, 100, None),
            span("plan", 10, 20, Some(0)),
            span("exec", 20, 80, Some(0)),
            span("scan", 30, 70, Some(2)),
            span("plan", 100, 105, None),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["query"],
            SelfTime {
                calls: 1,
                self_ns: 30
            }
        );
        assert_eq!(
            t["plan"],
            SelfTime {
                calls: 2,
                self_ns: 15
            }
        );
        assert_eq!(
            t["exec"],
            SelfTime {
                calls: 1,
                self_ns: 20
            }
        );
        assert_eq!(
            t["scan"],
            SelfTime {
                calls: 1,
                self_ns: 40
            }
        );
        // Self times telescope to the roots' durations.
        let total: u64 = t.values().map(|r| r.self_ns).sum();
        assert_eq!(total, 105);
    }

    #[test]
    fn tracer_nests_and_disables() {
        let mut tr = Tracer::new(true);
        tr.span("outer", 1, |tr| {
            tr.span("inner", 1, |_| ());
        });
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        assert_eq!(
            tr.root_ns_since(0),
            tr.spans()[0].end_ns - tr.spans()[0].start_ns
        );

        tr.set_enabled(false);
        tr.span("ignored", 0, |_| ());
        assert_eq!(tr.spans().len(), 2);

        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\""));
        assert!(text.contains("\"parent\":0"));
    }
}
