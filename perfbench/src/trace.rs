//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public API (no instrumentation inside the program). They are
//! kept in memory while the run measures and only aggregated or written
//! out at the end. A span's *self time* is its duration minus the part of
//! its interval covered by its child spans.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `core.solve`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one scripted request.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans; nesting follows call order through an explicit stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new request: later spans share its identifier.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Record a child of span `parent` whose duration was measured by the
    /// program itself (e.g. a solver's phase timings). It is placed at
    /// `offset` into the parent; only its length matters for self time.
    pub fn child(&mut self, parent: usize, name: &'static str, offset: Duration, len: Duration) {
        let start = self.spans[parent].start + offset.as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start + len.as_nanos() as u64,
            parent: Some(parent),
            request: self.spans[parent].request,
        });
    }

    /// Record a span timed by the caller (e.g. from inside a solver
    /// wrapper the tracer cannot reach), nested under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            request: self.request,
        };
        self.spans.push(span);
    }

    /// Index of the most recently closed or opened span.
    pub fn last(&self) -> usize {
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e6)
            .collect()
    }

    /// The spans as JSON lines (written out after the run).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start, spans[p].end);
            let (cs, ce) = (s.start.max(ps), s.end.min(pe));
            if cs < ce {
                children[p].push((cs, ce));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("server.assign", 0, 100, None),
            span("index.pool", 10, 30, Some(0)),
            // Overlapping siblings count once: [40, 70) covered.
            span("core.solve", 40, 60, Some(0)),
            span("core.refresh", 50, 70, Some(0)),
            // A grandchild is not subtracted from the root.
            span("matching.lsap", 42, 58, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 20 - 30);
        assert_eq!(t[1], 20);
        assert_eq!(t[2], 20 - 16);
        assert_eq!(t[3], 20);
        assert_eq!(t[4], 16);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("a", 10, 20, None),
            span("b", 5, 15, Some(0)),
            span("c", 18, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10 - 5 - 2);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::new();
        t.next_request();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let outer = 0;
        t.child(outer, "phase", Duration::ZERO, Duration::from_nanos(1));
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 1));
        let selfs = self_times(spans);
        assert!(selfs[1] >= 2_000_000);
        assert!(selfs[0] < spans[0].dur());
        assert_eq!(t.durations_ms("inner").len(), 1);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
