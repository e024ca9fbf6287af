//! Spans kept in memory around the benchmark's own calls into each
//! layer's public functions. A layer's self time is its span minus the
//! part of that interval its child spans cover.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end;
        }
    }

    /// Runs `f` inside a leaf span and returns its result.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Total self time of every span with this name, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let tuples: Vec<_> = self
            .spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.parent))
            .collect();
        let selfs = self_times(&tuples);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .sum()
    }

    /// Wall durations of every span with this name, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Spans as JSON objects tagged with the slice that produced them, for
    /// a list in which this tracer's spans start at index `offset`; times
    /// are nanoseconds since the slice process's epoch.
    pub fn to_json(&self, slice: u64, offset: usize) -> Vec<Value> {
        self.spans
            .iter()
            .map(|s| {
                let mut v = Value::obj();
                v.set("name", s.name)
                    .set("slice", slice)
                    .set("request", s.request)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set(
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(p + offset)),
                    );
                v
            })
            .collect()
    }
}

/// Self time of every `(start, end, parent)` span: its duration minus
/// the union of its children's intervals clipped to it, so overlapping
/// children are not subtracted twice.
pub fn self_times(spans: &[(u64, u64, Option<usize>)]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, &(_, _, parent)) in spans.iter().enumerate() {
        if let Some(p) = parent.filter(|&p| p < spans.len() && p != i) {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(&(start, end, _), kids)| {
            let end = end.max(start);
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].0.clamp(start, end), spans[k].1.clamp(start, end)))
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = start;
            for (a, b) in intervals {
                let from = a.max(reach);
                if b > from {
                    covered += b - from;
                    reach = b;
                }
            }
            end - start - covered
        })
        .collect()
}

/// Cost of recording one span, in nanoseconds, measured on this host:
/// the tracing overhead a traced client pays per span it keeps.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut tracer = Tracer::new(Instant::now());
    tracer.spans.reserve(N);
    let start = Instant::now();
    for i in 0..N {
        let id = tracer.open("overhead", None, i as u64);
        tracer.close(id);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_unions_overlapping_children() {
        let spans = vec![
            (0, 100, None),     // the request
            (10, 40, Some(0)),  // a
            (30, 60, Some(0)),  // b overlaps a by 10
            (90, 130, Some(0)), // c runs past the parent's end
            (35, 38, Some(1)),  // grandchild: counts against a only
        ];
        let selfs = self_times(&spans);
        // Children cover 10..60 and 90..100: 60 of the parent's 100.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 27);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[4], 3);
    }
}
