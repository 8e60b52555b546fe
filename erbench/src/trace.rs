//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions. They stay in memory until the run ends and are
//! then written out as JSON lines, one span per line.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: count, total and self seconds, in first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let selfs = self.self_times_ns();
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let i = match rows.iter().position(|r| r.0 == s.name) {
                Some(i) => i,
                None => {
                    rows.push((s.name, 0, 0.0, 0.0));
                    rows.len() - 1
                }
            };
            rows[i].1 += 1;
            rows[i].2 += s.duration_ns() as f64 * 1e-9;
            rows[i].3 += own as f64 * 1e-9;
        }
        rows
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Run `f`, as a root span when tracing.
pub fn span<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, None, request, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            mk("root", 0, 100, None),
            mk("a", 10, 30, Some(0)),
            mk("b", 20, 50, Some(0)),
            mk("c", 90, 120, Some(0)),
            mk("leaf", 12, 14, Some(1)),
        ];
        // Children of root cover [10,50) and [90,100): 50 of 100 ns.
        assert_eq!(t.self_times_ns(), vec![50, 18, 30, 30, 2]);
        let summary = t.summary();
        assert_eq!(summary[0].0, "root");
        assert_eq!(summary[0].1, 1);
        assert!((summary[0].3 - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn time_records_nested_spans() {
        let mut t = Tracer::new();
        let root = t.begin("root", None, 7);
        let v = t.time("child", Some(root), 7, || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.durations_s("child").len(), 1);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
