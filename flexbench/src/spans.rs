//! In-memory spans for the traced run.
//!
//! Every span has a name, a start, an end and the span that caused it;
//! the spans of one HTTP request also share a request id. Spans are kept
//! in memory (one [`Recorder`] per thread, merged at the end) and written
//! out as JSON lines when the run ends.
//!
//! Where per-call spans would number in the millions (`decide` runs once
//! per simulated round), the benchmark records one *aggregate* span per
//! enclosing call instead: it carries the call count and summed busy time
//! of its calls, and that busy time is its self time.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    /// Request id shared by the spans of one HTTP request (0 = none).
    pub req: u64,
    pub start: u64,
    pub end: u64,
    /// `Some((calls, busy_ns))` for an aggregate span.
    pub aggregate: Option<(u64, u64)>,
}

/// A per-thread span recorder. Ids are process-unique, so recorders of
/// different threads can be merged and still reference each other.
#[derive(Clone)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread sharing this one's epoch.
    pub fn fork(&self) -> Self {
        Recorder::new(self.epoch)
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &str, parent: u64, req: u64) -> u64 {
        let start = self.now();
        self.record(name, parent, req, start, start)
    }

    pub fn end(&mut self, id: u64) {
        let now = self.now();
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end = now;
        }
    }

    /// Records a finished span with explicit times.
    pub fn record(&mut self, name: &str, parent: u64, req: u64, start: u64, end: u64) -> u64 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            req,
            start,
            end,
            aggregate: None,
        });
        id
    }

    /// Records an aggregate span of `calls` calls busy for `busy_ns`
    /// between `start` and `end`.
    pub fn aggregate(
        &mut self,
        name: &str,
        parent: u64,
        start: u64,
        end: u64,
        calls: u64,
        busy_ns: u64,
    ) {
        self.record(name, parent, 0, start, end);
        self.spans.last_mut().expect("just pushed").aggregate = Some((calls, busy_ns));
    }

    pub fn merge(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (aggregate children cover their busy time).
/// Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<&Span>> = Default::default();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            if let Some((_, busy)) = s.aggregate {
                return busy;
            }
            let dur = s.end.saturating_sub(s.start);
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            let mut covered = 0u64;
            for k in kids {
                match k.aggregate {
                    Some((_, busy)) => covered += busy,
                    None => intervals.push((k.start.max(s.start), k.end.min(s.end))),
                }
            }
            intervals.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in intervals {
                if b <= a {
                    continue;
                }
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
            dur.saturating_sub(covered)
        })
        .collect()
}

/// The benchmark's own bookkeeping (`bench.*`: grouping and checking).
/// Its self time is time no layer accounts for.
fn is_bookkeeping(name: &str) -> bool {
    name.starts_with("bench.")
}

/// A stretch run without spans on purpose (`untraced.*`, a baseline for
/// the tracing overhead; it has no children). It is not traced wall time.
fn is_untraced(name: &str) -> bool {
    name.starts_with("untraced.")
}

/// How much of the traced wall time the layer spans account for: the
/// self times of every span but `root`, the bookkeeping spans and the
/// untraced stretches, summed, over `root`'s duration less the untraced
/// stretches. A gap that no layer span covers is self time of `root` or
/// of a bookkeeping span and lowers the share below 1; spans of
/// concurrent threads that overlap raise it above 1.
pub fn layer_coverage(spans: &[Span], root: u64) -> f64 {
    let dur = |s: &Span| s.end.saturating_sub(s.start);
    let mut covered = 0u64;
    let mut wall = 0u64;
    let mut untraced = 0u64;
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if s.id == root {
            wall = dur(s);
        } else if is_untraced(&s.name) {
            untraced += dur(s);
        } else if !is_bookkeeping(&s.name) {
            covered += self_ns;
        }
    }
    covered as f64 / wall.saturating_sub(untraced).max(1) as f64
}

/// Summed duration (aggregate spans: busy time) and count of the spans
/// named `name`.
pub fn busy(spans: &[Span], name: &str) -> (u64, f64) {
    let mut calls = 0;
    let mut ns = 0u64;
    for s in spans.iter().filter(|s| s.name == name) {
        match s.aggregate {
            Some((c, b)) => {
                calls += c;
                ns += b;
            }
            None => {
                calls += 1;
                ns += s.end.saturating_sub(s.start);
            }
        }
    }
    (calls, ns as f64 / 1e9)
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}",
            s.id, s.parent, s.name, s.req, s.start, s.end
        )?;
        if let Some((calls, busy)) = s.aggregate {
            write!(out, ",\"calls\":{calls},\"busy_ns\":{busy}")?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            req: 0,
            start,
            end,
            aggregate: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50), // overlaps span 2
            span(4, 1, 60, 70),
        ];
        spans.push(Span {
            aggregate: Some((5, 20)),
            ..span(5, 4, 60, 70)
        });
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 40 - 10, 30, 20, 0, 20]);
    }

    fn named(id: u64, parent: u64, name: &str, start: u64, end: u64) -> Span {
        Span {
            name: name.to_string(),
            ..span(id, parent, start, end)
        }
    }

    #[test]
    fn coverage_counts_layer_spans_only() {
        // layers end to end under the root: fully covered
        let full = [
            named(1, 0, "bench.run", 0, 100),
            named(2, 1, "graph.apsp", 0, 60),
            named(3, 1, "core.opt", 60, 100),
        ];
        assert!((layer_coverage(&full, 1) - 1.0).abs() < 1e-9);
        // a 40 ns gap between the layers is root self time: 0.6 fails the
        // 10% check however the spans nest
        let gap = [
            named(1, 0, "bench.run", 0, 100),
            named(2, 1, "graph.apsp", 0, 30),
            named(3, 1, "core.opt", 70, 100),
        ];
        assert!((layer_coverage(&gap, 1) - 0.6).abs() < 1e-9);
        // a bookkeeping span covers nothing by itself: only its layer
        // child counts
        let grouped = [
            named(1, 0, "bench.run", 0, 100),
            named(2, 1, "graph.apsp", 0, 50),
            named(3, 1, "bench.cells", 50, 100),
            named(4, 3, "core.opt", 50, 60),
        ];
        assert!((layer_coverage(&grouped, 1) - 0.6).abs() < 1e-9);
        // an untraced stretch leaves the traced wall time
        let baseline = [
            named(1, 0, "bench.run", 0, 100),
            named(2, 1, "untraced.light", 0, 50),
            named(3, 1, "loadgen.phase", 50, 100),
        ];
        assert!((layer_coverage(&baseline, 1) - 1.0).abs() < 1e-9);
    }
}
