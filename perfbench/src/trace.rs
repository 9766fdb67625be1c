//! Benchmark-side spans and the per-layer ledger built from them.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public API — the program itself is not instrumented. A span has
//! a name, nanosecond start and end on one shared epoch, its parent (0 for
//! a root) and the id of the query it belongs to. Spans stay in memory and
//! are written out once the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `coordinator.get`.
    pub name: &'static str,
    /// Query (or replay) this span belongs to.
    pub trace: u64,
    /// 1-based id; 0 is never used.
    pub id: u32,
    /// Parent span id, 0 for a root.
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            trace,
            id,
            parent,
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span ending "now" when [`Tracer::close`] is called.
    pub fn open(&mut self, name: &'static str, trace: u64, parent: u32) -> u32 {
        let now = self.now();
        self.record(name, trace, parent, now, now)
    }

    /// Stamp the end of span `id`.
    pub fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, trace, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Span `id`.
    pub fn span(&self, id: u32) -> Span {
        self.spans[id as usize - 1]
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sorted durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Write every span as tab-separated text.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\ttrace\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Per-name totals: calls, wall time, and self time (wall minus the part
/// of the span its children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Self time of every span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            // Union of the children's intervals, clipped to the parent.
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
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
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns() - covered.min(s.dur_ns());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace: 1,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("query", 1, 0, 0, 100),
            // Overlapping children cover [10, 50) and [60, 100): 80 ns.
            span("get", 2, 1, 10, 40),
            span("put", 3, 1, 30, 50),
            span("put", 4, 1, 60, 120),
            span("wire", 5, 2, 15, 25),
        ];
        let t = self_times(&spans);
        assert_eq!(t["query"].self_ns, 20);
        assert_eq!(t["get"].self_ns, 20);
        assert_eq!(
            t["put"],
            LayerTime {
                count: 2,
                total_ns: 80,
                self_ns: 80
            }
        );
        assert_eq!(t["wire"].total_ns, 10);
    }
}
