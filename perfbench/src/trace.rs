//! In-memory spans recorded around the calls the benchmark makes into each
//! layer. Spans carry a name, start, end, parent and op id; they stay in
//! memory until the run ends, when [`Tracer::write_tsv`] writes them out
//! and the per-layer metrics are read off them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. `parent == 0` marks a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and count collector shared by every thread of a traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name`; `f` receives the new span's id
    /// so that the spans it opens can name it as their parent.
    pub fn span<R>(&self, name: &'static str, parent: u64, op: u32, f: impl FnOnce(u64) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.lock().expect("span buffer").push(span);
        out
    }

    /// Add `n` to the count recorded at a layer boundary.
    pub fn count(&self, name: &'static str, n: u64) {
        *self
            .counts
            .lock()
            .expect("count map")
            .entry(name)
            .or_default() += n;
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in the order they closed.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// The count recorded under `name` (0 if none).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("count map")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Write every span as tab-separated `id parent op name start_ns end_ns`
    /// lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a finished trace: summed duration and summed self
/// time (a span's duration minus the part its child spans cover), both in
/// seconds.
#[derive(Debug, Default)]
pub struct Profile {
    total_ns: BTreeMap<&'static str, u64>,
    self_ns: BTreeMap<&'static str, u64>,
}

impl Profile {
    pub fn new(spans: &[Span]) -> Self {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut profile = Profile::default();
        for s in spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *profile.total_ns.entry(s.name).or_default() += s.duration_ns();
            *profile.self_ns.entry(s.name).or_default() += s.duration_ns() - covered;
        }
        profile
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Summed self time of every span named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            op: 0,
            name: if parent == 0 { "parent" } else { "child" },
            start_ns,
            end_ns,
        };
        // Children 10..40 and 30..50 overlap: together they cover 40 ns.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 50)];
        let p = Profile::new(&spans);
        assert_eq!(p.self_s("parent"), 60e-9);
        assert_eq!(p.total_s("child"), 50e-9);
        assert_eq!(p.self_s("child"), 50e-9);
    }
}
