//! In-memory spans for the traced run.
//!
//! A span is opened by the benchmark around one call into a layer of the
//! library; it records a name, start, end, parent, and the item (multicast,
//! frame, or cell) it belongs to. Spans stay in memory until the run ends
//! and are then written as JSON lines. Names starting with `bench.` are the
//! benchmark's own structure (set-up and pass roots, per-item groups);
//! every other name is a layer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span (times in ns since the tracer started).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer or structure name.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (equal to start while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The item the span works for.
    pub item: u64,
}

impl Span {
    fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder of one traced run (single-threaded).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Self::exit`].
    pub fn enter(&mut self, name: &'static str, item: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            item,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, item);
        let value = f();
        self.exit(id);
        value
    }

    /// Self time (s) summed per span name: each span's duration minus the
    /// time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self.self_times_where(|_| true)
    }

    /// As [`Self::self_times`], over the spans whose root span is named
    /// `root`.
    pub fn self_times_under(&self, root: &str) -> BTreeMap<&'static str, f64> {
        // Parents precede their children, so one forward pass finds roots.
        let mut roots = Vec::with_capacity(self.spans.len());
        for (id, span) in self.spans.iter().enumerate() {
            let r = span.parent.map_or(id, |p| roots[p]);
            roots.push(r);
        }
        self.self_times_where(|id| self.spans[roots[id]].name == root)
    }

    fn self_times_where(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.duration_s();
            }
        }
        let mut out = BTreeMap::new();
        for (id, (span, children)) in self.spans.iter().zip(&child_time).enumerate() {
            if keep(id) {
                *out.entry(span.name).or_insert(0.0) += span.duration_s() - children;
            }
        }
        out
    }

    /// Total duration (s) of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .sum()
    }

    /// Share of the root spans' wall time covered by layer spans (self time
    /// of every span not named `bench.*`).
    pub fn attributed_ratio(&self) -> f64 {
        let roots: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_s)
            .sum();
        let layers: f64 = self
            .self_times()
            .iter()
            .filter(|(name, _)| !name.starts_with("bench."))
            .map(|(_, t)| t)
            .sum();
        if roots > 0.0 {
            layers / roots
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"item\":{}}}",
                s.name, s.start_ns, s.end_ns, s.item
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        let root = tr.enter("bench.pass", 0);
        tr.leaf("netsim.sim", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tr.exit(root);
        let self_times = tr.self_times();
        let sim = self_times["netsim.sim"];
        assert!(sim >= 0.02);
        assert!(self_times["bench.pass"] < sim);
        assert!((tr.total("bench.pass") - sim - self_times["bench.pass"]).abs() < 1e-9);
        assert!(tr.attributed_ratio() > 0.9);
    }
}
