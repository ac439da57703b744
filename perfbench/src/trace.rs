//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds after the tracer's
//! origin) and the span that caused it. Spans stay in memory; the traced
//! run aggregates them into per-layer metrics and prints a summary (count,
//! total and self time per name) to standard error when it ends. A
//! layer's self time is its total minus the part its child spans cover.

use std::collections::BTreeSet;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: u64,
    end: u64,
}

/// Records spans for one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Records an already-timed span (for work timed on another thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let start = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: None,
            start,
            end,
        });
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .sum()
    }

    /// Self seconds of spans named `name`: their total minus the time
    /// their direct children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end - s.start).saturating_sub(c) as f64 / 1e9)
            .sum()
    }

    /// One line per span name: count, total and self seconds.
    pub fn summary(&self) -> String {
        let names: BTreeSet<&str> = self.spans.iter().map(|s| s.name).collect();
        names
            .iter()
            .map(|name| {
                format!(
                    "span {name}: count {} total_s {:.6} self_s {:.6}\n",
                    self.count(name),
                    self.total_s(name),
                    self.self_s(name)
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.open("root", None);
        t.span("child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.span("child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(root);
        assert_eq!(t.count("child"), 2);
        let (total, own, kids) = (t.total_s("root"), t.self_s("root"), t.total_s("child"));
        assert!(kids >= 0.010);
        assert!((total - own - kids).abs() < 1e-9);
        assert!(t.summary().contains("span child: count 2"));
    }
}
