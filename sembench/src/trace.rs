//! In-memory spans for the traced run.
//!
//! A span is `(name, request, parent, start, end)`; spans of one
//! replayed request share its `request` identifier. Nothing is written
//! while measuring: [`Tracer::write_json`] dumps the spans once, at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its handle for [`Tracer::close`] and for
    /// use as a parent.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        let end_ns = self.now_ns();
        self.spans[span].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, request, parent);
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }

    /// Records a span measured elsewhere (client requests timed by the
    /// load generator), with explicit instants.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// A span's duration minus the part of its interval that its child
    /// spans cover (overlapping children counted once).
    pub fn self_time_ns(&self, span: usize) -> u64 {
        let parent = &self.spans[span];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = parent.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        parent.duration_ns().saturating_sub(covered)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends `other`'s spans (re-based onto this tracer's origin and
    /// with their parent handles shifted), for one spans file.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Writes every span as one JSON array (times in microseconds from
    /// the tracer's origin, plus each span's self time).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}{}",
                span.name,
                span.request,
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
                self.self_time_ns(i) as f64 / 1e3,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.spans.push(Span {
            name: "root",
            request: 1,
            parent: None,
            start_ns: 0,
            end_ns: 100,
        });
        for (start, end) in [(10, 30), (20, 40), (90, 120)] {
            tracer.spans.push(Span {
                name: "child",
                request: 1,
                parent: Some(0),
                start_ns: start,
                end_ns: end,
            });
        }
        // Children cover [10, 40) and [90, 100): 40 ns of 100.
        assert_eq!(tracer.self_time_ns(0), 60);
        assert_eq!(tracer.self_time_ns(1), 20);
    }
}
