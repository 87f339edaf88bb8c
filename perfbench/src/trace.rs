//! An in-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, job)`. Spans are recorded only
//! around calls the benchmark itself makes into the hsyn crates; nothing
//! inside the program is instrumented. A disabled tracer records nothing
//! and adds no timing calls.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub job: u64,
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name` for `job`. Spans opened inside
    /// `f` through the tracer it receives become children of this one.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: `(calls, self seconds)`, where a span's self time is
    /// its duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += (s.end - s.start - child[i]).max(0.0);
        }
        out
    }

    /// Write every span as one JSON array, one span per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \
                 \"parent\": {parent}, \"job\": {}}}{sep}",
                s.name, s.start, s.end, s.job
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
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", 1, |t| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let st = t.self_times();
        let (outer_calls, outer_self) = st["outer"];
        let (_, inner_self) = st["inner"];
        assert_eq!(outer_calls, 1);
        assert!(inner_self >= 0.02);
        assert!(outer_self < inner_self, "{outer_self} vs {inner_self}");
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 0, |_| 7), 7);
        assert_eq!(t.len(), 0);
    }
}
