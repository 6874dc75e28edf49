//! The benchmark's own span recorder. Spans are recorded from the
//! benchmark's side of every call into a layer (spans inside the program
//! are a later change): name, start, end, the span that caused it, and
//! the request both belong to. They stay in memory during the run and are
//! written to `benchmark/out/<workload>.trace.json` when it ends.

use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the written list; `None` for a root.
    pub parent: Option<usize>,
    /// Shared by all spans of one request; 0 for spans of the run itself.
    pub request: u64,
}

/// Most request spans kept per run; the phases are long enough that the
/// first spans are as good a sample as any, and the file stays readable.
const MAX_SPANS: usize = 60_000;

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        let mut spans = self
            .spans
            .lock()
            .expect("tracer lock is never held across a panic");
        if spans.len() >= MAX_SPANS {
            return None;
        }
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Total self time per span name: a span's duration minus the part of
    /// it its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let spans = self
            .spans
            .lock()
            .expect("tracer lock is never held across a panic");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name
    }

    /// Writes every span, plus `counts` taken at the same boundaries, as
    /// one JSON document.
    pub fn write(&self, path: &std::path::Path, counts: &[(String, f64)]) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"counts\":{{")?;
        for (i, (name, value)) in counts.iter().enumerate() {
            write!(out, "{}\"{name}\":{value}", if i == 0 { "" } else { "," })?;
        }
        write!(out, "}},\"spans\":[")?;
        let spans = self
            .spans
            .lock()
            .expect("tracer lock is never held across a panic");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        let t0 = t.epoch;
        let root = t.record("request", t0, t0 + Duration::from_micros(100), None, 1);
        t.record("client.submit", t0, t0 + Duration::from_micros(30), root, 1);
        let rows = t.self_times();
        assert_eq!(
            rows,
            vec![("request", 70_000, 1), ("client.submit", 30_000, 1)]
        );
    }
}
