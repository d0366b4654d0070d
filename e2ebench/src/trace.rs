//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed around calls into each layer's public
//! functions from the benchmark's own code, kept in memory, and written out
//! once the run ends, so recording costs two clock reads and a push. A
//! switched-off [`Tracer`] ignores every call, so untraced runs pay nothing.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`, such as `map.add_app`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in opening order, or nothing when switched off.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            on,
        }
    }

    /// Opens a span and returns its index (`None` when switched off).
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span [`Tracer::open`] returned.
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time per span name: each span's length minus the part of it that
/// its child spans cover.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        *out.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(covered);
    }
    out
}

/// Writes spans as tab-separated lines: id, parent (-1 for none), request,
/// name, start and end in nanoseconds.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_tsv(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let spans = [
            span("setup", 0, 100, None),
            span("core.profile_with", 10, 40, Some(0)),
            span("core.profile_with", 50, 70, Some(0)),
        ];
        let self_ns = self_time_ns(&spans);
        assert_eq!(self_ns["setup"], 50);
        assert_eq!(self_ns["core.profile_with"], 50);
    }

    #[test]
    fn a_switched_off_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.open("map.add_app", None, 0);
        tracer.close(id);
        assert_eq!(id, None);
        assert!(tracer.into_spans().is_empty());
    }
}
