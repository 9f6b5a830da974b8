//! Spans recorded by the benchmark around each call it makes into a layer.
//!
//! A span has a name, a start, an end, a parent, and the id of the message
//! it belongs to. Spans stay in memory and are written out as JSON lines
//! when the run ends. A span's self time is its duration minus the part of
//! it its children cover.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NONE` marks a root.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub msg: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. Each thread records into its own tracer;
/// [`Tracer::absorb`] merges them.
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    next_msg: u64,
}

impl Tracer {
    /// A tracer timing from `base` whose message ids start at `first_msg`
    /// (tracers merged later must use disjoint id ranges).
    pub fn new(base: Instant, first_msg: u64) -> Tracer {
        Tracer {
            base,
            spans: Vec::new(),
            next_msg: first_msg,
        }
    }

    /// Opens the root span of a new message.
    pub fn message(&mut self, name: &'static str) -> (u64, SpanId) {
        let msg = self.next_msg;
        self.next_msg += 1;
        (msg, self.open(name, msg, NONE))
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, msg: u64, parent: SpanId) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            msg,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        msg: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, msg, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's spans, re-pointing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let shift = other.base.saturating_duration_since(self.base).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += offset;
            }
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                s.ns() - covered
            })
            .collect()
    }

    /// The span-accounting check: for every root span, the self times of
    /// all spans of its message must sum to the root's duration. Returns
    /// the largest relative error over all messages.
    pub fn accounting_error(&self) -> f64 {
        let selfs = self.self_times();
        let mut by_msg: std::collections::HashMap<u64, (u64, u64)> = Default::default();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let entry = by_msg.entry(s.msg).or_default();
            entry.1 += self_ns;
            if s.parent == NONE {
                entry.0 += s.ns();
            }
        }
        by_msg
            .values()
            .map(|&(root, selfs)| (selfs as f64 - root as f64).abs() / (root.max(1)) as f64)
            .fold(0.0, f64::max)
    }

    /// Writes the spans as JSON lines after a `header` line.
    pub fn write(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"msg\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.msg, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
