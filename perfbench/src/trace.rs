//! The traced pass: the benchmark's own spans around each call into a
//! layer, and the program's existing span and counter series read back
//! from the global telemetry registry.
//!
//! Spans are kept in memory and written out once, at the end of the run.
//! A layer's self time is its span's duration minus the part covered by
//! its children; the program's spans (`qgemm.*`, `tensor.*`) are children
//! of the benchmark span that was open while they ran.

use crate::json::Obj;
use fast_telemetry::{Registry, Snapshot, SnapshotValue};
use std::io::Write;
use std::time::Instant;

/// One recorded benchmark span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The step or request this span belongs to; spans of one step or
    /// request share it.
    pub id: u64,
    /// Span name, e.g. `nn.forward`.
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span store. Disabled recorders keep nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (usable as a parent).
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Sets the parent of an already-recorded span (a step span is only
    /// known once its children have finished).
    pub fn adopt(&mut self, children: &[Option<usize>], parent: Option<usize>) {
        for &c in children.iter().flatten() {
            self.spans[c].parent = parent;
        }
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut o = Obj::new();
            o.num("id", s.id as f64)
                .str("name", s.name)
                .raw(
                    "parent",
                    s.parent
                        .map_or_else(|| "null".to_string(), |p| p.to_string()),
                )
                .num("start_ns", s.start_ns as f64)
                .num("end_ns", s.end_ns as f64);
            writeln!(out, "{}", o.render())?;
        }
        out.flush()
    }
}

/// The program's own span sites, read back from the global registry's
/// `fast_span_ns{span=...}` series. None of them nests inside another.
pub const PROGRAM_SPANS: [&str; 6] = [
    "qgemm.prepare",
    "qgemm.execute.replay",
    "qgemm.execute.integer",
    "tensor.im2col",
    "tensor.col2im",
    "tensor.im2row",
];

/// Cumulative program-side totals at one instant: nanoseconds inside each
/// of [`PROGRAM_SPANS`] and GEMMs executed per mode.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProgramTotals {
    /// Summed span time per [`PROGRAM_SPANS`] entry.
    pub span_ns: [f64; 6],
    /// `fast_qgemm_gemms_total{mode="replay"}`.
    pub gemms_replay: f64,
    /// `fast_qgemm_gemms_total{mode="integer"}`.
    pub gemms_integer: f64,
}

impl ProgramTotals {
    /// Reads the totals from a registry snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let mut t = ProgramTotals::default();
        for (slot, name) in t.span_ns.iter_mut().zip(PROGRAM_SPANS) {
            if let Some(SnapshotValue::Histogram(h)) = snap.get("fast_span_ns", &[("span", name)]) {
                *slot = h.sum_ns() as f64;
            }
        }
        let counter = |mode: &str| match snap.get("fast_qgemm_gemms_total", &[("mode", mode)]) {
            Some(SnapshotValue::Counter(n)) => *n as f64,
            _ => 0.0,
        };
        t.gemms_replay = counter("replay");
        t.gemms_integer = counter("integer");
        t
    }

    /// Reads the totals from the process-global registry.
    pub fn now() -> Self {
        Self::from_snapshot(&Registry::global().snapshot())
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &ProgramTotals) -> ProgramTotals {
        let mut d = *self;
        for (a, b) in d.span_ns.iter_mut().zip(earlier.span_ns) {
            *a -= b;
        }
        d.gemms_replay -= earlier.gemms_replay;
        d.gemms_integer -= earlier.gemms_integer;
        d
    }

    /// `self + other`, field by field.
    pub fn add(&mut self, other: &ProgramTotals) {
        for (a, b) in self.span_ns.iter_mut().zip(other.span_ns) {
            *a += b;
        }
        self.gemms_replay += other.gemms_replay;
        self.gemms_integer += other.gemms_integer;
    }

    /// Summed time inside the program span `name` (one of
    /// [`PROGRAM_SPANS`]).
    pub fn span(&self, name: &str) -> f64 {
        let i = PROGRAM_SPANS
            .iter()
            .position(|&n| n == name)
            .expect("a program span name");
        self.span_ns[i]
    }

    /// Total time inside program spans.
    pub fn total_ns(&self) -> f64 {
        self.span_ns.iter().sum()
    }
}

/// A self-time table: rows that add up to a whole (a step or a request)
/// with an explicit `unattributed` remainder.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    rows: Vec<(String, f64)>,
}

impl Breakdown {
    /// An empty table.
    pub fn new() -> Self {
        Breakdown::default()
    }

    /// Adds a row.
    pub fn row(&mut self, name: &str, value: f64) -> &mut Self {
        self.rows.push((name.to_string(), value));
        self
    }

    /// Adds the program-span rows, scaled by `scale`: `qgemm.prepare`,
    /// `qgemm.execute` (replay and integer mode together, so the row is
    /// live in either execution mode) and the `tensor.*` spans named in
    /// `tensor`. Spans a phase never enters are left out of its table;
    /// should one ever run, its time lands in `unattributed`.
    pub fn program_rows(
        &mut self,
        prefix: &str,
        totals: &ProgramTotals,
        scale: f64,
        tensor: &[&str],
    ) -> &mut Self {
        self.row(
            &format!("{prefix}qgemm.prepare"),
            totals.span("qgemm.prepare") * scale,
        );
        let execute = totals.span("qgemm.execute.replay") + totals.span("qgemm.execute.integer");
        self.row(&format!("{prefix}qgemm.execute"), execute * scale);
        for name in tensor {
            self.row(&format!("{prefix}{name}"), totals.span(name) * scale);
        }
        self
    }

    /// Closes the table against `whole`: appends `unattributed` = whole −
    /// sum of rows and returns the rows.
    pub fn close(mut self, prefix: &str, whole: f64) -> Vec<(String, f64)> {
        let attributed: f64 = self.rows.iter().map(|(_, v)| v).sum();
        self.rows
            .push((format!("{prefix}unattributed"), whole - attributed));
        self.rows
    }
}

/// Renders breakdown rows as a JSON object (for the human-readable log).
pub fn rows_json(rows: &[(String, f64)]) -> String {
    let mut o = Obj::new();
    for (k, v) in rows {
        o.num(k, *v);
    }
    o.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_rows_sum_to_the_whole() {
        let mut b = Breakdown::new();
        b.row("a", 2.0).row("b", 3.0);
        let rows = b.close("x.", 10.0);
        assert_eq!(rows.last().unwrap(), &("x.unattributed".to_string(), 5.0));
        let total: f64 = rows.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 10.0);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let t = Instant::now();
        assert_eq!(r.record(1, "x", None, t, t), None);
        assert_eq!(r.len(), 0);
        let mut on = Recorder::new(true);
        let child = on.record(1, "child", None, t, t);
        let parent = on.record(1, "parent", None, t, t);
        on.adopt(&[child], parent);
        assert_eq!(on.spans[0].parent, Some(1));
    }

    #[test]
    fn totals_difference() {
        let mut a = ProgramTotals::default();
        a.span_ns[0] = 5.0;
        a.gemms_replay = 3.0;
        let mut b = a;
        b.span_ns[0] = 8.0;
        b.gemms_replay = 4.0;
        let d = b.since(&a);
        assert_eq!(d.span_ns[0], 3.0);
        assert_eq!(d.gemms_replay, 1.0);
        assert_eq!(d.total_ns(), 3.0);
    }
}
