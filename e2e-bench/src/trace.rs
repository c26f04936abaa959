//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, recorded from the benchmark's own
//! code around the public function it calls: name, start, end, the span
//! it ran under, and the operation (row, compile, job, probe) it belongs
//! to. Spans stay in memory and are written out once, at the end of the
//! run. A disabled tracer records nothing, so the untraced run pays one
//! branch per layer call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What an operation was: the measured operations of a workload, and the
/// side operations the traced run adds to read layers the measured path
/// cannot see from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// Dataset generation and packing.
    Setup,
    /// One measured row or compile: the shipped path end to end.
    Row,
    /// The shipped compiler decomposed into its public layer calls.
    Probe,
    /// One served job, client side.
    Job,
    /// A standalone pooled execution of a served case.
    Exec,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Setup => "setup",
            OpKind::Row => "row",
            OpKind::Probe => "probe",
            OpKind::Job => "job",
            OpKind::Exec => "exec",
        }
    }
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    kind: OpKind,
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct SpanId(Option<usize>);

/// Per-thread span buffer. Threads record into their own tracer and the
/// buffers are merged with [`Tracer::absorb`] at the end.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    kind: OpKind,
    notes: Vec<String>,
}

impl Tracer {
    /// A tracer sharing `epoch` with the run's other tracers.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            kind: OpKind::Setup,
            notes: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans already recorded stay.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Starts operation `op` of `kind` and opens its root span.
    pub fn begin_op(&mut self, kind: OpKind, op: u64, name: &'static str) -> SpanId {
        self.op = op;
        self.kind = kind;
        self.begin(name)
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            kind: self.kind,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: SpanId) {
        if let Some(id) = span.0 {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
            self.spans[id].end_ns = self.now();
        }
    }

    /// Closes every open span: recovery after a panic unwound through
    /// them.
    pub fn close_all(&mut self) {
        let now = self.now();
        for id in self.open.drain(..) {
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Adds a free-form line (one JSON object) to the trace file.
    pub fn note(&mut self, json: String) {
        if self.enabled {
            self.notes.push(json);
        }
    }

    /// Moves another thread's spans and notes into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.notes.extend(other.notes);
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self time per (op kind, span name) in nanoseconds, with call
    /// counts: each span's duration minus the part its direct children
    /// cover.
    pub fn self_times(&self) -> BTreeMap<(OpKind, &'static str), (u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<(OpKind, &'static str), (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child[i]);
            let e = out.entry((s.kind, s.name)).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Durations of the root spans of every `kind` operation, in
    /// nanoseconds, in recording order.
    pub fn op_durations(&self, kind: OpKind) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind && s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// The trace as JSON lines: notes first, then one line per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"kind\":\"{}\"}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.kind.name()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.begin_op(OpKind::Row, 1, "row");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let b = t.begin("b");
        t.span("c", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(b);
        t.end(root);
        let st = t.self_times();
        let total: u64 = st.values().map(|v| v.0).sum();
        assert_eq!(total, t.op_durations(OpKind::Row)[0]);
        assert!(st[&(OpKind::Row, "c")].0 >= 2_000_000);
        assert!(st[&(OpKind::Row, "b")].0 < st[&(OpKind::Row, "c")].0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin_op(OpKind::Row, 1, "row");
        t.span("a", || ());
        t.end(s);
        assert!(t.self_times().is_empty());
        assert!(t.to_jsonl().is_empty());
    }
}
