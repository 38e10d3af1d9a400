//! Deterministic, virtual-time tracing.
//!
//! A trace here is **part of the deterministic output of a run**, not a
//! wall-clock log: every record carries simulated time
//! ([`SimTime`]) and attributes derived from the model,
//! so the trace of run *k* is a pure function of that run's canonical
//! coordinates.  That is the property that lets campaign tooling assert
//! byte-identical trace files for 1 and N workers, and lets resumed
//! campaigns append to a trace file without seams.
//!
//! The collection mechanism is a thread-local scope: the campaign runner (or
//! a test) wraps a run in [`collect`], and every [`event`]/[`span`] call
//! inside — from the run function or the helpers it calls — lands in that
//! scope's buffer.  Run functions therefore need **no signature changes** to
//! become traceable, and when no scope is active every emit call is a cheap
//! thread-local check followed by an immediate return.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::{self, Write};

use karyon_sim::SimTime;

/// Canonical identity of one campaign run, attached to every emitted trace
/// record by the [`TraceSink`].
///
/// These are the same coordinates the campaign layer derives seeds from, so
/// a trace line can be joined against report rows, JSONL run streams and
/// checkpoint manifests without any session-local identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCoords {
    /// Global run index in the canonical work list.
    pub run_index: u64,
    /// Index of the run's parameter point in the flattened point list.
    pub point: u64,
    /// Monte-Carlo replication index within the point.
    pub replication: u64,
    /// The derived per-run RNG seed.
    pub seed: u64,
}

/// An attribute value attached to a trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer attribute.
    U64(u64),
    /// A signed integer attribute.
    I64(i64),
    /// A floating-point attribute.
    F64(f64),
    /// A text attribute.
    Text(String),
}

/// A point-in-virtual-time occurrence, emitted by [`event`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Record name, dot-namespaced by its emitter (e.g. `echo.run`).
    pub name: String,
    /// Simulated time of the occurrence.
    pub time: SimTime,
    /// Attributes, in emission order.
    pub attrs: Vec<(String, AttrValue)>,
}

/// An interval in virtual time (e.g. the whole engine run of a scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Record name, dot-namespaced (e.g. `engine.run`).
    pub name: String,
    /// Simulated start of the interval.
    pub start: SimTime,
    /// Simulated end of the interval.
    pub end: SimTime,
    /// Attributes, in emission order.
    pub attrs: Vec<(String, AttrValue)>,
}

/// One record of a run's trace: an [`EventRecord`] or a [`SpanRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A point-in-time occurrence.
    Event(EventRecord),
    /// A virtual-time interval.
    Span(SpanRecord),
}

impl TraceRecord {
    /// The record's name.
    pub fn name(&self) -> &str {
        match self {
            TraceRecord::Event(e) => &e.name,
            TraceRecord::Span(s) => &s.name,
        }
    }

    /// The record's anchor time (an event's time, a span's start).
    pub fn time(&self) -> SimTime {
        match self {
            TraceRecord::Event(e) => e.time,
            TraceRecord::Span(s) => s.start,
        }
    }

    /// The record's attributes.
    pub fn attrs(&self) -> &[(String, AttrValue)] {
        match self {
            TraceRecord::Event(e) => &e.attrs,
            TraceRecord::Span(s) => &s.attrs,
        }
    }
}

/// A consumer of per-run trace records.
///
/// The campaign runner hands each run's records over **in canonical run
/// order** (exactly as the run-sink layer streams run records), so a sink
/// that simply appends — like [`JsonlTraceWriter`] — produces identical
/// output for any worker count.
pub trait TraceSink {
    /// Receives the complete, ordered trace of one run.
    fn on_run_records(&mut self, coords: &RunCoords, records: &[TraceRecord]);

    /// Pushes buffered output to the backing store.  Called by the
    /// checkpointing runner before manifest writes, mirroring the run-sink
    /// flush contract.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Thread-local collection scope
// ---------------------------------------------------------------------------

thread_local! {
    /// The active collection buffer.  `None` means tracing is off on this
    /// thread and every emit call returns after one check.
    static SCOPE: RefCell<Option<Vec<TraceRecord>>> = const { RefCell::new(None) };
}

/// Restores the previous scope on drop, so a panicking run (the campaign
/// runner catches run panics) cannot leak an active scope into later runs on
/// the same worker thread.
struct ScopeGuard {
    prev: Option<Option<Vec<TraceRecord>>>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            SCOPE.with(|s| *s.borrow_mut() = prev);
        }
    }
}

/// True when a [`collect`] scope is active on this thread.
pub fn active() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

/// Runs `f` with trace collection enabled on this thread and returns its
/// result together with every record emitted inside.
///
/// Scopes nest: an inner `collect` captures its own records and restores the
/// outer scope afterwards.  If `f` panics, the previous scope is restored
/// and the partial records are discarded.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Vec<TraceRecord>) {
    let prev = SCOPE.with(|s| s.borrow_mut().replace(Vec::new()));
    let guard = ScopeGuard { prev: Some(prev) };
    let result = f();
    let records = SCOPE.with(|s| s.borrow_mut().take()).unwrap_or_default();
    drop(guard);
    (result, records)
}

/// Emits an [`EventRecord`] into the active scope; a no-op when no scope is
/// active.
pub fn event(name: &str, time: SimTime, attrs: &[(&str, AttrValue)]) {
    SCOPE.with(|s| {
        if let Some(buf) = s.borrow_mut().as_mut() {
            buf.push(TraceRecord::Event(EventRecord {
                name: name.to_string(),
                time,
                attrs: attrs.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
            }));
        }
    });
}

/// Emits a [`SpanRecord`] into the active scope; a no-op when no scope is
/// active.
pub fn span(name: &str, start: SimTime, end: SimTime, attrs: &[(&str, AttrValue)]) {
    SCOPE.with(|s| {
        if let Some(buf) = s.borrow_mut().as_mut() {
            buf.push(TraceRecord::Span(SpanRecord {
                name: name.to_string(),
                start,
                end,
                attrs: attrs.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
            }));
        }
    });
}

// ---------------------------------------------------------------------------
// JSONL emission
// ---------------------------------------------------------------------------

/// Escapes `s` for inclusion in a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats an `f64` as JSON: shortest round-trip decimal for finite values,
/// `null` for non-finite ones (mirroring the run-sink convention).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

fn push_attrs(out: &mut String, attrs: &[(String, AttrValue)]) {
    out.push_str(",\"attrs\":{");
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, key);
        out.push_str("\":");
        match value {
            AttrValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::F64(v) => push_f64(out, *v),
            AttrValue::Text(v) => {
                out.push('"');
                escape_into(out, v);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// A [`TraceSink`] writing one JSON object per record (JSON Lines).
///
/// Every line repeats the run's canonical coordinates, so a trace file is
/// self-describing and can be filtered/joined line-by-line:
///
/// ```text
/// {"run":3,"point":1,"replication":1,"seed":9,"kind":"event","name":"echo.run","t_us":5000,"attrs":{"seed":9}}
/// {"run":3,"point":1,"replication":1,"seed":9,"kind":"span","name":"engine.run","start_us":0,"end_us":5000,"attrs":{"processed":7}}
/// ```
///
/// Every line renders into one buffer the writer reuses and reaches the
/// underlying writer in one `write_all`, so a warm line allocates nothing.
///
/// I/O errors are sticky, mirroring the run-sink writer: the first error
/// suppresses all later output and is surfaced by [`flush`](TraceSink::flush)
/// and [`into_inner`](JsonlTraceWriter::into_inner), so a failed stream can
/// never silently end up with gaps.
#[derive(Debug)]
pub struct JsonlTraceWriter<W: Write> {
    out: W,
    written: u64,
    error: Option<io::Error>,
    /// The line being rendered; its buffer is reused for every record.
    line: String,
}

impl<W: Write> JsonlTraceWriter<W> {
    /// Creates a writer over any `io::Write` (a file, a buffer, a pipe).
    pub fn new(out: W) -> Self {
        JsonlTraceWriter { out, written: 0, error: None, line: String::new() }
    }

    /// Number of lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer, or the first deferred I/O
    /// error.
    pub fn into_inner(mut self) -> io::Result<W> {
        if let Some(error) = self.error {
            return Err(error);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlTraceWriter<W> {
    fn on_run_records(&mut self, coords: &RunCoords, records: &[TraceRecord]) {
        if self.error.is_some() {
            return;
        }
        let line = &mut self.line;
        for record in records {
            line.clear();
            let _ = write!(
                line,
                "{{\"run\":{},\"point\":{},\"replication\":{},\"seed\":{}",
                coords.run_index, coords.point, coords.replication, coords.seed
            );
            match record {
                TraceRecord::Event(e) => {
                    line.push_str(",\"kind\":\"event\",\"name\":\"");
                    escape_into(line, &e.name);
                    let _ = write!(line, "\",\"t_us\":{}", e.time.as_micros());
                    push_attrs(line, &e.attrs);
                }
                TraceRecord::Span(s) => {
                    line.push_str(",\"kind\":\"span\",\"name\":\"");
                    escape_into(line, &s.name);
                    let _ = write!(
                        line,
                        "\",\"start_us\":{},\"end_us\":{}",
                        s.start.as_micros(),
                        s.end.as_micros()
                    );
                    push_attrs(line, &s.attrs);
                }
            }
            line.push_str("}\n");
            if let Err(error) = self.out.write_all(line.as_bytes()) {
                self.error = Some(error);
                return;
            }
            self.written += 1;
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(error) = &self.error {
            return Err(io::Error::new(error.kind(), error.to_string()));
        }
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_outside_scope_is_dropped() {
        event("orphan", SimTime::ZERO, &[]);
        span("orphan", SimTime::ZERO, SimTime::ZERO, &[]);
        assert!(!active());
        let (_, records) = collect(|| {
            assert!(active());
            event("kept", SimTime::from_millis(1), &[]);
        });
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name(), "kept");
        assert!(!active(), "scope must be restored");
    }

    #[test]
    fn scopes_nest_and_survive_panics() {
        let (_, outer) = collect(|| {
            event("outer.before", SimTime::ZERO, &[]);
            let (_, inner) = collect(|| event("inner", SimTime::ZERO, &[]));
            assert_eq!(inner.len(), 1);
            let panicked = std::panic::catch_unwind(|| {
                collect(|| {
                    event("doomed", SimTime::ZERO, &[]);
                    panic!("boom");
                })
            });
            assert!(panicked.is_err());
            assert!(active(), "outer scope restored after inner panic");
            event("outer.after", SimTime::ZERO, &[]);
        });
        let names: Vec<&str> = outer.iter().map(TraceRecord::name).collect();
        assert_eq!(names, ["outer.before", "outer.after"]);
    }

    #[test]
    fn jsonl_writer_is_deterministic_and_escapes() {
        let coords = RunCoords { run_index: 3, point: 1, replication: 1, seed: 9 };
        let records = vec![
            TraceRecord::Event(EventRecord {
                name: "engine.clamp".into(),
                time: SimTime::from_millis(5),
                attrs: vec![
                    ("requested_us".into(), AttrValue::U64(0)),
                    ("label".into(), AttrValue::Text("Say(\"hi\n\")".into())),
                ],
            }),
            TraceRecord::Span(SpanRecord {
                name: "engine.run".into(),
                start: SimTime::ZERO,
                end: SimTime::from_millis(5),
                attrs: vec![
                    ("ratio".into(), AttrValue::F64(0.5)),
                    ("bad".into(), AttrValue::F64(f64::NAN)),
                ],
            }),
        ];
        let emit = || {
            let mut w = JsonlTraceWriter::new(Vec::new());
            w.on_run_records(&coords, &records);
            String::from_utf8(w.into_inner().unwrap()).unwrap()
        };
        let text = emit();
        assert_eq!(text, emit(), "same records must serialize identically");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"run\":3,\"point\":1,\"replication\":1,\"seed\":9,\"kind\":\"event\",\
             \"name\":\"engine.clamp\",\"t_us\":5000,\
             \"attrs\":{\"requested_us\":0,\"label\":\"Say(\\\"hi\\n\\\")\"}}"
        );
        assert_eq!(
            lines[1],
            "{\"run\":3,\"point\":1,\"replication\":1,\"seed\":9,\"kind\":\"span\",\
             \"name\":\"engine.run\",\"start_us\":0,\"end_us\":5000,\
             \"attrs\":{\"ratio\":0.5,\"bad\":null}}"
        );
    }

    #[test]
    fn jsonl_writer_errors_are_sticky() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let coords = RunCoords { run_index: 0, point: 0, replication: 0, seed: 0 };
        let records = vec![TraceRecord::Event(EventRecord {
            name: "e".into(),
            time: SimTime::ZERO,
            attrs: vec![],
        })];
        let mut w = JsonlTraceWriter::new(Broken);
        w.on_run_records(&coords, &records);
        assert_eq!(w.written(), 0);
        assert!(w.flush().is_err());
        assert!(w.flush().is_err(), "the error is not consumed");
        w.on_run_records(&coords, &records);
        assert!(w.into_inner().is_err());
    }
}
