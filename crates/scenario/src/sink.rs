//! Per-run artifact streaming.
//!
//! Chunked aggregation means the campaign runner never retains raw
//! [`RunRecord`]s — which is exactly what makes million-run campaigns fit in
//! memory, but also means the raw records are gone unless captured on the
//! way through.  A [`RunSink`] receives every run **in canonical run order**
//! (the runner buffers at most the chunks currently in flight to restore
//! order), so downstream tooling sees a deterministic stream regardless of
//! the worker count.  [`JsonlRunWriter`] is the ready-made sink: one JSON
//! object per line, parseable by any JSONL consumer, and re-aggregatable with
//! [`Campaign::reduce_records`](crate::Campaign::reduce_records).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::json::{JsonReader, ObjectWriter, Token};
use crate::scenario::RunRecord;
use crate::spec::{params_json, ParamValue};

/// The canonical coordinates and derived identity of one campaign run,
/// handed to a [`RunSink`] alongside the run's record.
#[derive(Debug, Clone, Copy)]
pub struct RunMeta<'a> {
    /// Global run index in the canonical work list.
    pub run_index: u64,
    /// Index of the run's parameter point in the flattened point list.
    pub point: usize,
    /// The scenario family name.
    pub scenario: &'a str,
    /// The run's parameter point.
    pub params: &'a BTreeMap<String, ParamValue>,
    /// Monte-Carlo replication index within the point.
    pub replication: u64,
    /// The derived per-run RNG seed.
    pub seed: u64,
}

/// A consumer of per-run artifacts, called in canonical run order.
pub trait RunSink {
    /// Receives one run.  Runs arrive strictly in canonical order
    /// (`meta.run_index` is increasing) for any worker count.
    fn on_run(&mut self, meta: &RunMeta<'_>, record: &RunRecord);

    /// Pushes buffered output down to the sink's backing store.  The
    /// checkpointing runner calls this **before** every manifest write, so
    /// the artifact stream covers at least the checkpointed runs — with
    /// exactly the durability the underlying writer's `flush` provides.  A
    /// plain [`BufWriter<File>`](std::io::BufWriter) flushes to the OS page
    /// cache, which survives a process kill but not a power loss; wrap the
    /// file in [`SyncOnFlushFile`] to make each checkpoint's stream prefix
    /// durable against power loss too (manifests themselves are always
    /// fsynced).  In-memory sinks keep the no-op default.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl<F: FnMut(&RunMeta<'_>, &RunRecord)> RunSink for F {
    fn on_run(&mut self, meta: &RunMeta<'_>, record: &RunRecord) {
        self(meta, record)
    }
}

/// A buffered file writer whose [`flush`](Write::flush) drains the buffer
/// **and** fsyncs (`sync_all`) the file.
///
/// [`RunSink::flush`] is called before every checkpoint manifest write, and
/// the manifest itself is fsynced — so a JSONL stream that only reaches the
/// OS page cache can, after a power loss, hold fewer lines than the manifest
/// watermark and refuse to resume.  Streaming through this wrapper closes
/// that gap: by the time a manifest lands, the stream prefix it covers is on
/// stable storage.  The `karyon-campaign` CLI wraps its `--jsonl` file in
/// this.
#[derive(Debug)]
pub struct SyncOnFlushFile {
    inner: io::BufWriter<std::fs::File>,
}

impl SyncOnFlushFile {
    /// Wraps `file` in a buffered, sync-on-flush writer.
    pub fn new(file: std::fs::File) -> Self {
        SyncOnFlushFile { inner: io::BufWriter::new(file) }
    }
}

impl Write for SyncOnFlushFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()?;
        self.inner.get_ref().sync_all()
    }
}

/// A [`RunSink`] writing one JSON object per run (JSON Lines).
///
/// Each line carries the canonical coordinates, the derived seed, the
/// causality-clamp count and the full metric map:
///
/// ```text
/// {"run":0,"scenario":"echo","point":0,"replication":0,"seed":42,"clamped_schedules":0,"params":{},"metrics":{"x":1.5}}
/// ```
///
/// Every line renders into one buffer the writer reuses and reaches the
/// underlying writer in one `write_all`.  The params object is rendered once
/// per point: the runs of a point share it, so the writer keeps the text of
/// the current point's params and re-renders only when the point changes or
/// its params differ (a writer fed by two campaigns never reuses stale text).
#[derive(Debug)]
pub struct JsonlRunWriter<W: Write> {
    out: W,
    written: u64,
    error: Option<io::Error>,
    /// The line being rendered; its buffer is reused for every run.
    line: String,
    /// The point and params `params_text` renders.
    params: Option<(usize, BTreeMap<String, ParamValue>)>,
    /// The rendered params object of the current point.
    params_text: String,
}

impl<W: Write> JsonlRunWriter<W> {
    /// Creates a writer over any `io::Write` (a file, a buffer, a pipe).
    pub fn new(out: W) -> Self {
        JsonlRunWriter {
            out,
            written: 0,
            error: None,
            line: String::new(),
            params: None,
            params_text: String::new(),
        }
    }

    /// Number of lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer, or the first I/O error the
    /// streaming callbacks (which cannot fail) had to defer.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(error) = self.error {
            return Err(error);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> RunSink for JsonlRunWriter<W> {
    fn flush(&mut self) -> io::Result<()> {
        // Report without consuming: the sticky error must survive into
        // `finish()`, and later `on_run` calls must stay suppressed —
        // otherwise a caller that logs-and-continues would produce a stream
        // with silent gaps that `finish()` then blesses as Ok.
        if let Some(error) = &self.error {
            return Err(io::Error::new(error.kind(), error.to_string()));
        }
        self.out.flush()
    }

    fn on_run(&mut self, meta: &RunMeta<'_>, record: &RunRecord) {
        if self.error.is_some() {
            return;
        }
        let cached = matches!(&self.params, Some((point, params))
            if *point == meta.point && render_alike(params, meta.params));
        if !cached {
            self.params_text = params_json(meta.params);
            self.params = Some((meta.point, meta.params.clone()));
        }
        let mut buffer = std::mem::take(&mut self.line);
        buffer.clear();
        let mut line = ObjectWriter::append_to(buffer);
        line.u64("run", meta.run_index)
            .string("scenario", meta.scenario)
            .u64("point", meta.point as u64)
            .u64("replication", meta.replication)
            .u64("seed", meta.seed)
            .u64("clamped_schedules", record.clamped_schedules)
            .raw("params", &self.params_text)
            .object("metrics", |metrics| {
                for (name, value) in record.metrics() {
                    metrics.f64(name, value);
                }
            });
        self.line = line.close();
        self.line.push('\n');
        if let Err(error) = self.out.write_all(self.line.as_bytes()) {
            self.error = Some(error);
        } else {
            self.written += 1;
        }
    }
}

/// True when two params maps render to the same JSON: the same keys and
/// values, floats compared by bit pattern (`-0.0` renders apart from `0.0`,
/// though the two compare equal).
fn render_alike(a: &BTreeMap<String, ParamValue>, b: &BTreeMap<String, ParamValue>) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((key_a, a), (key_b, b))| {
            key_a == key_b
                && match (a, b) {
                    (ParamValue::Float(a), ParamValue::Float(b)) => a.to_bits() == b.to_bits(),
                    _ => a == b,
                }
        })
}

/// Parses a JSONL run stream (as written by [`JsonlRunWriter`]) back into
/// per-run records, one per line in canonical run order — the input
/// [`Campaign::reduce_records`](crate::Campaign::reduce_records) replays.
///
/// Each line's `run` index is checked against its position, so a reordered,
/// truncated-in-the-middle or concatenated stream is rejected instead of
/// silently re-aggregating wrong data.  Nothing else ties a line to a
/// campaign: the CLI's `report --jsonl` and `merge` read through
/// [`Campaign::read_jsonl_records`](crate::Campaign::read_jsonl_records),
/// which also checks every line's coordinates against the campaign's
/// canonical run.  This reader stays because the `campaign-bench` package
/// calls it.
///
/// Lines are read without a JSON tree: each line's `run`,
/// `clamped_schedules` and `metrics` go straight into its record, and every
/// other member is validated and skipped.  A line is checked whole, with
/// the grammar, depth cap and duplicate-key rule of
/// [`JsonValue::parse`](crate::JsonValue::parse), before its fields are.
/// Metric round-trips are bit-exact for finite values (the writer emits
/// shortest-round-trip decimals); non-finite metrics were serialised as
/// `null` and come back as NaN, which every aggregation path treats exactly
/// like the original non-finite value.
pub fn read_jsonl_records(text: &str) -> Result<Vec<RunRecord>, String> {
    let mut records = Vec::new();
    for_each_run_line(text, |index, line| {
        line.check_run(index)?;
        records.push(line.into_record(index)?);
        Ok(())
    })?;
    Ok(records)
}

/// Reads every line of a JSONL run stream into a [`RunLine`] and hands it to
/// `each` with its 0-based line index; a line that is not one JSON document
/// is refused with its 1-based line number.
pub(crate) fn for_each_run_line<'a>(
    text: &'a str,
    mut each: impl FnMut(usize, RunLine<'a>) -> Result<(), String>,
) -> Result<(), String> {
    let mut reader = JsonReader::new(text);
    for (index, line) in text.lines().enumerate() {
        reader.reset(line);
        let parsed =
            RunLine::read(&mut reader).map_err(|e| format!("JSONL line {}: {e}", index + 1))?;
        each(index, parsed)?;
    }
    Ok(())
}

/// The run coordinates a JSONL line carries besides its `run` index, in the
/// order [`JsonlRunWriter`] writes them.
const COORDINATES: [&str; 5] = ["scenario", "point", "replication", "seed", "params"];

/// What replay reads of one JSONL line.  A field is `None` when the line
/// lacks it or holds a value of another type.
pub(crate) struct RunLine<'a> {
    run: Option<u64>,
    /// The source text of each [`COORDINATES`] member.
    pub(crate) coordinates: [Option<&'a str>; 5],
    clamped_schedules: Option<u64>,
    /// The record of the `metrics` object, or the first metric that is not
    /// a number.
    metrics: Option<Result<RunRecord, Cow<'a, str>>>,
}

impl<'a> RunLine<'a> {
    /// Reads one line, a whole JSON document, from `reader`.
    fn read(reader: &mut JsonReader<'a>) -> Result<Self, String> {
        let mut line =
            RunLine { run: None, coordinates: [None; 5], clamped_schedules: None, metrics: None };
        let token = reader.value()?;
        if token == Token::Object {
            while let Some(key) = reader.next_key()? {
                match &*key {
                    "run" => line.run = reader.u64_value()?,
                    "clamped_schedules" => line.clamped_schedules = reader.u64_value()?,
                    "metrics" => line.metrics = read_metrics(reader)?,
                    other => match COORDINATES.iter().position(|name| *name == other) {
                        Some(at) => line.coordinates[at] = Some(reader.raw_value()?),
                        None => reader.skip_value()?,
                    },
                }
            }
        } else {
            reader.skip(&token)?;
        }
        reader.finish()?;
        Ok(line)
    }

    /// Checks that the line at 0-based `index` carries run index `index`.
    pub(crate) fn check_run(&self, index: usize) -> Result<(), String> {
        let run =
            self.run.ok_or_else(|| format!("JSONL line {}: missing \"run\" index", index + 1))?;
        if run != index as u64 {
            return Err(format!(
                "JSONL line {}: run index {run} out of canonical order — the stream is \
                 reordered or spliced",
                index + 1
            ));
        }
        Ok(())
    }

    /// The line's record, once its `clamped_schedules` and `metrics` check
    /// out.
    pub(crate) fn into_record(self, index: usize) -> Result<RunRecord, String> {
        let line = index + 1;
        let clamped_schedules = self
            .clamped_schedules
            .ok_or_else(|| format!("JSONL line {line}: missing \"clamped_schedules\""))?;
        let mut record = match self.metrics {
            None => return Err(format!("JSONL line {line}: missing \"metrics\" object")),
            Some(Err(name)) => {
                return Err(format!("JSONL line {line}: metric {:?} is not a number", &*name))
            }
            Some(Ok(record)) => record,
        };
        record.clamped_schedules = clamped_schedules;
        Ok(record)
    }
}

/// Reads a line's `metrics` member: `None` unless it is an object, else its
/// record or the first metric that is not a number.
fn read_metrics<'a>(
    reader: &mut JsonReader<'a>,
) -> Result<Option<Result<RunRecord, Cow<'a, str>>>, String> {
    let token = reader.value()?;
    if token != Token::Object {
        reader.skip(&token)?;
        return Ok(None);
    }
    let mut record = Ok(RunRecord::new());
    while let Some(name) = reader.next_key()? {
        let value = reader.f64_value()?;
        if let Ok(metrics) = &mut record {
            match value {
                Some(value) => metrics.set(name.into_owned(), value),
                None => record = Err(name),
            }
        }
    }
    Ok(Some(record))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_writer_emits_one_parseable_line_per_run() {
        let mut params = BTreeMap::new();
        params.insert("mode".to_string(), ParamValue::Text("kernel".into()));
        let mut record = RunRecord::new();
        record.set("x", 1.5);
        record.set_flag("ok", true);
        let mut writer = JsonlRunWriter::new(Vec::new());
        for run in 0..3u64 {
            let meta = RunMeta {
                run_index: run,
                point: 0,
                scenario: "demo",
                params: &params,
                replication: run,
                seed: 100 + run,
            };
            writer.on_run(&meta, &record);
        }
        assert_eq!(writer.written(), 3);
        let bytes = writer.finish().expect("in-memory writes cannot fail");
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with(r#"{"run":0,"scenario":"demo""#));
        assert!(lines[2].contains(r#""seed":102"#));
        assert!(lines[0].contains(r#""params":{"mode":"kernel"}"#));
        assert!(lines[0].contains(r#""metrics":{"ok":1,"x":1.5}"#));
    }

    #[test]
    fn jsonl_reader_round_trips_the_writer_bit_exactly() {
        let params = BTreeMap::new();
        let mut writer = JsonlRunWriter::new(Vec::new());
        for run in 0..4u64 {
            let mut record = RunRecord::new();
            record.set("x", (run as f64) * 0.1 + 1.0 / 3.0);
            record.set("tiny", f64::MIN_POSITIVE);
            if run == 2 {
                record.set("broken", f64::NAN);
                record.clamped_schedules = 3;
            }
            let meta = RunMeta {
                run_index: run,
                point: 0,
                scenario: "demo",
                params: &params,
                replication: run,
                seed: run,
            };
            writer.on_run(&meta, &record);
        }
        let text = String::from_utf8(writer.finish().unwrap()).unwrap();
        let records = read_jsonl_records(&text).expect("well-formed stream");
        assert_eq!(records.len(), 4);
        assert_eq!(records[1].get("x").unwrap().to_bits(), (0.1f64 + 1.0 / 3.0).to_bits());
        assert_eq!(records[3].get("tiny").unwrap().to_bits(), f64::MIN_POSITIVE.to_bits());
        assert!(records[2].get("broken").unwrap().is_nan(), "null reads back as non-finite");
        assert_eq!(records[2].clamped_schedules, 3);
    }

    #[test]
    fn jsonl_reader_rejects_reordered_and_malformed_streams() {
        let good = "{\"run\":0,\"clamped_schedules\":0,\"metrics\":{}}\n";
        assert_eq!(read_jsonl_records(good).unwrap().len(), 1);
        let reordered = "{\"run\":1,\"clamped_schedules\":0,\"metrics\":{}}\n";
        assert!(read_jsonl_records(reordered).unwrap_err().contains("canonical order"));
        assert!(read_jsonl_records("{\"run\":0}\n").unwrap_err().contains("clamped_schedules"));
        assert!(read_jsonl_records("{torn").unwrap_err().contains("line 1"));
    }

    #[test]
    fn line_refusals_follow_the_check_order_not_the_member_order() {
        // A line is read whole, then refused at its first field in check
        // order: syntax, `run`, `clamped_schedules`, `metrics`.
        let refusal = |line: &str| read_jsonl_records(line).unwrap_err();
        assert!(refusal(r#"{"metrics":{"x":"1"},"run":0} x"#).contains("trailing"));
        assert!(refusal(r#"{"metrics":{"x":"1"},"run":"0"}"#).contains("missing \"run\" index"));
        assert!(refusal(r#"{"metrics":{"x":"1"},"run":0}"#).contains("clamped_schedules"));
        let line = r#"{"metrics":{"b":[],"a":"x"},"clamped_schedules":0,"run":0}"#;
        assert!(refusal(line).contains("metric \"b\" is not a number"), "{}", refusal(line));
        let line = r#"{"metrics":{"x":null,"y":-0,"z":1e309},"clamped_schedules":0,"run":0}"#;
        let record = &read_jsonl_records(line).unwrap()[0];
        assert!(record.get("x").unwrap().is_nan());
        assert_eq!(record.get("y").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(record.get("z"), Some(f64::INFINITY));
    }

    #[test]
    fn write_errors_stay_sticky_through_flush_and_finish() {
        /// A writer that fails once the first full line (through its
        /// newline, in however many `write` calls) has gone through.
        struct Flaky {
            lines: usize,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.lines > 0 {
                    Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
                } else {
                    self.lines += buf.iter().filter(|byte| **byte == b'\n').count();
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let params = BTreeMap::new();
        let record = RunRecord::new();
        let meta = |run| RunMeta {
            run_index: run,
            point: 0,
            scenario: "s",
            params: &params,
            replication: run,
            seed: run,
        };
        let mut writer = JsonlRunWriter::new(Flaky { lines: 0 });
        writer.on_run(&meta(0), &record);
        writer.on_run(&meta(1), &record); // fails, sets the sticky error
        assert!(writer.flush().is_err(), "flush reports the deferred error");
        assert!(writer.flush().is_err(), "…and does not consume it");
        writer.on_run(&meta(2), &record); // must stay suppressed (no gapped stream)
        assert_eq!(writer.written(), 1, "nothing after the error counts as written");
        assert!(writer.finish().is_err(), "finish still surfaces the failure");
    }

    #[test]
    fn sync_on_flush_file_lands_every_flushed_byte_on_disk() {
        let path =
            std::env::temp_dir().join(format!("karyon-sync-on-flush-{}.jsonl", std::process::id()));
        let mut out = SyncOnFlushFile::new(std::fs::File::create(&path).unwrap());
        writeln!(out, "line 1").unwrap();
        out.flush().expect("flush drains the buffer and fsyncs");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "line 1\n");
        writeln!(out, "line 2").unwrap();
        out.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "line 1\nline 2\n");
        std::fs::remove_file(&path).ok();
    }

    /// One point of a campaign: its index, params and replications.
    type Point<'a> = (usize, &'a BTreeMap<String, ParamValue>, u64);

    /// Runs `points` of one campaign through `writer`, numbering runs from
    /// zero.
    fn feed<W: Write>(writer: &mut JsonlRunWriter<W>, points: &[Point<'_>]) {
        let mut run_index = 0;
        for &(point, params, replications) in points {
            for replication in 0..replications {
                let mut record = RunRecord::new();
                record.set("x", run_index as f64 / 3.0);
                let meta = RunMeta {
                    run_index,
                    point,
                    scenario: "demo",
                    params,
                    replication,
                    seed: run_index * 7,
                };
                writer.on_run(&meta, &record);
                run_index += 1;
            }
        }
    }

    #[test]
    fn one_writer_fed_two_campaigns_writes_what_fresh_writers_do() {
        let params = |mode: &str, gap: f64| {
            let mut params = BTreeMap::new();
            params.insert("gap".to_string(), ParamValue::Float(gap));
            params.insert("mode".to_string(), ParamValue::Text(mode.into()));
            params
        };
        // Point 0 differs between campaigns a and b in its text; between b
        // and c only in the sign of a zero, which compares equal but renders
        // apart.
        let (a0, a1) = (params("kernel", 0.0), params("los0", 1.5));
        let b0 = params("los2", 0.0);
        let c0 = params("los2", -0.0);
        let campaigns: [&[Point<'_>]; 3] =
            [&[(0, &a0, 2), (1, &a1, 1)], &[(0, &b0, 2)], &[(0, &c0, 2)]];

        let mut shared = JsonlRunWriter::new(Vec::new());
        let mut fresh = Vec::new();
        for points in campaigns {
            feed(&mut shared, points);
            let mut writer = JsonlRunWriter::new(Vec::new());
            feed(&mut writer, points);
            fresh.extend(writer.finish().unwrap());
        }
        let shared = String::from_utf8(shared.finish().unwrap()).unwrap();
        assert_eq!(shared, String::from_utf8(fresh).unwrap());
        assert!(shared.contains(r#""params":{"gap":-0,"mode":"los2"}"#), "{shared}");
        assert_eq!(shared.lines().count(), 7);
    }

    #[test]
    fn closures_are_sinks() {
        let mut seen = Vec::new();
        let mut sink = |meta: &RunMeta<'_>, _record: &RunRecord| seen.push(meta.run_index);
        let params = BTreeMap::new();
        let record = RunRecord::new();
        let meta = RunMeta {
            run_index: 7,
            point: 0,
            scenario: "s",
            params: &params,
            replication: 0,
            seed: 1,
        };
        RunSink::on_run(&mut sink, &meta, &record);
        assert_eq!(seen, vec![7]);
    }
}
