//! Crash-safe campaign checkpointing and resume.
//!
//! A multi-hour, million-run campaign loses everything when its process dies
//! — a crash, an OOM kill, a preempted cloud instance.  This module makes
//! campaigns **resumable**: at a configurable canonical-chunk cadence the
//! runner persists a [`CheckpointManifest`] — the campaign's identity
//! fingerprint, a canonical-chunk watermark and the merged per-point
//! aggregation partials, every `f64` stored as its IEEE-754 bit pattern —
//! written **atomically** (temp file + rename) so a crash mid-write can
//! never leave a torn manifest behind.  A [resumed](crate::Session::resume)
//! session validates the fingerprint against the (re-built) campaign,
//! restores the [`CampaignAccumulator`] from the persisted partials, skips
//! every chunk at or below the watermark and continues with live workers.
//!
//! Because aggregation is canonically chunked (see [`crate::aggregate`]), the
//! resumed reduction performs the exact same sequence of floating-point
//! operations as an uninterrupted run: the final
//! [`CampaignReport`](crate::CampaignReport) is
//! **bit-identical** for any worker count and any interruption point — the
//! property `tests/checkpoint_resume.rs` pins down.
//!
//! When a [`RunSink`](crate::RunSink) streams per-run JSONL artifacts
//! alongside, the runner flushes the sink *before* each manifest write, so
//! the stream on disk always covers at least the checkpointed runs — with
//! the durability the sink's writer provides: stream the file through
//! [`SyncOnFlushFile`](crate::SyncOnFlushFile) (as the `karyon-campaign` CLI
//! does) and the covered prefix survives power loss, exactly like the
//! fsynced manifest.  After a crash the stream may run ahead of the manifest
//! (or end in a torn line); [`truncate_jsonl`] cuts it back to exactly the
//! watermark so the resumed stream continues byte-identically.
//!
//! ```
//! use karyon_scenario::{Campaign, CampaignEntry, CampaignOutcome, Checkpointer};
//! use karyon_scenario::builtin_registry;
//!
//! let dir = std::env::temp_dir().join(format!("karyon-ckpt-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let campaign = Campaign::new("doc", 7)
//!     .with_chunk_size(4)
//!     .entry(CampaignEntry::new("lane-change").replications(12).duration_secs(30));
//! let registry = builtin_registry();
//!
//! // First session: budget of one chunk, then a (simulated) preemption.
//! let ckpt = Checkpointer::new(dir.join("c.ckpt.json")).max_chunks_per_session(1);
//! let (outcome, _) = campaign.session(&registry).checkpointer(&ckpt).run().unwrap();
//! assert!(matches!(outcome, CampaignOutcome::Interrupted { chunks_done: 1, .. }));
//!
//! // Second session: resume from the manifest and finish.
//! let ckpt = Checkpointer::new(dir.join("c.ckpt.json"));
//! let (outcome, _) = campaign.session(&registry).checkpointer(&ckpt).resume(true).run().unwrap();
//! let report = outcome.into_report().expect("completed");
//! assert_eq!(report.total_runs, 12);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};

use karyon_sim::{BucketHistogram, BucketHistogramState, OnlineStats, OnlineStatsState};

use crate::aggregate::{CampaignAccumulator, MetricAccumulator, PointAccumulator, QuantileAcc};
use crate::campaign::{fnv1a64, Campaign};
use crate::json::{JsonReader, JsonValue, ObjectWriter, Token};

/// Manifest format tag, checked on load.
const FORMAT: &str = "karyon-campaign-checkpoint";
/// Manifest format version, checked on load.
const VERSION: u64 = 1;
/// Tag of the integrity frame line written after the manifest payload.
const FRAME_TAG: &str = "karyon-ckpt-frame-v1";

/// Checkpoint policy and manifest location for one campaign session.
///
/// Built fluently and handed to a session's
/// [`checkpointer`](crate::Session::checkpointer) setting, which a
/// [resumed](crate::Session::resume) session also loads its manifest from:
///
/// * [`every_chunks`](Checkpointer::every_chunks) — the write cadence, in
///   canonical chunks (default: every chunk).  A cadence hit renders only
///   the points still open — a session keeps the text of the points the
///   merge watermark has passed — but it still writes, FNV-hashes and
///   fsyncs the whole manifest, and that is its floor.  On the
///   `artifact-roundtrip` benchmark spec (1 worker, 2-vCPU VM) a checkpoint
///   every chunk takes a JSONL session from 0.63 s to 0.86 s (medians of 5
///   runs), and checkpoints are 17.5 % of that benchmark's worker time.  A
///   sparser cadence trades resume granularity for less of it.
/// * [`max_chunks_per_session`](Checkpointer::max_chunks_per_session) — an
///   optional bounded work slice: the session executes at most this many
///   chunks, writes a final checkpoint at its end boundary and returns
///   [`CampaignOutcome::Interrupted`](crate::CampaignOutcome::Interrupted).
///   This is both a scheduler primitive (time-slicing a huge campaign across
///   preemptible compute) and the exact semantics of a kill arriving right
///   after a checkpoint — which is what the resume determinism tests use it
///   for.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    path: PathBuf,
    every_chunks: usize,
    max_chunks: Option<usize>,
}

impl Checkpointer {
    /// Creates a checkpointer writing its manifest to `path`, at the default
    /// cadence of every canonical chunk.  The sink flushes and the manifest
    /// write of each checkpoint retry transient I/O failures: four attempts,
    /// pausing 2, 8 and 32 ms between them.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Checkpointer { path: path.into(), every_chunks: 1, max_chunks: None }
    }

    /// Sets the write cadence: a manifest is written after every `every`-th
    /// canonical chunk merge (and always at a session's final boundary).
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn every_chunks(mut self, every: usize) -> Self {
        assert!(every > 0, "the checkpoint cadence must be at least one chunk");
        self.every_chunks = every;
        self
    }

    /// Bounds this session to at most `max` canonical chunks; the session
    /// checkpoints at its end boundary and reports
    /// [`CampaignOutcome::Interrupted`](crate::CampaignOutcome::Interrupted)
    /// if work remains.
    ///
    /// # Panics
    /// Panics if `max` is zero.
    pub fn max_chunks_per_session(mut self, max: usize) -> Self {
        assert!(max > 0, "a session must be allowed at least one chunk");
        self.max_chunks = Some(max);
        self
    }

    /// The manifest path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads and parses the manifest at this checkpointer's path.
    pub fn load(&self) -> Result<CheckpointManifest, String> {
        CheckpointManifest::load(&self.path)
    }

    /// The last chunk (exclusive) this session may execute.
    pub(crate) fn session_end_chunk(&self, start_chunk: usize, chunks: usize) -> usize {
        match self.max_chunks {
            Some(max) => chunks.min(start_chunk.saturating_add(max)),
            None => chunks,
        }
    }

    /// True when the cadence calls for a write after `chunks_done` merges.
    pub(crate) fn due(&self, chunks_done: usize) -> bool {
        chunks_done % self.every_chunks == 0
    }

    /// Writes `manifest_json` atomically: to a temp file in the manifest's
    /// directory, fsynced, then renamed over the final path, so a crash at
    /// any instant leaves either the previous manifest or the new one —
    /// never a torn file.  An [`integrity frame`](integrity_frame) line
    /// follows the payload so [`CheckpointManifest::load`] can detect
    /// corruption that slips past the atomic rename (bit rot, manual edits,
    /// non-atomic filesystems).
    pub(crate) fn write(&self, manifest_json: &str) -> Result<(), String> {
        write_framed_atomic(&self.path, manifest_json, "checkpoint")
    }
}

/// Writes `payload` plus its [`integrity frame`](integrity_frame) atomically
/// to `path`: to a temp file in the target's directory, fsynced, then renamed
/// over the final path, so a crash at any instant leaves either the previous
/// file or the new one — never a torn write.  Shared by checkpoint manifests
/// and [shard manifests](crate::shard); `what` names the artifact in errors.
///
/// The temp file is the full file name plus `.tmp` (`c.json.tmp`), so it can
/// neither clobber a sibling `c.tmp` nor be the manifest itself.
pub(crate) fn write_framed_atomic(path: &Path, payload: &str, what: &str) -> Result<(), String> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let fail =
        |stage: &str, e: std::io::Error| format!("{what} write to {path:?} failed ({stage}): {e}");
    let mut file = fs::File::create(&tmp).map_err(|e| fail("create temp", e))?;
    file.write_all(payload.as_bytes()).map_err(|e| fail("write temp", e))?;
    file.write_all(b"\n").map_err(|e| fail("write temp", e))?;
    file.write_all(integrity_frame(payload).as_bytes()).map_err(|e| fail("write frame", e))?;
    file.write_all(b"\n").map_err(|e| fail("write frame", e))?;
    file.sync_all().map_err(|e| fail("sync temp", e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| fail("rename", e))?;
    // Make the rename durable too, where the platform allows opening
    // directories; skipping this on failure only weakens crash-ordering,
    // never correctness of what is read back.
    if let Some(dir) = dir {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// A parsed checkpoint manifest: the campaign's identity, the canonical-chunk
/// watermark and the persisted per-point aggregation partials.
#[derive(Debug, Clone)]
pub struct CheckpointManifest {
    /// The campaign name (informational; identity is the fingerprint).
    pub campaign: String,
    /// The campaign seed.
    pub seed: u64,
    /// Fingerprint of the campaign definition (see
    /// [`Campaign::fingerprint`]); resume refuses a mismatch.
    pub fingerprint: u64,
    /// The canonical chunk size the partials were reduced with.
    pub chunk_size: usize,
    /// Total runs of the full campaign.
    pub total_runs: u64,
    /// Canonical chunks fully merged into the persisted partials.
    pub chunks_done: usize,
    /// Runs covered by the watermark (`min(chunks_done × chunk_size,
    /// total_runs)`): the exact line count a JSONL stream written alongside
    /// must be [truncated](truncate_jsonl) to before resuming.
    pub runs_done: u64,
    points: Vec<PointAccumulator>,
}

impl CheckpointManifest {
    /// Loads a manifest file, verifying its integrity frame before parsing.
    ///
    /// The atomic rename in [`Checkpointer`] already rules out torn writes on
    /// POSIX filesystems; the frame check additionally catches truncation on
    /// non-atomic filesystems, bit rot and manual edits.  Corrupt manifests
    /// are **refused with a recovery hint** — the file on disk is never
    /// touched and this function never panics.
    pub fn load(path: &Path) -> Result<Self, String> {
        load_framed(path, "checkpoint manifest", CHECKPOINT_HINT, Self::parse)
    }

    /// Parses a manifest from its JSON text.
    ///
    /// The watermark must be consistent: `runs_done` equals
    /// `min(chunks_done × chunk_size, total_runs)` and the runs the points
    /// merged, since resume cuts the streams back to it.
    ///
    /// `points` is read without a JSON tree, straight into the accumulators
    /// the session continues from; the small header members go through a
    /// [`JsonValue`] tree and the header check shard manifests share.  The
    /// document is checked whole before any field is, so a syntax error
    /// anywhere outranks a refused field, and refused fields are reported in
    /// the order header, points, watermark.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut reader = JsonReader::new(text);
        let mut header = Vec::new();
        let mut points = None;
        let token = reader.value()?;
        if token == Token::Object {
            while let Some(key) = reader.next_key()? {
                if key == "points" {
                    points = Some(read_points(&mut reader)?);
                } else {
                    let token = reader.value()?;
                    header.push((key.into_owned(), reader.build(token)?));
                }
            }
        } else {
            reader.skip(&token)?;
        }
        reader.finish()?;
        let doc = JsonValue::Object(header);
        let identity = Identity::parse(&doc, FORMAT, VERSION)?;
        let points = points.unwrap_or_else(|| Err(NO_POINTS.to_string()))?;
        let chunks_done = u64_field(&doc, "chunks_done")?;
        let runs_done = u64_field(&doc, "runs_done")?;
        let covered =
            chunks_done.saturating_mul(identity.chunk_size as u64).min(identity.total_runs);
        if runs_done != covered {
            return Err(format!(
                "inconsistent watermark: runs_done is {runs_done} but {chunks_done} chunks of \
                 {} runs cover {covered} of the campaign's {} runs",
                identity.chunk_size, identity.total_runs
            ));
        }
        let merged = points.iter().try_fold(0u64, |sum, point| sum.checked_add(point.runs));
        if merged != Some(runs_done) {
            return Err(format!(
                "inconsistent watermark: runs_done is {runs_done} but the points merged {} runs",
                merged.map_or_else(|| "more than 2^64".to_string(), |runs| runs.to_string())
            ));
        }
        Ok(CheckpointManifest {
            campaign: identity.campaign.to_string(),
            seed: identity.seed,
            fingerprint: identity.fingerprint,
            chunk_size: identity.chunk_size,
            total_runs: identity.total_runs,
            chunks_done: chunks_done as usize,
            runs_done,
            points,
        })
    }

    /// Renders the manifest as a checkpointing session writes it: the
    /// inverse of [`parse`](Self::parse), so a manifest a session wrote
    /// renders back to the same payload, byte for byte.
    pub fn render(&self) -> String {
        let mut o = ObjectWriter::new();
        self.identity().render(&mut o, FORMAT, VERSION);
        o.u64("chunks_done", self.chunks_done as u64).u64("runs_done", self.runs_done).raw_with(
            "points",
            |out| {
                out.push('[');
                for (index, point) in self.points.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    render_point(out, point);
                }
                out.push(']');
            },
        );
        o.close()
    }

    /// The manifest's identity header.
    fn identity(&self) -> Identity<'_> {
        Identity {
            campaign: &self.campaign,
            seed: self.seed,
            fingerprint: self.fingerprint,
            chunk_size: self.chunk_size,
            total_runs: self.total_runs,
        }
    }

    /// Checks the manifest was written by `campaign`'s definition: the same
    /// [fingerprint](Campaign::fingerprint) (name, seed, chunk size and entry
    /// list — the worker count may differ), chunk size and run count.
    pub fn check(&self, campaign: &Campaign) -> Result<(), String> {
        self.identity().check(campaign, "checkpoint")
    }

    /// Checks the manifest belongs to `campaign` ([`check`](Self::check)) and
    /// is internally consistent with the campaign's expansion.
    pub(crate) fn validate_for(
        &self,
        campaign: &Campaign,
        point_count: usize,
        chunks: usize,
    ) -> Result<(), String> {
        self.check(campaign)?;
        if self.points.len() != point_count {
            return Err(format!(
                "checkpoint shape mismatch: manifest covers {} points, campaign expands to \
                 {point_count}",
                self.points.len()
            ));
        }
        if self.chunks_done > chunks {
            return Err(format!(
                "checkpoint watermark {} exceeds the campaign's {chunks} chunks",
                self.chunks_done
            ));
        }
        Ok(())
    }

    /// Consumes the manifest into the accumulator the runner continues from.
    pub(crate) fn into_accumulator(self) -> CampaignAccumulator {
        CampaignAccumulator::from_points(self.points)
    }
}

/// A checkpointed session's manifest writes: its [`Checkpointer`] and the
/// manifest text kept between writes.
///
/// A point is *closed* once the merge watermark has passed its last run
/// (`first_run + replications <= runs_done`).  Chunks merge in canonical
/// order, so nothing in the session touches a closed point's partial again:
/// its text is rendered once, kept comma-joined in point order, and every
/// later write renders only the points still open.  A write assembles the
/// header, the kept text and the open points in one reused payload buffer.
/// A resumed session starts with no text kept, so its first write renders
/// every point.
pub(crate) struct ManifestWriter<'a> {
    checkpointer: &'a Checkpointer,
    /// Each point's end (its first run plus its replications), in point
    /// order.
    point_ends: Vec<u64>,
    /// Leading points whose partials `closed` holds.
    closed_points: usize,
    /// The closed points' partials, comma-joined.
    closed: String,
    /// The last payload rendered; the next one reuses its buffer.
    payload: String,
}

impl<'a> ManifestWriter<'a> {
    /// A writer for `checkpointer`'s manifests of a campaign whose points end
    /// at `point_ends`.  Empty `point_ends` close no point, so every write
    /// renders every point.
    pub(crate) fn new(checkpointer: &'a Checkpointer, point_ends: Vec<u64>) -> Self {
        ManifestWriter {
            checkpointer,
            point_ends,
            closed_points: 0,
            closed: String::new(),
            payload: String::new(),
        }
    }

    /// The checkpointer the manifests go to.
    pub(crate) fn checkpointer(&self) -> &'a Checkpointer {
        self.checkpointer
    }

    /// Renders the manifest of the merged state after `chunks_done`
    /// canonical chunks (`runs_done` runs), first keeping the text of the
    /// points this watermark closes.
    pub(crate) fn render(
        &mut self,
        campaign: &Campaign,
        chunks_done: usize,
        runs_done: u64,
        accumulator: &CampaignAccumulator,
    ) -> &str {
        let points = accumulator.points();
        let closing =
            self.point_ends.partition_point(|end| *end <= runs_done).max(self.closed_points);
        for point in &points[self.closed_points..closing] {
            if !self.closed.is_empty() {
                self.closed.push(',');
            }
            render_point(&mut self.closed, point);
        }
        self.closed_points = closing;

        let mut buffer = std::mem::take(&mut self.payload);
        buffer.clear();
        let mut o = ObjectWriter::append_to(buffer);
        Identity::of(campaign).render(&mut o, FORMAT, VERSION);
        o.u64("chunks_done", chunks_done as u64).u64("runs_done", runs_done).raw_with(
            "points",
            |out| {
                out.push('[');
                out.push_str(&self.closed);
                for (index, point) in points[self.closed_points..].iter().enumerate() {
                    if index > 0 || self.closed_points > 0 {
                        out.push(',');
                    }
                    render_point(out, point);
                }
                out.push(']');
            },
        );
        self.payload = o.close();
        &self.payload
    }
}

/// The identity header both manifest kinds open with, after their format tag
/// and version: which campaign definition wrote the manifest, and the chunk
/// size and run count it covers.
pub(crate) struct Identity<'a> {
    pub(crate) campaign: &'a str,
    pub(crate) seed: u64,
    pub(crate) fingerprint: u64,
    pub(crate) chunk_size: usize,
    pub(crate) total_runs: u64,
}

impl<'a> Identity<'a> {
    /// `campaign`'s identity.
    pub(crate) fn of(campaign: &'a Campaign) -> Self {
        Identity {
            campaign: campaign.name(),
            seed: campaign.seed(),
            fingerprint: campaign.fingerprint(),
            chunk_size: campaign.chunk_size(),
            total_runs: campaign.run_count(),
        }
    }

    /// Writes this header into the empty payload `o` of a `format` file of
    /// `version`; the caller appends the manifest kind's own fields.
    pub(crate) fn render(&self, o: &mut ObjectWriter, format: &str, version: u64) {
        o.string("format", format)
            .u64("version", version)
            .string("campaign", self.campaign)
            .u64("seed", self.seed)
            .u64("fingerprint", self.fingerprint)
            .u64("chunk_size", self.chunk_size as u64)
            .u64("total_runs", self.total_runs);
    }

    /// Parses the header of a `format` payload, refusing any other format or
    /// version before reading a field.
    pub(crate) fn parse(doc: &'a JsonValue, format: &str, version: u64) -> Result<Self, String> {
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("missing or non-string field {key:?}"))
        };
        if str_field("format")? != format {
            return Err(format!("not a {format} file"));
        }
        let found = u64_field(doc, "version")?;
        if found != version {
            return Err(format!(
                "unsupported manifest version {found} (this build reads {version})"
            ));
        }
        Ok(Identity {
            campaign: str_field("campaign")?,
            seed: u64_field(doc, "seed")?,
            fingerprint: u64_field(doc, "fingerprint")?,
            chunk_size: u64_field(doc, "chunk_size")? as usize,
            total_runs: u64_field(doc, "total_runs")?,
        })
    }

    /// Checks the header against `campaign`: the same fingerprint, chunk size
    /// and run count.  `who` names the manifest in the refusal.
    pub(crate) fn check(&self, campaign: &Campaign, who: &str) -> Result<(), String> {
        let name = campaign.name();
        if self.fingerprint != campaign.fingerprint() {
            return Err(format!(
                "{who} fingerprint {:#018x} does not match campaign {name:?} ({:#018x}) — the \
                 spec (name, seed, chunk size, entries or grids) differs from the one that \
                 wrote it",
                self.fingerprint,
                campaign.fingerprint()
            ));
        }
        if self.chunk_size != campaign.chunk_size() {
            return Err(format!(
                "{who} was reduced with chunk size {} but campaign {name:?} uses {} — folding \
                 it would regroup the floating-point reduction",
                self.chunk_size,
                campaign.chunk_size()
            ));
        }
        if self.total_runs != campaign.run_count() {
            return Err(format!(
                "{who} covers a campaign of {} runs but {name:?} expands to {}",
                self.total_runs,
                campaign.run_count()
            ));
        }
        Ok(())
    }
}

/// A required non-negative integer field of a manifest payload.
pub(crate) fn u64_field(doc: &JsonValue, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

/// Loads an integrity-framed file written by [`write_framed_atomic`] and
/// parses its payload: the one reader behind both manifest kinds.
///
/// A refusal names the `kind`, the file and the reason — not UTF-8,
/// truncated, frame missing, length mismatch, hash mismatch, or the parser's
/// own — and ends with the kind's recovery `hint`.  The file on disk is never
/// touched.
pub(crate) fn load_framed<T>(
    path: &Path,
    kind: &str,
    hint: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {kind} {path:?}: {e}"))?;
    framed_payload(&bytes).and_then(parse).map_err(|why| format!("{kind} {path:?}: {why}; {hint}"))
}

/// The payload of a framed file, or why its integrity frame refuses it.
fn framed_payload(bytes: &[u8]) -> Result<&str, String> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| "the file is not valid UTF-8 — it is corrupt or not a manifest")?;
    let (payload, rest) = text
        .split_once('\n')
        .ok_or("no newline-terminated manifest payload — the file was truncated mid-write")?;
    let frame = JsonValue::parse(rest.lines().next().unwrap_or("").trim())
        .ok()
        .filter(|frame| frame.get("frame").and_then(JsonValue::as_str) == Some(FRAME_TAG))
        .ok_or(
            "the integrity frame line after the payload is missing or unreadable — the file \
             was truncated, or written by an incompatible build",
        )?;
    let framed_len = frame.get("len").and_then(JsonValue::as_u64);
    if framed_len != Some(payload.len() as u64) {
        return Err(format!(
            "length mismatch: the integrity frame covers {} payload bytes but the file holds {} \
             — the manifest was truncated or spliced",
            framed_len.unwrap_or(0),
            payload.len()
        ));
    }
    if frame.get("fnv").and_then(JsonValue::as_u64) != Some(fnv1a64(payload.as_bytes())) {
        return Err("FNV-1a hash mismatch: the manifest bytes changed after they were written — \
                    bit rot, a manual edit or a torn write"
            .to_string());
    }
    Ok(payload)
}

/// Appends one point's partial to `out`.  Every `f64` is stored as its
/// IEEE-754 bit pattern in a `u64` field, so the restore is bit-exact by
/// construction.
fn render_point(out: &mut String, point: &PointAccumulator) {
    let mut o = ObjectWriter::append_to(std::mem::take(out));
    o.u64("runs", point.runs).u64("suspect_runs", point.suspect_runs).object(
        "metrics",
        |metrics| {
            for (name, acc) in &point.metrics {
                metrics.object(name, |o| render_metric(o, acc));
            }
        },
    );
    *out = o.close();
}

fn render_metric(o: &mut ObjectWriter, acc: &MetricAccumulator) {
    let (stats, sum, quantiles) = acc.parts();
    let state = stats.raw_state();
    o.u64("count", state.count)
        .u64("mean", state.mean.to_bits())
        .u64("m2", state.m2.to_bits())
        .u64("min", state.min.to_bits())
        .u64("max", state.max.to_bits())
        .u64("sum", sum.to_bits());
    match quantiles {
        QuantileAcc::Exact(values) => {
            o.u64s("exact", values.iter().map(|v| v.to_bits()));
        }
        QuantileAcc::Bucketed(hist) => {
            let state = hist.raw_state();
            o.object("histogram", |h| {
                h.u64("lo", state.lo.to_bits())
                    .u64("hi", state.hi.to_bits())
                    .u64s("counts", state.counts.iter().copied())
                    .u64("underflow", state.underflow)
                    .u64("overflow", state.overflow)
                    .u64("count", state.count)
                    .u64("sum", state.sum.to_bits())
                    .u64("min", state.min.to_bits())
                    .u64("max", state.max.to_bits());
            });
        }
    }
}

/// One field of a manifest as the loader reads it: its value, or why the
/// field is refused.  A refusal travels as a value inside the reader's own
/// `Result`, because the document is read whole before it is reported:
/// every syntax error outranks it.
type Field<T> = Result<T, String>;

/// Why a manifest without a `points` array is refused.
const NO_POINTS: &str = "missing or non-array field \"points\"";

/// Why a point without a `metrics` object is refused.
const NO_METRICS: &str = "point is missing \"metrics\"";

/// Reads the `points` member straight into accumulators.  Each point is read
/// whole before its fields are checked, in the order `runs`,
/// `suspect_runs`, `metrics`; the points after a refused one are only
/// validated.
fn read_points(reader: &mut JsonReader<'_>) -> Result<Field<Vec<PointAccumulator>>, String> {
    let token = reader.value()?;
    if token != Token::Array {
        reader.skip(&token)?;
        return Ok(Err(NO_POINTS.to_string()));
    }
    let mut points = Ok(Vec::new());
    while reader.next_item()? {
        let Ok(list) = &mut points else {
            reader.skip_value()?;
            continue;
        };
        match read_point(reader)? {
            Ok(point) => list.push(point),
            Err(why) => points = Err(why),
        }
    }
    Ok(points)
}

fn read_point(reader: &mut JsonReader<'_>) -> Result<Field<PointAccumulator>, String> {
    let (mut runs, mut suspect_runs, mut metrics) = (None, None, None);
    let token = reader.value()?;
    if token == Token::Object {
        while let Some(key) = reader.next_key()? {
            match &*key {
                "runs" => runs = reader.u64_value()?,
                "suspect_runs" => suspect_runs = reader.u64_value()?,
                "metrics" => metrics = Some(read_metrics(reader)?),
                _ => reader.skip_value()?,
            }
        }
    } else {
        reader.skip(&token)?;
    }
    let point = || -> Field<PointAccumulator> {
        let runs = runs.ok_or("point is missing \"runs\"")?;
        let suspect_runs = suspect_runs.ok_or("point is missing \"suspect_runs\"")?;
        let metrics = metrics.unwrap_or_else(|| Err(NO_METRICS.to_string()))?;
        Ok(PointAccumulator { runs, suspect_runs, metrics })
    };
    Ok(point())
}

/// Reads a point's `metrics` member into accumulators, in name order.
fn read_metrics(
    reader: &mut JsonReader<'_>,
) -> Result<Field<BTreeMap<String, MetricAccumulator>>, String> {
    let token = reader.value()?;
    if token != Token::Object {
        reader.skip(&token)?;
        return Ok(Err(NO_METRICS.to_string()));
    }
    let mut metrics = Ok(BTreeMap::new());
    while let Some(name) = reader.next_key()? {
        let Ok(map) = &mut metrics else {
            reader.skip_value()?;
            continue;
        };
        match MetricFields::read(reader)?.accumulator(&name) {
            Ok(acc) => {
                map.insert(name.into_owned(), acc);
            }
            Err(why) => metrics = Err(why),
        }
    }
    Ok(metrics)
}

/// An integer array of a manifest, as the loader finds it.
enum IntegerArray<T> {
    Read(Vec<T>),
    NotAnArray,
    /// An item is not a `u64`.
    NonInteger,
}

/// Reads an integer array, mapping each item through `from`.
fn read_integers<T>(
    reader: &mut JsonReader<'_>,
    from: fn(u64) -> T,
) -> Result<IntegerArray<T>, String> {
    let token = reader.value()?;
    if token != Token::Array {
        reader.skip(&token)?;
        return Ok(IntegerArray::NotAnArray);
    }
    let mut values = IntegerArray::Read(Vec::new());
    while reader.next_item()? {
        match (&mut values, reader.u64_value()?) {
            (IntegerArray::Read(list), Some(value)) => list.push(from(value)),
            _ => values = IntegerArray::NonInteger,
        }
    }
    Ok(values)
}

/// The members of one persisted metric.  A field is `None` when the metric
/// lacks it or holds a value of another type.
#[derive(Default)]
struct MetricFields {
    count: Option<u64>,
    mean: Option<u64>,
    m2: Option<u64>,
    min: Option<u64>,
    max: Option<u64>,
    sum: Option<u64>,
    exact: Option<IntegerArray<f64>>,
    histogram: Option<HistogramFields>,
}

/// The members of a persisted histogram; all `None` when `histogram` is not
/// an object.
#[derive(Default)]
struct HistogramFields {
    lo: Option<u64>,
    hi: Option<u64>,
    counts: Option<IntegerArray<u64>>,
    underflow: Option<u64>,
    overflow: Option<u64>,
    count: Option<u64>,
    sum: Option<u64>,
    min: Option<u64>,
    max: Option<u64>,
}

impl MetricFields {
    fn read(reader: &mut JsonReader<'_>) -> Result<Self, String> {
        let mut fields = MetricFields::default();
        let token = reader.value()?;
        if token != Token::Object {
            reader.skip(&token)?;
            return Ok(fields);
        }
        while let Some(key) = reader.next_key()? {
            let slot = match &*key {
                "count" => &mut fields.count,
                "mean" => &mut fields.mean,
                "m2" => &mut fields.m2,
                "min" => &mut fields.min,
                "max" => &mut fields.max,
                "sum" => &mut fields.sum,
                "exact" => {
                    fields.exact = Some(read_integers(reader, f64::from_bits)?);
                    continue;
                }
                "histogram" => {
                    fields.histogram = Some(HistogramFields::read(reader)?);
                    continue;
                }
                _ => {
                    reader.skip_value()?;
                    continue;
                }
            };
            *slot = reader.u64_value()?;
        }
        Ok(fields)
    }

    /// The accumulator the fields persist, or why metric `name` is refused:
    /// the statistics first, then the one quantile state.
    fn accumulator(self, name: &str) -> Result<MetricAccumulator, String> {
        let bits = |field: Option<u64>, key: &str| {
            field
                .map(f64::from_bits)
                .ok_or_else(|| format!("metric {name:?} is missing bit field {key:?}"))
        };
        let stats = OnlineStats::from_raw_state(OnlineStatsState {
            count: self.count.ok_or_else(|| format!("metric {name:?} is missing \"count\""))?,
            mean: bits(self.mean, "mean")?,
            m2: bits(self.m2, "m2")?,
            min: bits(self.min, "min")?,
            max: bits(self.max, "max")?,
        });
        let sum = bits(self.sum, "sum")?;
        let quantiles = match (self.exact, self.histogram) {
            (Some(IntegerArray::Read(values)), None) => QuantileAcc::Exact(values),
            (Some(IntegerArray::NotAnArray), None) => {
                return Err(format!("metric {name:?}: \"exact\" must be an array"))
            }
            (Some(IntegerArray::NonInteger), None) => {
                return Err(format!("metric {name:?}: non-integer sample bit pattern"))
            }
            (None, Some(hist)) => QuantileAcc::Bucketed(hist.histogram(name)?),
            _ => {
                return Err(format!(
                    "metric {name:?} must carry exactly one of \"exact\" or \"histogram\""
                ))
            }
        };
        Ok(MetricAccumulator::from_parts(stats, sum, quantiles))
    }
}

impl HistogramFields {
    fn read(reader: &mut JsonReader<'_>) -> Result<Self, String> {
        let mut fields = HistogramFields::default();
        let token = reader.value()?;
        if token != Token::Object {
            reader.skip(&token)?;
            return Ok(fields);
        }
        while let Some(key) = reader.next_key()? {
            let slot = match &*key {
                "lo" => &mut fields.lo,
                "hi" => &mut fields.hi,
                "underflow" => &mut fields.underflow,
                "overflow" => &mut fields.overflow,
                "count" => &mut fields.count,
                "sum" => &mut fields.sum,
                "min" => &mut fields.min,
                "max" => &mut fields.max,
                "counts" => {
                    fields.counts = Some(read_integers(reader, |count| count)?);
                    continue;
                }
                _ => {
                    reader.skip_value()?;
                    continue;
                }
            };
            *slot = reader.u64_value()?;
        }
        Ok(fields)
    }

    /// The histogram the fields persist, or why metric `name`'s histogram is
    /// refused: its buckets first, then the fields in state order, then the
    /// range.
    fn histogram(self, name: &str) -> Result<BucketHistogram, String> {
        let counts = match self.counts {
            Some(IntegerArray::Read(counts)) => counts,
            Some(IntegerArray::NonInteger) => {
                return Err(format!("metric {name:?}: non-integer bucket count"))
            }
            _ => return Err(format!("metric {name:?} histogram is missing \"counts\"")),
        };
        if counts.is_empty() {
            return Err(format!("metric {name:?} histogram has no buckets"));
        }
        let field = |field: Option<u64>, key: &str| {
            field.ok_or_else(|| format!("metric {name:?} histogram is missing {key:?}"))
        };
        let state = BucketHistogramState {
            lo: f64::from_bits(field(self.lo, "lo")?),
            hi: f64::from_bits(field(self.hi, "hi")?),
            counts,
            underflow: field(self.underflow, "underflow")?,
            overflow: field(self.overflow, "overflow")?,
            count: field(self.count, "count")?,
            sum: f64::from_bits(field(self.sum, "sum")?),
            min: f64::from_bits(field(self.min, "min")?),
            max: f64::from_bits(field(self.max, "max")?),
        };
        if !(state.lo.is_finite() && state.hi.is_finite() && state.lo < state.hi) {
            return Err(format!("metric {name:?} histogram has an invalid range"));
        }
        Ok(BucketHistogram::from_raw_state(state))
    }
}

/// Renders the integrity frame line written after a manifest payload: the
/// payload's byte length plus its FNV-1a hash, as single-line JSON.
///
/// Exposed so tooling (and the corrupt-manifest tests) can construct frames
/// for payloads they assemble themselves.
pub fn integrity_frame(manifest_json: &str) -> String {
    let mut o = ObjectWriter::new();
    o.string("frame", FRAME_TAG)
        .u64("len", manifest_json.len() as u64)
        .u64("fnv", fnv1a64(manifest_json.as_bytes()));
    o.finish()
}

/// The recovery hint a refused checkpoint manifest carries.
const CHECKPOINT_HINT: &str = "refusing to resume from it — recovery: delete the manifest (and \
     discard or re-truncate any JSONL/trace streams written alongside) and restart the campaign \
     from scratch, or restore the manifest from a backup";

/// Outcome of a [`scan_complete_lines`] pass.
struct ScanOutcome {
    /// Byte offset just past the last kept line.
    offset: u64,
    /// Number of complete lines kept.
    lines: u64,
}

/// Scans complete newline-terminated lines from the start of `file`, keeping
/// each line `keep(index, bytes-without-newline)` approves and stopping at
/// the first rejected line, at EOF, or at a torn tail (trailing bytes with no
/// newline — including a tail that ends mid multi-byte UTF-8 character, which
/// is why this works on raw bytes and never decodes).
///
/// Shared by [`truncate_jsonl`] and [`truncate_trace_jsonl`] so both recover
/// torn streams identically.
fn scan_complete_lines(
    path: &Path,
    file: &fs::File,
    mut keep: impl FnMut(u64, &[u8]) -> bool,
) -> Result<ScanOutcome, String> {
    let mut reader = std::io::BufReader::new(file);
    let mut line: Vec<u8> = Vec::new();
    let mut offset = 0u64;
    let mut lines = 0u64;
    loop {
        line.clear();
        let n = reader
            .read_until(b'\n', &mut line)
            .map_err(|e| format!("cannot read stream {path:?}: {e}"))?;
        if n == 0 || line.last() != Some(&b'\n') {
            // EOF, or a torn tail with no newline: nothing more to keep.
            return Ok(ScanOutcome { offset, lines });
        }
        if !keep(lines, &line[..line.len() - 1]) {
            return Ok(ScanOutcome { offset, lines });
        }
        offset += n as u64;
        lines += 1;
    }
}

/// Truncates a JSONL run stream to its first `runs` complete lines, dropping
/// anything beyond the checkpoint watermark — lines a crashed session wrote
/// past its last manifest, including a torn final line (even one cut mid
/// multi-byte UTF-8 character).
///
/// Returns the retained byte length.  Errors **without truncating** if the
/// stream holds fewer than `runs` complete lines: the runner flushes the sink
/// before every manifest write, so a shorter stream means either the two
/// files do not belong together, or a power loss dropped tail writes a
/// non-syncing writer had only handed to the OS cache (stream through
/// [`SyncOnFlushFile`](crate::SyncOnFlushFile) to rule that out).
pub fn truncate_jsonl(path: &Path, runs: u64) -> Result<u64, String> {
    let file = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| format!("cannot open JSONL stream {path:?}: {e}"))?;
    let scan = scan_complete_lines(path, &file, |index, _| index < runs)?;
    if scan.lines < runs {
        return Err(format!(
            "JSONL stream {path:?} holds only {} complete lines but the \
             checkpoint covers {runs} runs — either the stream does not belong to this \
             checkpoint, or a power loss dropped tail writes that never reached stable \
             storage (stream through a sync-on-flush writer to prevent this)",
            scan.lines
        ));
    }
    file.set_len(scan.offset).map_err(|e| format!("cannot truncate JSONL stream {path:?}: {e}"))?;
    file.sync_all().map_err(|e| format!("cannot sync JSONL stream {path:?}: {e}"))?;
    Ok(scan.offset)
}

/// Truncates a JSONL **trace** stream to the lines belonging to runs below
/// `runs_done`, dropping everything a crashed session wrote past its last
/// manifest — including a torn final line cut mid multi-byte UTF-8 character.
///
/// Trace lines lead with `{"run":N,` (the canonical field order the
/// deterministic trace writer emits), which is how each line's run index is
/// recovered without parsing the full record.  Unlike [`truncate_jsonl`] this
/// is lenient: traces are optional side artifacts, so a missing file is fine
/// (tracing may have been off) and fewer lines than the watermark is not an
/// error — a fresh session simply appends from wherever the stream ends.
///
/// Returns the retained byte length.
pub fn truncate_trace_jsonl(path: &Path, runs_done: u64) -> Result<u64, String> {
    let file = match fs::OpenOptions::new().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(format!("cannot open trace stream {path:?}: {e}")),
    };
    let scan = scan_complete_lines(path, &file, |_, line| {
        line_run_index(line).is_some_and(|run| run < runs_done)
    })?;
    let len = file.metadata().map_err(|e| format!("cannot stat trace stream {path:?}: {e}"))?.len();
    if scan.offset < len {
        file.set_len(scan.offset)
            .map_err(|e| format!("cannot truncate trace stream {path:?}: {e}"))?;
        file.sync_all().map_err(|e| format!("cannot sync trace stream {path:?}: {e}"))?;
    }
    Ok(scan.offset)
}

/// Extracts the run index from a line's canonical `{"run":N,` prefix (both
/// the run-stream and trace-stream writers emit it first), operating on raw
/// bytes so torn/invalid UTF-8 elsewhere cannot panic.  Shared with the shard
/// segment validation of [`crate::shard`].
pub(crate) fn line_run_index(line: &[u8]) -> Option<u64> {
    let rest = line.strip_prefix(b"{\"run\":")?;
    let digits: Vec<u8> = rest.iter().copied().take_while(u8::is_ascii_digit).collect();
    if digits.is_empty() {
        return None;
    }
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// Reads a checkpoint manifest's raw JSON payload — the first line of the
/// file, without the integrity frame — for tooling that wants to inspect a
/// manifest without restoring it.
pub fn read_manifest_text(path: &Path) -> Result<String, String> {
    let mut text = String::new();
    fs::File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("cannot read checkpoint manifest {path:?}: {e}"))?;
    Ok(text.split_once('\n').map(|(payload, _)| payload.to_string()).unwrap_or(text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("karyon-ckpt-{}-{name}", std::process::id()))
    }

    /// The session renderer with nothing kept: every point renders.
    fn render_manifest(
        campaign: &Campaign,
        chunks_done: usize,
        runs_done: u64,
        accumulator: &CampaignAccumulator,
    ) -> String {
        let ckpt = Checkpointer::new(temp_path("never-written.json"));
        ManifestWriter::new(&ckpt, Vec::new())
            .render(campaign, chunks_done, runs_done, accumulator)
            .to_string()
    }

    #[test]
    fn manifest_round_trips_every_quantile_state_bit_exactly() {
        // Build a synthetic accumulator with both quantile states and
        // non-trivial floating-point content.
        let mut exact = MetricAccumulator::new(None);
        for v in [0.1, -2.5e17, 3.3333333333333335, f64::MIN_POSITIVE] {
            exact.record(v);
        }
        let mut ranged = MetricAccumulator::new(Some((0.0, 1.0)));
        for v in [0.25, 0.5, 1.5, -0.5] {
            ranged.record(v);
        }
        let mut metrics = std::collections::BTreeMap::new();
        metrics.insert("exact".to_string(), exact);
        metrics.insert("ranged".to_string(), ranged);
        let point = PointAccumulator { runs: 4, suspect_runs: 1, metrics };
        let acc = CampaignAccumulator::from_points(vec![point, PointAccumulator::default()]);

        // Two chunks of 2 cover the entry's 4 runs, all merged into point 0.
        let campaign = Campaign::new("rt", 9)
            .with_chunk_size(2)
            .entry(crate::CampaignEntry::new("echo").replications(4));
        let text = render_manifest(&campaign, 2, 4, &acc);
        let manifest = CheckpointManifest::parse(&text).expect("well-formed manifest");
        assert_eq!(manifest.campaign, "rt");
        assert_eq!(manifest.chunks_done, 2);
        assert_eq!(manifest.runs_done, 4);
        assert_eq!(manifest.fingerprint, campaign.fingerprint());

        let restored = manifest.into_accumulator();
        assert_eq!(restored.points().len(), 2);
        // Continuing both accumulators must produce identical summaries: the
        // restore is bit-exact, including the ±∞ min/max sentinels of the
        // empty second point.
        for (a, b) in acc.points().iter().zip(restored.points()) {
            assert_eq!(a.runs, b.runs);
            assert_eq!(a.suspect_runs, b.suspect_runs);
            let left = a.summaries();
            let right = b.summaries();
            assert_eq!(left, right);
            for (name, s) in &left {
                assert_eq!(s.mean.to_bits(), right[name].mean.to_bits(), "{name}");
                assert_eq!(s.std_dev.to_bits(), right[name].std_dev.to_bits(), "{name}");
            }
        }
    }

    #[test]
    fn manifest_rejects_foreign_and_corrupt_files() {
        assert!(CheckpointManifest::parse("{}").unwrap_err().contains("format"));
        assert!(CheckpointManifest::parse("not json").unwrap_err().contains("JSON error"));
        let ok = render_manifest(
            &Campaign::new("x", 1),
            0,
            0,
            &CampaignAccumulator::from_points(vec![]),
        );
        assert!(CheckpointManifest::parse(&ok).is_ok());
        let wrong_version = ok.replace("\"version\":1", "\"version\":99");
        assert!(CheckpointManifest::parse(&wrong_version).unwrap_err().contains("version"));
    }

    #[test]
    fn a_loaded_manifest_renders_back_to_the_payload_it_was_read_from() {
        let mut exact = MetricAccumulator::new(None);
        let mut ranged = MetricAccumulator::new(Some((0.0, 1.0)));
        for v in [0.25, -0.0, 1.5, f64::MIN_POSITIVE] {
            exact.record(v);
            ranged.record(v);
        }
        let metrics = [("exact".to_string(), exact), ("ranged".to_string(), ranged)];
        let point = PointAccumulator { runs: 4, suspect_runs: 1, metrics: metrics.into() };
        let campaign = Campaign::new("render \"quoted\"", u64::MAX)
            .with_chunk_size(3)
            .entry(crate::CampaignEntry::new("echo").replications(4));
        let accumulator = CampaignAccumulator::from_points(vec![point]);
        let text = render_manifest(&campaign, 2, 4, &accumulator);
        assert_eq!(CheckpointManifest::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn refusals_follow_the_check_order_not_the_member_order() {
        // The loader reads the document whole, then refuses the first field
        // in check order: syntax, header, points (`runs`, `suspect_runs`,
        // `metrics`), watermark.
        let campaign = Campaign::new("order", 3)
            .with_chunk_size(2)
            .entry(crate::CampaignEntry::new("echo").replications(2));
        let point = PointAccumulator { runs: 2, ..PointAccumulator::default() };
        let good = render_manifest(&campaign, 1, 2, &CampaignAccumulator::from_points(vec![point]));
        CheckpointManifest::parse(&good).expect("a consistent manifest parses");
        let refusal = |from: &str, to: &str| {
            assert!(good.contains(from), "{from}");
            CheckpointManifest::parse(&good.replace(from, to)).unwrap_err()
        };
        let point = r#"{"runs":2,"suspect_runs":0,"metrics":{}}"#;
        let err = refusal(point, r#"{"metrics":5}"#);
        assert_eq!(err, "point is missing \"runs\"");
        let err = refusal(point, r#"{"metrics":{},"suspect_runs":"0","runs":2}"#);
        assert_eq!(err, "point is missing \"suspect_runs\"");
        let err = refusal(point, r#"{"metrics":{"m":{"sum":0}},"suspect_runs":0,"runs":2}"#);
        assert_eq!(err, "metric \"m\" is missing \"count\"");
        let err = refusal("\"points\":[", "\"points\":[{},");
        assert_eq!(err, "point is missing \"runs\"");
        let err = refusal("\"version\":1,", "\"points\":1,\"version\":1,");
        assert!(err.contains("duplicate object key \"points\""), "{err}");
        let both = good.replace(point, "{}").replace("\"seed\":3", "\"seed\":-3");
        assert_eq!(
            CheckpointManifest::parse(&both).unwrap_err(),
            "missing or non-integer field \"seed\""
        );
        let trailing = format!("{} x", good.replace(point, "{}"));
        assert!(CheckpointManifest::parse(&trailing).unwrap_err().contains("trailing"));
        let watermark = good.replace(point, "{}").replace("\"runs_done\":2", "\"runs_done\":1");
        assert_eq!(CheckpointManifest::parse(&watermark).unwrap_err(), "point is missing \"runs\"");
    }

    #[test]
    fn manifests_with_an_inconsistent_watermark_are_refused() {
        // Two chunks of 2 cover 4 of the campaign's 5 runs, all in point 0.
        let campaign = Campaign::new("watermark", 3)
            .with_chunk_size(2)
            .entry(crate::CampaignEntry::new("echo").replications(5));
        let point = PointAccumulator { runs: 4, ..PointAccumulator::default() };
        let good = render_manifest(&campaign, 2, 4, &CampaignAccumulator::from_points(vec![point]));
        CheckpointManifest::parse(&good).expect("a consistent watermark parses");

        // A watermark off the chunk grid: resume would cut the streams to it.
        let off_grid = good.replace("\"runs_done\":4", "\"runs_done\":3");
        let err = CheckpointManifest::parse(&off_grid).unwrap_err();
        assert!(err.contains("runs_done is 3") && err.contains("cover 4"), "{err}");
        // On the grid (the last chunk is short), but the points merged fewer.
        let unmerged =
            good.replace("\"chunks_done\":2,\"runs_done\":4", "\"chunks_done\":3,\"runs_done\":5");
        let err = CheckpointManifest::parse(&unmerged).unwrap_err();
        assert!(err.contains("runs_done is 5") && err.contains("merged 4 runs"), "{err}");
        // A chunk count whose runs overflow u64 is refused, not wrapped.
        let huge = good.replace("\"chunks_done\":2", "\"chunks_done\":18446744073709551615");
        assert!(CheckpointManifest::parse(&huge).unwrap_err().contains("runs_done is 4"));

        // Loaded from disk behind a valid frame, the refusal carries the
        // recovery hint and leaves the file alone.
        let path = temp_path("watermark.json");
        let framed = format!("{off_grid}\n{}\n", integrity_frame(&off_grid));
        fs::write(&path, &framed).unwrap();
        let err = CheckpointManifest::load(&path).unwrap_err();
        assert!(err.contains("runs_done is 3") && err.contains("recovery:"), "{err}");
        assert_eq!(fs::read_to_string(&path).unwrap(), framed);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_replaces_the_manifest_in_one_step() {
        let path = temp_path("atomic.json");
        let ckpt = Checkpointer::new(&path).every_chunks(3);
        assert!(ckpt.due(3) && !ckpt.due(4));
        ckpt.write("{\"first\": true}").expect("writable temp dir");
        ckpt.write("{\"second\": true}").expect("writable temp dir");
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("second"));
        let tmp = temp_path("atomic.json.tmp");
        assert!(!tmp.exists(), "the temp file must be renamed away");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_writes_spare_sibling_tmp_files_and_tmp_named_manifests() {
        // A sibling `<stem>.tmp` is someone else's file: a write must not
        // stage over it and rename it away.
        let sibling = temp_path("sibling.tmp");
        fs::write(&sibling, "not ours").unwrap();
        let campaign = Campaign::new("tmp", 3).with_chunk_size(2);
        let payload = render_manifest(&campaign, 0, 0, &CampaignAccumulator::from_points(vec![]));
        let path = temp_path("sibling.json");
        Checkpointer::new(&path).write(&payload).expect("writable temp dir");
        assert_eq!(fs::read_to_string(&sibling).unwrap(), "not ours");
        CheckpointManifest::load(&path).expect("the manifest landed");
        fs::remove_file(&path).ok();
        fs::remove_file(&sibling).ok();

        // A manifest named `x.tmp` must not stage onto itself.
        let path = temp_path("x.tmp");
        let ckpt = Checkpointer::new(&path);
        ckpt.write(&payload).expect("writable temp dir");
        ckpt.write(&payload).expect("a rewrite replaces it whole");
        assert_eq!(CheckpointManifest::load(&path).unwrap().campaign, "tmp");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_jsonl_cuts_torn_tails_and_rejects_short_streams() {
        let path = temp_path("stream.jsonl");
        fs::write(&path, "{\"run\":0}\n{\"run\":1}\n{\"run\":2}\n{\"ru").unwrap();
        // Keep two complete lines; the third line and the torn tail go.
        let kept = truncate_jsonl(&path, 2).expect("enough lines");
        assert_eq!(kept, 20);
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"run\":0}\n{\"run\":1}\n");
        // Truncating to more lines than exist is an error, not silent loss.
        let err = truncate_jsonl(&path, 5).unwrap_err();
        assert!(err.contains("2 complete lines"), "{err}");
        // Truncating to zero empties the stream.
        truncate_jsonl(&path, 0).expect("zero is fine");
        assert_eq!(fs::read_to_string(&path).unwrap(), "");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn the_integrity_frame_guards_the_manifest_on_disk() {
        let path = temp_path("frame.json");
        let campaign = Campaign::new("framed", 3).with_chunk_size(2);
        let payload = render_manifest(&campaign, 0, 0, &CampaignAccumulator::from_points(vec![]));
        let ckpt = Checkpointer::new(&path);
        ckpt.write(&payload).expect("writable temp dir");
        CheckpointManifest::load(&path).expect("a pristine manifest loads");

        let pristine = fs::read(&path).unwrap();
        let assert_refused = |bytes: &[u8], needle: &str| {
            fs::write(&path, bytes).unwrap();
            let before = fs::read(&path).unwrap();
            let err = CheckpointManifest::load(&path).unwrap_err();
            assert!(err.contains(needle), "expected {needle:?} in: {err}");
            assert!(err.contains("recovery:"), "refusals carry a recovery hint: {err}");
            assert_eq!(fs::read(&path).unwrap(), before, "failed loads never touch the disk");
        };

        // Truncated mid-payload: no newline-terminated payload at all.
        assert_refused(&pristine[..payload.len() / 2], "truncated mid-write");
        // Truncated right after the payload: the frame line is gone.
        assert_refused(&pristine[..payload.len() + 1], "integrity frame line after the payload");
        // Truncated inside the frame line.
        assert_refused(&pristine[..payload.len() + 10], "integrity frame");
        // A single flipped payload byte fails the hash check.
        let mut flipped = pristine.clone();
        flipped[10] ^= 0x20;
        assert_refused(&flipped, "hash mismatch");
        // A spliced (shortened) payload under the old frame fails on length.
        let mut spliced = payload.replace("\"campaign\":\"framed\"", "\"campaign\":\"f\"");
        spliced.push('\n');
        spliced.push_str(&integrity_frame(&payload));
        spliced.push('\n');
        assert_refused(spliced.as_bytes(), "length mismatch");

        // A version bump with a *valid* frame gets past the integrity check
        // and is refused by the parser with the version message.
        let bumped = payload.replace("\"version\":1", "\"version\":99");
        let mut file = format!("{bumped}\n{}\n", integrity_frame(&bumped));
        fs::write(&path, &file).unwrap();
        let err = CheckpointManifest::load(&path).unwrap_err();
        assert!(err.contains("unsupported manifest version 99"), "{err}");

        // Not UTF-8 at all.
        file.truncate(0);
        assert_refused(&[0xFF, 0xFE, 0x00, b'\n', b'x'], "not valid UTF-8");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_handles_multibyte_utf8_torn_tails_and_empty_files() {
        // A torn tail that stops mid-way through the two-byte UTF-8 encoding
        // of 'é' (0xC3 0xA9): the byte-level scanner must shrug it off where
        // a read_to_string-based implementation would refuse the whole file.
        let jsonl = temp_path("utf8.jsonl");
        let mut bytes = Vec::new();
        bytes.extend_from_slice("{\"run\":0,\"s\":\"é\"}\n{\"run\":1,\"s\":\"é\"}\n".as_bytes());
        bytes.extend_from_slice(b"{\"run\":2,\"s\":\"\xC3");
        fs::write(&jsonl, &bytes).unwrap();
        let kept = truncate_jsonl(&jsonl, 2).expect("torn multi-byte tail is recoverable");
        assert_eq!(kept as usize, "{\"run\":0,\"s\":\"é\"}\n{\"run\":1,\"s\":\"é\"}\n".len());

        // Zero-length streams: watermark 0 is fine, anything more errors
        // without touching the file.
        fs::write(&jsonl, b"").unwrap();
        assert_eq!(truncate_jsonl(&jsonl, 0).unwrap(), 0);
        let err = truncate_jsonl(&jsonl, 1).unwrap_err();
        assert!(err.contains("0 complete lines"), "{err}");
        assert_eq!(fs::read(&jsonl).unwrap(), b"", "failed truncation never writes");
        fs::remove_file(&jsonl).ok();

        // The trace variant shares the scanner: same torn tail, but lenient —
        // it keeps lines below the watermark and never errors on short files.
        let trace = temp_path("utf8.trace.jsonl");
        let mut bytes = Vec::new();
        bytes.extend_from_slice("{\"run\":0,\"name\":\"é\"}\n{\"run\":1,\"x\":1}\n".as_bytes());
        bytes.extend_from_slice(b"{\"run\":2,\"s\":\"\xC3");
        fs::write(&trace, &bytes).unwrap();
        let kept = truncate_trace_jsonl(&trace, 2).expect("lenient on torn tails");
        assert_eq!(kept as usize, "{\"run\":0,\"name\":\"é\"}\n{\"run\":1,\"x\":1}\n".len());
        // Watermark below the stream cuts back run 1 too.
        assert!(truncate_trace_jsonl(&trace, 1).unwrap() < kept);
        // Zero-length and missing files are fine.
        fs::write(&trace, b"").unwrap();
        assert_eq!(truncate_trace_jsonl(&trace, 7).unwrap(), 0);
        fs::remove_file(&trace).ok();
        assert_eq!(truncate_trace_jsonl(&trace, 7).unwrap(), 0, "missing trace is not an error");
    }

    #[test]
    #[should_panic(expected = "cadence must be at least one chunk")]
    fn zero_cadence_rejected() {
        let _ = Checkpointer::new("x").every_chunks(0);
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_session_budget_rejected() {
        let _ = Checkpointer::new("x").max_chunks_per_session(0);
    }
}
