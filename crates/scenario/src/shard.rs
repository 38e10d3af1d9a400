//! The shard/merge protocol: one campaign, split across machines.
//!
//! A campaign's canonical chunk range is the natural distribution unit: any
//! contiguous window of chunks can execute on its own machine, with its own
//! worker count, and stream its runs — with **global** run indices — into a
//! JSONL segment.  Concatenated in window order, the segments are exactly the
//! stream an uninterrupted run writes.  This module is that protocol,
//! coordination-free and over files in one directory; a
//! [chunk window](crate::Session::chunks) executes each shard:
//!
//! * [`ShardPlan`] — splits the `[0, chunks)` canonical range into
//!   `shard_count` balanced, contiguous [`ShardSlice`]s;
//! * [`ShardManifest`] — the header a completed shard session persists: the
//!   campaign's identity fingerprint and the slice bounds, written atomically
//!   with the same integrity frame a checkpoint manifest carries.  It holds
//!   no aggregation state: a manifest on disk only says its segments are
//!   complete;
//! * [`validate_shard_set`] — refuses foreign, tampered, overlapping or
//!   gapped shard sets;
//! * [`read_run_segment`] / [`read_trace_segment`] — validate a shard's JSONL
//!   run/trace segment against its global run range, so segments concatenate
//!   byte-exactly into the stream an uninterrupted run writes.
//!
//! `merge` is then validate, stitch and replay: the stitched run stream goes
//! through [`Campaign::read_jsonl_records`], which checks every line's
//! coordinates against the campaign's canonical run, and
//! [`Campaign::reduce_records`] — the path `karyon-campaign report --jsonl`
//! takes — so the merged [`CampaignReport`](crate::CampaignReport) is
//! **byte-identical** to an uninterrupted run's (the property
//! `tests/shard.rs` pins for arbitrary shard counts, per-shard worker counts
//! and merge orders).  Merge holds the stitched stream and its records in
//! memory, which is O(runs).
//!
//! ## Why merge replays runs
//!
//! Floating-point merging is not associative: folding shard-level aggregates
//! together would regroup the reduction and drift in the last ulp, and the
//! exact-to-histogram quantile spill depends on how many samples the
//! *canonical prefix* has seen.  Replaying the stitched run stream through
//! the canonical chunk reduction performs the single-machine operation
//! sequence exactly, and needs nothing beyond the run segments every shard
//! writes anyway — so shards persist no per-chunk partials, and the
//! checkpoint manifest stays the only persisted aggregation format.
//!
//! ## On-disk layout
//!
//! The `karyon-campaign` CLI writes, per shard `I` of `N`, into one shared
//! directory:
//!
//! ```text
//! <dir>/<name>.shard-I-of-N.manifest.json    # ShardManifest + integrity frame
//! <dir>/<name>.shard-I-of-N.jsonl            # run segment (global run indices)
//! <dir>/<name>.shard-I-of-N.trace.jsonl      # trace segment (optional)
//! ```
//!
//! A faulted shard session is simply rerun: the shard is the unit of retry
//! (there is no checkpointing inside a shard window), and the manifest is
//! only written after the window completes, so a crash can never leave a
//! manifest pointing at incomplete segments.

use std::fs;
use std::path::Path;

use crate::campaign::Campaign;
use crate::checkpoint::{line_run_index, load_framed, u64_field, write_framed_atomic, Identity};
use crate::json::{JsonValue, ObjectWriter};

/// Shard manifest format tag, checked on load.
const FORMAT: &str = "karyon-campaign-shard";
/// Shard manifest format version, checked on load.  Version 1 also carried
/// every chunk's aggregation partial; this build refuses it.
const VERSION: u64 = 2;

/// One shard's contiguous window of the canonical chunk range:
/// `[start_chunk, end_chunk)`, as shard `index` of `shard_count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlice {
    /// This shard's index, `0..shard_count`.
    pub index: usize,
    /// Total shards in the plan.
    pub shard_count: usize,
    /// First canonical chunk of the window (inclusive).
    pub start_chunk: usize,
    /// End of the window (exclusive).
    pub end_chunk: usize,
}

impl ShardSlice {
    /// Canonical chunks in this slice.
    pub fn chunk_count(&self) -> usize {
        self.end_chunk - self.start_chunk
    }

    /// True when the slice covers no chunks (legal when a plan has more
    /// shards than the campaign has chunks).
    pub fn is_empty(&self) -> bool {
        self.start_chunk == self.end_chunk
    }

    /// The global run range `[start, end)` this slice covers, for a campaign
    /// with the given chunk size and total run count — the exact run indices
    /// the shard's JSONL/trace segments must carry.
    pub fn run_range(&self, chunk_size: usize, total_runs: u64) -> (u64, u64) {
        let run = |chunk: usize| (chunk as u64).saturating_mul(chunk_size as u64).min(total_runs);
        (run(self.start_chunk), run(self.end_chunk))
    }
}

/// A balanced, contiguous split of a campaign's canonical chunk range into
/// shard windows.
///
/// Every machine that derives the plan from the same campaign definition and
/// shard count computes the same slices — no coordination needed.  Chunks are
/// dealt contiguously (shard boundaries never interleave), which is what lets
/// each shard's JSONL/trace segment concatenate byte-exactly.  The first
/// `chunks % shard_count` shards carry one extra chunk; when the plan has
/// more shards than chunks, the tail slices are legally empty.  Slices are
/// computed on demand, so a plan of any shard count costs nothing to build.
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan {
    chunks: usize,
    shard_count: usize,
}

impl ShardPlan {
    /// Splits `chunks` canonical chunks into `shard_count` contiguous slices.
    ///
    /// # Panics
    /// Panics if `shard_count` is zero.
    pub fn new(chunks: usize, shard_count: usize) -> Self {
        assert!(shard_count > 0, "a shard plan needs at least one shard");
        ShardPlan { chunks, shard_count }
    }

    /// The plan for `campaign`'s canonical chunk range.
    ///
    /// # Panics
    /// Panics if `shard_count` is zero.
    pub fn for_campaign(campaign: &Campaign, shard_count: usize) -> Self {
        ShardPlan::new(campaign.canonical_chunks(), shard_count)
    }

    /// Total canonical chunks the plan covers.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The slices, in shard (and canonical chunk) order.
    pub fn slices(&self) -> impl Iterator<Item = ShardSlice> + '_ {
        (0..self.shard_count).map(|index| self.slice(index))
    }

    /// Shard `index`'s slice.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn slice(&self, index: usize) -> ShardSlice {
        assert!(
            index < self.shard_count,
            "shard {index} is out of range for {} shards",
            self.shard_count
        );
        let (base, extra) = (self.chunks / self.shard_count, self.chunks % self.shard_count);
        // Shards before `index` hold `base` chunks each, plus one each for
        // the first `extra` of them; no term can exceed `chunks`.
        let start_chunk = index * base + index.min(extra);
        ShardSlice {
            index,
            shard_count: self.shard_count,
            start_chunk,
            end_chunk: start_chunk + base + usize::from(index < extra),
        }
    }
}

/// What one completed shard session persists: the campaign identity it
/// executed a window of, and the window bounds.
///
/// Serialised like a checkpoint manifest — single-line JSON followed by an
/// [`integrity_frame`](crate::integrity_frame) line — and written atomically
/// only after the window completes, so a manifest [`ShardManifest::load`]
/// accepts means the shard's segments are complete.
#[derive(Debug, Clone)]
pub struct ShardManifest {
    /// The campaign name (informational; identity is the fingerprint).
    pub campaign: String,
    /// The campaign seed.
    pub seed: u64,
    /// Fingerprint of the campaign definition ([`Campaign::fingerprint`]);
    /// [`validate_shard_set`] refuses a mismatch.
    pub fingerprint: u64,
    /// The campaign's canonical chunk size.
    pub chunk_size: usize,
    /// Total runs of the full campaign.
    pub total_runs: u64,
    /// This shard's index, `0..shard_count`.
    pub shard_index: usize,
    /// Total shards in the plan this manifest belongs to.
    pub shard_count: usize,
    /// First canonical chunk of the shard's window (inclusive).
    pub start_chunk: usize,
    /// End of the window (exclusive).
    pub end_chunk: usize,
}

impl ShardManifest {
    /// The manifest of a completed shard session of `campaign` over `slice`.
    pub fn new(campaign: &Campaign, slice: ShardSlice) -> ShardManifest {
        ShardManifest {
            campaign: campaign.name().to_string(),
            seed: campaign.seed(),
            fingerprint: campaign.fingerprint(),
            chunk_size: campaign.chunk_size(),
            total_runs: campaign.run_count(),
            shard_index: slice.index,
            shard_count: slice.shard_count,
            start_chunk: slice.start_chunk,
            end_chunk: slice.end_chunk,
        }
    }

    /// The slice this manifest covers.
    pub fn slice(&self) -> ShardSlice {
        ShardSlice {
            index: self.shard_index,
            shard_count: self.shard_count,
            start_chunk: self.start_chunk,
            end_chunk: self.end_chunk,
        }
    }

    /// The global run range `[start, end)` this shard's JSONL/trace segments
    /// must carry.
    pub fn run_range(&self) -> (u64, u64) {
        self.slice().run_range(self.chunk_size, self.total_runs)
    }

    fn identity(&self) -> Identity<'_> {
        Identity {
            campaign: &self.campaign,
            seed: self.seed,
            fingerprint: self.fingerprint,
            chunk_size: self.chunk_size,
            total_runs: self.total_runs,
        }
    }

    /// Serialises the manifest payload (without the integrity frame).
    pub fn render(&self) -> String {
        let mut o = ObjectWriter::new();
        self.identity().render(&mut o, FORMAT, VERSION);
        o.u64("shard_index", self.shard_index as u64)
            .u64("shard_count", self.shard_count as u64)
            .u64("start_chunk", self.start_chunk as u64)
            .u64("end_chunk", self.end_chunk as u64);
        o.finish()
    }

    /// Parses a manifest from its JSON payload text.
    pub fn parse(text: &str) -> Result<ShardManifest, String> {
        let doc = JsonValue::parse(text)?;
        let identity = Identity::parse(&doc, FORMAT, VERSION)?;
        let start_chunk = u64_field(&doc, "start_chunk")? as usize;
        let end_chunk = u64_field(&doc, "end_chunk")? as usize;
        if start_chunk > end_chunk {
            return Err(format!("inverted shard window [{start_chunk}, {end_chunk})"));
        }
        Ok(ShardManifest {
            campaign: identity.campaign.to_string(),
            seed: identity.seed,
            fingerprint: identity.fingerprint,
            chunk_size: identity.chunk_size,
            total_runs: identity.total_runs,
            shard_index: u64_field(&doc, "shard_index")? as usize,
            shard_count: u64_field(&doc, "shard_count")? as usize,
            start_chunk,
            end_chunk,
        })
    }

    /// Writes the manifest atomically (temp file + fsync + rename), payload
    /// line plus integrity frame line — the same discipline checkpoint
    /// manifests use, so a crash can never leave a torn manifest behind.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        write_framed_atomic(path, &self.render(), "shard manifest")
    }

    /// Loads a manifest file, verifying its integrity frame before parsing.
    ///
    /// Corrupt manifests — and version-1 manifests of older builds — are
    /// refused with a recovery hint; the file on disk is never touched.
    pub fn load(path: &Path) -> Result<ShardManifest, String> {
        load_framed(path, "shard manifest", SHARD_HINT, Self::parse)
    }
}

/// The recovery hint a refused shard manifest carries: unlike a checkpoint,
/// a shard is the unit of retry, so the fix is always to rerun that one
/// shard session.
const SHARD_HINT: &str = "refusing to merge it — recovery: rerun that shard session \
     (`karyon-campaign shard`) to regenerate the manifest and its JSONL/trace segments, then \
     merge again";

/// Checks that `manifests` form exactly the shard set of `campaign`: every
/// manifest carries the campaign's fingerprint, chunk size and run count, the
/// declared shard counts agree with the number of manifests, shard indices
/// are distinct, and the windows tile the canonical chunk range `[0, chunks)`
/// with no overlap and no gap.
///
/// The manifests may arrive in any order (merge sorts them canonically); a
/// refusal names the first offending shard.  This is the validation behind
/// the `karyon-campaign merge` subcommand's shard-set exit code.
pub fn validate_shard_set(campaign: &Campaign, manifests: &[ShardManifest]) -> Result<(), String> {
    if manifests.is_empty() {
        return Err("no shard manifests to merge".to_string());
    }
    let chunks = campaign.canonical_chunks();
    for m in manifests {
        m.identity().check(campaign, &format!("shard {}", m.shard_index))?;
        if m.shard_count != manifests.len() {
            return Err(format!(
                "shard {} declares a plan of {} shards but {} manifests were supplied — the \
                 set is incomplete or mixes plans",
                m.shard_index,
                m.shard_count,
                manifests.len()
            ));
        }
    }
    let mut seen = vec![false; manifests.len()];
    for m in manifests {
        if m.shard_index >= manifests.len() || seen[m.shard_index] {
            return Err(format!(
                "duplicate or out-of-range shard index {} in a {}-shard set",
                m.shard_index,
                manifests.len()
            ));
        }
        seen[m.shard_index] = true;
    }
    let mut ordered: Vec<&ShardManifest> = manifests.iter().collect();
    ordered.sort_by_key(|m| (m.start_chunk, m.end_chunk));
    let mut frontier = 0usize;
    for m in &ordered {
        if m.start_chunk < frontier {
            return Err(format!(
                "shard {} window [{}, {}) overlaps chunks already covered up to {frontier} — \
                 merging would double-count runs",
                m.shard_index, m.start_chunk, m.end_chunk
            ));
        }
        if m.start_chunk > frontier {
            return Err(format!(
                "gap in shard coverage: chunks [{frontier}, {}) are covered by no shard",
                m.start_chunk
            ));
        }
        frontier = m.end_chunk;
    }
    if frontier != chunks {
        return Err(format!(
            "gap in shard coverage: chunks [{frontier}, {chunks}) are covered by no shard"
        ));
    }
    Ok(())
}

/// Reads and validates one shard's JSONL **run segment**: exactly
/// `end_run - start_run` newline-terminated lines whose canonical
/// `{"run":N,` prefixes count `start_run..end_run` in order, with no torn
/// tail.  Returns the raw bytes, ready to concatenate (in shard order) into
/// the stream an uninterrupted run writes.
///
/// Strict by design: a shard session that completed wrote exactly its
/// window's runs, so anything else means the segment belongs to a different
/// shard/plan or a faulted session's leftovers were never rerun.
pub fn read_run_segment(path: &Path, start_run: u64, end_run: u64) -> Result<Vec<u8>, String> {
    let bytes =
        fs::read(path).map_err(|e| format!("cannot read shard run segment {path:?}: {e}"))?;
    let mut expected = start_run;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(nl) = bytes[pos..].iter().position(|b| *b == b'\n') else {
            return Err(format!(
                "shard run segment {path:?} ends in a torn line — the shard session did not \
                 complete"
            ));
        };
        let line = &bytes[pos..pos + nl];
        let run = line_run_index(line).ok_or_else(|| {
            format!("shard run segment {path:?} line does not carry a {{\"run\":N,...}} record")
        })?;
        if expected >= end_run || run != expected {
            return Err(format!(
                "shard run segment {path:?} carries run {run} where global run {expected} of \
                 window [{start_run}, {end_run}) belongs — the segment does not match the \
                 shard's window"
            ));
        }
        expected += 1;
        pos += nl + 1;
    }
    if expected != end_run {
        return Err(format!(
            "shard run segment {path:?} holds runs [{start_run}, {expected}) but the shard \
             window covers [{start_run}, {end_run}) — the segment is incomplete"
        ));
    }
    Ok(bytes)
}

/// Reads and validates one shard's JSONL **trace segment**: every line's
/// `{"run":N,` prefix must fall inside the shard's global run range
/// `[start_run, end_run)` and run indices must be non-decreasing (a run
/// emits any number of trace lines, including none).  A missing file is an
/// empty segment — tracing is an optional side artifact, exactly like
/// [`truncate_trace_jsonl`](crate::truncate_trace_jsonl) treats it — but a
/// torn tail or an out-of-range run is refused.
pub fn read_trace_segment(path: &Path, start_run: u64, end_run: u64) -> Result<Vec<u8>, String> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read shard trace segment {path:?}: {e}")),
    };
    let mut floor = start_run;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(nl) = bytes[pos..].iter().position(|b| *b == b'\n') else {
            return Err(format!(
                "shard trace segment {path:?} ends in a torn line — the shard session did not \
                 complete"
            ));
        };
        let line = &bytes[pos..pos + nl];
        let run = line_run_index(line).ok_or_else(|| {
            format!("shard trace segment {path:?} line does not carry a {{\"run\":N,...}} record")
        })?;
        if run < floor || run >= end_run {
            return Err(format!(
                "shard trace segment {path:?} carries run {run} outside (or out of order \
                 within) the shard's window [{start_run}, {end_run})"
            ));
        }
        floor = run;
        pos += nl + 1;
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignEntry;
    use crate::checkpoint::integrity_frame;
    use crate::grid::ParamGrid;
    use std::path::PathBuf;

    fn echo_campaign() -> Campaign {
        Campaign::new("sharded", 77).with_chunk_size(3).entry(
            CampaignEntry::new("echo")
                .grid(ParamGrid::new().axis("x", [0.25, 1.75]))
                .replications(8),
        ) // 16 runs → 6 chunks (ragged tail of 1)
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("karyon-shard-{}-{name}", std::process::id()))
    }

    #[test]
    fn plan_splits_the_chunk_range_contiguously_and_balanced() {
        let plan = ShardPlan::new(7, 3);
        let bounds: Vec<(usize, usize)> =
            plan.slices().map(|s| (s.start_chunk, s.end_chunk)).collect();
        assert_eq!(bounds, [(0, 3), (3, 5), (5, 7)], "first shards carry the remainder");
        assert_eq!(plan.chunks(), 7);
        assert_eq!(plan.shard_count(), 3);

        // More shards than chunks: the tail slices are legally empty.
        let plan = ShardPlan::new(2, 5);
        let lens: Vec<usize> = plan.slices().map(|s| s.chunk_count()).collect();
        assert_eq!(lens, [1, 1, 0, 0, 0]);
        assert!(plan.slice(4).is_empty());

        // Run ranges cap at the campaign's total runs (ragged final chunk).
        let slice = ShardSlice { index: 1, shard_count: 2, start_chunk: 3, end_chunk: 6 };
        assert_eq!(slice.run_range(3, 16), (9, 16));
    }

    #[test]
    fn plans_of_any_shard_count_are_computed_not_allocated() {
        let plan = ShardPlan::new(7, usize::MAX);
        assert_eq!((plan.slice(0).start_chunk, plan.slice(0).end_chunk), (0, 1));
        assert_eq!((plan.slice(6).start_chunk, plan.slice(6).end_chunk), (6, 7));
        assert!(plan.slice(7).is_empty() && plan.slice(usize::MAX - 1).is_empty());
        assert_eq!(plan.slice(usize::MAX - 1).start_chunk, 7);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shard_plans_are_rejected() {
        let _ = ShardPlan::new(4, 0);
    }

    #[test]
    fn shard_manifests_are_small_headers_that_round_trip() {
        let campaign = echo_campaign();
        for slice in ShardPlan::for_campaign(&campaign, 3).slices() {
            let manifest = ShardManifest::new(&campaign, slice);
            let path = temp_path(&format!("rt-{}.json", slice.index));
            manifest.write(&path).unwrap();
            assert!(fs::metadata(&path).unwrap().len() < 1024, "a header, not aggregation state");
            let loaded = ShardManifest::load(&path).unwrap();
            assert_eq!(loaded.render(), manifest.render());
            assert_eq!(loaded.slice(), slice);
            assert_eq!(loaded.run_range(), slice.run_range(3, 16));
            fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn validation_refuses_mismatched_and_mistiled_shard_sets() {
        let campaign = echo_campaign();
        let chunks = campaign.canonical_chunks();
        let window = |index: usize, count: usize, start_chunk: usize, end_chunk: usize| {
            let slice = ShardSlice { index, shard_count: count, start_chunk, end_chunk };
            ShardManifest::new(&campaign, slice)
        };
        let pair = |split: usize, count: usize| {
            vec![window(0, count, 0, split), window(1, count, split, chunks)]
        };

        // A well-formed two-shard set validates, in either order.
        assert!(validate_shard_set(&campaign, &pair(2, 2)).is_ok());
        let mut reversed = pair(2, 2);
        reversed.reverse();
        assert!(validate_shard_set(&campaign, &reversed).is_ok());

        // Empty set.
        let err = validate_shard_set(&campaign, &[]).unwrap_err();
        assert!(err.contains("no shard manifests"), "{err}");

        // Foreign fingerprint: the same shape under a different seed.
        let other = Campaign::new("sharded", 78).with_chunk_size(3).entry(
            CampaignEntry::new("echo")
                .grid(ParamGrid::new().axis("x", [0.25, 1.75]))
                .replications(8),
        );
        let err = validate_shard_set(&other, &pair(2, 2)).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");

        // Tampered chunk size (fingerprint faked to match): refused before
        // it can regroup the reduction.
        let mut tampered = pair(2, 2);
        tampered[0].chunk_size = 4;
        let err = validate_shard_set(&campaign, &tampered).unwrap_err();
        assert!(err.contains("chunk size 4"), "{err}");

        // Tampered run count.
        let mut tampered = pair(2, 2);
        tampered[1].total_runs = 99;
        let err = validate_shard_set(&campaign, &tampered).unwrap_err();
        assert!(err.contains("99 runs"), "{err}");

        // Wrong declared shard count for the set size.
        let err = validate_shard_set(&campaign, &pair(2, 3)).unwrap_err();
        assert!(err.contains("3 shards but 2 manifests"), "{err}");

        // Duplicate shard index.
        let mut dup = pair(2, 2);
        dup[1].shard_index = 0;
        let err = validate_shard_set(&campaign, &dup).unwrap_err();
        assert!(err.contains("duplicate or out-of-range"), "{err}");

        // Overlap: [0, 3) ∪ [2, chunks).
        let overlap = [window(0, 2, 0, 3), window(1, 2, 2, chunks)];
        let err = validate_shard_set(&campaign, &overlap).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");

        // Gap in the middle: [0, 2) ∪ [3, chunks).
        let gapped = [window(0, 2, 0, 2), window(1, 2, 3, chunks)];
        let err = validate_shard_set(&campaign, &gapped).unwrap_err();
        assert!(err.contains("gap in shard coverage"), "{err}");

        // Gap at the tail: a single shard that stops short.
        let err = validate_shard_set(&campaign, &[window(0, 1, 0, 4)]).unwrap_err();
        assert!(err.contains("gap in shard coverage"), "{err}");
    }

    #[test]
    fn shard_manifest_load_refuses_corruption_with_a_recovery_hint() {
        let campaign = echo_campaign();
        let manifest =
            ShardManifest::new(&campaign, ShardPlan::for_campaign(&campaign, 2).slice(0));
        let path = temp_path("corrupt.json");
        manifest.write(&path).unwrap();
        let pristine = fs::read(&path).unwrap();

        let assert_refused = |bytes: &[u8], needle: &str| {
            fs::write(&path, bytes).unwrap();
            let err = ShardManifest::load(&path).unwrap_err();
            assert!(err.contains(needle), "expected {needle:?} in: {err}");
            assert!(err.contains("recovery:"), "refusals carry a recovery hint: {err}");
            assert!(err.contains("rerun"), "the hint names the fix: {err}");
            assert_eq!(fs::read(&path).unwrap(), bytes, "failed loads never touch the disk");
        };
        // Truncated mid-payload, truncated at the frame, one flipped byte.
        assert_refused(&pristine[..pristine.len() / 2], "truncated mid-write");
        assert_refused(&pristine[..manifest.render().len() + 1], "integrity frame");
        let mut flipped = pristine.clone();
        flipped[12] ^= 0x01;
        assert_refused(&flipped, "hash mismatch");

        // A wrong-format payload with a *valid* frame is refused by the
        // parser, not the frame check.
        let foreign = "{\"format\":\"other\"}";
        let framed = format!("{foreign}\n{}\n", integrity_frame(foreign));
        assert_refused(framed.as_bytes(), "not a karyon-campaign-shard file");

        // A version-1 manifest (which carried per-chunk partials) is refused
        // with the rerun hint, even under a valid frame.
        let v1 = manifest.render().replace("\"version\":2", "\"version\":1");
        let framed = format!("{v1}\n{}\n", integrity_frame(&v1));
        assert_refused(framed.as_bytes(), "unsupported manifest version 1");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn run_and_trace_segments_validate_their_global_ranges() {
        let path = temp_path("segment.jsonl");

        // A pristine run segment for global runs [5, 8).
        fs::write(&path, "{\"run\":5,\"x\":1}\n{\"run\":6,\"x\":2}\n{\"run\":7,\"x\":3}\n")
            .unwrap();
        let bytes = read_run_segment(&path, 5, 8).unwrap();
        assert_eq!(bytes, fs::read(&path).unwrap());

        // Wrong window, short segment, extra line, torn tail — all refused.
        assert!(read_run_segment(&path, 4, 7).unwrap_err().contains("carries run 5"));
        assert!(read_run_segment(&path, 5, 9).unwrap_err().contains("incomplete"));
        assert!(read_run_segment(&path, 5, 7).unwrap_err().contains("carries run 7"));
        fs::write(&path, "{\"run\":5,\"x\":1}\n{\"run\":6,\"x\"").unwrap();
        assert!(read_run_segment(&path, 5, 7).unwrap_err().contains("torn line"));
        fs::write(&path, "not a record\n").unwrap();
        assert!(read_run_segment(&path, 0, 1).unwrap_err().contains("{\"run\":N,"));

        // Trace segments: any number of lines per run, non-decreasing, all
        // inside the window.
        fs::write(&path, "{\"run\":5,\"a\":1}\n{\"run\":5,\"b\":2}\n{\"run\":7,\"c\":3}\n")
            .unwrap();
        let bytes = read_trace_segment(&path, 5, 8).unwrap();
        assert_eq!(bytes, fs::read(&path).unwrap());
        assert!(read_trace_segment(&path, 6, 8).unwrap_err().contains("outside"));
        fs::write(&path, "{\"run\":6,\"a\":1}\n{\"run\":5,\"b\":2}\n").unwrap();
        assert!(read_trace_segment(&path, 5, 8).unwrap_err().contains("outside"));
        fs::remove_file(&path).ok();

        // A missing trace segment is an empty segment (tracing is optional);
        // a missing run segment is an error.
        assert_eq!(read_trace_segment(&path, 0, 9).unwrap(), Vec::<u8>::new());
        assert!(read_run_segment(&path, 0, 9).unwrap_err().contains("cannot read"));
    }
}
