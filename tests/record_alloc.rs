//! A run's record, its fold into a point and the runner's per-run path
//! allocate only what they must.
//!
//! A record borrows `&'static str` metric names and is pre-sized for eight
//! metrics, so a family that names its metrics with literals pays one
//! allocation per record.  A point's fold looks each metric up by name and
//! allocates a key only the first time the point sees the metric.  The
//! runner builds a point's spec once per chunk and re-seeds it per run.
//!
//! A counting global allocator sees every allocation of this test binary and
//! charges it to the allocating thread, so the harness's own threads cannot
//! disturb a count.  The binary holds a single test function, so no other
//! test allocates at the same time; the campaign runs on one worker, which
//! runs inline on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use karyon::scenario::aggregate::PointAccumulator;
use karyon::scenario::{
    Campaign, CampaignEntry, ParamGrid, RunMeta, RunRecord, Scenario, ScenarioRegistry,
    ScenarioSpec,
};

/// Counts every allocation and reallocation of the calling thread, then
/// defers to the system allocator.
struct Counting;

thread_local! {
    // A `const` initialiser without a destructor: reading it never
    // allocates, so the allocator cannot recurse into itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // The slot is gone while a thread tears down; nothing is measured then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `work` runs.
fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// Eight literal metric names, deliberately out of name order.
const NAMES: [&str; 8] =
    ["x", "collision", "seed_lo", "min \"gap\" s", "hazard", "delay_ms", "a", "rate"];

/// A record of every [`NAMES`] metric, one of them set twice and one as a
/// flag, with values drawn from `run`.
fn literal_record(run: u64) -> RunRecord {
    let mut record = RunRecord::new();
    for (k, name) in NAMES.iter().enumerate() {
        record.set(*name, (run * 8 + k as u64) as f64 / 3.0);
    }
    record.set("x", run as f64);
    record.set_flag("collision", run % 5 == 0);
    record
}

/// A family that names its metrics with literals.
struct Literal;

impl Scenario for Literal {
    fn name(&self) -> &str {
        "literal"
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let mut record = literal_record(spec.seed % 1_000);
        record.set("x", spec.f64_or("x", 0.0) * spec.u64_or("n", 1) as f64);
        record
    }
}

/// Allocations of one single-worker session of `replications` runs of one
/// three-parameter point, all in one chunk, with a sink attached so every
/// record is captured and handed over.
fn session_allocations(registry: &ScenarioRegistry, replications: u64) -> u64 {
    let campaign = Campaign::new("record-alloc", 7).with_threads(1).with_chunk_size(4_096).entry(
        CampaignEntry::new("literal")
            .grid(ParamGrid::new().axis("x", [1.5]).axis("mode", ["kernel"]).axis("n", [3]))
            .replications(replications)
            .duration_secs(10),
    );
    let mut sink = |_meta: &RunMeta<'_>, record: &RunRecord| {
        black_box(record);
    };
    allocations_during(|| {
        let (outcome, _) = campaign.session(registry).sink(&mut sink).run().expect("runs");
        assert!(outcome.is_complete());
    })
}

#[test]
fn records_folds_and_runs_allocate_only_what_they_keep() {
    // A record of up to eight literal names is one pre-sized vector.
    let allocations = allocations_during(|| {
        black_box(literal_record(3));
    });
    assert_eq!(allocations, 1, "a record of literal names");

    // A warm fold allocates no names.  With declared ranges every metric
    // streams into a fixed histogram, so nothing is allocated at all.
    let records: Vec<RunRecord> = (0..1_000).map(literal_record).collect();
    let mut ranged = PointAccumulator::default();
    let range = |_: &str| Some((0.0, 4_000.0));
    ranged.record_run(&records[0], &range);
    let allocations = allocations_during(|| {
        for record in &records[1..] {
            ranged.record_run(record, &range);
        }
    });
    assert_eq!(allocations, 0, "warm folds into declared ranges");

    // Without ranges each metric keeps its exact samples, whose buffer
    // grows by doubling: at most one reallocation per metric per doubling.
    let mut exact = PointAccumulator::default();
    let no_range = |_: &str| None;
    exact.record_run(&records[0], &no_range);
    let allocations = allocations_during(|| {
        for record in &records[1..] {
            exact.record_run(record, &no_range);
        }
    });
    let doublings = u64::from(usize::BITS - records.len().leading_zeros());
    let bound = NAMES.len() as u64 * doublings;
    assert!(allocations <= bound, "{allocations} allocations in warm exact folds, bound {bound}");
    assert_eq!(exact.runs, 1_000);

    // A session's runs: doubling the replications adds, per run, only the
    // record's vector; the captured-record list and each metric's exact
    // buffer double once more.  A per-run spec, params map or metric name
    // copy would add at least one allocation per run.
    let mut registry = ScenarioRegistry::new();
    registry.register(Arc::new(Literal));
    let runs = 1_000;
    let once = session_allocations(&registry, runs);
    let twice = session_allocations(&registry, 2 * runs);
    let per_run = twice - once;
    let bound = runs + 2 * (NAMES.len() as u64 + 1);
    assert!(
        (runs..=bound).contains(&per_run),
        "{runs} more runs made {per_run} more allocations, bound {bound}"
    );
}
