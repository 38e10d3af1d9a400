//! A warm JSONL line allocates nothing.
//!
//! `JsonlRunWriter` renders every line into one buffer it reuses and keeps
//! the rendered params of the current point, so once the first run of a
//! point has been written — and the buffer has grown to fit its line — the
//! point's further runs only format into that buffer and hand it to the
//! underlying writer.  `JsonlTraceWriter` does the same for trace lines:
//! once its buffer fits the longest line, a run's records only format.
//!
//! A counting global allocator sees every allocation of this test binary and
//! charges it to the allocating thread, so the harness's own threads cannot
//! disturb a count.  The binary holds a single test function, so no other
//! test allocates at the same time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io;

use karyon::scenario::{derive_run_seed, JsonlRunWriter, ParamValue, RunMeta, RunRecord, RunSink};
use karyon::sim::SimTime;
use karyon::telemetry::{
    AttrValue, EventRecord, JsonlTraceWriter, RunCoords, SpanRecord, TraceRecord, TraceSink,
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

/// Replications of the point; the first one warms the writer.
const RUNS: u64 = 200;

/// The record of replication `replication`: every value kind a line
/// renders — fractions, integers, a flag, a non-finite value — under keys
/// that need escaping and keys that do not.
fn record(replication: u64) -> RunRecord {
    let mut record = RunRecord::new();
    record.set("latency_ms", replication as f64 * 0.37 + 1.0 / 3.0);
    record.set("hazard_steps", (replication % 7) as f64);
    record.set("min \"gap\"\ts", 0.2 + replication as f64 * 1e-3);
    record.set_flag("collision", replication % 11 == 0);
    if replication % 5 == 0 {
        record.set("broken", f64::NAN);
    }
    record.clamped_schedules = replication % 3;
    record
}

/// A run's trace: events and spans carrying every attribute kind a line
/// renders — unsigned and signed integers, a fraction, a non-finite value
/// and text that needs escaping.
fn trace_records() -> Vec<TraceRecord> {
    let attrs = |k: u64| -> Vec<(String, AttrValue)> {
        vec![
            ("count".into(), AttrValue::U64(k * 1_000_003)),
            ("offset".into(), AttrValue::I64(-(k as i64) * 77)),
            ("ratio".into(), AttrValue::F64(k as f64 / 3.0)),
            ("bad".into(), AttrValue::F64(f64::INFINITY)),
            ("label \"q\"".into(), AttrValue::Text(format!("say \"hi\"\n\t\u{1}{k}"))),
        ]
    };
    (0..6u64)
        .map(|k| {
            if k % 2 == 0 {
                TraceRecord::Event(EventRecord {
                    name: format!("probe.event{k}"),
                    time: SimTime::from_micros(k * 1_234),
                    attrs: attrs(k),
                })
            } else {
                TraceRecord::Span(SpanRecord {
                    name: "probe.span".into(),
                    start: SimTime::from_micros(k),
                    end: SimTime::from_millis(k * 5_000),
                    attrs: attrs(k),
                })
            }
        })
        .collect()
}

#[test]
fn warm_lines_of_a_point_do_not_allocate() {
    let mut params = BTreeMap::new();
    params.insert("mode".to_string(), ParamValue::Text("kernel \"los2\"".into()));
    params.insert("gap_s".to_string(), ParamValue::Float(0.5));
    params.insert("vehicles".to_string(), ParamValue::Int(8));
    params.insert("outage".to_string(), ParamValue::Bool(true));
    let records: Vec<RunRecord> = (0..RUNS).map(record).collect();
    let meta = |replication: u64| RunMeta {
        run_index: 1_000 + replication,
        point: 3,
        scenario: "platoon-fault",
        params: &params,
        replication,
        seed: derive_run_seed(7, 3, replication),
    };

    let mut writer = JsonlRunWriter::new(io::sink());
    writer.on_run(&meta(0), &records[0]);
    let allocations = allocations_during(|| {
        for replication in 1..RUNS {
            writer.on_run(&meta(replication), &records[replication as usize]);
        }
    });
    assert_eq!(allocations, 0, "warm JSONL lines allocated");
    assert_eq!(writer.written(), RUNS);

    // The counter does see the writer render a new point's params.
    let mut moved = params.clone();
    moved.insert("vehicles".to_string(), ParamValue::Int(12));
    let next = RunMeta { point: 4, params: &moved, replication: 0, ..meta(0) };
    let allocations = allocations_during(|| writer.on_run(&next, &records[0]));
    assert!(allocations > 0, "rendering a new point's params must be counted");

    // Trace lines: once the first run has grown the buffer, a whole batch of
    // runs renders without allocating.
    let trace = trace_records();
    let coords = |run: u64| RunCoords {
        run_index: 1_000 + run,
        point: 3,
        replication: run,
        seed: derive_run_seed(7, 3, run),
    };
    let mut tracer = JsonlTraceWriter::new(io::sink());
    tracer.on_run_records(&coords(0), &trace);
    let allocations = allocations_during(|| {
        for run in 1..RUNS {
            tracer.on_run_records(&coords(run), &trace);
        }
    });
    assert_eq!(allocations, 0, "warm trace lines allocated");
    assert_eq!(tracer.written(), RUNS * trace.len() as u64);
}
