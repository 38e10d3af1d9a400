//! E16 — campaign throughput and event-core benchmark.
//!
//! The KARYON safety argument is built on huge fault-injection sweeps (§VI),
//! so the experiment pipeline's own throughput is a tracked quantity from
//! this experiment onward.  Five measurements, written to
//! `BENCH_campaign.json` for CI to archive:
//!
//! 1. **Event core** — the calendar-queue [`EventQueue`] against the
//!    [`HeapEventQueue`] baseline on a hold-model workload (pop the earliest
//!    event, schedule one a random delay ahead) at several resident queue
//!    sizes.  The acceptance bar is a ≥2× speedup.
//! 2. **Volume campaign** — a million-run (quick mode: 100k) echo-style
//!    campaign through the chunked runner: serial and parallel rates, with
//!    and without a streaming sink, at the default and a large chunk size;
//!    serial-vs-parallel bit-identity; and the peak number of resident
//!    records, which must be bounded by `chunk size × in-flight window`,
//!    never by the run count.
//! 3. **Checkpoint overhead** — the volume campaign re-run with crash-safe
//!    checkpointing at every canonical chunk (the most aggressive cadence).
//! 4. **Mixed campaign** — a multi-family sweep exercising the net stack
//!    (`tdma`, `inaccessibility`), the middleware QoS channel and the
//!    vehicle platoon, i.e. real simulation work per run.
//! 5. **Telemetry overhead** — the volume campaign re-run through the
//!    instrumented entry point with telemetry *detached*
//!    ([`CampaignTelemetry::none`]) and again with a trace sink + metrics
//!    registry attached.  The detached rate must sit within noise of the
//!    plain baseline (telemetry-off is the same code path), and every
//!    variant's report must be bit-identical.
//!
//! Every rate is a **median of three timed samples after a discarded warmup
//! pass** (see [`median_of_3`]), so quick-mode numbers on shared CI machines
//! are trustworthy enough to guard on: a single scheduler hiccup or cold
//! cache can no longer report nonsense like telemetry-off running 2.6×
//! *faster* than the identical plain code path.  The guarded *ratio* (the
//! hold-model speedup) additionally interleaves its two sides within each
//! sample and takes the median of the per-sample ratios (see
//! [`median_paired`]): a frequency dip that spans one side's samples cancels
//! out instead of manufacturing a regression.  Each `BENCH_campaign.json`
//! object records its `ops_per_workload` and `samples` so consumers know
//! what was measured.
//!
//! Quick mode (`E16_QUICK=1`, used by CI) shrinks the workloads ~10×.

use std::time::Instant;

use karyon_scenario::json::ObjectWriter;
use karyon_scenario::{
    builtin_registry, Campaign, CampaignEntry, CampaignOutcome, CampaignTelemetry, Checkpointer,
    ParamGrid, RunRecord, RunSink, Scenario, ScenarioSpec,
};
use karyon_sim::table::fmt3;
use karyon_sim::{splitmix64, EventQueue, HeapEventQueue, Rng, SimDuration, SimTime, Table};
use karyon_telemetry::{JsonlTraceWriter, MetricsRegistry};

/// Number of timed samples per measurement (after one discarded warmup).
const SAMPLES: u64 = 3;

/// Median of three rates: robust to one bad sample in either direction,
/// which is the failure mode of wall-clock benchmarking on shared CI
/// machines.
fn median3(mut rates: [f64; 3]) -> f64 {
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates[1]
}

/// Runs `sample` once as a discarded warmup (first-touch page faults, cold
/// caches, lazy allocations), then three times, and returns the median rate.
fn median_of_3(mut sample: impl FnMut() -> f64) -> f64 {
    let _warmup = sample();
    median3([sample(), sample(), sample()])
}

/// Like [`median_of_3`], but for a *guarded ratio* between two measurements:
/// runs the sides back-to-back within each sample and returns
/// `(median_a, median_b, median of per-sample b/a)`.  Dividing two
/// independently-taken medians is not robust — a multi-second frequency dip
/// or noisy neighbor that spans one side's three samples manufactures a
/// fake regression.  Pairing the sides puts any machine-wide slowdown on
/// both ends of each ratio, so the ratio median stays stable even when the
/// absolute rates wobble.
fn median_paired(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64, f64) {
    let (_, _) = (a(), b());
    let mut ra = [0.0; 3];
    let mut rb = [0.0; 3];
    let mut ratio = [0.0; 3];
    for k in 0..3 {
        ra[k] = a();
        rb[k] = b();
        ratio[k] = rb[k] / ra[k];
    }
    (median3(ra), median3(rb), median3(ratio))
}

/// A deliberately cheap scenario: metrics are arithmetic over the seed, so
/// the volume measurement isolates the runner (seed derivation, chunking,
/// aggregation, sink) rather than any model.
struct EchoScenario;

impl Scenario for EchoScenario {
    fn name(&self) -> &str {
        "echo"
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            "uniform" => Some((0.0, 1.0)),
            _ => None,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let mut state = spec.seed;
        let draw = splitmix64(&mut state);
        // One trace event per run (a no-op unless a collection scope is
        // active), so the traced-campaign measurement serializes real bytes.
        karyon_telemetry::trace::event(
            "echo.run",
            SimTime::from_micros(draw % 1_000),
            &[("seed", karyon_telemetry::AttrValue::U64(spec.seed))],
        );
        let mut record = RunRecord::new();
        record.set("uniform", (draw >> 11) as f64 / (1u64 << 53) as f64);
        record.set("seed_lo", (spec.seed % 1_000) as f64);
        record
    }
}

/// Hold-model event-queue throughput: `ops` pop-one/schedule-one cycles over
/// a queue holding `resident` events with delays up to 100 ms.
fn queue_ops_per_sec<Q>(
    mut schedule: impl FnMut(&mut Q, SimTime, u64),
    mut pop: impl FnMut(&mut Q) -> Option<(SimTime, u64)>,
    queue: &mut Q,
    resident: usize,
    ops: u64,
) -> f64 {
    let mut rng = Rng::seed_from(0xE16);
    for i in 0..resident {
        schedule(queue, SimTime::from_micros(rng.range_u64(0, 100_000)), i as u64);
    }
    let start = Instant::now();
    for i in 0..ops {
        let (t, _) = pop(queue).expect("hold model never drains");
        schedule(queue, t + SimDuration::from_micros(rng.range_u64(1, 100_000)), i);
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// A sink that counts runs without retaining them (the cheapest consumer the
/// canonical-order restoration still has to buffer chunks for).
struct CountingSink {
    runs: u64,
}

impl RunSink for CountingSink {
    fn on_run(&mut self, meta: &karyon_scenario::RunMeta<'_>, _record: &RunRecord) {
        assert_eq!(meta.run_index, self.runs, "sink runs must arrive in canonical order");
        self.runs += 1;
    }
}

fn volume_campaign(runs_per_point: u64) -> Campaign {
    Campaign::new("e16-volume", 4_242).entry(
        CampaignEntry::new("echo")
            .grid(ParamGrid::new().axis("shard", [0, 1, 2, 3]))
            .replications(runs_per_point),
    )
}

fn mixed_campaign(replications: u64) -> Campaign {
    Campaign::new("e16-mixed", 1_113)
        .entry(
            CampaignEntry::new("tdma")
                .grid(ParamGrid::new().axis("adversarial", [false, true]))
                .replications(replications)
                .duration_secs(10),
        )
        .entry(
            CampaignEntry::new("inaccessibility")
                .grid(ParamGrid::new().axis("mac", ["csma", "r2t"]))
                .replications(replications)
                .duration_secs(10),
        )
        .entry(
            CampaignEntry::new("middleware-qos")
                .grid(ParamGrid::new().axis("degrade", [false, true]))
                .replications(replications)
                .duration_secs(20),
        )
        .entry(
            CampaignEntry::new("platoon")
                .grid(ParamGrid::new().axis("mode", ["kernel", "los0"]))
                .replications(replications)
                .duration_secs(30),
        )
}

fn main() {
    let quick = karyon_bench::quick_mode("E16_QUICK");
    let registry = {
        let mut r = builtin_registry();
        r.register(std::sync::Arc::new(EchoScenario));
        r
    };

    // ----- 1. Event core: calendar queue vs BinaryHeap baseline. ---------
    let ops: u64 = if quick { 1_000_000 } else { 2_000_000 };
    let mut queue_table = Table::new(
        "E16a — event-queue throughput, hold model (pop + schedule ≤100 ms ahead)",
        &["resident events", "heap [Mops/s]", "calendar [Mops/s]", "speedup"],
    );
    let mut workloads = Vec::new();
    let mut worst_speedup = f64::INFINITY;
    for &resident in &[1_024usize, 16_384, 131_072] {
        let (heap_rate, calendar_rate, speedup) = median_paired(
            || {
                let mut q = HeapEventQueue::new();
                queue_ops_per_sec(|q, t, p| q.schedule(t, p), |q| q.pop(), &mut q, resident, ops)
            },
            || {
                let mut q = EventQueue::new();
                queue_ops_per_sec(|q, t, p| q.schedule(t, p), |q| q.pop(), &mut q, resident, ops)
            },
        );
        worst_speedup = worst_speedup.min(speedup);
        queue_table.add_row(&[
            resident.to_string(),
            fmt3(heap_rate / 1e6),
            fmt3(calendar_rate / 1e6),
            format!("{speedup:.2}x"),
        ]);
        let mut w = ObjectWriter::new();
        w.u64("resident", resident as u64)
            .f64("heap_ops_per_sec", heap_rate)
            .f64("calendar_ops_per_sec", calendar_rate)
            .f64("speedup", speedup);
        workloads.push(w.finish());
    }
    queue_table.print();

    // ----- 2. Volume campaign: chunked aggregation at scale. -------------
    let runs_per_point: u64 = if quick { 25_000 } else { 250_000 };
    let campaign = volume_campaign(runs_per_point);
    let total_runs = campaign.run_count();

    // Reference report + full invariants once; the timed samples then only
    // re-assert report identity.
    let serial = campaign.clone().with_threads(1).run(&registry).expect("echo is registered");
    let serial_rate = median_of_3(|| {
        let start = Instant::now();
        let report = campaign.clone().with_threads(1).run(&registry).expect("echo is registered");
        let rate = total_runs as f64 / start.elapsed().as_secs_f64();
        assert_eq!(report, serial, "serial echo campaign must be deterministic");
        rate
    });

    // At least two workers so the windowed claim/merge machinery is always
    // exercised, even on single-core CI runners.
    let parallel_threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2);
    let mut sink = CountingSink { runs: 0 };
    let (outcome, stats) = campaign
        .clone()
        .with_threads(parallel_threads)
        .session(&registry)
        .sink(&mut sink)
        .run()
        .expect("echo is registered");
    let parallel = outcome.into_report().expect("a plain session completes");
    assert_eq!(serial, parallel, "volume campaign must be bit-identical for 1 vs N threads");
    assert_eq!(sink.runs, total_runs, "the sink must see every run exactly once");
    assert_eq!(parallel.suspect_runs(), 0, "echo never schedules into the past");
    let resident_bound = (campaign.chunk_size() * stats.workers * 2) as u64;
    assert!(
        stats.peak_resident_records <= resident_bound,
        "peak resident records {} must be bounded by chunk × window {} (runs: {})",
        stats.peak_resident_records,
        resident_bound,
        total_runs
    );

    // Why four parallel rates?  The historical "anomaly" — parallel at 2.3M
    // runs/s vs serial at 6.2M — conflated three effects: (a) the serial
    // number was measured sink-less while the parallel one paid the sink's
    // canonical-order chunk buffering, (b) echo runs are near-zero work, so
    // the per-chunk machinery (claim/merge gate, channel hop, worker wakeup)
    // is the *entire* cost and more workers only add contention, and (c) at
    // the default 4096-run chunk the quick-mode campaign is just 25 chunks —
    // too few to amortise anything.  The grid below separates the effects:
    // parallel-no-sink is the apples-to-apples comparand for `serial`, and
    // the large-chunk variant amortises the per-chunk overhead.  The honest
    // headline: for sub-microsecond runs the chunked runner crosses over to
    // a win only once per-run work dwarfs the ~µs per-chunk toll — real
    // families (measurement 4) are 3–6 orders of magnitude past that.
    let parallel_sink_rate = median_of_3(|| {
        let mut sink = CountingSink { runs: 0 };
        let start = Instant::now();
        let (outcome, _) = campaign
            .clone()
            .with_threads(parallel_threads)
            .session(&registry)
            .sink(&mut sink)
            .run()
            .expect("echo is registered");
        let rate = total_runs as f64 / start.elapsed().as_secs_f64();
        let report = outcome.into_report().expect("a plain session completes");
        assert_eq!(report, serial, "sinked parallel report must stay bit-identical");
        rate
    });
    let parallel_nosink_rate = median_of_3(|| {
        let start = Instant::now();
        let report = campaign
            .clone()
            .with_threads(parallel_threads)
            .run(&registry)
            .expect("echo is registered");
        let rate = total_runs as f64 / start.elapsed().as_secs_f64();
        assert_eq!(report, serial, "sink-less parallel report must stay bit-identical");
        rate
    });
    // Bit-identity is *per chunk size*: the chunk is the unit of metric
    // aggregation, so changing it reorders floating-point summation and the
    // report differs in final ulps.  Thread count never does — the canonical
    // merge replays chunks in serial order — so each chunk size gets its own
    // serial reference.
    let large_chunk: usize = 16_384;
    let large_serial = campaign
        .clone()
        .with_threads(1)
        .with_chunk_size(large_chunk)
        .run(&registry)
        .expect("echo is registered");
    let large_chunk_rate = median_of_3(|| {
        let start = Instant::now();
        let report = campaign
            .clone()
            .with_threads(parallel_threads)
            .with_chunk_size(large_chunk)
            .run(&registry)
            .expect("echo is registered");
        let rate = total_runs as f64 / start.elapsed().as_secs_f64();
        assert_eq!(report, large_serial, "large-chunk runs must match their serial reference");
        rate
    });

    let mut volume_table = Table::new(
        "E16b — volume campaign (echo scenario through the chunked runner)",
        &["variant", "threads", "chunk", "runs/s", "vs serial"],
    );
    volume_table.add_row(&[
        "serial, no sink".into(),
        "1".into(),
        campaign.chunk_size().to_string(),
        format!("{serial_rate:.0}"),
        "1.00x".into(),
    ]);
    volume_table.add_row(&[
        "parallel, no sink".into(),
        parallel_threads.to_string(),
        campaign.chunk_size().to_string(),
        format!("{parallel_nosink_rate:.0}"),
        format!("{:.2}x", parallel_nosink_rate / serial_rate),
    ]);
    volume_table.add_row(&[
        "parallel, counting sink".into(),
        parallel_threads.to_string(),
        campaign.chunk_size().to_string(),
        format!("{parallel_sink_rate:.0}"),
        format!("{:.2}x", parallel_sink_rate / serial_rate),
    ]);
    volume_table.add_row(&[
        "parallel, no sink".into(),
        parallel_threads.to_string(),
        large_chunk.to_string(),
        format!("{large_chunk_rate:.0}"),
        format!("{:.2}x", large_chunk_rate / serial_rate),
    ]);
    volume_table.print();
    println!(
        "bit-identity: 1-thread and {}-thread reports are identical across {} runs\n\
         (echo runs are near-zero work: the chunked runner's per-chunk toll only pays\n\
         off once per-run work exceeds it — see the mixed campaign for real families)\n",
        stats.workers, total_runs
    );

    // ----- 3. Checkpoint overhead on the volume campaign. ----------------
    // Worst case by construction: the echo scenario does near-zero work per
    // run, so every microsecond of manifest serialisation shows up in the
    // rate.  Real campaigns (measurement 4) amortise it into noise.
    let ckpt_path =
        std::env::temp_dir().join(format!("karyon-e16-ckpt-{}.json", std::process::id()));
    let mut ckpt_chunks = 0u64;
    let mut manifest_bytes = 0u64;
    let ckpt_rate = median_of_3(|| {
        // A leftover manifest would make the next sample resume (and skip
        // all the work), so every sample starts from scratch.
        std::fs::remove_file(&ckpt_path).ok();
        let checkpointer = Checkpointer::new(&ckpt_path).every_chunks(1);
        let mut ckpt_sink = CountingSink { runs: 0 };
        let start = Instant::now();
        let (ckpt_outcome, ckpt_stats) = campaign
            .clone()
            .with_threads(parallel_threads)
            .session(&registry)
            .checkpointer(&checkpointer)
            .sink(&mut ckpt_sink)
            .run()
            .expect("echo is registered");
        let rate = total_runs as f64 / start.elapsed().as_secs_f64();
        let CampaignOutcome::Complete(ckpt_report) = ckpt_outcome else {
            panic!("an unbounded checkpointed session completes");
        };
        assert_eq!(ckpt_report, serial, "checkpointing must not perturb the report in any bit");
        ckpt_chunks = ckpt_stats.chunks;
        manifest_bytes = std::fs::metadata(&ckpt_path).map(|m| m.len()).unwrap_or(0);
        rate
    });
    std::fs::remove_file(&ckpt_path).ok();
    let ckpt_relative = ckpt_rate / parallel_sink_rate;
    let mut ckpt_table = Table::new(
        "E16c — checkpoint overhead (manifest every canonical chunk, worst case)",
        &[
            "runs",
            "checkpoints",
            "runs/s plain",
            "runs/s checkpointed",
            "relative",
            "manifest bytes",
        ],
    );
    ckpt_table.add_row(&[
        total_runs.to_string(),
        ckpt_chunks.to_string(),
        format!("{parallel_sink_rate:.0}"),
        format!("{ckpt_rate:.0}"),
        format!("{ckpt_relative:.2}x"),
        manifest_bytes.to_string(),
    ]);
    ckpt_table.print();

    // ----- 4. Mixed campaign: real per-run simulation work. --------------
    let replications: u64 = if quick { 3 } else { 15 };
    let mixed = mixed_campaign(replications);
    let mixed_runs = mixed.run_count();
    let mixed_reference = mixed.run(&registry).expect("builtin families");
    let mixed_rate = median_of_3(|| {
        let start = Instant::now();
        let report = mixed.run(&registry).expect("builtin families");
        let rate = mixed_runs as f64 / start.elapsed().as_secs_f64();
        assert_eq!(report, mixed_reference, "mixed campaign must be deterministic");
        rate
    });
    println!(
        "E16d — mixed campaign: {} runs over {} families ({:.1} runs/s)",
        mixed_runs, 4, mixed_rate
    );
    assert_eq!(mixed_reference.total_runs, mixed_runs);
    assert_eq!(mixed_reference.suspect_runs(), 0, "engine-driven families stay causality-clean");

    // ----- 5. Telemetry overhead on the volume campaign. -----------------
    // Detached telemetry is the same code path as the plain run (one branch
    // per chunk), so its rate is the regression guard: if the telemetry
    // plumbing ever leaks cost into untraced campaigns, this ratio drops.
    let detached_rate = median_of_3(|| {
        let start = Instant::now();
        let (outcome, _) = campaign
            .clone()
            .with_threads(parallel_threads)
            .session(&registry)
            .telemetry(CampaignTelemetry::none())
            .run()
            .expect("echo is registered");
        let rate = total_runs as f64 / start.elapsed().as_secs_f64();
        let report = outcome.into_report().expect("a plain session completes");
        assert_eq!(report, serial, "detached telemetry must not perturb the report");
        rate
    });
    let detached_relative = detached_rate / parallel_nosink_rate;

    let mut trace_bytes = 0u64;
    let traced_rate = median_of_3(|| {
        let mut trace_writer = JsonlTraceWriter::new(Vec::new());
        let mut metrics = MetricsRegistry::new();
        let start = Instant::now();
        let (outcome, _) = campaign
            .clone()
            .with_threads(parallel_threads)
            .session(&registry)
            .telemetry(
                CampaignTelemetry::none().with_trace(&mut trace_writer).with_metrics(&mut metrics),
            )
            .run()
            .expect("echo is registered");
        let rate = total_runs as f64 / start.elapsed().as_secs_f64();
        let report = outcome.into_report().expect("a plain session completes");
        assert_eq!(report, serial, "attached telemetry must not perturb the report");
        assert_eq!(metrics.counter("campaign.runs"), total_runs);
        trace_bytes = trace_writer.into_inner().expect("Vec sink never errors").len() as u64;
        rate
    });
    let traced_relative = traced_rate / parallel_nosink_rate;

    let mut telemetry_table = Table::new(
        "E16e — telemetry overhead (volume campaign, detached vs attached)",
        &["variant", "runs/s", "relative", "trace bytes"],
    );
    telemetry_table.add_row(&[
        "plain".into(),
        format!("{parallel_nosink_rate:.0}"),
        "1.00x".into(),
        "-".into(),
    ]);
    telemetry_table.add_row(&[
        "telemetry off".into(),
        format!("{detached_rate:.0}"),
        format!("{detached_relative:.2}x"),
        "-".into(),
    ]);
    telemetry_table.add_row(&[
        "trace + metrics".into(),
        format!("{traced_rate:.0}"),
        format!("{traced_relative:.2}x"),
        trace_bytes.to_string(),
    ]);
    telemetry_table.print();
    // The guard holds in quick mode too, and with warmup + median-of-3 it
    // can tighten from the old "within 2x either way" to a real band: the
    // detached path is the plain path plus one branch per chunk, so its
    // median rate must sit within ±30% of plain.  A real leak (per-run TLS
    // work, per-record cloning) costs an order of magnitude on this
    // near-zero-work scenario and lands far outside the band.
    assert!(
        (0.7..=1.3).contains(&detached_relative),
        "telemetry-off campaign rate fell outside noise: {detached_relative:.2}x of baseline"
    );

    // ----- BENCH_campaign.json ------------------------------------------
    let mut queue_json = ObjectWriter::new();
    queue_json
        .u64("ops_per_workload", ops)
        .u64("samples", SAMPLES)
        .f64("worst_speedup", worst_speedup)
        .raw("workloads", &karyon_scenario::json::array(&workloads));
    let mut volume_json = ObjectWriter::new();
    volume_json
        .u64("runs", total_runs)
        .u64("ops_per_workload", total_runs)
        .u64("samples", SAMPLES)
        .u64("chunk_size", campaign.chunk_size() as u64)
        .u64("workers", stats.workers as u64)
        .u64("chunks", stats.chunks)
        .f64("serial_runs_per_sec", serial_rate)
        .f64("parallel_runs_per_sec", parallel_sink_rate)
        .f64("parallel_nosink_runs_per_sec", parallel_nosink_rate)
        .u64("large_chunk_size", large_chunk as u64)
        .f64("large_chunk_runs_per_sec", large_chunk_rate)
        .u64("peak_resident_records", stats.peak_resident_records)
        .u64("resident_bound", resident_bound)
        .u64("peak_pending_chunks", stats.peak_pending_chunks as u64)
        .bool("bit_identical", true)
        .u64("suspect_runs", parallel.suspect_runs());
    let mut ckpt_json = ObjectWriter::new();
    ckpt_json
        .u64("runs", total_runs)
        .u64("ops_per_workload", total_runs)
        .u64("samples", SAMPLES)
        .u64("checkpoints_written", ckpt_chunks)
        .f64("runs_per_sec", ckpt_rate)
        .f64("relative_to_plain", ckpt_relative)
        .u64("manifest_bytes", manifest_bytes)
        .bool("bit_identical", true);
    let mut mixed_json = ObjectWriter::new();
    mixed_json
        .u64("runs", mixed_runs)
        .u64("ops_per_workload", mixed_runs)
        .u64("samples", SAMPLES)
        .u64("families", 4)
        .f64("runs_per_sec", mixed_rate)
        .u64("suspect_runs", mixed_reference.suspect_runs());
    let mut telemetry_json = ObjectWriter::new();
    telemetry_json
        .u64("runs", total_runs)
        .u64("ops_per_workload", total_runs)
        .u64("samples", SAMPLES)
        .f64("detached_runs_per_sec", detached_rate)
        .f64("detached_relative_to_plain", detached_relative)
        .f64("traced_runs_per_sec", traced_rate)
        .f64("traced_relative_to_plain", traced_relative)
        .u64("trace_bytes", trace_bytes)
        .bool("bit_identical", true);
    let mut root = ObjectWriter::new();
    root.string("bench", "e16_campaign_throughput")
        .bool("quick", quick)
        .raw("event_queue", &queue_json.finish())
        .raw("volume_campaign", &volume_json.finish())
        .raw("checkpointing", &ckpt_json.finish())
        .raw("mixed_campaign", &mixed_json.finish())
        .raw("telemetry", &telemetry_json.finish());
    let json = root.finish();
    // Anchor at the workspace root regardless of the bench's working
    // directory (cargo runs benches from the package directory).
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_campaign.json");
    println!("\nwrote {} ({} bytes)", out.display(), json.len() + 1);

    println!(
        "\nExpectation: the calendar queue sustains ≥2x the BinaryHeap baseline's hold-model\n\
         throughput at every resident size, and the chunked runner completes the volume\n\
         campaign with peak resident records bounded by chunk size x in-flight window —\n\
         independent of the run count — while 1-thread and N-thread reports stay bit-identical."
    );
    // With warmup + median-of-3 the perf bar holds in quick mode too (the
    // CI schema/perf guard re-checks it from BENCH_campaign.json); the
    // stricter in-process assert still runs only on full (perf-tracking)
    // runs to keep degraded shared machines from hard-failing the bench.
    if quick {
        if worst_speedup < 2.0 {
            println!("note: quick-mode speedup {worst_speedup:.2}x below the 2x full-run bar");
        }
    } else {
        assert!(worst_speedup >= 2.0, "calendar queue speedup regressed: {worst_speedup:.2}x");
    }
}
