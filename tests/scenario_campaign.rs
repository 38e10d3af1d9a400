//! Integration and property tests for the `karyon-scenario` orchestration
//! subsystem: campaign determinism across worker counts and chunk sizes,
//! chunked-vs-retained aggregation equivalence, streaming sinks, grid
//! expansion and histogram quantile behaviour.

use std::sync::Arc;

use proptest::prelude::*;

use karyon::scenario::{
    builtin_registry, derive_run_seed, Campaign, CampaignEntry, JsonlRunWriter, ParamGrid,
    RunRecord, Scenario, ScenarioRegistry, ScenarioSpec,
};
use karyon::sim::{splitmix64, BucketHistogram};

/// A cheap deterministic scenario with pseudo-random metrics: adversarial
/// input for the reduction (mixed magnitudes, an occasionally-absent metric
/// and an occasional NaN) at negligible per-run cost.
struct Noise;

impl Scenario for Noise {
    fn name(&self) -> &str {
        "noise"
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            "ranged" => Some((0.0, 1.0)),
            _ => None,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let mut state = spec.seed;
        let a = splitmix64(&mut state);
        let b = splitmix64(&mut state);
        let mut record = RunRecord::new();
        record.set("ranged", (a >> 11) as f64 / (1u64 << 53) as f64);
        record.set("wild", ((b % 10_000) as f64 - 5_000.0) * spec.f64_or("scale", 1.0));
        if a % 5 == 0 {
            record.set("sometimes", (a % 97) as f64);
        }
        if b % 31 == 0 {
            record.set("broken", f64::NAN);
        }
        record
    }
}

fn noise_registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Arc::new(Noise));
    registry
}

/// Retains every run's record by executing the scenario *directly* — no
/// campaign runner involved — in canonical (point, replication) order, for a
/// single-entry campaign over the `scale` axis.
fn retained_records(
    registry: &ScenarioRegistry,
    campaign_seed: u64,
    scales: &[f64],
    replications: u64,
) -> Vec<RunRecord> {
    let noise = registry.get("noise").expect("registered");
    let mut records = Vec::new();
    for (point, scale) in scales.iter().enumerate() {
        for rep in 0..replications {
            let spec = ScenarioSpec::new("noise").with("scale", *scale).with_seed(derive_run_seed(
                campaign_seed,
                point as u64,
                rep,
            ));
            records.push(noise.run(&spec));
        }
    }
    records
}

/// The flagship guarantee: a campaign's aggregated report is bit-identical
/// for 1-thread and N-thread execution with the same campaign seed.
#[test]
fn campaign_reports_are_thread_count_invariant() {
    let registry = builtin_registry();
    let build = || {
        Campaign::new("determinism", 77)
            .entry(
                CampaignEntry::new("middleware-qos")
                    .grid(ParamGrid::new().axis("degrade", [false, true]))
                    .replications(6)
                    .duration_secs(20),
            )
            .entry(
                CampaignEntry::new("lane-change")
                    .grid(ParamGrid::new().axis("coordination", ["agreement", "none"]))
                    .replications(4)
                    .duration_secs(60),
            )
    };
    let one = build().with_threads(1).run(&registry).expect("builtin families");
    let four = build().with_threads(4).run(&registry).expect("builtin families");
    let eight = build().with_threads(8).run(&registry).expect("builtin families");
    assert_eq!(one, four);
    assert_eq!(one, eight);
    assert_eq!(one.to_json(), eight.to_json());
    assert_eq!(one.total_runs, 20);
    assert_eq!(one.points.len(), 4);
}

/// A multi-family campaign over the vehicle use cases aggregates per
/// (family, parameter point) and exposes the safety ordering the paper
/// argues: uncoordinated intersection crossing produces conflicts where the
/// virtual traffic light produces none.
#[test]
fn mixed_campaign_reproduces_vtl_safety_ordering() {
    let registry = builtin_registry();
    let report = Campaign::new("vtl-check", 5)
        .entry(
            CampaignEntry::new("intersection")
                .grid(
                    ParamGrid::new()
                        .axis("fallback", ["vtl", "uncoordinated"])
                        .axis("light_fail", [true]),
                )
                .replications(5)
                .duration_secs(300),
        )
        .run(&registry)
        .expect("builtin families");
    let vtl = &report.points[0];
    let unco = &report.points[1];
    assert_eq!(vtl.params["fallback"].as_str(), Some("vtl"));
    assert_eq!(vtl.metrics["conflicts"].mean, 0.0, "the VTL keeps the intersection conflict-free");
    assert!(
        unco.metrics["conflicts"].mean > 0.0,
        "uncoordinated fallback must show conflicts: {:?}",
        unco.metrics["conflicts"]
    );
}

proptest! {
    /// Derived run seeds depend only on the canonical coordinates, and
    /// distinct coordinates give distinct seeds.
    #[test]
    fn derived_seeds_are_stable_and_collision_free(campaign in 0u64..1_000_000, point in 0u64..64, rep in 0u64..64) {
        prop_assert_eq!(derive_run_seed(campaign, point, rep), derive_run_seed(campaign, point, rep));
        prop_assert!(derive_run_seed(campaign, point, rep) != derive_run_seed(campaign, point, rep + 1));
        prop_assert!(derive_run_seed(campaign, point, rep) != derive_run_seed(campaign, point + 1, rep));
    }

    /// Grid expansion always yields the full cross product: the point count
    /// is the product of the axis lengths and every point carries every axis.
    #[test]
    fn grid_expansion_is_exhaustive(a in 1usize..5, b in 1usize..5, c in 1usize..4) {
        let grid = ParamGrid::new()
            .axis("a", (0..a).collect::<Vec<_>>())
            .axis("b", (0..b).collect::<Vec<_>>())
            .axis("c", (0..c).collect::<Vec<_>>());
        let points = grid.expand();
        prop_assert_eq!(points.len(), a * b * c);
        prop_assert_eq!(points.len(), grid.len());
        prop_assert!(points.iter().all(|p| p.len() == 3));
        // All points are pairwise distinct.
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                prop_assert!(points[i] != points[j]);
            }
        }
    }

    /// Bucket-histogram quantiles stay within one bucket width of the exact
    /// nearest-rank quantile over the same samples.
    #[test]
    fn bucket_quantiles_track_exact_quantiles(values in proptest::collection::vec(0.0f64..100.0, 10..200), q in 0.0f64..1.0) {
        let buckets = 64usize;
        let mut hist = BucketHistogram::new(0.0, 100.0, buckets);
        for v in &values {
            hist.record(*v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let exact = sorted[(((sorted.len() - 1) as f64) * q).round() as usize];
        let width = 100.0 / buckets as f64;
        prop_assert!((hist.quantile(q) - exact).abs() <= width + 1e-9,
            "bucketed {} vs exact {} (width {})", hist.quantile(q), exact, width);
    }

    /// The flagship bounded-memory guarantee: the streaming chunked runner
    /// is **bit-identical** to the retained-record reduction (retain every
    /// record, then reduce) for any worker count and chunk size — including
    /// chunk sizes that cut through parameter points and force the exact
    /// quantile buffers to spill mid-merge.
    #[test]
    fn chunked_aggregation_matches_retained_reduction(
        campaign_seed in 0u64..100_000,
        axis_len in 1usize..4,
        replications in 1u64..40,
        chunk_size in 1usize..50,
        threads in 1usize..6,
    ) {
        let registry = noise_registry();
        let scales: Vec<f64> = (0..axis_len).map(|i| 1.0 + i as f64).collect();
        let campaign = Campaign::new("equiv", campaign_seed)
            .with_chunk_size(chunk_size)
            .entry(
                CampaignEntry::new("noise")
                    .grid(ParamGrid::new().axis("scale", scales.clone()))
                    .replications(replications),
            );
        let records = retained_records(&registry, campaign_seed, &scales, replications);
        let retained = campaign.reduce_records(&registry, &records).expect("count matches");
        let streamed =
            campaign.with_threads(threads).run(&registry).expect("noise is registered");
        prop_assert_eq!(&streamed, &retained);
        prop_assert_eq!(streamed.to_json(), retained.to_json());
    }

    /// The JSONL sink writes one line per run, in canonical order, for any
    /// worker count.
    #[test]
    fn jsonl_sink_captures_every_run(threads in 1usize..5, replications in 1u64..30) {
        let registry = noise_registry();
        let mut writer = JsonlRunWriter::new(Vec::new());
        let (outcome, _) = Campaign::new("jsonl", 11)
            .with_threads(threads)
            .with_chunk_size(7)
            .entry(CampaignEntry::new("noise").replications(replications))
            .session(&registry)
            .sink(&mut writer)
            .run()
            .expect("noise is registered");
        let report = outcome.into_report().expect("a plain session completes");
        prop_assert_eq!(writer.written(), report.total_runs);
        let bytes = writer.finish().expect("in-memory writes cannot fail");
        let text = String::from_utf8(bytes).unwrap();
        for (i, line) in text.lines().enumerate() {
            prop_assert!(line.starts_with(&format!("{{\"run\":{i},\"scenario\":\"noise\"")));
            prop_assert!(line.ends_with('}'));
        }
        prop_assert_eq!(text.lines().count() as u64, report.total_runs);
    }

    /// The trivial single-run campaign equals running the scenario directly:
    /// the runner adds orchestration, never different semantics.
    #[test]
    fn single_run_campaign_matches_direct_run(seed in 0u64..10_000) {
        let registry = builtin_registry();
        let report = Campaign::new("one", seed)
            .entry(CampaignEntry::new("middleware-qos").replications(1).duration_secs(10))
            .with_threads(1)
            .run(&registry)
            .expect("builtin families");
        let spec = ScenarioSpec::new("middleware-qos")
            .with_seed(derive_run_seed(seed, 0, 0))
            .with_duration_secs(10);
        let direct = registry.get("middleware-qos").unwrap().run(&spec);
        let point = &report.points[0];
        prop_assert_eq!(point.runs, 1);
        for (name, value) in direct.metrics() {
            let summary = &point.metrics[name];
            prop_assert!(summary.mean == *value, "metric {}: {} != {}", name, summary.mean, value);
            prop_assert_eq!(summary.p99, *value);
        }
    }
}

/// Bounded memory at scale: a sweep far past the exact-quantile limit forces
/// the per-metric buffers to spill into derived-range histograms, while the
/// report stays bit-identical across worker counts and equal to the
/// retained-record replay — and the runner itself retains no records.
#[test]
fn large_sweep_spills_and_stays_deterministic() {
    let registry = noise_registry();
    let replications = 20_000u64;
    let build =
        || Campaign::new("spill", 31).entry(CampaignEntry::new("noise").replications(replications));
    let (outcome, stats) =
        build().with_threads(1).session(&registry).run().expect("noise is registered");
    let one = outcome.into_report().expect("a plain session completes");
    assert_eq!(stats.peak_resident_records, 0, "no sink, no retained records");
    let four = build().with_threads(4).run(&registry).expect("noise is registered");
    assert_eq!(one, four);
    let records = retained_records(&registry, 31, &[1.0], replications);
    // The single no-grid point aggregates identically from retained records.
    let replayed = Campaign::new("spill", 31)
        .entry(CampaignEntry::new("noise").replications(replications))
        .reduce_records(&registry, &records)
        .expect("count matches");
    assert_eq!(one, replayed);
    let wild = &one.points[0].metrics["wild"];
    assert_eq!(wild.count, replications, "every run reports the undeclared metric");
    assert!(wild.p95 > wild.p50, "spilled quantiles keep their ordering");
}

/// Regression: chunk sizes larger than the exact-quantile limit (4096) must
/// aggregate cleanly — chunk partials may each hold more retained samples
/// than the limit, and the spill to a derived-range histogram happens only
/// at canonical merge time (a chunk-local spill would derive unmergeable
/// per-chunk ranges).
#[test]
fn oversized_chunk_sizes_aggregate_cleanly() {
    let registry = noise_registry();
    let build = || {
        Campaign::new("big-chunks", 13)
            .with_chunk_size(8_192)
            .entry(CampaignEntry::new("noise").replications(20_000))
    };
    let one = build().with_threads(1).run(&registry).expect("noise is registered");
    let four = build().with_threads(4).run(&registry).expect("noise is registered");
    assert_eq!(one, four);
    assert_eq!(one.points[0].metrics["wild"].count, 20_000);
}

// Registry coverage: every builtin family runs a 2-seed smoke campaign at
// its default parameter point and aggregates **bit-identically for 1 vs N
// workers** — the determinism contract stays enforced as the registry
// grows, for every family at once.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn every_builtin_family_default_spec_is_campaign_clean(
        threads in 2usize..5,
        campaign_seed in 0u64..1_000,
    ) {
        let registry = builtin_registry();
        for info in registry.describe() {
            // A 2-seed smoke campaign at the default parameter point is
            // bit-identical for any worker count.
            let build = || {
                Campaign::new(&format!("smoke-{}", info.name), campaign_seed)
                    .with_chunk_size(1)
                    .entry(
                        CampaignEntry::new(&info.name)
                            .grid(info.default_grid())
                            .replications(2)
                            .duration_secs(10),
                    )
            };
            let serial = build().with_threads(1).run(&registry).unwrap();
            let parallel = build().with_threads(threads).run(&registry).unwrap();
            prop_assert_eq!(&serial, &parallel);
            prop_assert_eq!(serial.to_json(), parallel.to_json());
            prop_assert_eq!(serial.total_runs, 2);
        }
    }
}

/// Regression: `avionics-rpv` reports an `f64::MAX` separation when no
/// encounter happens.  A point with more runs than the exact-quantile limit
/// spills its retained samples into a derived-range histogram, and padding
/// the sentinel used to overflow that range to infinity and panic the merge.
#[test]
fn avionics_sentinels_past_the_exact_limit_aggregate_to_finite_quantiles() {
    let campaign = Campaign::new("avionics-sentinel", 3)
        .with_threads(2)
        .entry(CampaignEntry::new("avionics-rpv").replications(5_000).duration_secs(1));
    let report = campaign.run(&builtin_registry()).expect("builtin family");
    let separation = &report.points[0].metrics["min_vertical_sep_m"];
    assert_eq!(separation.count, 5_000);
    assert_eq!(separation.max, f64::MAX, "the sentinel is present: {separation:?}");
    for q in [separation.p50, separation.p95, separation.p99] {
        assert!(q.is_finite(), "{separation:?}");
    }
}
