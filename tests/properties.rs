//! Property-based tests (proptest) on the core data structures and
//! invariants of the reproduction.

use proptest::prelude::*;

use std::collections::BTreeMap;
use std::sync::OnceLock;

use karyon::core::los::Asil;
use karyon::core::{
    Condition, DataItem, DesignTimeSafetyInfo, HazardAnalysis, LevelOfService, LosSpec,
    RunTimeSafetyInfo, SafetyKernel, SafetyRule,
};
use karyon::net::end_to_end::{eventually_fifo, E2EConfig, EndToEndSession};
use karyon::net::mac::{MacProtocol, MacSimConfig, MacSimulation};
use karyon::net::{
    CsmaConfig, CsmaMac, Disturbance, FixedTdmaMac, MediumConfig, NodeId, R2TMac, R2TMacConfig,
    WirelessMedium,
};
use karyon::scenario::checkpoint::read_manifest_text;
use karyon::scenario::json::{escape, ObjectWriter};
use karyon::scenario::{
    builtin_registry, read_jsonl_records, Campaign, CampaignEntry, CheckpointManifest,
    Checkpointer, FaultPlan, JsonValue, JsonlRunWriter, ParamGrid, RunRecord, ShardManifest,
    ShardPlan,
};
use karyon::sensors::abstract_sensor::combine_outcomes;
use karyon::sensors::detectors::{DetectionOutcome, DetectorClass};
use karyon::sensors::{marzullo_fuse, weighted_fuse, Interval, Measurement, Validity};
use karyon::sim::{EventQueue, Rng, SimDuration, SimTime, Vec2};
use proptest::test_runner::TestCaseError;

/// Pops the queue model's next event: the earliest time, then the earliest
/// insertion among ties (payloads are insertion indices).
fn pop_model(model: &mut Vec<(SimTime, u64)>) -> Option<(SimTime, u64)> {
    let next = (0..model.len()).min_by_key(|&i| model[i])?;
    Some(model.remove(next))
}

/// Pops `queue` until it is empty, checking every pop against the model.
fn drain_like_model(
    queue: &mut EventQueue<u64>,
    model: &mut Vec<(SimTime, u64)>,
) -> Result<(), TestCaseError> {
    loop {
        let expected = pop_model(model);
        prop_assert_eq!(queue.pop(), expected);
        if expected.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    /// The event queue always pops events in non-decreasing time order,
    /// regardless of the insertion order.
    #[test]
    fn event_queue_is_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut queue = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            queue.schedule(SimTime::from_micros(*t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = queue.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// The event queue pops exactly in the order of a sorted model — the
    /// earliest time, then the earliest insertion among ties — under random
    /// interleaved schedule and pop operations.  Times tie with the last pop,
    /// land near it, jump far ahead or lie before it (the queue accepts any
    /// time).  `len` and `next_time` match the model after every step.
    #[test]
    fn event_queue_matches_a_sorted_model_under_interleaved_ops(
        seed in any::<u64>(),
        ops in 50usize..400,
        pop_bias in 1u64..4,
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut model = Vec::new();
        let mut payload = 0u64;
        let mut last_popped = SimTime::ZERO;
        for _ in 0..ops {
            if rng.range_u64(0, 3) < pop_bias {
                let expected = pop_model(&mut model);
                prop_assert_eq!(queue.pop(), expected);
                if let Some((t, _)) = expected {
                    last_popped = t;
                }
            } else {
                let t = match rng.range_u64(0, 9) {
                    0..=2 => last_popped,
                    3..=5 => last_popped + SimDuration::from_micros(rng.range_u64(1, 5_000)),
                    6 => last_popped
                        + SimDuration::from_micros(rng.range_u64(1_000_000, 30_000_000_000)),
                    _ => last_popped - SimDuration::from_micros(rng.range_u64(1, 50_000)),
                };
                queue.schedule(t, payload);
                model.push((t, payload));
                payload += 1;
            }
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.next_time(), model.iter().map(|e| e.0).min());
        }
        drain_like_model(&mut queue, &mut model)?;
        prop_assert!(queue.is_empty());
    }

    /// Mixed workload: one-shots and same-timestamp bursts — runs of
    /// schedules at one time, as a handler makes them — interleaved with
    /// pops stay in heap order, so a burst pops in call order after
    /// whatever was already queued at its time.
    #[test]
    fn one_shots_and_bursts_stay_heap_identical(
        seed in any::<u64>(),
        ops in 50usize..300,
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut model = Vec::new();
        let mut payload = 0u64;
        let mut frontier = SimTime::ZERO;
        for _ in 0..ops {
            match rng.range_u64(0, 5) {
                0..=2 => {
                    let expected = pop_model(&mut model);
                    prop_assert_eq!(queue.pop(), expected);
                    if let Some((t, _)) = expected {
                        frontier = t;
                    }
                }
                3..=4 => {
                    // One-shot: tie with the frontier, near, or far ahead.
                    let delta = match rng.range_u64(0, 2) {
                        0 => 0,
                        1 => rng.range_u64(1, 4_000),
                        _ => rng.range_u64(1_000_000, 20_000_000_000),
                    };
                    let t = frontier + SimDuration::from_micros(delta);
                    queue.schedule(t, payload);
                    model.push((t, payload));
                    payload += 1;
                }
                _ => {
                    // Burst: several schedules at one timestamp.
                    let t = frontier + SimDuration::from_micros(rng.range_u64(0, 10_000));
                    for _ in 0..rng.range_u64(2, 6) {
                        queue.schedule(t, payload);
                        model.push((t, payload));
                        payload += 1;
                    }
                }
            }
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.next_time(), model.iter().map(|e| e.0).min());
        }
        drain_like_model(&mut queue, &mut model)?;
        prop_assert!(queue.is_empty());
    }

    /// Validity is always clamped into [0, 1] and combination never exceeds
    /// either operand.
    #[test]
    fn validity_combination_is_bounded(a in -2.0f64..3.0, b in -2.0f64..3.0) {
        let va = Validity::new(a);
        let vb = Validity::new(b);
        prop_assert!((0.0..=1.0).contains(&va.fraction()));
        let combined = va.combine(vb);
        prop_assert!(combined.fraction() <= va.fraction() + 1e-12);
        prop_assert!(combined.fraction() <= vb.fraction() + 1e-12);
        prop_assert!(combined.fraction() >= 0.0);
    }

    /// Combining detector outcomes yields 0 iff some dominant detector failed
    /// (continuous detectors alone can only approach zero).
    #[test]
    fn dominant_failures_always_invalidate(
        graded in proptest::collection::vec(0.01f64..1.0, 0..6),
        include_failure in any::<bool>(),
    ) {
        let mut outcomes: Vec<DetectionOutcome> =
            graded.iter().map(|v| DetectionOutcome::graded(Validity::new(*v))).collect();
        if include_failure {
            outcomes.push(DetectionOutcome::dominant_failure());
        } else {
            outcomes.push(DetectionOutcome::pass(DetectorClass::Dominant));
        }
        let combined = combine_outcomes(&outcomes);
        if include_failure {
            prop_assert!(combined.is_invalid());
        } else {
            prop_assert!(!combined.is_invalid());
        }
    }

    /// Marzullo fusion with f faulty sensors always returns an interval that
    /// overlaps the true value whenever at least n-f intervals contain it.
    #[test]
    fn marzullo_result_is_consistent_with_correct_majority(
        truth in -100.0f64..100.0,
        widths in proptest::collection::vec(0.5f64..5.0, 3..9),
        outlier_offset in 50.0f64..500.0,
    ) {
        let n = widths.len();
        let f = 1usize;
        // n-1 correct intervals around the truth, one outlier.
        let mut intervals: Vec<Interval> = widths
            .iter()
            .take(n - 1)
            .map(|w| Interval::new(truth - w, truth + w))
            .collect();
        intervals.push(Interval::new(truth + outlier_offset, truth + outlier_offset + 1.0));
        let fused = marzullo_fuse(&intervals, f).expect("fusion must succeed with one fault");
        prop_assert!(fused.contains(truth), "fused {fused:?} does not contain {truth}");
    }

    /// Validity-weighted fusion stays within the range of the valid inputs.
    #[test]
    fn weighted_fusion_stays_in_input_range(
        values in proptest::collection::vec(-50.0f64..50.0, 1..8),
        validities in proptest::collection::vec(0.1f64..1.0, 1..8),
    ) {
        let n = values.len().min(validities.len());
        let readings: Vec<(Measurement, Validity)> = (0..n)
            .map(|i| (Measurement::new(values[i], SimTime::ZERO, 1.0), Validity::new(validities[i])))
            .collect();
        let (fused, validity) = weighted_fuse(&readings).expect("non-empty fusion");
        let lo = values[..n].iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values[..n].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(fused >= lo - 1e-9 && fused <= hi + 1e-9);
        prop_assert!((0.0..=1.0).contains(&validity.fraction()));
    }

    /// The deterministic RNG produces identical streams for identical seeds
    /// and stays within requested ranges.
    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>(), lo in 0u64..1_000, span in 1u64..1_000) {
        let mut a = Rng::seed_from(seed);
        let mut b = Rng::seed_from(seed);
        for _ in 0..32 {
            let x = a.range_u64(lo, lo + span);
            let y = b.range_u64(lo, lo + span);
            prop_assert_eq!(x, y);
            prop_assert!((lo..=lo + span).contains(&x));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The self-stabilizing end-to-end protocol delivers FIFO without
    /// omission or duplication for arbitrary (bounded) channel error rates
    /// from a clean start.
    #[test]
    fn end_to_end_fifo_holds_for_random_error_rates(
        seed in any::<u64>(),
        omission in 0.0f64..0.4,
        duplication in 0.0f64..0.4,
        capacity in 1usize..10,
    ) {
        let config = E2EConfig { capacity, omission, duplication, reorder: true };
        let mut session = EndToEndSession::new(&config, seed);
        let sent: Vec<u64> = (1..=30).collect();
        for &m in &sent {
            session.sender.enqueue(m);
        }
        session.run_until_drained(2_000_000);
        prop_assert!(eventually_fifo(&sent, session.receiver.delivered(), 0));
    }
}

/// A random jamming schedule over `[0, horizon_us)`: bursts on one of
/// `channels` channels or on all of them, zero-length, sub-slot, short and
/// long, some nested inside the previous one.
fn random_bursts(rng: &mut Rng, channels: u8, horizon_us: u64) -> Vec<Disturbance> {
    let mut bursts: Vec<Disturbance> = Vec::new();
    for _ in 0..rng.range_u64(0, 8) {
        let channel = match rng.range_u64(0, 4) {
            0 => None,
            _ => Some(rng.range_u64(0, channels as u64 - 1) as u8),
        };
        let (start, len) = match (bursts.last(), rng.range_u64(0, 5)) {
            // Nested inside the previous burst.
            (Some(outer), 0) => {
                let span = outer.end.since(outer.start).as_micros();
                let offset = rng.range_u64(0, span);
                (outer.start.as_micros() + offset, rng.range_u64(0, span - offset))
            }
            (_, kind) => {
                let len = match kind {
                    1 => 0,
                    2 => rng.range_u64(1, 2_000),
                    3 => rng.range_u64(10_000, 100_000),
                    _ => rng.range_u64(100_000, 800_000),
                };
                (rng.range_u64(0, horizon_us), len)
            }
        };
        bursts.push(Disturbance {
            channel,
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(start + len),
        });
    }
    bursts
}

/// One step of a MAC scenario's script.
#[derive(Debug, Clone, Copy)]
enum MacOp {
    /// Enqueue a broadcast (or, with `Some(dst)`, a unicast) at a node.
    Send(u32, Option<u32>),
    /// Move a node.
    Move(u32, Vec2),
    /// Advance a window of slots.
    Run(u64),
}

/// A random network, jamming schedule and traffic script.
struct MacCase {
    seed: u64,
    positions: Vec<Vec2>,
    channels: u8,
    loss: f64,
    bursts: Vec<Disturbance>,
    script: Vec<MacOp>,
}

impl MacCase {
    fn generate(seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let nodes = rng.range_u64(2, 12) as u32;
        let channels = rng.range_u64(1, 3) as u8;
        // Range 300 m over a 600 m strip: some pairs cannot hear each other.
        let position =
            |rng: &mut Rng| Vec2::new(rng.range_f64(0.0, 600.0), rng.range_f64(0.0, 50.0));
        let positions = (0..nodes).map(|_| position(&mut rng)).collect();
        let loss = if rng.chance(0.5) { 0.0 } else { rng.range_f64(0.01, 0.3) };
        let horizon = rng.range_u64(500, 4_000);
        let bursts = random_bursts(&mut rng, channels, horizon * 1_000);
        let mut script = Vec::new();
        let mut slots = 0;
        let node = |rng: &mut Rng| rng.range_u64(0, nodes as u64 - 1) as u32;
        while slots < horizon {
            match rng.range_u64(0, 9) {
                // Sparse traffic: one frame, sometimes unicast.
                0..=2 => {
                    let dst = rng.chance(0.2).then(|| node(&mut rng));
                    script.push(MacOp::Send(node(&mut rng), dst));
                }
                // A burst of frames at several nodes.
                3 => {
                    for _ in 0..rng.range_u64(2, 8) {
                        script.push(MacOp::Send(node(&mut rng), None));
                    }
                }
                4 if rng.chance(0.3) => {
                    script.push(MacOp::Move(node(&mut rng), position(&mut rng)))
                }
                _ => {
                    let window = match rng.range_u64(0, 2) {
                        0 => rng.range_u64(1, 5),
                        1 => rng.range_u64(5, 100),
                        _ => rng.range_u64(100, 800),
                    };
                    script.push(MacOp::Run(window));
                    slots += window;
                }
            }
        }
        MacCase { seed, positions, channels, loss, bursts, script }
    }

    fn build<M: MacProtocol>(&self, mac: impl Fn() -> M) -> MacSimulation<M> {
        let mut medium = WirelessMedium::new(MediumConfig {
            range: 300.0,
            loss_probability: self.loss,
            channels: self.channels,
        });
        for burst in &self.bursts {
            medium.add_disturbance(*burst);
        }
        let mut sim = MacSimulation::new(medium, MacSimConfig::default(), self.seed);
        for (i, p) in self.positions.iter().enumerate() {
            sim.add_node(NodeId(i as u32), mac(), *p);
        }
        sim
    }

    /// Plays the script on two copies of the network, one through
    /// `run_slots(n)` and one through `n` calls to `step()`, and compares
    /// everything observable after every window.
    fn check_skipping<M: MacProtocol>(
        &self,
        mac: impl Fn() -> M,
        observe: impl Fn(&M) -> String,
    ) -> Result<(), TestCaseError> {
        let mut skipping = self.build(&mac);
        let mut stepping = self.build(&mac);
        let ids = skipping.node_ids();
        for (at, op) in self.script.iter().enumerate() {
            match *op {
                MacOp::Send(src, None) => {
                    skipping.send_broadcast(NodeId(src), vec![at as u8]);
                    stepping.send_broadcast(NodeId(src), vec![at as u8]);
                }
                MacOp::Send(src, Some(dst)) => {
                    skipping.send_unicast(NodeId(src), NodeId(dst), vec![at as u8]);
                    stepping.send_unicast(NodeId(src), NodeId(dst), vec![at as u8]);
                }
                MacOp::Move(id, position) => {
                    skipping.set_position(NodeId(id), position);
                    stepping.set_position(NodeId(id), position);
                }
                MacOp::Run(n) => {
                    skipping.run_slots(n);
                    for _ in 0..n {
                        stepping.step();
                    }
                    prop_assert_eq!(skipping.slot(), stepping.slot());
                    prop_assert_eq!(skipping.now(), stepping.now());
                    let metrics = format!("{:?}", skipping.metrics());
                    let expected = format!("{:?}", stepping.metrics());
                    prop_assert!(metrics == expected, "after op {at}: {metrics} != {expected}");
                    for &id in &ids {
                        prop_assert_eq!(skipping.node_channel(id), stepping.node_channel(id));
                        prop_assert_eq!(skipping.queue(id), stepping.queue(id));
                        prop_assert_eq!(skipping.take_delivered(id), stepping.take_delivered(id));
                        let state = observe(skipping.mac(id).unwrap());
                        let expected = observe(stepping.mac(id).unwrap());
                        prop_assert!(
                            state == expected,
                            "{id} after op {at}: {state} != {expected}"
                        );
                    }
                }
            }
        }
        Ok(())
    }
}

fn csma_state(mac: &CsmaMac) -> String {
    format!("dropped_expired {}", mac.dropped_expired())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Idle-slot skipping is exact: `run_slots(n)` leaves CSMA, R2T-MAC and
    /// fixed-TDMA networks in the same state as `n` calls to `step()` —
    /// metrics with every delay sample, per-node channels, queues and
    /// delivered frames, R2T inaccessibility periods, channel switches and
    /// suppressed duplicates, and CSMA's expired-frame drops — under random
    /// topologies, jamming schedules and traffic.
    #[test]
    fn idle_slot_skipping_matches_slot_by_slot_stepping(
        seed in any::<u64>(),
        copies in 1u32..4,
        heartbeats in any::<bool>(),
        switching in any::<bool>(),
    ) {
        let case = MacCase::generate(seed);
        case.check_skipping(|| CsmaMac::new(CsmaConfig::default()), csma_state)?;
        case.check_skipping(FixedTdmaMac::new, |_| String::new())?;
        let config = R2TMacConfig {
            copies,
            heartbeat_period: if heartbeats { 40 } else { 0 },
            channel_switch_threshold: if switching { 10 } else { 0 },
            channels: case.channels,
            ..Default::default()
        };
        case.check_skipping(
            || R2TMac::new(CsmaMac::new(CsmaConfig::default()), config.clone()),
            |mac| {
                format!(
                    "periods {:?} open {} switches {} duplicates {} {}",
                    mac.inaccessibility().periods(),
                    mac.inaccessibility().is_inaccessible(),
                    mac.channel_switches(),
                    mac.duplicates_suppressed(),
                    csma_state(mac.inner()),
                )
            },
        )?;
    }

    /// The medium's disturbance index answers exactly what a scan of the
    /// schedule answers: whether a channel is jammed at a time, and when the
    /// next burst affecting it starts.
    #[test]
    fn indexed_disturbances_match_a_linear_scan(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let channels = rng.range_u64(1, 3) as u8;
        let bursts = random_bursts(&mut rng, channels, 2_000_000);
        let mut medium = WirelessMedium::new(MediumConfig { channels, ..MediumConfig::default() });
        for burst in &bursts {
            medium.add_disturbance(*burst);
        }
        for _ in 0..200 {
            // Query near burst edges as often as anywhere.
            let t = match (bursts.is_empty(), rng.range_u64(0, 2)) {
                (false, 0) => {
                    let b = bursts[rng.range_usize(0, bursts.len() - 1)];
                    let edge = if rng.chance(0.5) { b.start } else { b.end };
                    SimTime::from_micros((edge.as_micros() + rng.range_u64(0, 2)).saturating_sub(1))
                }
                _ => SimTime::from_micros(rng.range_u64(0, 3_000_000)),
            };
            for channel in 0..channels + 1 {
                let expected = bursts.iter().any(|d| d.affects(channel, t));
                prop_assert!(
                    medium.is_disturbed(channel, t) == expected,
                    "channel {channel} at {t:?}: expected {expected}"
                );
                let next = bursts
                    .iter()
                    .filter(|d| d.channel.map_or(true, |c| c == channel) && d.start > t)
                    .map(|d| d.start)
                    .min();
                prop_assert_eq!(medium.next_disturbance_start(channel, t), next);
            }
        }
    }
}

/// Data items the random safety rules reference; the last is never written.
const RULE_ITEMS: [&str; 5] = ["range", "lead-state", "speed", "gap", "never-written"];
/// Data items the random update sequences write; the last two appear in no
/// rule.
const WRITTEN_ITEMS: [&str; 6] =
    ["range", "lead-state", "speed", "gap", "unreferenced-a", "unreferenced-b"];
/// Components the random rules reference; the last never reports.
const RULE_COMPONENTS: [&str; 4] = ["v2v", "radar", "planner", "never-reported"];
/// Components the random update sequences report; the last appears in no
/// rule.
const REPORTED_COMPONENTS: [&str; 4] = ["v2v", "radar", "planner", "unreferenced-c"];

fn pick(rng: &mut Rng, names: &[&str]) -> String {
    names[rng.range_usize(0, names.len() - 1)].to_string()
}

/// A random condition of every leaf kind, with `All`/`Any` nested up to
/// `depth` levels (including empty composites).  A leaf is strict with
/// probability `strict` — a random bound, possibly on a name that is never
/// written — and otherwise lenient enough that the update sequences mostly
/// satisfy it, so that the designs' higher levels get selected too.
fn random_condition(rng: &mut Rng, depth: u32, strict: f64) -> Condition {
    let tight = rng.chance(strict);
    let (items, components) = if tight {
        (&RULE_ITEMS[..], &RULE_COMPONENTS[..])
    } else {
        (&RULE_ITEMS[..RULE_ITEMS.len() - 1], &RULE_COMPONENTS[..RULE_COMPONENTS.len() - 1])
    };
    let item = pick(rng, items);
    let kind = rng.range_u64(0, if depth == 0 { 4 } else { 6 });
    let mut bound = |strict: (f64, f64), lenient: (f64, f64)| {
        let (lo, hi) = if tight { strict } else { lenient };
        rng.range_f64(lo, hi)
    };
    match kind {
        0 => Condition::MinValidity { item, threshold: bound((0.0, 1.0), (0.0, 0.3)) },
        1 => Condition::MaxAge {
            item,
            bound: SimDuration::from_millis(bound((0.0, 600.0), (450.0, 900.0)) as u64),
        },
        2 => Condition::MaxValue { item, bound: bound((-10.0, 10.0), (12.0, 20.0)) },
        3 => Condition::MinValue { item, bound: bound((-10.0, 10.0), (-20.0, -12.0)) },
        4 => Condition::ComponentHealthy { component: pick(rng, components) },
        _ => {
            // Mostly non-empty: an empty `Any` never holds.
            let least = usize::from(rng.chance(0.9));
            let subs = (0..rng.range_usize(least, 3))
                .map(|_| random_condition(rng, depth - 1, strict))
                .collect();
            if kind == 5 {
                Condition::All(subs)
            } else {
                Condition::Any(subs)
            }
        }
    }
}

/// A design of 1–4 levels (level 0 included) with 0–12 rules each.
fn random_design(rng: &mut Rng) -> DesignTimeSafetyInfo {
    let strict = [0.0, 0.03, 0.15, 0.6][rng.range_usize(0, 3)];
    let levels = (0..rng.range_u64(1, 4) as u8)
        .map(|level| LosSpec {
            level: LevelOfService(level),
            description: format!("level {level}"),
            rules: (0..rng.range_usize(0, 12))
                .map(|i| {
                    SafetyRule::new(&format!("L{level}-R{i}"), random_condition(rng, 2, strict))
                })
                .collect(),
            asil: Asil::B,
            performance_index: f64::from(level),
        })
        .collect();
    DesignTimeSafetyInfo::new("random", levels, HazardAnalysis::new(), SimDuration::from_millis(10))
}

/// The reference semantics: every condition evaluated by name over ordered
/// maps, the way the kernel evaluated before it compiled its rules.
#[derive(Default)]
struct ByNameModel {
    now: SimTime,
    data: BTreeMap<String, DataItem>,
    health: BTreeMap<String, bool>,
}

impl ByNameModel {
    fn holds(&self, condition: &Condition) -> bool {
        let item = |name: &String| self.data.get(name);
        match condition {
            Condition::MinValidity { item: name, threshold } => {
                item(name).is_some_and(|d| d.validity.fraction() >= *threshold)
            }
            Condition::MaxAge { item: name, bound } => {
                item(name).is_some_and(|d| self.now.since(d.timestamp) <= *bound)
            }
            Condition::MaxValue { item: name, bound } => {
                item(name).is_some_and(|d| d.value <= *bound)
            }
            Condition::MinValue { item: name, bound } => {
                item(name).is_some_and(|d| d.value >= *bound)
            }
            Condition::ComponentHealthy { component } => self.health.get(component) == Some(&true),
            Condition::All(subs) => subs.iter().all(|c| self.holds(c)),
            Condition::Any(subs) => subs.iter().any(|c| self.holds(c)),
        }
    }

    /// The highest level whose rule set (and every lower one) holds, and the
    /// failed rules of the first level that does not.
    fn decide(
        &self,
        design: &DesignTimeSafetyInfo,
    ) -> (LevelOfService, Vec<(LevelOfService, String)>) {
        let mut selected = LevelOfService::NON_COOPERATIVE;
        for spec in design.levels() {
            let failed: Vec<(LevelOfService, String)> = spec
                .rules
                .iter()
                .filter(|rule| !self.holds(&rule.condition))
                .map(|rule| (spec.level, rule.id.clone()))
                .collect();
            if !failed.is_empty() {
                return (selected, failed);
            }
            selected = spec.level;
        }
        (selected, Vec::new())
    }
}

proptest! {
    /// The compiled safety kernel decides exactly what a by-name evaluation
    /// of the same design decides: the selected level, the failed rules of
    /// the rejected level, the evaluation and switch counts — under random
    /// designs (rules on items that are never written, items no rule names,
    /// every name first written after the kernel compiled its rules) and
    /// random update sequences, forced and periodic cycles.  The public
    /// by-name `Condition::holds` agrees too, on the kernel's store and on a
    /// plain store that has never interned the rules' names.
    #[test]
    fn compiled_kernel_matches_a_by_name_model(seed in any::<u64>()) {
        check_kernel_against_model(seed)?;
    }
}

fn check_kernel_against_model(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = Rng::seed_from(seed);
    let design = random_design(&mut rng);
    let period = SimDuration::from_millis(rng.range_u64(1, 100));
    let mut kernel = SafetyKernel::new(design.clone(), period);
    let mut plain = RunTimeSafetyInfo::new();
    let mut model = ByNameModel::default();
    let mut current = LevelOfService::NON_COOPERATIVE;
    let (mut evaluations, mut switches, mut next_cycle) = (0u64, 0usize, SimTime::ZERO);
    let mut now = SimTime::ZERO;
    // Half the cases start with every name written once, so that the
    // designs' higher levels are reachable from the first cycles.
    let warm_start = rng.chance(0.5);
    for step in 0..rng.range_usize(1, 40) {
        now += SimDuration::from_millis(rng.range_u64(0, 150));
        let updates = if step == 0 && warm_start {
            WRITTEN_ITEMS.len() + REPORTED_COMPONENTS.len()
        } else {
            rng.range_usize(0, 5)
        };
        for update in 0..updates {
            let data = if step == 0 && warm_start {
                update < WRITTEN_ITEMS.len()
            } else {
                rng.chance(0.6)
            };
            if data {
                let name = match (step, warm_start) {
                    (0, true) => WRITTEN_ITEMS[update].to_string(),
                    _ => pick(&mut rng, &WRITTEN_ITEMS),
                };
                let timestamp = if rng.chance(0.1) {
                    now + SimDuration::from_millis(rng.range_u64(0, 50))
                } else {
                    let age = SimDuration::from_millis(rng.range_u64(0, 700));
                    SimTime::from_micros(now.as_micros().saturating_sub(age.as_micros()))
                };
                let item = DataItem {
                    value: rng.range_f64(-12.0, 12.0),
                    validity: Validity::new(rng.range_f64(0.2, 1.1)),
                    timestamp,
                };
                kernel.info_mut().update_data(&name, item.value, item.validity, timestamp);
                plain.update_data(&name, item.value, item.validity, timestamp);
                model.data.insert(name, item);
            } else {
                let name = match (step, warm_start) {
                    (0, true) => REPORTED_COMPONENTS[update - WRITTEN_ITEMS.len()].to_string(),
                    _ => pick(&mut rng, &REPORTED_COMPONENTS),
                };
                let healthy = rng.chance(0.9);
                kernel.info_mut().update_health(&name, healthy, now);
                plain.update_health(&name, healthy, now);
                model.health.insert(name, healthy);
            }
        }
        let forced = rng.chance(0.5);
        let ran = if forced {
            kernel.run_cycle(now);
            true
        } else {
            kernel.step(now).is_some()
        };
        prop_assert_eq!(ran, forced || now >= next_cycle);
        if !ran {
            continue;
        }
        if !forced {
            next_cycle = now + period;
        }
        model.now = now;
        plain.set_now(now);
        evaluations += 1;
        let (selected, violated) = model.decide(&design);
        switches += usize::from(selected != current);
        current = selected;

        let decision = kernel.last_decision().expect("a cycle ran");
        prop_assert_eq!(decision.selected, selected);
        prop_assert_eq!(decision.decided_at, now);
        let named: Vec<(LevelOfService, String)> =
            decision.violations.iter().map(|&id| (id.level, design.rule(id).id.clone())).collect();
        prop_assert_eq!(named, violated);
        prop_assert_eq!(kernel.current_los(), selected);
        prop_assert_eq!(kernel.manager().evaluations(), evaluations);
        prop_assert_eq!(kernel.switches().len(), switches);
        for rule in design.levels().iter().flat_map(|spec| &spec.rules) {
            let expected = model.holds(&rule.condition);
            prop_assert_eq!(rule.condition.holds(kernel.info()), expected);
            prop_assert_eq!(rule.condition.holds(&plain), expected);
        }
    }
    let info = kernel.info();
    prop_assert_eq!(info.data_len(), model.data.len());
    prop_assert_eq!(info.health_len(), model.health.len());
    let names: Vec<&str> = model.data.keys().map(String::as_str).collect();
    prop_assert_eq!(info.data_items(), names);
    Ok(())
}

/// The tiny campaign that writes the loader inputs' manifests and stream.
fn loader_campaign() -> &'static Campaign {
    static CAMPAIGN: OnceLock<Campaign> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        Campaign::new("loader-inputs", 5).with_chunk_size(2).entry(
            CampaignEntry::new("middleware-qos")
                .grid(ParamGrid::new().axis("degrade", [false, true]))
                .replications(2)
                .duration_secs(1),
        )
    })
}

/// The valid inputs the loader robustness property mutates: the checked-in
/// campaign spec and fault plan, and a checkpoint manifest, a shard manifest
/// and a JSONL run stream written by [`loader_campaign`].
fn loader_inputs() -> &'static [String] {
    static INPUTS: OnceLock<Vec<String>> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let registry = builtin_registry();
        let campaign = loader_campaign();
        let path =
            std::env::temp_dir().join(format!("karyon-loader-inputs-{}.json", std::process::id()));
        let mut jsonl = JsonlRunWriter::new(Vec::new());
        campaign
            .session(&registry)
            .checkpointer(&Checkpointer::new(&path))
            .sink(&mut jsonl)
            .run()
            .expect("builtin family");
        let checkpoint = read_manifest_text(&path).expect("the session wrote a manifest");
        std::fs::remove_file(&path).ok();
        let jsonl = String::from_utf8(jsonl.finish().expect("in-memory writes cannot fail"))
            .expect("JSONL is UTF-8");
        let shard =
            ShardManifest::new(campaign, ShardPlan::for_campaign(campaign, 1).slice(0)).render();
        vec![
            include_str!("../examples/campaign_spec.json").to_string(),
            include_str!("../examples/fault_plan.json").to_string(),
            checkpoint,
            shard,
            jsonl,
        ]
    })
}

/// A loader under test; the result says whether it accepted the text.
type Loader = fn(&str) -> bool;

/// Numbers no loader field can hold — past `f64`, negative, past `u64` —
/// and `u64::MAX`, which fits a `u64` field but overflows any size
/// arithmetic on it.
const HOSTILE_NUMBERS: [&str; 7] = [
    "1e309",
    "-1e309",
    "-1",
    "18446744073709551616",
    "-9223372036854775809",
    "1e-400",
    "18446744073709551615",
];

/// Byte ranges of the JSON number literals in `bytes`.
fn number_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let starts = bytes[i].is_ascii_digit() || bytes[i] == b'-';
        if starts && (i == 0 || matches!(bytes[i - 1], b':' | b',' | b'[' | b' ')) {
            let end = (i + 1..bytes.len())
                .find(|&j| !matches!(bytes[j], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .unwrap_or(bytes.len());
            spans.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}

/// One hostile edit: byte flips, a truncation, a number swapped for one no
/// field can hold, or 200,000 levels of nesting spliced in.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng) {
    let last = bytes.len().saturating_sub(1) as u64;
    match rng.range_u64(0, 3) {
        0 if !bytes.is_empty() => {
            for _ in 0..rng.range_u64(1, 8) {
                let at = rng.range_u64(0, last) as usize;
                bytes[at] ^= rng.range_u64(1, 255) as u8;
            }
        }
        1 => bytes.truncate(rng.range_u64(0, last) as usize),
        2 => {
            let spans = number_spans(bytes);
            if !spans.is_empty() {
                // Sizes, counts and indices lead every input, ahead of long
                // metric arrays: half the swaps hit the first eight numbers.
                let pool = if rng.chance(0.5) { spans.len().min(8) } else { spans.len() };
                let (start, end) = spans[rng.range_u64(0, pool as u64 - 1) as usize];
                let number = HOSTILE_NUMBERS[rng.range_u64(0, 6) as usize];
                bytes.splice(start..end, number.bytes());
            }
        }
        _ => {
            let at = rng.range_u64(0, bytes.len() as u64) as usize;
            let opener: &[u8] = if rng.chance(0.5) { b"[" } else { b"{\"a\":" };
            bytes.splice(at..at, opener.repeat(200_000));
        }
    }
}

proptest! {
    /// Every loader answers hostile bytes with `Ok` or `Err`, never a panic:
    /// each case mutates one valid input up to three times and feeds the
    /// result to all six loaders.
    #[test]
    fn loaders_never_panic_on_hostile_bytes(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let inputs = loader_inputs();
        let mut bytes = inputs[rng.range_u64(0, inputs.len() as u64 - 1) as usize].clone().into_bytes();
        for _ in 0..rng.range_u64(1, 3) {
            mutate(&mut bytes, &mut rng);
        }
        let text = String::from_utf8_lossy(&bytes);
        let loaders: [(&str, Loader); 6] = [
            ("CheckpointManifest::parse", |t| CheckpointManifest::parse(t).is_ok()),
            ("ShardManifest::parse", |t| ShardManifest::parse(t).is_ok()),
            ("FaultPlan::from_json_str", |t| FaultPlan::from_json_str(t).is_ok()),
            ("Campaign::from_json_str", |t| Campaign::from_json_str(t).map(|c| c.run_count()).is_ok()),
            ("read_jsonl_records", |t| read_jsonl_records(t).is_ok()),
            ("Campaign::read_jsonl_records", |t| loader_campaign().read_jsonl_records(t).is_ok()),
        ];
        for (name, load) in loaders {
            let outcome = std::panic::catch_unwind(|| load(&text));
            prop_assert!(outcome.is_ok(), "{name} panicked on a {}-byte input", text.len());
        }
    }
}

/// A JSONL stream's records as the tree-based reference reads them: each
/// run's clamp count and metrics, every `f64` as its bit pattern.
type RecordBits = Vec<(u64, Vec<(String, u64)>)>;

/// The tree-based JSONL reader the pull reader replaced, kept as the
/// reference: `JsonValue::parse` per line, then `get`/`as_*` reads.
fn reference_jsonl(text: &str) -> Result<RecordBits, String> {
    let mut records = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let value = JsonValue::parse(line).map_err(|e| format!("JSONL line {}: {e}", index + 1))?;
        let run = value
            .get("run")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("JSONL line {}: missing \"run\" index", index + 1))?;
        if run != index as u64 {
            return Err(format!(
                "JSONL line {}: run index {run} out of canonical order — the stream is \
                 reordered or spliced",
                index + 1
            ));
        }
        let clamped = value
            .get("clamped_schedules")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("JSONL line {}: missing \"clamped_schedules\"", index + 1))?;
        let metrics = value
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| format!("JSONL line {}: missing \"metrics\" object", index + 1))?;
        let mut record = BTreeMap::new();
        for (name, metric) in metrics {
            let metric = metric.as_f64().ok_or_else(|| {
                format!("JSONL line {}: metric {name:?} is not a number", index + 1)
            })?;
            record.insert(name.clone(), metric.to_bits());
        }
        records.push((clamped, record.into_iter().collect()));
    }
    Ok(records)
}

/// A checkpoint manifest as the tree-based reference reads it, every `f64`
/// as its bit pattern.
#[derive(Debug, PartialEq)]
struct ManifestBits {
    campaign: String,
    /// `seed`, `fingerprint`, `chunk_size`, `total_runs`, `chunks_done`
    /// and `runs_done`.
    header: [u64; 6],
    points: Vec<PointBits>,
}

#[derive(Debug, PartialEq)]
struct PointBits {
    runs: u64,
    suspect_runs: u64,
    metrics: BTreeMap<String, MetricBits>,
}

#[derive(Debug, PartialEq)]
struct MetricBits {
    /// `count`, `mean`, `m2`, `min`, `max` and `sum`.
    stats: [u64; 6],
    quantiles: QuantileBits,
}

#[derive(Debug, PartialEq)]
enum QuantileBits {
    Exact(Vec<u64>),
    /// `lo`, `hi`, `underflow`, `overflow`, `count`, `sum`, `min`, `max`,
    /// then the bucket counts.
    Histogram([u64; 8], Vec<u64>),
}

/// The tree-based manifest reader the pull reader replaced, kept as the
/// reference: `JsonValue::parse`, then `get`/`as_*` reads, refusing with the
/// same messages in the same order.
fn reference_manifest(text: &str) -> Result<ManifestBits, String> {
    let doc = JsonValue::parse(text)?;
    let u64_field = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing or non-integer field {key:?}"))
    };
    let str_field = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing or non-string field {key:?}"))
    };
    if str_field("format")? != "karyon-campaign-checkpoint" {
        return Err("not a karyon-campaign-checkpoint file".to_string());
    }
    let version = u64_field("version")?;
    if version != 1 {
        return Err(format!("unsupported manifest version {version} (this build reads 1)"));
    }
    let campaign = str_field("campaign")?.to_string();
    let seed = u64_field("seed")?;
    let fingerprint = u64_field("fingerprint")?;
    let chunk_size = u64_field("chunk_size")?;
    let total_runs = u64_field("total_runs")?;
    let points = doc
        .get("points")
        .and_then(JsonValue::as_array)
        .ok_or("missing or non-array field \"points\"")?
        .iter()
        .map(reference_point)
        .collect::<Result<Vec<_>, _>>()?;
    let chunks_done = u64_field("chunks_done")?;
    let runs_done = u64_field("runs_done")?;
    let covered = chunks_done.saturating_mul(chunk_size).min(total_runs);
    if runs_done != covered {
        return Err(format!(
            "inconsistent watermark: runs_done is {runs_done} but {chunks_done} chunks of \
             {chunk_size} runs cover {covered} of the campaign's {total_runs} runs"
        ));
    }
    let merged = points.iter().try_fold(0u64, |sum, point| sum.checked_add(point.runs));
    if merged != Some(runs_done) {
        return Err(format!(
            "inconsistent watermark: runs_done is {runs_done} but the points merged {} runs",
            merged.map_or_else(|| "more than 2^64".to_string(), |runs| runs.to_string())
        ));
    }
    let header = [seed, fingerprint, chunk_size, total_runs, chunks_done, runs_done];
    Ok(ManifestBits { campaign, header, points })
}

fn reference_point(value: &JsonValue) -> Result<PointBits, String> {
    let runs = value.get("runs").and_then(JsonValue::as_u64).ok_or("point is missing \"runs\"")?;
    let suspect_runs = value
        .get("suspect_runs")
        .and_then(JsonValue::as_u64)
        .ok_or("point is missing \"suspect_runs\"")?;
    let mut metrics = BTreeMap::new();
    let members = value
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("point is missing \"metrics\"")?;
    for (name, metric) in members {
        metrics.insert(name.clone(), reference_metric(name, metric)?);
    }
    Ok(PointBits { runs, suspect_runs, metrics })
}

fn reference_metric(name: &str, value: &JsonValue) -> Result<MetricBits, String> {
    let bits_field = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("metric {name:?} is missing bit field {key:?}"))
    };
    let count = value
        .get("count")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("metric {name:?} is missing \"count\""))?;
    let stats = [
        count,
        bits_field("mean")?,
        bits_field("m2")?,
        bits_field("min")?,
        bits_field("max")?,
        bits_field("sum")?,
    ];
    let quantiles = match (value.get("exact"), value.get("histogram")) {
        (Some(exact), None) => QuantileBits::Exact(
            exact
                .as_array()
                .ok_or_else(|| format!("metric {name:?}: \"exact\" must be an array"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| format!("metric {name:?}: non-integer sample bit pattern"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
        (None, Some(hist)) => {
            let field = |key: &str| {
                hist.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("metric {name:?} histogram is missing {key:?}"))
            };
            let counts = hist
                .get("counts")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("metric {name:?} histogram is missing \"counts\""))?
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| format!("metric {name:?}: non-integer bucket count"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            if counts.is_empty() {
                return Err(format!("metric {name:?} histogram has no buckets"));
            }
            let (lo, hi) = (field("lo")?, field("hi")?);
            let state = [
                lo,
                hi,
                field("underflow")?,
                field("overflow")?,
                field("count")?,
                field("sum")?,
                field("min")?,
                field("max")?,
            ];
            let (lo, hi) = (f64::from_bits(lo), f64::from_bits(hi));
            if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                return Err(format!("metric {name:?} histogram has an invalid range"));
            }
            QuantileBits::Histogram(state, counts)
        }
        _ => {
            return Err(format!(
                "metric {name:?} must carry exactly one of \"exact\" or \"histogram\""
            ))
        }
    };
    Ok(MetricBits { stats, quantiles })
}

/// Rewrites a valid document.  The benign edits leave what it says
/// unchanged: whitespace between tokens, reordered members, an unknown
/// member (nested objects included), keys written with `\u` escapes, and in
/// a JSONL line's `metrics` the values `null`, `-0` and `1e309`.  With a
/// `refusals` chance, a member is also dropped or its value swapped for one
/// of another type, which the loaders refuse in the order they check; one
/// object in ten takes ten times the chance, so that several members of one
/// object are refused together.
struct Rewrite<'r> {
    rng: &'r mut Rng,
    /// The whitespace bytes to draw from: a JSONL line takes no newline.
    spaces: &'static [u8],
    /// True inside the unknown member, which gets no unknown member itself.
    in_unknown: bool,
    /// The chance that a member is dropped or retyped.
    refusals: f64,
}

impl Rewrite<'_> {
    fn space(&mut self, out: &mut String) {
        while self.rng.chance(0.3) {
            let at = self.rng.range_u64(0, self.spaces.len() as u64 - 1) as usize;
            out.push(self.spaces[at] as char);
        }
    }

    fn key(&mut self, key: &str, out: &mut String) {
        out.push('"');
        if self.rng.chance(0.2) {
            for c in key.chars() {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
        } else {
            out.push_str(&escape(key));
        }
        out.push('"');
    }

    /// Renders `value`, the member `parent` of its object (if any).
    fn value(&mut self, value: &JsonValue, parent: Option<&str>, out: &mut String) {
        match value {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(raw) => out.push_str(raw),
            JsonValue::String(s) => out.push_str(&format!("\"{}\"", escape(s))),
            JsonValue::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        self.space(out);
                        out.push(',');
                    }
                    self.space(out);
                    self.value(item, None, out);
                    self.space(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                let metrics = parent == Some("metrics");
                let mut members: Vec<(&str, &JsonValue)> =
                    members.iter().map(|(key, value)| (key.as_str(), value)).collect();
                if self.rng.chance(0.3) {
                    members.reverse();
                } else if !members.is_empty() && self.rng.chance(0.3) {
                    let by = self.rng.range_u64(0, members.len() as u64 - 1) as usize;
                    members.rotate_left(by);
                }
                let extra = unknown_member();
                // An unknown member of a `metrics` object would be a metric.
                if !metrics && !self.in_unknown && self.rng.chance(0.3) {
                    let at = self.rng.range_u64(0, members.len() as u64) as usize;
                    members.insert(at, ("x-unknown", extra));
                }
                out.push('{');
                let mut first = true;
                let refusals = self.refusals * if self.rng.chance(0.1) { 10.0 } else { 1.0 };
                for (key, value) in members {
                    let refused = self.rng.chance(refusals);
                    if refused && self.rng.chance(0.5) {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    self.space(out);
                    self.key(key, out);
                    self.space(out);
                    out.push(':');
                    self.space(out);
                    let odd = ["null", "-0", "1e309"];
                    let retyped = ["\"x\"", "[]", "{}", "-1", "true", "1.5"];
                    if refused {
                        out.push_str(retyped[self.rng.range_u64(0, 5) as usize]);
                    } else if metrics
                        && matches!(value, JsonValue::Number(_))
                        && self.rng.chance(0.3)
                    {
                        out.push_str(odd[self.rng.range_u64(0, 2) as usize]);
                    } else {
                        let outer = self.in_unknown;
                        self.in_unknown |= key == "x-unknown";
                        self.value(value, Some(key), out);
                        self.in_unknown = outer;
                    }
                    self.space(out);
                }
                out.push('}');
            }
        }
    }
}

/// The unknown member [`Rewrite`] adds: nested objects and arrays of every
/// value type.
fn unknown_member() -> &'static JsonValue {
    static MEMBER: OnceLock<JsonValue> = OnceLock::new();
    MEMBER.get_or_init(|| {
        JsonValue::parse(
            r#"{"nested": {"list": [1, -0.5e-3, "x\u00e9", {"deep": [true, false, null]}],
                "empty": {}, "none": []}, "s": "t\"q"}"#,
        )
        .expect("valid JSON")
    })
}

/// `text` (one JSON document, or JSONL lines) rewritten by [`Rewrite`].
fn rewrite(text: &str, jsonl: bool, refusals: f64, rng: &mut Rng) -> String {
    let spaces: &[u8] = if jsonl { b" \t\r" } else { b" \t\r\n" };
    let mut rewrite = Rewrite { rng, spaces, in_unknown: false, refusals };
    let mut out = String::new();
    let documents: Vec<&str> = if jsonl { text.lines().collect() } else { vec![text] };
    for document in documents {
        let value = JsonValue::parse(document).expect("a valid loader input");
        rewrite.space(&mut out);
        rewrite.value(&value, None, &mut out);
        rewrite.space(&mut out);
        if jsonl {
            out.push('\n');
        }
    }
    out
}

/// Checks that the pull-reader loader of `text` agrees with its tree-based
/// reference: the same `Ok` or `Err`, the same message, and on `Ok` the same
/// records or manifest, bit for bit.  Returns whether the loader accepted.
fn agrees_with_reference(manifest: bool, text: &str) -> Result<bool, TestCaseError> {
    if manifest {
        let loaded = CheckpointManifest::parse(text).map(|loaded| {
            reference_manifest(&loaded.render()).expect("a loaded manifest renders readably")
        });
        let accepted = loaded.is_ok();
        prop_assert_eq!(loaded, reference_manifest(text));
        Ok(accepted)
    } else {
        let loaded = read_jsonl_records(text).map(|records| {
            records
                .iter()
                .map(|record| {
                    let metrics =
                        record.metrics().map(|(k, v)| (k.to_string(), v.to_bits())).collect();
                    (record.clamped_schedules, metrics)
                })
                .collect::<RecordBits>()
        });
        let accepted = loaded.is_ok();
        prop_assert_eq!(loaded, reference_jsonl(text));
        Ok(accepted)
    }
}

proptest! {
    /// `read_jsonl_records` and `CheckpointManifest::parse` read without a
    /// JSON tree, yet agree with the tree-based reference on every input:
    /// the valid loader inputs, benign rewrites of them (which both accept),
    /// rewrites that drop or retype members, and hostile mutations of the
    /// benign rewrites.
    #[test]
    fn loaders_agree_with_the_tree_reference(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let inputs = loader_inputs();
        let manifest = rng.chance(0.5);
        let valid = if manifest { &inputs[2] } else { &inputs[4] };
        prop_assert!(agrees_with_reference(manifest, valid)?, "a valid input is refused");
        let edited = rewrite(valid, !manifest, 0.0, &mut rng);
        prop_assert!(agrees_with_reference(manifest, &edited)?, "a benign edit is refused: {edited}");
        agrees_with_reference(manifest, &rewrite(valid, !manifest, 0.05, &mut rng))?;
        let mut bytes = edited.into_bytes();
        for _ in 0..rng.range_u64(1, 3) {
            mutate(&mut bytes, &mut rng);
        }
        agrees_with_reference(manifest, &String::from_utf8_lossy(&bytes))?;
    }
}

/// The JSON object `{"v":…}` with `v` written by the integer writer.
fn integer_fields(v: u64, signed: i64) -> (String, String) {
    (ObjectWriter::new().u64("v", v).finish(), ObjectWriter::new().i64("v", signed).finish())
}

#[test]
fn integer_writer_matches_display_at_the_edges() {
    for v in [0, 1, 9, 10, 11, 99, 100, 999_999, 1_000_000, u64::MAX / 10, u64::MAX - 1, u64::MAX] {
        assert_eq!(integer_fields(v, 0).0, format!("{{\"v\":{v}}}"));
    }
    for v in [0, 9, 10, -1, -9, -10, i64::MIN, i64::MIN + 1, i64::MAX] {
        assert_eq!(integer_fields(0, v).1, format!("{{\"v\":{v}}}"));
    }
}

/// Characters for escape inputs: plain ASCII, the two characters JSON
/// escapes by name, control characters with and without a short escape,
/// DEL (which JSON leaves alone) and multi-byte UTF-8.
const ESCAPE_ALPHABET: [char; 16] = [
    'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€', '𝄞',
    '\u{2028}',
];

/// The escape as a per-character loop, the way `escape` writes a string
/// that holds something to escape.
fn escape_per_char(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Metric names for the record model: ASCII and multi-byte names, and
/// names that are prefixes of one another, so the byte order matters.
const RECORD_NAMES: [&str; 8] = ["a", "ab", "a_b", "b", "gap", "latency_ms", "Δt", "zeta"];

proptest! {
    /// The fmt-free integer writer prints what `Display` prints, for
    /// integers of every length and sign.
    #[test]
    fn integer_writer_matches_display(
        raw in any::<u64>(),
        signed in any::<i64>(),
        shift in 0u32..64,
    ) {
        let (v, s) = (raw >> shift, signed >> shift);
        let (unsigned, signed_text) = integer_fields(v, s);
        prop_assert_eq!(unsigned, format!("{{\"v\":{v}}}"));
        prop_assert_eq!(signed_text, format!("{{\"v\":{s}}}"));
    }

    /// `escape` appends a string with nothing to escape whole, and
    /// otherwise escapes it character by character; both paths write what
    /// the per-character loop writes.
    #[test]
    fn escape_matches_the_per_char_loop(
        picks in proptest::collection::vec(0usize..ESCAPE_ALPHABET.len(), 0..40),
        plain in any::<bool>(),
    ) {
        // Half the strings keep only characters that need no escape, so the
        // fast path is taken as often as the loop.
        let text: String = picks
            .iter()
            .map(|&i| ESCAPE_ALPHABET[i])
            .filter(|&c| !plain || (c != '"' && c != '\\' && c >= ' '))
            .collect();
        prop_assert_eq!(escape(&text), escape_per_char(&text));
    }

    /// `RunRecord` keeps the meaning of the name → value map it replaced:
    /// `set` overwrites, `get` finds, and `metrics()` lists in name order,
    /// whether a name is borrowed or owned.
    #[test]
    fn run_record_matches_a_map_model(
        ops in proptest::collection::vec(0usize..RECORD_NAMES.len() * 4, 0..30),
        values in proptest::collection::vec(-1.0e3f64..1.0e3, 30..31),
    ) {
        let mut record = RunRecord::new();
        let mut model = BTreeMap::new();
        for (&op, &value) in ops.iter().zip(&values) {
            let name = RECORD_NAMES[op % RECORD_NAMES.len()];
            match op / RECORD_NAMES.len() {
                0 => record.set(name, value),
                1 => record.set(name.to_string(), value),
                2 => record.set_flag(name, value > 0.0),
                _ => record.set_flag(name.to_string(), value > 0.0),
            }
            let stored = if op / RECORD_NAMES.len() < 2 { value } else { f64::from(value > 0.0) };
            model.insert(name.to_string(), stored);
            for name in RECORD_NAMES {
                prop_assert_eq!(record.get(name), model.get(name).copied());
            }
            let listed: Vec<(String, f64)> =
                record.metrics().map(|(name, value)| (name.to_string(), value)).collect();
            let expected: Vec<(String, f64)> = model.clone().into_iter().collect();
            prop_assert_eq!(listed, expected);
            prop_assert_eq!(record.metrics().len(), model.len());
        }
        // Equality is the map's: the same pairs in any insertion order.
        let mut rebuilt = RunRecord::new();
        for (name, value) in model.iter().rev() {
            rebuilt.set(name.clone(), *value);
        }
        prop_assert_eq!(&rebuilt, &record);
        prop_assert_eq!(&record.clone(), &record);
    }
}
