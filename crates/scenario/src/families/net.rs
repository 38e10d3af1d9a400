//! Network-layer families: the self-stabilizing communication stack of paper
//! §V-A (experiments e04–e07), plus the simulated campaign transport fabric.

use karyon_net::mac::selfstab_tdma::allocation_is_collision_free;
use karyon_net::{
    eventually_fifo, CsmaConfig, CsmaMac, Disturbance, E2EConfig, EndToEndSession,
    InaccessibilityTracker, MacProtocol, MacSimConfig, MacSimulation, MediumConfig, NodeId,
    PulseSyncConfig, PulseSyncSim, R2TMac, R2TMacConfig, SelfStabTdmaMac, WirelessMedium,
};
use karyon_sim::{Rng, SimDuration, SimTime, Vec2};
use karyon_transport::{LinkConfig, PartitionWindow, SimTransport};

use crate::grid::ParamGrid;
use crate::scenario::{RunRecord, Scenario};
use crate::spec::ScenarioSpec;

/// Self-stabilizing TDMA slot allocation without an external time source
/// (paper §V-A2, the body of bench `e05`): how many frames the network needs
/// to converge to a collision-free schedule — from empty or adversarial
/// initial claims, and optionally after churn (a node joining the converged
/// network).
pub struct TdmaScenario;

impl TdmaScenario {
    fn build(spec: &ScenarioSpec) -> (MacSimulation<SelfStabTdmaMac>, u16, u32) {
        let nodes = spec.u64_or("nodes", 8).max(2) as u32;
        let slots_per_frame = spec.u64_or("slots_per_frame", 16).clamp(2, 1_024) as u16;
        let adversarial = spec.bool_or("adversarial", false);
        let medium = WirelessMedium::new(MediumConfig {
            range: 1_000.0,
            loss_probability: 0.0,
            channels: 1,
        });
        let mut sim = MacSimulation::new(
            medium,
            MacSimConfig { slot_duration: SimDuration::from_millis(1), slots_per_frame },
            spec.seed,
        );
        for i in 0..nodes {
            let mac = if adversarial {
                SelfStabTdmaMac::with_initial_claim(0)
            } else {
                SelfStabTdmaMac::new()
            };
            sim.add_node(NodeId(i), mac, Vec2::new(i as f64 * 10.0, 0.0));
        }
        (sim, slots_per_frame, nodes)
    }

    /// Whether the allocation is collision-free; `claims` is a reused
    /// buffer.
    fn converged(
        sim: &MacSimulation<SelfStabTdmaMac>,
        claims: &mut Vec<(NodeId, Option<u16>)>,
    ) -> bool {
        claims.clear();
        claims.extend(sim.macs().map(|(id, mac)| (id, mac.claimed_slot())));
        allocation_is_collision_free(claims, |a, b| sim.medium().in_range(a, b))
    }

    /// Runs whole frames until the allocation is collision-free; returns
    /// `(frames used, converged)`.
    fn hunt(
        sim: &mut MacSimulation<SelfStabTdmaMac>,
        slots_per_frame: u16,
        max_frames: u64,
    ) -> (u64, bool) {
        let mut claims = Vec::new();
        for frame_idx in 1..=max_frames {
            sim.run_slots(slots_per_frame as u64);
            if Self::converged(sim, &mut claims) {
                return (frame_idx, true);
            }
        }
        (max_frames, false)
    }
}

impl Scenario for TdmaScenario {
    fn name(&self) -> &str {
        "tdma"
    }

    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
            .axis("nodes", [8, 4, 12])
            .axis("adversarial", [false, true])
            .axis("slots_per_frame", [16])
            .axis("churn", [false, true])
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            "frames_to_converge" | "frames_to_converge_after_join" => Some((0.0, 1_000.0)),
            "reselections" => Some((0.0, 10_000.0)),
            _ => None,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let (mut sim, slots_per_frame, nodes) = Self::build(spec);
        // The spec duration budgets the convergence hunt: at 1 ms slots a
        // frame takes `slots_per_frame` ms of simulated time.
        let max_frames = (spec.duration.as_millis() / slots_per_frame as u64).clamp(1, 100_000);
        let (frames, converged) = Self::hunt(&mut sim, slots_per_frame, max_frames);
        let reselections: u64 = sim.macs().map(|(_, mac)| mac.reselections()).sum();
        // Post-convergence stability: ten more frames must stay silent.
        let before = sim.metrics().collisions;
        sim.run_slots(10 * slots_per_frame as u64);
        let post_collisions = sim.metrics().collisions - before;

        let mut record = RunRecord::new();
        record.set_flag("converged", converged);
        record.set("frames_to_converge", frames as f64);
        record.set("reselections", reselections as f64);
        record.set("post_convergence_collisions", post_collisions as f64);
        record.set_flag("stable_after_convergence", converged && post_collisions == 0);
        if spec.bool_or("churn", false) {
            // Churn (the e05 join case): a new node enters the converged
            // network and the allocation must re-stabilize.
            sim.add_node(NodeId(nodes), SelfStabTdmaMac::new(), Vec2::new(35.0, 0.0));
            let (frames_after, reconverged) = Self::hunt(&mut sim, slots_per_frame, max_frames);
            record.set("frames_to_converge_after_join", frames_after as f64);
            record.set_flag("reconverged_after_join", reconverged);
        }
        record
    }
}

/// Network-inaccessibility control under jamming bursts (paper §V-A1, the
/// body of bench `e04`): a broadcast workload over a disturbed medium, run
/// either on plain CSMA (inaccessibility unbounded by design) or wrapped in
/// R2T-MAC (bounded via channel diversity and temporal redundancy).
///
/// The disturbance profile — mean gap between jamming bursts, baseline frame
/// loss, and the optional stark multi-second burst the e04 harness adds —
/// used to be hard-coded; `gap_s`, `loss` and `long_burst` expose it to
/// campaign grids.
pub struct InaccessibilityScenario;

impl InaccessibilityScenario {
    fn medium(spec: &ScenarioSpec, slots: u64, burst_ms: u64) -> WirelessMedium {
        let mut medium = WirelessMedium::new(MediumConfig {
            range: 1_000.0,
            loss_probability: spec.f64_or("loss", 0.01).clamp(0.0, 1.0),
            channels: 2,
        });
        let mut rng = Rng::seed_from(spec.seed);
        medium.add_random_disturbances(
            Some(0),
            SimTime::from_millis(slots),
            SimDuration::from_secs_f64(spec.f64_or("gap_s", 3.0).max(0.1)),
            SimDuration::from_millis(burst_ms),
            &mut rng,
        );
        if spec.bool_or("long_burst", false) {
            // One long burst to make the CSMA/R2T difference stark (e04).
            medium.add_disturbance(Disturbance {
                channel: Some(0),
                start: SimTime::from_secs(8),
                end: SimTime::from_secs(12),
            });
        }
        medium
    }

    fn traffic<M: MacProtocol>(sim: &mut MacSimulation<M>, slots: u64, nodes: u32) {
        for round in 0..(slots / 50) {
            let src = NodeId((round % nodes as u64) as u32);
            sim.send_broadcast(src, vec![round as u8]);
            sim.run_slots(50);
        }
    }
}

impl Scenario for InaccessibilityScenario {
    fn name(&self) -> &str {
        "inaccessibility"
    }

    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
            .axis("mac", ["r2t", "csma"])
            .axis("burst_ms", [200, 800])
            .axis("copies", [2])
            .axis("nodes", [6])
            .axis("gap_s", [3.0])
            .axis("loss", [0.01])
            .axis("long_burst", [false, true])
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            "delivery_per_generated" => Some((0.0, 8.0)),
            "p95_delay_ms" | "max_delay_ms" => Some((0.0, 5_000.0)),
            "longest_inaccessibility_ms" => Some((0.0, 10_000.0)),
            _ => None,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let nodes = spec.u64_or("nodes", 6).max(2) as u32;
        let burst_ms = spec.u64_or("burst_ms", 200).max(1);
        let slots = spec.duration.as_millis().max(100); // 1 ms slots
        let mac_kind = spec.str_or("mac", "r2t");

        let mut record = RunRecord::new();
        match mac_kind {
            "csma" => {
                let medium = Self::medium(spec, slots, burst_ms);
                let mut sim = MacSimulation::new(medium, MacSimConfig::default(), spec.seed);
                for i in 0..nodes {
                    sim.add_node(
                        NodeId(i),
                        CsmaMac::new(CsmaConfig::default()),
                        Vec2::new(i as f64 * 10.0, 0.0),
                    );
                }
                Self::traffic(&mut sim, slots, nodes);
                // A CSMA node cannot escape its jammed channel, so its
                // inaccessibility is the raw disturbance profile.
                let mut tracker = InaccessibilityTracker::new();
                let mut slot = 0;
                while slot < slots {
                    let now = SimTime::from_millis(slot);
                    let disturbed = sim.medium().is_disturbed(0, now);
                    tracker.observe(disturbed, now);
                    // Clear slots change nothing until the next burst starts.
                    slot = match sim.medium().next_disturbance_start(0, now) {
                        Some(start) if !disturbed => start.as_micros().div_ceil(1_000),
                        None if !disturbed => slots,
                        _ => slot + 1,
                    };
                }
                tracker.finish(SimTime::from_millis(slots));
                record.set("longest_inaccessibility_ms", tracker.longest().as_secs_f64() * 1e3);
                record.set_flag("bounded", false);
                let mut delays = sim.metrics().delays_ms.clone();
                record.set("delivery_per_generated", sim.metrics().delivery_per_generated());
                record.set("p95_delay_ms", delays.p95());
                record.set("max_delay_ms", delays.max());
                record.set("collisions", sim.metrics().collisions as f64);
            }
            "r2t" => {
                let config = R2TMacConfig {
                    copies: spec.u64_or("copies", 2).clamp(1, 8) as u32,
                    heartbeat_period: 0,
                    channel_switch_threshold: 10,
                    channels: 2,
                    ..Default::default()
                };
                let medium = Self::medium(spec, slots, burst_ms);
                let mut sim = MacSimulation::new(medium, MacSimConfig::default(), spec.seed);
                for i in 0..nodes {
                    sim.add_node(
                        NodeId(i),
                        R2TMac::new(CsmaMac::new(CsmaConfig::default()), config.clone()),
                        Vec2::new(i as f64 * 10.0, 0.0),
                    );
                }
                Self::traffic(&mut sim, slots, nodes);
                let mut longest = SimDuration::ZERO;
                let mut bound = SimDuration::ZERO;
                for id in sim.node_ids() {
                    let mac = sim.mac(id).unwrap();
                    longest = longest.max(mac.inaccessibility().longest());
                    bound = mac.inaccessibility_bound(SimDuration::from_millis(1));
                }
                record.set("longest_inaccessibility_ms", longest.as_secs_f64() * 1e3);
                record.set("inaccessibility_bound_ms", bound.as_secs_f64() * 1e3);
                record.set_flag("bounded", longest <= bound);
                let mut delays = sim.metrics().delays_ms.clone();
                record.set("delivery_per_generated", sim.metrics().delivery_per_generated());
                record.set("p95_delay_ms", delays.p95());
                record.set("max_delay_ms", delays.max());
                record.set("collisions", sim.metrics().collisions as f64);
            }
            other => panic!("unknown inaccessibility mac {other:?} (expected csma|r2t)"),
        }
        record
    }
}

/// Autonomous pulse/slot alignment under clock drift (paper §V-A2, the body
/// of bench `e06`): nodes with drifting oscillators and random initial
/// phases align their TDMA pulse timing using only overheard neighbour
/// pulses.  The drift magnitude, pulse-loss probability, correction gain and
/// pulse period — previously constants of the e06 harness — are parameters.
pub struct PulseSyncScenario;

impl Scenario for PulseSyncScenario {
    fn name(&self) -> &str {
        "pulse-sync"
    }

    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
            .axis("drift_ppm", [40.0, 100.0])
            .axis("loss", [0.05, 0.3])
            .axis("gain", [0.5, 0.0])
            .axis("nodes", [10])
            .axis("period_ms", [100.0])
            .axis("threshold", [0.05])
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            "initial_max_error" | "steady_max_error" => Some((0.0, 1.0)),
            _ => None,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let config = PulseSyncConfig {
            nodes: spec.u64_or("nodes", 10).max(2) as usize,
            period: (spec.f64_or("period_ms", 100.0).max(1.0)) / 1e3,
            gain: spec.f64_or("gain", 0.5).clamp(0.0, 1.0),
            drift: spec.f64_or("drift_ppm", 40.0).max(0.0) * 1e-6,
            loss_probability: spec.f64_or("loss", 0.05).clamp(0.0, 1.0),
            dt: 0.001,
        };
        let threshold = spec.f64_or("threshold", 0.05).clamp(1e-6, 0.5);
        let dt = SimDuration::from_secs_f64(config.dt);
        let period = SimDuration::from_secs_f64(config.period);
        let mut sim = PulseSyncSim::new(config, spec.seed);
        let initial = sim.max_phase_error_fraction();
        // The integration clock ticks at dt, 2·dt, …; a window integrates
        // every tick up to and including its deadline, so a window of one
        // pulse period checks convergence once per period, the cadence of
        // the standalone `run_until_converged`.
        let mut next_step = SimTime::ZERO + dt;
        let mut step_until = |sim: &mut PulseSyncSim, deadline: SimTime| {
            while next_step <= deadline {
                sim.step();
                next_step += dt;
            }
        };
        // The spec duration budgets the convergence hunt; ten more seconds
        // measure the steady state.
        let hunt_end = SimTime::ZERO + spec.duration;
        let mut now = SimTime::ZERO;
        let mut converged = None;
        while now < hunt_end {
            now = (now + period).min(hunt_end);
            step_until(&mut sim, now);
            if sim.max_phase_error_fraction() <= threshold {
                converged = Some(sim.time());
                break;
            }
        }
        step_until(&mut sim, now + SimDuration::from_secs(10));
        let steady = sim.max_phase_error_fraction();

        let mut record = RunRecord::new();
        record.set("initial_max_error", initial);
        record.set_flag("converged", converged.is_some());
        if let Some(at) = converged {
            record.set("converged_after_s", at);
        }
        record.set("steady_max_error", steady);
        record
    }
}

/// Self-stabilizing end-to-end FIFO delivery (paper §V-A2, the body of bench
/// `e07`): a message backlog pushed through a bounded-capacity channel that
/// omits, duplicates and reorders packets, from a clean or corrupted initial
/// configuration.
pub struct EndToEndScenario;

impl Scenario for EndToEndScenario {
    fn name(&self) -> &str {
        "end-to-end"
    }

    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
            .axis("omission", [0.0, 0.1, 0.3])
            .axis("duplication", [0.0, 0.1, 0.3])
            .axis("capacity", [8, 4, 16])
            .axis("corrupt", [false, true])
            .axis("reorder", [true, false])
            .axis("messages", [200])
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            "rounds_per_message" => Some((0.0, 1_000.0)),
            _ => None,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let config = E2EConfig {
            capacity: spec.u64_or("capacity", 8).clamp(1, 1_024) as usize,
            omission: spec.f64_or("omission", 0.0).clamp(0.0, 0.95),
            duplication: spec.f64_or("duplication", 0.0).clamp(0.0, 0.95),
            reorder: spec.bool_or("reorder", true),
        };
        let mut session = EndToEndSession::new(&config, spec.seed);
        if spec.bool_or("corrupt", false) {
            session.corrupt_initial_state(1_000_000);
        }
        let messages = spec.u64_or("messages", 200).max(1);
        let sent: Vec<u64> = (1..=messages).collect();
        for &m in &sent {
            session.sender.enqueue(m);
        }
        session.run_until_drained(10_000_000);
        let delivered = session.receiver.delivered().to_vec();
        // `sent` is always the contiguous range 1..=messages, so membership
        // is a bounds check, not an O(messages) scan per delivered packet.
        let was_sent = |p: u64| (1..=messages).contains(&p);
        let garbage = delivered.iter().filter(|p| !was_sent(**p)).count();
        let real = delivered.iter().filter(|p| was_sent(**p)).count();
        let lost_prefix = sent.len().saturating_sub(real);

        let mut record = RunRecord::new();
        record.set("rounds_per_message", session.rounds() as f64 / sent.len() as f64);
        record.set_flag("eventual_fifo", eventually_fifo(&sent, &delivered, 3));
        record.set("garbage_delivered", garbage as f64);
        record.set("lost_prefix", lost_prefix as f64);
        record
    }
}

/// The simulated transport fabric under configurable degradation: an
/// all-to-all message workload over [`SimTransport`], measuring what survives
/// per-link drop/duplication/reordering and an optional mid-run partition.
///
/// Every metric is a pure function of `(seed, params)` — the fabric's
/// determinism contract — so this family doubles as a campaign-level
/// regression net for the transport crate: any worker count and any
/// kill/resume history must aggregate the identical report.
pub struct NetTransportScenario;

impl NetTransportScenario {
    fn fabric(spec: &ScenarioSpec, nodes: u32) -> SimTransport {
        let link = LinkConfig {
            delay: SimDuration::from_secs_f64(spec.f64_or("delay_ms", 5.0).max(0.0) / 1e3),
            jitter: SimDuration::from_secs_f64(spec.f64_or("jitter_ms", 3.0).max(0.0) / 1e3),
            drop_probability: spec.f64_or("drop", 0.1).clamp(0.0, 1.0),
            duplicate_probability: spec.f64_or("duplicate", 0.05).clamp(0.0, 1.0),
            reorder_probability: spec.f64_or("reorder", 0.2).clamp(0.0, 1.0),
            reorder_window: SimDuration::from_millis(20),
        };
        let mut net = SimTransport::new(spec.seed).with_default_link(link);
        if spec.bool_or("partition", false) {
            // Cut the fabric in half for the middle third of the workload.
            let rounds = spec.u64_or("messages", 40).max(1);
            let (a, b): (Vec<_>, Vec<_>) =
                (0..nodes).map(karyon_transport::NodeId).partition(|n| n.0 < nodes / 2);
            net.add_partition(PartitionWindow {
                from: SimTime::from_millis(rounds * 10 / 3),
                until: SimTime::from_millis(rounds * 10 * 2 / 3),
                group_a: a,
                group_b: b,
            });
        }
        net
    }
}

impl Scenario for NetTransportScenario {
    fn name(&self) -> &str {
        "net-transport"
    }

    fn engine_driven(&self) -> bool {
        true
    }

    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
            .axis("nodes", [4, 2, 8])
            .axis("messages", [40])
            .axis("drop", [0.1, 0.0, 0.3])
            .axis("duplicate", [0.05, 0.0])
            .axis("reorder", [0.2, 0.0])
            .axis("delay_ms", [5.0])
            .axis("jitter_ms", [3.0])
            .axis("partition", [false, true])
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            "delivered_ratio" => Some((0.0, 2.0)),
            "mean_delay_ms" => Some((0.0, 100.0)),
            _ => None,
        }
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let nodes = spec.u64_or("nodes", 4).clamp(2, 1_024) as u32;
        let rounds = spec.u64_or("messages", 40).max(1);
        let mut net = Self::fabric(spec, nodes);
        let mut deliveries = Vec::new();
        // One ring round every 10 ms: each node messages its clockwise
        // neighbour, so every directed ring link carries `rounds` messages.
        for round in 0..rounds {
            deliveries.extend(net.advance_to(SimTime::from_millis(round * 10)));
            for src in 0..nodes {
                let dst = (src + 1) % nodes;
                net.send(
                    karyon_transport::NodeId(src),
                    karyon_transport::NodeId(dst),
                    round.to_le_bytes().to_vec(),
                );
            }
        }
        deliveries.extend(net.drain());

        let stats = net.stats();
        let mean_delay_ms = if deliveries.is_empty() {
            0.0
        } else {
            deliveries
                .iter()
                .map(|d| (d.delivered_at.as_micros() - d.sent_at.as_micros()) as f64 / 1e3)
                .sum::<f64>()
                / deliveries.len() as f64
        };

        let mut record = RunRecord::new();
        // The fabric never schedules into the past, so an engine clamp here
        // is a transport bug the campaign surfaces as a suspect run.
        record.absorb_engine_clamps(net.engine());
        record.set("sent", stats.sent as f64);
        record.set("delivered_ratio", stats.delivered as f64 / stats.sent.max(1) as f64);
        record.set("dropped", stats.dropped as f64);
        record.set("duplicated", stats.duplicated as f64);
        record.set("reordered", stats.reordered as f64);
        record.set("partition_dropped", stats.partition_dropped as f64);
        record.set("mean_delay_ms", mean_delay_ms);
        record.set_flag("lossless", stats.lost() == 0);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdma_converges_and_stays_collision_free() {
        let tdma = TdmaScenario;
        let calm = tdma
            .run(&ScenarioSpec::new("tdma").with("nodes", 8).with_seed(5).with_duration_secs(20));
        assert_eq!(calm.get("converged"), Some(1.0));
        assert_eq!(calm.get("post_convergence_collisions"), Some(0.0));
        let adversarial = tdma.run(
            &ScenarioSpec::new("tdma")
                .with("nodes", 8)
                .with("adversarial", true)
                .with_seed(5)
                .with_duration_secs(20),
        );
        assert_eq!(adversarial.get("converged"), Some(1.0));
        assert!(
            adversarial.get("reselections").unwrap() >= calm.get("reselections").unwrap(),
            "the all-claim-slot-0 start cannot need fewer reselections"
        );
    }

    #[test]
    fn tdma_reconverges_after_churn() {
        let record = TdmaScenario.run(
            &ScenarioSpec::new("tdma")
                .with("nodes", 8)
                .with("churn", true)
                .with_seed(9)
                .with_duration_secs(20),
        );
        assert_eq!(record.get("converged"), Some(1.0));
        assert_eq!(record.get("reconverged_after_join"), Some(1.0));
        assert!(record.get("frames_to_converge_after_join").is_some());
    }

    #[test]
    fn r2t_bounds_inaccessibility_where_csma_does_not() {
        let family = InaccessibilityScenario;
        let base = ScenarioSpec::new("inaccessibility")
            .with("burst_ms", 800)
            .with_seed(9)
            .with_duration_secs(20);
        let csma = family.run(&base.clone().with("mac", "csma"));
        let r2t = family.run(&base.with("mac", "r2t"));
        assert_eq!(csma.get("bounded"), Some(0.0), "CSMA inaccessibility is unbounded by design");
        assert_eq!(r2t.get("bounded"), Some(1.0), "R2T-MAC must respect its bound: {r2t:?}");
        assert!(
            r2t.get("longest_inaccessibility_ms").unwrap()
                < csma.get("longest_inaccessibility_ms").unwrap(),
            "channel diversity must shorten inaccessibility: {r2t:?} vs {csma:?}"
        );
        assert!(r2t.get("delivery_per_generated").unwrap() > 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown inaccessibility mac")]
    fn invalid_inaccessibility_mac_panics_with_guidance() {
        let _ = InaccessibilityScenario
            .run(&ScenarioSpec::new("inaccessibility").with("mac", "aloha").with_duration_secs(5));
    }

    #[test]
    fn pulse_sync_aligns_only_with_correction() {
        let base = ScenarioSpec::new("pulse-sync").with_seed(5).with_duration_secs(60);
        let corrected = PulseSyncScenario.run(&base.clone());
        assert_eq!(corrected.get("converged"), Some(1.0), "{corrected:?}");
        assert!(corrected.get("steady_max_error").unwrap() < 0.05);
        let uncorrected = PulseSyncScenario.run(&base.with("gain", 0.0));
        assert_eq!(
            uncorrected.get("converged"),
            Some(0.0),
            "without the correction the phases never align: {uncorrected:?}"
        );
    }

    #[test]
    fn net_transport_is_a_pure_function_of_seed_and_params() {
        let spec = ScenarioSpec::new("net-transport")
            .with("partition", true)
            .with_seed(41)
            .with_duration_secs(10);
        let a = NetTransportScenario.run(&spec);
        let b = NetTransportScenario.run(&spec);
        assert_eq!(a, b, "the fabric's determinism contract");
        assert_eq!(a.clamped_schedules, 0, "the fabric never schedules into the past: {a:?}");
        assert!(a.get("partition_dropped").unwrap() > 0.0, "the partition must sever: {a:?}");
        assert!(a.get("delivered_ratio").unwrap() > 0.0, "{a:?}");
    }

    #[test]
    fn net_transport_clean_fabric_is_lossless() {
        let record = NetTransportScenario.run(
            &ScenarioSpec::new("net-transport")
                .with("drop", 0.0)
                .with("duplicate", 0.0)
                .with("reorder", 0.0)
                .with_seed(3)
                .with_duration_secs(10),
        );
        assert_eq!(record.get("lossless"), Some(1.0), "{record:?}");
        assert_eq!(record.get("delivered_ratio"), Some(1.0), "{record:?}");
        assert_eq!(record.get("reordered"), Some(0.0), "jitter < round spacing: {record:?}");
    }

    #[test]
    fn net_transport_saturates_out_of_range_link_delays() {
        for axis in ["delay_ms", "jitter_ms"] {
            let record = NetTransportScenario.run(
                &ScenarioSpec::new("net-transport")
                    .with(axis, 1e300)
                    .with_seed(1)
                    .with_duration_secs(1),
            );
            let mean = record.get("mean_delay_ms").unwrap();
            assert!(mean >= 1e15, "a huge {axis} must saturate, not wrap: {record:?}");
            assert_eq!(record.clamped_schedules, 0, "{record:?}");
        }
    }

    #[test]
    fn end_to_end_holds_fifo_even_from_corrupted_state() {
        let base = ScenarioSpec::new("end-to-end")
            .with("omission", 0.3)
            .with("duplication", 0.3)
            .with_seed(77);
        let clean = EndToEndScenario.run(&base.clone());
        assert_eq!(clean.get("eventual_fifo"), Some(1.0), "{clean:?}");
        assert_eq!(clean.get("garbage_delivered"), Some(0.0));
        let corrupt = EndToEndScenario.run(&base.with("corrupt", true));
        assert_eq!(corrupt.get("eventual_fifo"), Some(1.0), "{corrupt:?}");
    }
}
