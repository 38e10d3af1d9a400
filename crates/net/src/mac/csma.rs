//! A p-persistent CSMA baseline MAC (802.11p-style contention).
//!
//! This is the "standard MAC level" that R2T-MAC surrounds (paper Fig. 4):
//! contention-based, no guarantees under load or disturbance, used as the
//! baseline in the inaccessibility experiments.

use karyon_sim::SimDuration;

use crate::packet::Frame;

use super::{deliver_if_data, MacContext, MacProtocol, SlotObservation};

/// Configuration of the CSMA baseline.
#[derive(Debug, Clone)]
pub struct CsmaConfig {
    /// Probability of transmitting in a slot when the medium appears free
    /// and no backoff is pending.
    pub persistence: f64,
    /// Initial contention-window size (slots) after a collision.
    pub min_contention_window: u32,
    /// Maximum contention-window size (slots).
    pub max_contention_window: u32,
    /// Frames older than this are dropped instead of transmitted (they would
    /// be useless to a real-time consumer).
    pub frame_lifetime: SimDuration,
}

impl Default for CsmaConfig {
    fn default() -> Self {
        CsmaConfig {
            persistence: 0.6,
            min_contention_window: 2,
            max_contention_window: 64,
            frame_lifetime: SimDuration::from_secs(2),
        }
    }
}

/// p-persistent CSMA with binary exponential backoff.
#[derive(Debug, Clone)]
pub struct CsmaMac {
    config: CsmaConfig,
    backoff: u32,
    contention_window: u32,
    dropped_expired: u64,
}

impl CsmaMac {
    /// Creates a CSMA instance with the given configuration.
    pub fn new(config: CsmaConfig) -> Self {
        let cw = config.min_contention_window.max(1);
        CsmaMac { config, backoff: 0, contention_window: cw, dropped_expired: 0 }
    }

    /// Creates a CSMA instance with default parameters.
    pub fn default_mac() -> Self {
        CsmaMac::new(CsmaConfig::default())
    }

    /// Number of frames dropped because they exceeded their lifetime.
    pub fn dropped_expired(&self) -> u64 {
        self.dropped_expired
    }
}

impl MacProtocol for CsmaMac {
    fn name(&self) -> &'static str {
        "csma"
    }

    fn on_slot(&mut self, ctx: &mut MacContext<'_>) -> Option<Frame> {
        // Purge frames that exceeded their lifetime.
        while let Some(front) = ctx.queue.front() {
            if front.delay_at(ctx.now) > self.config.frame_lifetime {
                ctx.queue.pop_front();
                self.dropped_expired += 1;
            } else {
                break;
            }
        }
        if ctx.queue.is_empty() {
            return None;
        }
        // Carrier sense: defer while the channel is jammed.
        if ctx.channel_disturbed {
            return None;
        }
        if self.backoff > 0 {
            self.backoff -= 1;
            return None;
        }
        if ctx.rng.chance(self.config.persistence) {
            ctx.queue.pop_front()
        } else {
            None
        }
    }

    fn on_receive(&mut self, frame: &Frame, ctx: &mut MacContext<'_>) {
        deliver_if_data(frame, ctx);
    }

    /// With an empty queue `on_slot` returns before touching the backoff or
    /// the random stream, and an idle slot end changes nothing.
    fn is_quiescent(&self) -> bool {
        true
    }

    fn on_slot_end(&mut self, observation: SlotObservation, ctx: &mut MacContext<'_>) {
        match observation {
            SlotObservation::TransmittedCollided => {
                self.contention_window =
                    (self.contention_window * 2).min(self.config.max_contention_window.max(1));
                self.backoff = ctx.rng.range_u64(1, self.contention_window as u64) as u32;
            }
            SlotObservation::TransmittedClear => {
                self.contention_window = self.config.min_contention_window.max(1);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{MacSimConfig, MacSimulation};
    use crate::medium::{Disturbance, MediumConfig, WirelessMedium};
    use crate::packet::NodeId;
    use karyon_sim::{SimTime, Vec2};

    fn csma_sim(nodes: u32, channels: u8, seed: u64) -> MacSimulation<CsmaMac> {
        let medium =
            WirelessMedium::new(MediumConfig { range: 1_000.0, loss_probability: 0.0, channels });
        let mut s = MacSimulation::new(medium, MacSimConfig::default(), seed);
        for i in 0..nodes {
            s.add_node(NodeId(i), CsmaMac::default_mac(), Vec2::new(i as f64 * 5.0, 0.0));
        }
        s
    }

    #[test]
    fn lone_sender_delivers_everything() {
        let mut s = csma_sim(3, 1, 1);
        for _ in 0..20 {
            s.send_broadcast(NodeId(0), vec![1]);
            s.run_slots(5);
        }
        s.run_slots(200);
        // 20 frames × 2 receivers.
        assert_eq!(s.metrics().delivered, 40);
        assert_eq!(s.metrics().collisions, 0);
    }

    #[test]
    fn contention_causes_some_collisions_but_progress() {
        let mut s = csma_sim(6, 1, 2);
        for round in 0..50u64 {
            for n in 0..6 {
                if round % 3 == n as u64 % 3 {
                    s.send_broadcast(NodeId(n), vec![n as u8]);
                }
            }
            s.run_slots(4);
        }
        s.run_slots(600);
        let m = s.metrics();
        assert!(m.collisions > 0, "expected contention collisions");
        assert!(m.delivered > m.generated, "broadcasts reach multiple receivers");
        assert!(m.delivery_per_generated() > 2.0, "most frames should get through eventually");
    }

    #[test]
    fn defers_while_disturbed_and_recovers() {
        let mut s = csma_sim(2, 1, 3);
        s.medium_mut().add_disturbance(Disturbance {
            channel: Some(0),
            start: SimTime::ZERO,
            end: SimTime::from_millis(50),
        });
        s.send_broadcast(NodeId(0), vec![7]);
        s.run_slots(40); // still jammed: nothing delivered
        assert_eq!(s.metrics().delivered, 0);
        s.run_slots(100); // jam over: frame goes out
        assert_eq!(s.metrics().delivered, 1);
        let mac = s.mac(NodeId(0)).unwrap();
        assert_eq!(mac.dropped_expired(), 0);
        assert_eq!(mac.name(), "csma");
    }

    #[test]
    fn stale_frames_are_dropped() {
        let mut s = csma_sim(2, 1, 4);
        // Jam for longer than the frame lifetime (2 s = 2000 slots).
        s.medium_mut().add_disturbance(Disturbance {
            channel: Some(0),
            start: SimTime::ZERO,
            end: SimTime::from_secs(3),
        });
        s.send_broadcast(NodeId(0), vec![1]);
        s.run_slots(3_500);
        assert_eq!(s.metrics().delivered, 0);
        assert_eq!(s.mac(NodeId(0)).unwrap().dropped_expired(), 1);
    }
}
