//! Self-stabilizing pulse (slot-timing) synchronization without external time
//! sources (paper §V-A2, after Mustafa, Papatriantafilou, Schiller, Tohidi
//! and Tsigas, "Autonomous TDMA alignment for VANETs").
//!
//! "Local pulse synchronization mechanisms let neighboring nodes align the
//! timing of their packet transmissions, and by that avoid transmission
//! interferences between consecutive timeslots.  Existing implementations for
//! VANETs assume the availability of common (external) sources of time, such
//! as base-stations or GPS …  We are the first to consider autonomic design
//! criteria."
//!
//! The model: every node owns a local oscillator with an individual drift and
//! an arbitrary initial phase.  Once per period the node emits a pulse;
//! neighbours that hear it (pulses can be lost) note the signed phase error
//! and, at their own next pulse, correct their phase by a fraction of the
//! averaged error.  The experiment measures the worst pairwise phase error
//! before and after convergence.

use karyon_sim::Rng;

/// Configuration of the pulse-synchronization simulation.
#[derive(Debug, Clone)]
pub struct PulseSyncConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Pulse period in seconds (one TDMA frame).
    pub period: f64,
    /// Correction gain in `(0, 1]` applied to the averaged phase error.
    pub gain: f64,
    /// Magnitude of the oscillator drift: each node's clock rate is drawn
    /// uniformly from `[1 - drift, 1 + drift]` (e.g. `40e-6` for ±40 ppm,
    /// typical of the inexpensive crystals on the MicaZ platform).
    pub drift: f64,
    /// Probability that a pulse is *not* heard by a given neighbour.
    pub loss_probability: f64,
    /// Simulation step in seconds.
    pub dt: f64,
}

impl Default for PulseSyncConfig {
    fn default() -> Self {
        PulseSyncConfig {
            nodes: 10,
            period: 0.1,
            gain: 0.5,
            drift: 40e-6,
            loss_probability: 0.05,
            dt: 0.001,
        }
    }
}

#[derive(Debug, Clone)]
struct PulseNode {
    phase: f64,
    rate: f64,
    pending_errors: Vec<f64>,
}

/// The pulse-synchronization simulation (single-hop neighbourhood).
#[derive(Debug)]
pub struct PulseSyncSim {
    config: PulseSyncConfig,
    nodes: Vec<PulseNode>,
    rng: Rng,
    time: f64,
    /// The nodes that fired in the current step; kept to reuse its buffer.
    fired: Vec<usize>,
}

impl PulseSyncSim {
    /// Creates a simulation with random initial phases and drifts.
    ///
    /// # Panics
    /// Panics if the configuration has fewer than 2 nodes or a non-positive
    /// period / dt.
    pub fn new(config: PulseSyncConfig, seed: u64) -> Self {
        assert!(config.nodes >= 2, "pulse sync needs at least two nodes");
        assert!(config.period > 0.0 && config.dt > 0.0, "period and dt must be positive");
        let mut rng = Rng::seed_from(seed);
        let nodes = (0..config.nodes)
            .map(|_| PulseNode {
                phase: rng.range_f64(0.0, config.period),
                rate: 1.0 + rng.range_f64(-config.drift, config.drift),
                pending_errors: Vec::new(),
            })
            .collect();
        PulseSyncSim { config, nodes, rng, time: 0.0, fired: Vec::new() }
    }

    /// Current simulated time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The worst pairwise circular phase difference, in seconds.
    pub fn max_phase_error(&self) -> f64 {
        let period = self.config.period;
        let mut worst = 0.0f64;
        for i in 0..self.nodes.len() {
            for j in (i + 1)..self.nodes.len() {
                let d = (self.nodes[i].phase - self.nodes[j].phase).abs();
                let circ = d.min(period - d);
                worst = worst.max(circ);
            }
        }
        worst
    }

    /// The worst pairwise phase error as a fraction of the period.
    pub fn max_phase_error_fraction(&self) -> f64 {
        self.max_phase_error() / self.config.period
    }

    /// Advances the simulation by one step.
    pub fn step(&mut self) {
        let period = self.config.period;
        let dt = self.config.dt;
        self.time += dt;

        // Advance local clocks and collect this step's pulse emitters.
        self.fired.clear();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.phase += dt * node.rate;
            if node.phase >= period {
                // Apply the accumulated correction at the firing instant.
                let correction = if node.pending_errors.is_empty() {
                    0.0
                } else {
                    let mean: f64 =
                        node.pending_errors.iter().sum::<f64>() / node.pending_errors.len() as f64;
                    self.config.gain * mean
                };
                node.pending_errors.clear();
                node.phase = (node.phase - period + correction).rem_euclid(period);
                self.fired.push(i);
            }
        }

        // Deliver pulses to the other nodes (single-hop broadcast with loss).
        for &emitter in &self.fired {
            for j in 0..self.nodes.len() {
                if j == emitter || self.rng.chance(self.config.loss_probability) {
                    continue;
                }
                let p = self.nodes[j].phase;
                // Signed distance from the receiver's phase to the pulse
                // (phase 0), wrapped into (-period/2, period/2]:
                // positive ⇒ the receiver lags and should advance.
                let error = if p <= period / 2.0 { -p } else { period - p };
                self.nodes[j].pending_errors.push(error);
            }
        }
    }

    /// Runs the simulation for `seconds` of simulated time.
    pub fn run(&mut self, seconds: f64) {
        let steps = (seconds / self.config.dt).ceil() as u64;
        for _ in 0..steps {
            self.step();
        }
    }

    /// Runs until the worst pairwise error drops below `threshold_fraction`
    /// of the period (or `max_seconds` elapse).  Returns the convergence time
    /// in seconds, or `None` if the threshold was never reached.
    pub fn run_until_converged(
        &mut self,
        threshold_fraction: f64,
        max_seconds: f64,
    ) -> Option<f64> {
        let start = self.time;
        while self.time - start < max_seconds {
            // Check once per period to avoid flagging transient alignment.
            self.run(self.config.period);
            if self.max_phase_error_fraction() <= threshold_fraction {
                return Some(self.time - start);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_from_random_phases() {
        let mut sim = PulseSyncSim::new(
            PulseSyncConfig { nodes: 8, loss_probability: 0.05, ..Default::default() },
            1,
        );
        let initial = sim.max_phase_error_fraction();
        let converged = sim.run_until_converged(0.05, 60.0);
        assert!(converged.is_some(), "did not converge (initial error {initial:.3})");
        assert!(sim.max_phase_error_fraction() <= 0.05);
    }

    #[test]
    fn stays_converged_despite_drift_and_loss() {
        let mut sim = PulseSyncSim::new(
            PulseSyncConfig {
                nodes: 6,
                drift: 100e-6,
                loss_probability: 0.2,
                ..Default::default()
            },
            2,
        );
        sim.run_until_converged(0.05, 60.0).expect("must converge");
        sim.run(20.0);
        assert!(
            sim.max_phase_error_fraction() < 0.10,
            "alignment lost: {:.3}",
            sim.max_phase_error_fraction()
        );
    }

    #[test]
    fn without_correction_clocks_stay_misaligned() {
        let mut sim = PulseSyncSim::new(
            PulseSyncConfig { nodes: 8, gain: 0.0, loss_probability: 0.0, ..Default::default() },
            3,
        );
        let initial = sim.max_phase_error_fraction();
        sim.run(30.0);
        // With zero gain nothing pulls the phases together.
        assert!(sim.max_phase_error_fraction() > initial * 0.5);
        assert!(sim.max_phase_error_fraction() > 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = PulseSyncConfig::default();
        let mut a = PulseSyncSim::new(cfg.clone(), 7);
        let mut b = PulseSyncSim::new(cfg, 7);
        a.run(5.0);
        b.run(5.0);
        assert!((a.max_phase_error() - b.max_phase_error()).abs() < 1e-12);
        assert!((a.time() - b.time()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_node() {
        let _ = PulseSyncSim::new(PulseSyncConfig { nodes: 1, ..Default::default() }, 1);
    }
}
