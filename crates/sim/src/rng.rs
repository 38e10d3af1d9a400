//! Deterministic pseudo-random number generation.
//!
//! The fault-injection campaigns of the KARYON reproduction must be exactly
//! repeatable (same seed ⇒ same injected faults ⇒ same hazard counts), so the
//! simulator carries its own small, well-understood generator rather than
//! depending on an external crate whose output could change between versions.
//!
//! The generator is `splitmix64` for seeding feeding a `xoshiro256**`-style
//! state, which has excellent statistical quality for simulation purposes and
//! is trivially portable.

/// A deterministic pseudo-random number generator with convenience samplers
/// for the distributions used throughout the simulation.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second normal variate from the Box–Muller transform.
    spare_normal: Option<f64>,
}

/// One step of the `splitmix64` generator: advances `state` and returns the
/// next output.
///
/// Used internally to expand seeds into [`Rng`] state, and exported for seed
/// derivation schemes (e.g. campaign runners deriving per-run seeds from a
/// campaign seed and run coordinates) so they stay in lock-step with the
/// seeding used here.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Different seeds give statistically independent streams; the same seed
    /// always gives the same stream.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng { s, spare_normal: None }
    }

    /// Derives an independent child generator, useful to give each simulated
    /// node its own stream while keeping the parent deterministic.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let base = self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::seed_from(base)
    }

    /// Next raw 64-bit output (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Returns 0 when `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Multiply-shift rejection-free mapping is fine for simulation use.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo > hi");
        match (hi - lo).checked_add(1) {
            Some(n) => lo + self.next_below(n),
            None => self.next_u64(),
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`. Returns `lo` when the range is empty or
    /// degenerate.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        // `partial_cmp` (not `hi <= lo`) so a NaN bound also yields `lo`.
        if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
            return lo;
        }
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli trial: returns `true` with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Normally distributed sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        if std_dev <= 0.0 {
            return mean;
        }
        let z = match self.spare_normal.take() {
            Some(z) => z,
            None => {
                // Box–Muller transform.
                let u1 = loop {
                    let u = self.next_f64();
                    if u > 1e-300 {
                        break u;
                    }
                };
                let u2 = self.next_f64();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                self.spare_normal = Some(r * theta.sin());
                r * theta.cos()
            }
        };
        mean + std_dev * z
    }

    /// Exponentially distributed sample with the given mean (i.e. rate `1/mean`).
    ///
    /// Returns 0 for non-positive means.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = loop {
            let u = self.next_f64();
            if u > 1e-300 {
                break u;
            }
        };
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = Rng::seed_from(4);
        for _ in 0..10_000 {
            let v = rng.range_u64(10, 20);
            assert!((10..=20).contains(&v));
            let f = rng.range_f64(-2.0, 2.0);
            assert!((-2.0..2.0).contains(&f));
        }
        assert_eq!(rng.next_below(0), 0);
        assert_eq!(rng.range_f64(5.0, 5.0), 5.0);
        // The full range draws a whole word instead of overflowing.
        let mut full = Rng::seed_from(4);
        let word = full.clone().next_u64();
        assert_eq!(full.range_u64(0, u64::MAX), word);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Rng::seed_from(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = Rng::seed_from(6);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert_eq!(rng.exponential(0.0), 0.0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn fork_streams_are_independent_but_deterministic() {
        let mut parent1 = Rng::seed_from(11);
        let mut parent2 = Rng::seed_from(11);
        let mut a = parent1.fork(0);
        let mut b = parent2.fork(0);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = parent1.fork(1);
        let overlaps = (0..32).filter(|_| a.next_u64() == c.next_u64()).count();
        assert!(overlaps < 3);
    }
}
