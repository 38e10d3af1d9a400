//! Statistical oracles for the stochastic models: each test draws from a
//! model at a fixed seed and compares a statistic with its closed form,
//! against the critical value at p = 10⁻⁶.
//!
//! A fixed seed makes every test deterministic, so none can flake; the small
//! p keeps a correct model from failing on an unlucky seed.  A model skewed
//! by a few percent (a `chance` drawing against 0.98·p, an `exponential`
//! with its mean 2 % off, a fabric that never delivers its duplicate copies)
//! fails by a wide margin.

use std::f64::consts::SQRT_2;

use karyon::sim::{Rng, SimDuration, SimTime};
use karyon::transport::{Delivery, LinkConfig, NodeId, SimTransport};

/// Draws per `Rng` sampler.
const DRAWS: usize = 1_000_000;

/// Two-sided standard-normal critical value at p = 10⁻⁶.
const Z_CRITICAL: f64 = 4.8916;

/// Kolmogorov–Smirnov critical value at p = 10⁻⁶ for `n` samples, from the
/// asymptotic Kolmogorov distribution: 2·e^(−2x²) = 10⁻⁶ at x = 2.6934.
fn ks_critical(n: usize) -> f64 {
    2.6934 / (n as f64).sqrt()
}

/// The Kolmogorov–Smirnov statistic of `samples` against `cdf`: the largest
/// gap between the empirical and the model distribution function.
fn ks_statistic(mut samples: Vec<f64>, cdf: impl Fn(f64) -> f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len() as f64;
    samples
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = cdf(x);
            (f - i as f64 / n).max((i + 1) as f64 / n - f)
        })
        .fold(0.0, f64::max)
}

/// The error function by Abramowitz and Stegun 7.1.26.  Its absolute error
/// is below 1.5·10⁻⁷, four orders of magnitude below the KS critical value.
fn erf(x: f64) -> f64 {
    const A: [f64; 5] =
        [0.254_829_592, -0.284_496_736, 1.421_413_741, -1.453_152_027, 1.061_405_429];
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t * A.iter().rev().fold(0.0, |acc, a| acc * t + a);
    let y = 1.0 - poly * (-x * x).exp();
    if x < 0.0 {
        -y
    } else {
        y
    }
}

#[test]
fn exponential_draws_follow_their_distribution_function() {
    let mean = 2.5;
    let mut rng = Rng::seed_from(0xE0);
    let samples = (0..DRAWS).map(|_| rng.exponential(mean)).collect();
    let d = ks_statistic(samples, |x| 1.0 - (-x / mean).exp());
    assert!(d < ks_critical(DRAWS), "KS D = {d} against {}", ks_critical(DRAWS));
}

#[test]
fn normal_draws_follow_their_distribution_function() {
    let (mean, std_dev) = (3.0, 2.0);
    let mut rng = Rng::seed_from(0xA0);
    let samples = (0..DRAWS).map(|_| rng.normal(mean, std_dev)).collect();
    let d = ks_statistic(samples, |x| 0.5 * (1.0 + erf((x - mean) / (std_dev * SQRT_2))));
    assert!(d < ks_critical(DRAWS), "KS D = {d} against {}", ks_critical(DRAWS));
}

#[test]
fn chance_succeeds_at_its_probability() {
    let p = 0.3;
    let mut rng = Rng::seed_from(0xC0);
    let hits = (0..DRAWS).filter(|_| rng.chance(p)).count() as f64;
    let n = DRAWS as f64;
    let z = (hits - n * p) / (n * p * (1.0 - p)).sqrt();
    assert!(z.abs() < Z_CRITICAL, "{hits} hits in {DRAWS} at p = {p}: z = {z}");
}

#[test]
fn range_u64_is_uniform_over_its_inclusive_range() {
    let mut rng = Rng::seed_from(0x90);
    let mut counts = [0u64; 10];
    for _ in 0..DRAWS {
        counts[rng.range_u64(0, 9) as usize] += 1;
    }
    let expected = DRAWS as f64 / 10.0;
    let chi2: f64 = counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum();
    // χ² with 9 degrees of freedom exceeds 44.81 with probability 10⁻⁶.
    assert!(chi2 < 44.81, "χ² = {chi2} over {counts:?}");
}

/// Messages sent per fabric configuration.
const SENDS: usize = 200_000;

/// Sends [`SENDS`] messages around a 4-node ring, 64 per millisecond, and
/// returns per send the number of copies delivered and their summed delay
/// in microseconds.  Each payload is its send's index.
fn deliveries_per_send(seed: u64, link: LinkConfig) -> Vec<(u64, u64)> {
    let mut net = SimTransport::new(seed).with_default_link(link);
    let mut per_send = vec![(0u64, 0u64); SENDS];
    let mut tally = |deliveries: Vec<Delivery>| {
        for d in deliveries {
            let send = u32::from_le_bytes(d.payload[..].try_into().unwrap()) as usize;
            per_send[send].0 += 1;
            per_send[send].1 += d.delivered_at.as_micros() - d.sent_at.as_micros();
        }
    };
    for send in 0..SENDS {
        if send % 64 == 0 {
            tally(net.advance_to(SimTime::from_millis(send as u64 / 64)));
        }
        let src = send as u32 % 4;
        net.send(NodeId(src), NodeId((src + 1) % 4), (send as u32).to_le_bytes().to_vec());
    }
    tally(net.drain());
    per_send
}

/// Checks one partition-free fabric against its closed-form delivery model.
///
/// A send is dropped with probability p_drop, else delivered once and, with
/// probability p_dup, once more: (1 − p_drop)(1 + p_dup) copies per send.
/// The original's delay is the base delay plus a jitter drawn on [0, j] and,
/// with probability p_reorder, a hold-back drawn on [0, w], so its mean is
/// m₀ = delay + j/2 + p_reorder·w/2.  The duplicate trails it by 1 µs plus
/// a second jitter, so delivered copies average
/// (m₀ + p_dup·(m₀ + 1 + j/2)) / (1 + p_dup).
fn assert_fabric_matches_its_model(seed: u64, link: LinkConfig) {
    let per_send = deliveries_per_send(seed, link);
    let n = SENDS as f64;
    let (p_drop, p_dup) = (link.drop_probability, link.duplicate_probability);

    // Copies per send take the values 0, 1 and 2.
    let mean_copies = (1.0 - p_drop) * (1.0 + p_dup);
    let var_copies = (1.0 - p_drop) * (1.0 + 3.0 * p_dup) - mean_copies * mean_copies;
    let delivered = per_send.iter().map(|&(copies, _)| copies).sum::<u64>() as f64;
    let z = (delivered - n * mean_copies) / (n * var_copies).sqrt();
    assert!(
        z.abs() < Z_CRITICAL,
        "{link:?}: delivered/sent {} against {mean_copies}: z = {z}",
        delivered / n
    );

    let micros = |d: SimDuration| d.as_micros() as f64;
    let j = micros(link.jitter);
    let m0 =
        micros(link.delay) + j / 2.0 + link.reorder_probability * micros(link.reorder_window) / 2.0;
    let expected = (m0 + p_dup * (m0 + 1.0 + j / 2.0)) / (1.0 + p_dup);
    // An original and its duplicate are correlated, so the z is taken from
    // the sample standard deviation of per-send residuals (summed delay
    // minus `expected` per copy), each send one independent sample.
    let residuals: Vec<f64> =
        per_send.iter().map(|&(copies, delay)| delay as f64 - expected * copies as f64).collect();
    let mean = residuals.iter().sum::<f64>() / n;
    let var = residuals.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let z = mean / (var / n).sqrt();
    let observed = per_send.iter().map(|&(_, delay)| delay).sum::<u64>() as f64 / delivered;
    assert!(
        z.abs() < Z_CRITICAL,
        "{link:?}: mean delay {observed} µs against {expected} µs: z = {z}"
    );
}

#[test]
fn fabric_delivers_its_closed_form_ratio_and_delay() {
    let link = |delay_us, jitter_us, window_us, drop, duplicate, reorder| LinkConfig {
        delay: SimDuration::from_micros(delay_us),
        jitter: SimDuration::from_micros(jitter_us),
        drop_probability: drop,
        duplicate_probability: duplicate,
        reorder_probability: reorder,
        reorder_window: SimDuration::from_micros(window_us),
    };
    // The `net-transport` family's defaults.
    assert_fabric_matches_its_model(1, link(5_000, 3_000, 20_000, 0.1, 0.05, 0.2));
    // Heavy loss, duplication and reordering.
    assert_fabric_matches_its_model(2, link(2_000, 500, 5_000, 0.3, 0.3, 0.5));
    // No jitter and no reordering: the duplicate trails by exactly 1 µs.
    assert_fabric_matches_its_model(3, link(1_000, 0, 20_000, 0.05, 0.5, 0.0));
}
