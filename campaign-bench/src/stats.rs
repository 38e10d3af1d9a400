//! Sample distributions: medians, quartiles and the tail percentile.

/// A set of samples of one timing or ratio.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    samples: Vec<f64>,
}

impl Dist {
    pub fn push(&mut self, value: f64) {
        self.samples.push(value);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The median (0 when empty).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The `q` quantile, interpolated between closest ranks (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let sorted = self.sorted();
        match sorted.len() {
            0 => 0.0,
            n => {
                let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
                let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
                sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
            }
        }
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(percentile, value)`; `None` below eleven samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let sorted = self.sorted();
        let n = sorted.len();
        (n > 10).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_tail_and_quartiles() {
        let mut d = Dist::default();
        assert_eq!(d.median(), 0.0);
        assert!(d.tail().is_none());
        for v in (1..=100).rev() {
            d.push(v as f64);
        }
        assert_eq!(d.median(), 50.5);
        assert_eq!(d.quantile(0.25), 25.75);
        // Ten samples (91..=100) lie beyond the 90th.
        assert_eq!(d.tail(), Some((90.0, 90.0)));
    }
}
