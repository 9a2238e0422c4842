//! Sample summaries: medians, quartiles and the highest tail percentile
//! that still has at least ten samples beyond it.

use std::time::Duration;

/// A bag of timing (or ratio) samples of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Self(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    /// Every sample multiplied by `k` (a unit change).
    pub fn scaled(mut self, k: f64) -> Self {
        self.0.iter_mut().for_each(|v| *v *= k);
        self
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Quantile `q` in `[0, 1]` by linear interpolation between order
    /// statistics. NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The highest of p90/p99/p99.9 with at least ten samples beyond it,
    /// as `(label, value)`; `None` below forty samples, where a tail
    /// would be no tail.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        let n = self.0.len() as f64;
        if n < 40.0 {
            return None;
        }
        [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
            .into_iter()
            .find(|(_, q)| n * (1.0 - q) >= 10.0 - 1e-9)
            .map(|(label, q)| (label, self.quantile(q)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(v: &[f64]) -> Samples {
        let mut s = Samples::new();
        v.iter().for_each(|x| s.push(*x));
        s
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(of(&[1.0; 39]).tail().is_none());
        let s = of(&(0..100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail().map(|t| t.0), Some("p90"));
        let s = of(&(0..1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail().map(|t| t.0), Some("p99"));
    }
}
