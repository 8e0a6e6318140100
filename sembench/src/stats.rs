//! Order statistics with the reporting rule the benchmark applies to
//! every timing: nearest-rank percentiles, refused unless at least
//! [`MIN_BEYOND`] samples lie beyond the reported one.

/// Samples that must lie strictly beyond a reported percentile. With
/// fewer, the "percentile" is just one of the few largest samples, and
/// run-to-run it measures noise rather than the tail.
pub const MIN_BEYOND: usize = 10;

/// A percentile expressed as an exact fraction `num / den`, so the rank
/// computation is integer arithmetic (`0.99 · 1000` in floating point is
/// not exactly 990).
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub num: usize,
    pub den: usize,
}

pub const P50: Quantile = Quantile { num: 50, den: 100 };
pub const P99: Quantile = Quantile { num: 99, den: 100 };

/// The nearest-rank percentile of `sorted` (ascending): the smallest
/// sample such that at least `q · n` samples are at or below it, i.e.
/// `sorted[ceil(q · n) - 1]`. `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond that rank.
pub fn nearest_rank(sorted: &[f64], q: Quantile) -> Option<f64> {
    let n = sorted.len();
    let rank = (q.num * n).div_ceil(q.den).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// A latency sample set in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank percentile, or an error naming the shortfall.
    pub fn percentile(&mut self, q: Quantile, what: &str) -> Result<f64, String> {
        self.sort();
        nearest_rank(&self.values, q).ok_or_else(|| {
            format!(
                "{what}: p{} needs at least {} samples beyond it, have {} samples in all",
                q.num * 100 / q.den,
                MIN_BEYOND,
                self.values.len()
            )
        })
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }
}

/// The median of a small set of repeated measurements (set-up times,
/// per-call costs). Even counts take the lower middle value, so the
/// result is always one measured value.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_ceil_rank() {
        // n = 1000: p99 is rank 990 (value 990), leaving exactly 10 beyond.
        assert_eq!(nearest_rank(&ramp(1000), P99), Some(990.0));
        // n = 1010: ceil(999.9) = 1000, 10 beyond.
        assert_eq!(nearest_rank(&ramp(1010), P99), Some(1000.0));
        // p50 of 21 samples is the 11th.
        assert_eq!(nearest_rank(&ramp(21), P50), Some(11.0));
        // p50 of 20 samples is the 10th (ceil(10) = 10), 10 beyond.
        assert_eq!(nearest_rank(&ramp(20), P50), Some(10.0));
    }

    #[test]
    fn refuses_percentiles_without_ten_samples_beyond() {
        // n = 999: rank ceil(989.01) = 990, only 9 beyond.
        assert_eq!(nearest_rank(&ramp(999), P99), None);
        // The old `(n · q) as usize` rule reported the maximum as p99
        // for 100 samples; nearest rank with the guard refuses.
        assert_eq!(nearest_rank(&ramp(100), P99), None);
        assert_eq!(nearest_rank(&ramp(19), P50), None);
        assert_eq!(nearest_rank(&[], P50), None);
    }

    #[test]
    fn samples_sort_before_ranking() {
        let mut samples = Samples::default();
        for v in ramp(1000).into_iter().rev() {
            samples.push(v);
        }
        assert_eq!(samples.percentile(P99, "t").unwrap(), 990.0);
        assert_eq!(samples.percentile(P50, "t").unwrap(), 500.0);
        let mut few = Samples::default();
        few.push(1.0);
        let err = few.percentile(P99, "few").unwrap_err();
        assert!(err.contains("1 samples"), "{err}");
    }

    #[test]
    fn median_takes_a_measured_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
