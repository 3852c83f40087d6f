//! Summary statistics used by the evaluation harness.
//!
//! The paper reports averages, standard deviations and 90th percentiles of
//! counting, localization and speed errors; this module provides those
//! reductions (plus a small `Summary` convenience type) so that every bench
//! and experiment reports them consistently.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance. Returns 0.0 for an empty slice.
pub fn variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Median (50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// [`median`] by selection instead of a full sort, in `scratch` (cleared and
/// refilled, so a caller taking many medians allocates once). For finite,
/// non-negative input the result is `to_bits`-equal to [`median`]'s; a NaN
/// orders after every number instead of panicking.
pub fn median_select(values: &[f64], scratch: &mut Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    scratch.clear();
    scratch.extend_from_slice(values);
    let mid = scratch.len() / 2;
    let (below, &mut upper, _) = scratch.select_nth_unstable_by(mid, f64::total_cmp);
    if values.len() % 2 == 1 {
        return upper;
    }
    // Even length: `percentile` interpolates the two middle order statistics
    // with weight 0.5 each; the lower one is the largest of the left part.
    let lower = below.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    lower * 0.5 + upper * 0.5
}

/// Percentile in `[0, 100]` using linear interpolation between order
/// statistics. Returns 0.0 for an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p = pct.clamp(0.0, 100.0) / 100.0;
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Maximum value (0.0 for empty input).
pub fn max(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        .max(0.0)
}

/// A summary of a set of measurements: mean, standard deviation, median,
/// 90th percentile, min and max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Median.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of `values`. Returns an all-zero summary for empty
    /// input.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                median: 0.0,
                p90: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        Self {
            count: values.len(),
            mean: mean(values),
            std_dev: std_dev(values),
            median: median(values),
            p90: percentile(values, 90.0),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} median={:.4} p90={:.4} min={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.median, self.p90, self.min, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_values() {
        assert!((mean(&[1.0, 2.0, 3.0, 4.0]) - 2.5).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_and_std_dev() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&v) - 4.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_and_even() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn median_select_is_bit_identical_to_the_sorting_median() {
        let mut rng = crate::testrng::TestRng(0x5e1ec7);
        let mut scratch = Vec::new();
        assert_eq!(median_select(&[], &mut scratch), 0.0);
        for round in 0..4000 {
            let len = 1 + rng.below(130);
            // Every fourth input is drawn from five values only, zeros
            // included: long runs of exact ties.
            let v: Vec<f64> = (0..len)
                .map(|_| match round % 4 {
                    0 => [0.0, 0.0, 1.0, 2.5, 7.0][rng.below(5)],
                    _ => rng.unit() * 1e3,
                })
                .collect();
            assert_eq!(
                median_select(&v, &mut scratch).to_bits(),
                median(&v).to_bits(),
                "{v:?}"
            );
        }
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!((percentile(&v, 0.0) - 10.0).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 50.0).abs() < 1e-12);
        assert!((percentile(&v, 25.0) - 20.0).abs() < 1e-12);
        assert!((percentile(&v, 90.0) - 46.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_clamps_out_of_range() {
        let v = [1.0, 2.0];
        assert_eq!(percentile(&v, -5.0), 1.0);
        assert_eq!(percentile(&v, 150.0), 2.0);
    }

    #[test]
    fn summary_consistency() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::of(&v);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.median - 50.5).abs() < 1e-12);
        assert!((s.min - 1.0).abs() < 1e-12);
        assert!((s.max - 100.0).abs() < 1e-12);
        assert!(s.p90 > 89.0 && s.p90 < 92.0);
    }

    #[test]
    fn summary_of_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_display_contains_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        let text = format!("{s}");
        assert!(text.contains("n=3"));
        assert!(text.contains("mean=2.0000"));
    }
}
