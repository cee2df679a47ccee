//! Latency statistics: exact percentiles over recorded samples, a
//! fixed-bucket histogram for compact reporting, and the spread measure the
//! benchmark uses everywhere (inter-quartile range over the median).

/// Samples a percentile needs *beyond* it before it is reported: with fewer,
/// the value is decided by a handful of outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 100) of `sorted` by the nearest-rank rule,
/// or `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie above that
/// rank. `sorted` must be ascending.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize; // 1-based
    let rank = rank.clamp(1, n);
    if n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest of `candidates` (ascending, e.g. `[50, 75, 90, 95, 99]`) that
/// `sorted` supports under the [`MIN_SAMPLES_BEYOND`] rule, with its value.
pub fn highest_supported(sorted: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    candidates
        .iter()
        .rev()
        .find_map(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// Median by the midpoint rule (mean of the two middle samples when the
/// count is even). Unlike [`percentile`] it has no sample-count floor: it is
/// also used to combine a handful of repeated measurements.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Ascending copy of `values` (NaNs are not expected and sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Quartiles by the exclusive method — the rule Python's
/// `statistics.quantiles(values, n=4)` applies, so spreads computed here
/// agree with the ones the driver computes. Needs at least two samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0; // 1-based position
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        // Not clamped: like Python, tiny samples extrapolate past the ends.
        let frac = pos - lo as f64;
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    Some((at(1), at(2), at(3)))
}

/// Inter-quartile range as a share of the median; `None` with fewer than two
/// samples or a zero median.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let (q1, q2, q3) = quartiles(&s)?;
    if q2 == 0.0 {
        None
    } else {
        Some((q3 - q1) / q2.abs())
    }
}

/// Fixed-bucket latency histogram: bucket `i` counts samples in
/// `[BOUNDS_US[i-1], BOUNDS_US[i])` microseconds, the last bucket is open.
/// Bounds grow by 1-2-5 steps from 10 µs to 10 s — coarse on purpose: the
/// histogram is for reading a distribution's shape in a result file, exact
/// percentiles come from the raw samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BOUNDS_US.len() + 1],
}

/// Upper bucket bounds in microseconds.
pub const BOUNDS_US: [u64; 19] = [
    10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000,
    500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BOUNDS_US.len() + 1],
        }
    }
}

impl Histogram {
    pub fn record_us(&mut self, micros: u64) {
        let bucket = BOUNDS_US.partition_point(|&b| b <= micros);
        self.counts[bucket] += 1;
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(upper bound in µs or None for the open bucket, count)` for every
    /// non-empty bucket, ascending.
    pub fn buckets(&self) -> Vec<(Option<u64>, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (BOUNDS_US.get(i).copied(), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 200 samples: p95 is rank 190, exactly 10 beyond.
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        // 199 samples: rank 190 again but only 9 beyond.
        assert_eq!(percentile(&ramp(199), 95.0), None);
        // The median of 20 samples has exactly 10 beyond, of 19 only 9.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_supported_steps_down_with_sample_count() {
        let cands = [50.0, 75.0, 90.0, 95.0, 99.0];
        assert_eq!(highest_supported(&ramp(1000), &cands), Some((99.0, 990.0)));
        assert_eq!(highest_supported(&ramp(200), &cands), Some((95.0, 190.0)));
        assert_eq!(highest_supported(&ramp(100), &cands), Some((90.0, 90.0)));
        assert_eq!(highest_supported(&ramp(40), &cands), Some((75.0, 30.0)));
        assert_eq!(highest_supported(&ramp(12), &cands), None);
    }

    #[test]
    fn median_takes_the_midpoint() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q2, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert_eq!((q1, q2, q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), Some((2.5, 4.0, 5.5)));
        assert_eq!(quartiles(&[3.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = iqr_over_median(&[16.0, 1.0, 4.0, 2.0, 8.0]).unwrap();
        assert!((s - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn histogram_buckets_are_half_open() {
        let mut h = Histogram::default();
        for us in [0, 9, 10, 19, 20, 9_999_999, 10_000_000, u64::MAX] {
            h.record_us(us);
        }
        assert_eq!(h.total(), 8);
        assert_eq!(
            h.buckets(),
            vec![
                (Some(10), 2),
                (Some(20), 2),
                (Some(50), 1),
                (Some(10_000_000), 1),
                (None, 2),
            ]
        );
    }
}
