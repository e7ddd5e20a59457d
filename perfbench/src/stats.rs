//! Order statistics for latency samples: medians, nearest-rank
//! percentiles, and the tail rule — the highest percentile that still has
//! at least a minimum number of samples beyond it.

/// Median of `values` (mean of the middle two for an even count); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of the `permille`-th per-mille in `n` samples:
/// `ceil(permille/1000 · n)`, clamped to `1..=n` (integer arithmetic, so
/// p99.9 of 10,000 samples is rank 9,990 exactly).
fn nearest_rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The percentiles the tail rule may report, highest first, in per-mille.
pub const TAIL_LADDER: [usize; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// A tail percentile together with the sample counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`.
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// The highest percentile on [`TAIL_LADDER`] with at least `min_beyond`
/// samples beyond its nearest rank, or `None` when even the median has
/// fewer. The sample count of a fixed-work run is fixed, so the chosen
/// percentile is the same on every run of a workload.
pub fn tail(samples: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_LADDER.iter().find_map(|&permille| {
        let rank = nearest_rank(permille, n);
        let beyond = n - rank;
        (beyond >= min_beyond).then(|| Tail {
            pct: permille as f64 / 10.0,
            value: v[rank - 1],
            beyond,
            n,
        })
    })
}

/// The nearest-rank 50th percentile (a sample value, unlike [`median`]).
pub fn p50(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(500, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending on purpose: the rule must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p99 leaves 1 beyond, p98 2, p95 5, p90 exactly 10.
        let t = tail(&ramp(100), 10).unwrap();
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!((t.beyond, t.n), (10, 100));

        // 1000 samples: p99 has exactly 10 beyond; p99.5 only 5.
        let t = tail(&ramp(1000), 10).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);

        // 10,000 samples reach p99.9 (10 beyond).
        assert_eq!(tail(&ramp(10_000), 10).unwrap().pct, 99.9);
    }

    #[test]
    fn tail_reports_lower_percentiles_for_a_larger_minimum() {
        let t = tail(&ramp(1000), 50).unwrap();
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.beyond, 50);
    }

    #[test]
    fn tail_is_none_without_enough_samples() {
        // 20 samples: the median's rank is 10, leaving 10 beyond.
        assert_eq!(tail(&ramp(20), 10).unwrap().pct, 50.0);
        assert!(tail(&ramp(19), 10).is_none());
        assert!(tail(&[], 10).is_none());
    }

    #[test]
    fn medians_and_p50() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(p50(&[4.0, 1.0, 2.0, 3.0]), 2.0);
    }
}
