//! Order statistics for the benchmark's timings.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(n * p)`. A tail
//! percentile is only reported when at least [`MIN_TAIL`] samples lie
//! strictly beyond it, so a p99 from a few hundred samples is refused
//! instead of printed as if it meant something.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank position (0-based) of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
    ((n as f64 * p).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn tail_count(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// Percentile `p` of `sorted`, or `None` when fewer than [`MIN_TAIL`]
/// samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    if sorted.is_empty() || tail_count(sorted.len(), p) < MIN_TAIL {
        return None;
    }
    Some(sorted[rank(sorted.len(), p)])
}

/// Median of an unsorted sample (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sorts a sample in place and returns it (for chaining into
/// [`percentile`]).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest sample count for which percentile `p` has [`MIN_TAIL`] samples
    /// beyond it.
    pub fn min_samples_for(p: f64) -> usize {
        (1..)
            .find(|&n| tail_count(n, p) >= MIN_TAIL)
            .expect("unbounded search")
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // rank(n, 0.99) = ceil(0.99 n); beyond it lie n - ceil(0.99 n).
        assert_eq!(min_samples_for(0.99), 1000);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_count(999, 0.99), 9);
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_count(1000, 0.99), 10);
        assert_eq!(percentile(&v, 0.99), Some(990.0));
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(min_samples_for(0.5), 20);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(v[rank(v.len(), 0.0)], 1.0);
        assert_eq!(v[rank(v.len(), 0.5)], 3.0);
        assert_eq!(v[rank(v.len(), 1.0)], 5.0);
        assert_eq!(tail_count(5, 1.0), 0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
