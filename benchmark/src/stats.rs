//! Exact statistics over raw samples: sort, index, report.
//!
//! `ff_store::metrics::Histogram` rounds to log₂ buckets (that is why
//! `BENCH_substrates.json` reads p95 = p99 = 8192 ns); the benchmark
//! keeps every `u32` sample instead and reads quantiles off the sorted
//! vector.

/// Samples beyond a percentile required before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule,
/// or 0 when empty.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `samples`, sorted.
pub fn sorted(samples: &[u32]) -> Vec<u32> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// Whether `n` samples leave at least [`TAIL_SUPPORT`] beyond the
/// `q`-quantile — the rule for which tail percentiles may be quoted.
pub fn tail_supported(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() as usize >= TAIL_SUPPORT
}

/// A tail quantile, or 0 when too few samples lie beyond it.
pub fn tail_quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    if tail_supported(sorted.len(), q) {
        quantile_sorted(sorted, q)
    } else {
        0
    }
}

/// Median of `values` (mean of the middle two when even), 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive), which is what the driver's spread check uses. `None`
/// below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median: the spread measure the
/// driver and `compare` both use. 0 below two values or at median 0.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// The `q`-quantile of `values` by nearest rank, 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The `q`-quantile of each of `chunks` consecutive pieces of a window.
/// `threads` holds every driver thread's time-ordered samples; piece `i`
/// pools the `i`-th piece of each thread, which ran side by side.
pub fn chunk_quantiles(threads: &[&[u32]], q: f64, chunks: usize) -> Vec<f64> {
    (0..chunks)
        .filter_map(|i| {
            let mut pooled: Vec<u32> = threads
                .iter()
                .flat_map(|t| {
                    let size = t.len() / chunks;
                    t[i * size..(i + 1) * size].iter().copied()
                })
                .collect();
            pooled.sort_unstable();
            (!pooled.is_empty()).then(|| f64::from(quantile_sorted(&pooled, q)))
        })
        .collect()
}

/// A duration in ns as a saturating `u32` sample (4.29 s ceiling).
pub fn sample_ns(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.9), 90);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        assert_eq!(quantile_sorted(&[7], 0.9), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(1000, 0.999));
        assert!(tail_supported(10_000, 0.999));
        let v: Vec<u32> = (0..999).collect();
        assert_eq!(tail_quantile_sorted(&v, 0.99), 0);
        assert_eq!(tail_quantile_sorted(&v, 0.9), 899);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quantile_of_floats_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.1), 1.0);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn chunk_quantiles_follow_drift_and_pool_threads() {
        let drifting: Vec<u32> = (0..800).map(|i| 100 + i / 100 * 10).collect();
        assert_eq!(
            chunk_quantiles(&[&drifting], 0.5, 8),
            vec![100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0, 170.0]
        );
        // Piece 0 pools {1, 2} with {9, 9, 9, 9}; piece 1 pools {3, 4} with {1, 1, 1, 1}.
        let (a, b) = ([1, 2, 3, 4], [9, 9, 9, 9, 1, 1, 1, 1]);
        assert_eq!(chunk_quantiles(&[&a, &b], 0.5, 2), vec![9.0, 1.0]);
        assert!(chunk_quantiles(&[&[1, 2, 3]], 0.5, 8).is_empty());
    }
}
