//! Order statistics: the percentile rank rule every latency metric uses,
//! and the quartile spread `aa` reports.

/// Samples a percentile must leave beyond it to be reported (choosing-metrics
/// §1: "the highest percentile that has at least ten samples beyond it").
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it (rank `ceil(q·n)`, 1-based). No
/// interpolation, so the value is always one that was measured.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `q` percentile's rank among `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Whether `n` samples support reporting the `q` percentile.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_SAMPLES_BEYOND
}

/// Sorts in place and returns `(p50, p95)`.
pub fn p50_p95(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (percentile(samples, 0.50), percentile(samples, 0.95))
}

/// Median with the midpoint rule (used for medians *of metrics*, where the
/// few values are themselves summaries).
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

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method) — the same arithmetic the
/// acceptance driver applies to the benchmark's end-to-end metrics.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on the 1-based sorted sample, clamped inside it.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the spread `aa` and the
/// acceptance driver compare against a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 5.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// p95 needs 200 samples before ten lie beyond it; a 600-sample run leaves
    /// thirty, which is what every workload is sized for.
    #[test]
    fn ten_samples_beyond_floor() {
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert!(!supports(199, 0.95));
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(supports(200, 0.95));
        assert_eq!(samples_beyond(600, 0.95), 30);
        assert!(!supports(600, 0.99));
        assert!(supports(1000, 0.99));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }
}
