//! Order statistics for latency samples, plus the sample-count rule that
//! decides which percentiles a phase is allowed to report.

/// A percentile is reported only when at least this many samples lie
/// beyond it (choosing-metrics §1: "the highest percentile that has at
/// least ten samples beyond it").
pub const TAIL_SAMPLES: usize = 10;

/// Samples a phase needs before `percentile(p)` may be reported:
/// `TAIL_SAMPLES / (1 - p)`, so 1000 for p99 and 20 for the median.
pub fn samples_needed(p: f64) -> usize {
    assert!((0.0..1.0).contains(&p), "percentile must be in [0, 1)");
    (TAIL_SAMPLES as f64 / (1.0 - p)).round() as usize
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (latencies are finite, so total order holds).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Median by the usual midpoint convention (the mean of the two middle
/// samples for an even count); `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    })
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance rule for this benchmark is stated in.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let s = sorted(values.to_vec());
    let n = s.len();
    let at = |q: usize| {
        // statistics.quantiles, method="exclusive": position q*(n+1)/4,
        // clamped to the sample, linear between neighbours.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the "spread" every
/// acceptance rule here compares against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_rule() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.999), 10_000);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
