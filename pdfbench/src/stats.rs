//! Order statistics for timings: medians, tail percentiles under the
//! "at least ten samples beyond" rule, and the quartile spread the
//! `compare` command and the acceptance checks use.

/// Median of `xs` (mean of the middle pair for an even count); `NaN`
/// when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p < 100) of `xs`: the smallest
/// sample with at least `p`% of the samples at or below it. `NaN` when
/// `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Whether percentile `p` of `n` samples has at least ten samples
/// beyond it, the condition under which a tail percentile is reported.
pub fn has_tail(n: usize, p: f64) -> bool {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n >= rank + 10
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    if xs.len() < 2 {
        return None;
    }
    let s = sorted(xs);
    let m = s.len() + 1;
    let mut q = [0.0; 3];
    for (k, slot) in q.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(q)
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread of a metric. Zero for fewer than two samples.
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some([q1, _, q3]) => ((q3 - q1) / median(xs)).abs(),
        None => 0.0,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(has_tail(100, 90.0));
        assert!(!has_tail(99, 90.0));
        assert!(has_tail(200, 95.0));
        assert!(!has_tail(199, 95.0));
        assert!(has_tail(20, 50.0));
        assert!(!has_tail(19, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }
}
