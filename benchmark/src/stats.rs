//! Order statistics for latency samples and for run-to-run comparison.

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // The epsilon keeps 99.9 % of 10 000 at rank 9990 despite rounding.
    let rank = (pct / 100.0 * sorted.len() as f64 - 1e-6).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50, p90, p99, p99.9, … that still has at least ten
/// samples beyond it, with its value: a tail estimate resting on fewer
/// samples than that is mostly noise. `None` below 20 samples, where not
/// even the median qualifies.
pub fn supported_tail(sorted: &[u64]) -> Option<(f64, u64)> {
    let mut best = None;
    // One sample in `one_in` lies beyond the percentile.
    let mut one_in: usize = 2;
    while sorted.len() / one_in >= 10 {
        let pct = 100.0 - 100.0 / one_in as f64;
        best = Some((pct, percentile(sorted, pct)));
        one_in = if one_in == 2 { 10 } else { one_in * 10 };
    }
    best
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the spread computed here is the
/// one the driver computes. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |quarter: usize| {
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.9), 7);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond() {
        let n = |len: u64| (1..=len).collect::<Vec<u64>>();
        assert_eq!(supported_tail(&n(19)), None);
        assert_eq!(supported_tail(&n(20)), Some((50.0, 10)));
        assert_eq!(supported_tail(&n(99)), Some((50.0, 50)));
        assert_eq!(supported_tail(&n(100)), Some((90.0, 90)));
        assert_eq!(supported_tail(&n(1000)), Some((99.0, 990)));
        let (pct, v) = supported_tail(&n(10_000)).unwrap();
        assert!((pct - 99.9).abs() < 1e-9);
        assert_eq!(v, 9990);
        let (pct, _) = supported_tail(&n(1_000_000)).unwrap();
        assert!((pct - 99.999).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
