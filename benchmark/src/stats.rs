//! Sample arithmetic: exact percentiles over kept samples, the quartile
//! spread the bounds are judged by, and span self time.

/// Sort a sample ascending (total order; a NaN would sort last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_unstable_by(|a, b| a.total_cmp(b));
    v
}

/// Exact percentile of an ascending sample: the value at rank
/// `round((n - 1) * q)`. No interpolation, so the result is always a value
/// that was measured. Empty samples read 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[((n - 1) as f64 * q).round() as usize],
    }
}

/// Arithmetic mean; empty samples read 0.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even); empty samples read 0.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the driver judges run-to-run spread with that function.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// A span's self time: its own duration minus the calls beneath it. The
/// calls beneath are re-executions made right after the span closed, so
/// noise can push a single reading below zero; only means are reported.
pub fn self_time_ns(span_ns: u64, beneath_ns: u64) -> i64 {
    span_ns as i64 - beneath_ns as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_measured_values() {
        let s = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 51.0); // round(99 * 0.5) = 50 → s[50]
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]), (15.0, 120.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn self_time_subtracts_the_calls_beneath() {
        assert_eq!(self_time_ns(1_000, 400), 600);
        assert_eq!(self_time_ns(1_000, 1_000), 0);
        assert_eq!(self_time_ns(500, 650), -150);
    }
}
