//! Order statistics and means over measured samples.

/// The `q`-quantile (0.0..=1.0) of `samples`, interpolating linearly
/// between the two nearest ranks (the "linear" method of NumPy and of
/// Python's `statistics.quantiles(..., method="inclusive")`).
///
/// Infinite samples are allowed: a failed operation is recorded as
/// `f64::INFINITY` so that it misses every latency limit.
///
/// # Panics
///
/// Panics on an empty slice, a NaN sample or `q` outside `0.0..=1.0`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[lo] == sorted[hi] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
///
/// # Panics
///
/// See [`quantile`].
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics on an empty slice or a value that is not strictly positive:
/// a ratio of zero cycles means a run that did not happen.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geomean of non-positive value {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
    }

    #[test]
    fn failed_samples_dominate_the_tail() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&v, 0.9) - 90.1).abs() < 1e-9);
        v.extend([f64::INFINITY; 20]);
        assert_eq!(quantile(&v, 0.9), f64::INFINITY);
        assert!(median(&v).is_finite());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn quantile_rejects_empty() {
        quantile(&[], 0.5);
    }
}
