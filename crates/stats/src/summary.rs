//! Normalization and aggregation helpers used by every experiment.
//!
//! The paper reports almost everything as a value *normalized to a
//! baseline* (the ideal SB, or the at-commit policy) and aggregates
//! applications with the *geometric mean* ("ALL" and "SB-BOUND" bars).
//! These helpers implement exactly those operations.

/// Geometric mean of a slice of positive values.
///
/// The geometric mean is only defined for positive inputs, so the
/// degenerate cases get an explicit sentinel instead of a silent
/// clamp: an **empty slice or any non-positive entry returns 0.0**
/// (a value no real measurement produces — every metric fed to this
/// is a positive cycle count, IPC or ratio), never NaN and never a
/// denormal-sized artifact of clamping. Callers that need to
/// distinguish "degenerate input" from "legitimately tiny mean" can
/// use [`geomean_checked`].
///
/// # Examples
///
/// ```
/// use spb_stats::summary::geomean;
/// assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
/// assert_eq!(geomean(&[0.0, 1.0]), 0.0); // sentinel, not a clamp
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    geomean_checked(values).unwrap_or(0.0)
}

/// Geometric mean, or `None` when it is undefined (empty input, or any
/// entry that is not a positive finite number).
///
/// # Examples
///
/// ```
/// use spb_stats::summary::geomean_checked;
/// assert!(geomean_checked(&[]).is_none());
/// assert!(geomean_checked(&[1.0, -2.0]).is_none());
/// assert!((geomean_checked(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
/// ```
pub fn geomean_checked(values: &[f64]) -> Option<f64> {
    // `v > 0.0 && v.is_finite()` is false for NaN, so this also
    // rejects unordered inputs.
    if values.is_empty() || !values.iter().all(|&v| v > 0.0 && v.is_finite()) {
        return None;
    }
    let sum_logs: f64 = values.iter().map(|&v| v.ln()).sum();
    Some((sum_logs / values.len() as f64).exp())
}

/// Arithmetic mean; 0.0 for an empty slice.
///
/// # Examples
///
/// ```
/// use spb_stats::summary::mean;
/// assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Normalizes `value` to `baseline` (i.e. `value / baseline`).
///
/// Returns 0.0 when the baseline is zero; reports treat a zero baseline
/// as "metric absent".
///
/// # Examples
///
/// ```
/// use spb_stats::summary::normalize;
/// assert_eq!(normalize(50.0, 100.0), 0.5);
/// assert_eq!(normalize(1.0, 0.0), 0.0);
/// ```
pub fn normalize(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        value / baseline
    }
}

/// Speedup of `time` relative to `baseline_time`: `baseline / time`.
///
/// This is the inverse of [`normalize`] and is what "performance
/// normalized to Ideal" means in Figures 5, 6, 16 and 17 when the
/// underlying measurement is execution time.
///
/// # Examples
///
/// ```
/// use spb_stats::summary::speedup;
/// assert_eq!(speedup(50.0, 100.0), 2.0);
/// ```
pub fn speedup(time: f64, baseline_time: f64) -> f64 {
    if time == 0.0 {
        0.0
    } else {
        baseline_time / time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_empty_is_zero() {
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_of_identical_values_is_that_value() {
        let v = geomean(&[3.5, 3.5, 3.5]);
        assert!((v - 3.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_below_arithmetic_mean_for_spread_data() {
        let data = [1.0, 100.0];
        assert!(geomean(&data) < mean(&data));
    }

    #[test]
    fn geomean_tolerates_zero_without_nan() {
        // Degenerate inputs get the documented 0.0 sentinel — finite,
        // and visibly wrong in a report rather than quietly clamped.
        let v = geomean(&[0.0, 1.0]);
        assert!(v.is_finite());
        assert_eq!(v, 0.0);
        assert_eq!(geomean(&[1.0, -3.0]), 0.0);
        assert_eq!(geomean(&[1.0, f64::NAN]), 0.0);
        assert_eq!(geomean(&[1.0, f64::INFINITY]), 0.0);
    }

    #[test]
    fn geomean_checked_distinguishes_degenerate_inputs() {
        assert_eq!(geomean_checked(&[]), None);
        assert_eq!(geomean_checked(&[0.0]), None);
        let tiny = geomean_checked(&[1e-300]).unwrap();
        assert!((tiny / 1e-300 - 1.0).abs() < 1e-12, "tiny mean {tiny}");
        assert!((geomean_checked(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_of_zero_time_is_zero() {
        assert_eq!(speedup(0.0, 10.0), 0.0);
    }
}
