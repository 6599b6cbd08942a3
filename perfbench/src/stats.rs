//! Order statistics over benchmark samples.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)`
//! (the default "exclusive" method), so a spread printed here is the
//! same number a reader recomputes from the raw samples with the
//! standard library.

/// A named percentile is only reported when at least this many samples
/// lie beyond it; otherwise the tail it names is a single outlier.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (`None` when empty).
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (`None` with fewer
/// than two samples).
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let len = s.len();
    if len < 2 {
        return None;
    }
    // Signed, as in Python: `delta` is negative when the clamp moves
    // `j` up, which extrapolates below the second-smallest sample.
    let (m, last) = (len as i64 + 1, len as i64 - 1);
    let mut q = [0.0; 3];
    for (i, out) in (1..4i64).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, last);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *out = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(q)
}

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's nearest rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly beyond it.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile of `xs` (`0 < p < 100`), or
/// `None` when fewer than [`MIN_BEYOND`] samples would lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let s = sorted(xs);
    let n = s.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || n - rank.max(1) < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        value: s[rank.max(1) - 1],
        samples: n,
        beyond: n - rank.max(1),
    })
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// does not exercise).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
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
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_reports_its_sample_count() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 90.0).expect("100 samples carry a p90");
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
    }

    #[test]
    fn percentile_never_names_a_tail_with_fewer_than_ten_samples_beyond() {
        for n in 0..300usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for p in [50.0, 75.0, 90.0, 99.0] {
                match percentile(&xs, p) {
                    Some(pct) => {
                        assert!(pct.beyond >= MIN_BEYOND, "n={n} p={p}: {pct:?}");
                        assert_eq!(pct.samples, n);
                        let beyond = xs.iter().filter(|&&x| x > pct.value).count();
                        assert_eq!(beyond, pct.beyond, "n={n} p={p}");
                    }
                    None => {
                        let rank = ((p / 100.0) * n as f64).ceil() as usize;
                        assert!(n < MIN_BEYOND + rank.max(1), "n={n} p={p} refused");
                    }
                }
            }
        }
        assert!(percentile(&[1.0; 99], 90.0).is_none());
        assert!(percentile(&[1.0; 39], 75.0).is_none());
        assert!(percentile(&[1.0; 40], 75.0).is_some());
    }

    #[test]
    fn ratio_of_an_idle_layer_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
