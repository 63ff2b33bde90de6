//! The arithmetic every reported number goes through: quantiles,
//! best-of-k, relative spread and relative difference.
//!
//! Kept free of clocks and I/O so the unit tests below pin it exactly.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics (the "inclusive" method: `q = 0` is the
/// minimum, `q = 1` the maximum, `q = 0.5` the usual median).
///
/// # Panics
/// Panics on an empty slice or a NaN sample — both are harness bugs.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Best of k: the smallest sample.
pub fn best_of(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// The estimator behind every gated timing: the **lower quartile** of
/// the speed-normalised samples.
///
/// Interference on the recording host is one-sided — a neighbour's cache
/// pressure makes a repetition slower, never faster — and shows up as a
/// slow tail that drags a median along with it. A minimum avoids the tail
/// but rests on a single sample, and a normalised sample can be wrong in
/// the fast direction (one slow calibration loop next to a fast
/// repetition). The lower quartile sits below the tail and above such
/// outliers; on the recorded series it repeated two to four times better
/// than either (see `README.md`).
pub fn steady(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Interquartile range as a share of the median — the spread figure the
/// benchmark's acceptance rule is written in. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method, positions
/// `(len + 1)·k/4`), so this reproduces the driver's number.
pub fn iqr_rel(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    let at = |k: usize| {
        let pos = (v.len() + 1) as f64 * k as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    if v.len() < 2 {
        return 0.0;
    }
    (at(3) - at(1)) / median(&v)
}

/// Symmetric relative difference `|a − b| / min(a, b)`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn best_of_is_the_minimum_whatever_the_order() {
        assert_eq!(best_of(&[1.37, 1.12, 1.39, 1.04, 1.34]), 1.04);
    }

    #[test]
    fn steady_ignores_a_slow_tail_and_a_lucky_outlier() {
        // Eight honest samples near 1.0, one calibration fluke, three
        // repetitions hit by a noisy neighbour.
        let v = [
            0.99, 1.0, 1.01, 1.0, 0.99, 1.01, 1.0, 1.02, 0.6, 1.3, 1.4, 1.35,
        ];
        let s = steady(&v);
        assert!((0.98..=1.0).contains(&s), "{s}");
    }

    #[test]
    fn iqr_rel_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_rel(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_rel(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr_rel(&[3.0]), 0.0);
    }

    #[test]
    fn rel_diff_is_symmetric_and_relative_to_the_smaller() {
        assert!((rel_diff(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert!((rel_diff(1.0, 1.1) - 0.1).abs() < 1e-12);
        assert_eq!(rel_diff(2.0, 2.0), 0.0);
    }
}
