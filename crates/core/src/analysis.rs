//! Theory: the paper's analytic predictions, computed numerically.
//!
//! The number of dates arranged at matchmaker `v` is `min(S_v, R_v)` with
//! `S_v ~ Bi(Bout, w_v)` offers and `R_v ~ Bi(Bin, w_v)` requests, and
//! `S_v ⊥ R_v` (offers and requests are independent processes). Hence
//!
//! ```text
//! E[X] = Σ_v E[min(S_v, R_v)]
//! ```
//!
//! **exactly** — linearity needs no independence across matchmakers. The
//! paper's Lemma 1 replaces the binomials by Poissons (total-variation
//! error `O(1/m)`) to obtain closed forms. This module provides both:
//!
//! * [`expected_min_poisson`] / [`expected_min_binomial`] — `E[min(·,·)]`
//!   for independent Poisson / binomial pairs;
//! * [`expected_dates_weighted`] — the prediction for *any* selector
//!   weight vector (this is what nails the DHT curves of Figure 1);
//! * [`uniform_ratio_limit`] — `E[min(Po(1), Po(1))] ≈ 0.4762`, the
//!   `m = n` uniform limit. The paper's text quotes a cruder `0.44`
//!   estimate but *measures* "slightly more than 0.47·n", matching this
//!   exact value;
//! * [`bucket_lower_bound`] — the universal `(4/3)(1−e^{−1/4})² ≈ 0.065`
//!   constant from the sub-bucket argument of Lemma 1 (quoted as 0.064 in
//!   the paper after rounding);
//! * [`mcdiarmid_tail`] — the Lemma 2 concentration bound
//!   `Pr[|X − E[X]| ≥ t] ≤ 2e^{−t²/m}`.

use rendez_stats::{Binomial, Poisson};

/// `E[min(S, R)]` for independent `S ~ Po(λs)`, `R ~ Po(λr)`, via
/// `E[min] = Σ_{k≥1} P(S ≥ k)·P(R ≥ k)`, summed to convergence.
pub fn expected_min_poisson(lambda_s: f64, lambda_r: f64) -> f64 {
    assert!(
        lambda_s >= 0.0 && lambda_r >= 0.0,
        "rates must be non-negative"
    );
    if lambda_s == 0.0 || lambda_r == 0.0 {
        return 0.0;
    }
    let s = Poisson::new(lambda_s);
    let r = Poisson::new(lambda_r);
    let mut total = 0.0;
    // P(X ≥ k) = P(X > k−1) = sf(k−1).
    for k in 1u64.. {
        let term = s.sf(k - 1) * r.sf(k - 1);
        total += term;
        if term < 1e-14 && k as f64 > lambda_s.max(lambda_r) {
            break;
        }
        if k > 100_000 {
            break;
        }
    }
    total
}

/// `E[min(S, R)]` for independent `S ~ Bi(n_s, p)`, `R ~ Bi(n_r, p)` —
/// the exact per-matchmaker expectation before Poissonization.
pub fn expected_min_binomial(n_s: u64, n_r: u64, p: f64) -> f64 {
    if p == 0.0 {
        return 0.0;
    }
    let s = Binomial::new(n_s, p);
    let r = Binomial::new(n_r, p);
    // Precompute survival functions over the joint support.
    let kmax = n_s.min(n_r);
    let mut total = 0.0;
    let mut sf_s = 1.0 - s.pmf(0);
    let mut sf_r = 1.0 - r.pmf(0);
    for k in 1..=kmax {
        total += sf_s * sf_r;
        sf_s -= s.pmf(k);
        sf_r -= r.pmf(k);
        if sf_s <= 0.0 || sf_r <= 0.0 {
            break;
        }
    }
    total
}

/// Poisson-approximation prediction of `E[X]` (expected dates per round)
/// for a selector with the given weights on a platform with totals
/// `(bout_total, bin_total)`:
///
/// ```text
/// E[X] ≈ Σ_v E[min(Po(w_v·Bout), Po(w_v·Bin))]
/// ```
pub fn expected_dates_weighted(weights: &[f64], bout_total: u64, bin_total: u64) -> f64 {
    weights
        .iter()
        .map(|&w| expected_min_poisson(w * bout_total as f64, w * bin_total as f64))
        .sum()
}

/// Exact binomial version of [`expected_dates_weighted`] (slower; used to
/// validate the Poisson approximation in tests).
pub fn expected_dates_weighted_exact(weights: &[f64], bout_total: u64, bin_total: u64) -> f64 {
    weights
        .iter()
        .map(|&w| expected_min_binomial(bout_total, bin_total, w))
        .sum()
}

/// Prediction of `E[X]` for the **uniform** selector on a platform with
/// totals `(bout_total, bin_total)` and `n` nodes.
pub fn expected_dates_uniform(n: usize, bout_total: u64, bin_total: u64) -> f64 {
    let w = 1.0 / n as f64;
    n as f64 * expected_min_poisson(w * bout_total as f64, w * bin_total as f64)
}

/// The `m = n` uniform limit `E[min(Po(1), Po(1))] ≈ 0.47624`.
///
/// Figure 1's uniform series converges to this value from above as `n`
/// grows (small-`n` values are higher because `Bi(n, 1/n)` has less
/// variance than `Po(1)`).
pub fn uniform_ratio_limit() -> f64 {
    expected_min_poisson(1.0, 1.0)
}

/// The universal lower-bound constant of Lemma 1:
/// `(4/3)·(1 − e^{−1/4})² ≈ 0.06524` (the paper rounds to 0.064).
///
/// Derivation: at least `4m/3` full sub-buckets of probability mass
/// `1/4m` each arise from the "large" probabilities; a sub-bucket yields a
/// date when its independent `Po(1/4)` offer and request counts are both
/// non-zero, i.e. with probability `(1 − e^{−1/4})²`.
pub fn bucket_lower_bound() -> f64 {
    let p_nonzero = 1.0 - (-0.25f64).exp();
    (4.0 / 3.0) * p_nonzero * p_nonzero
}

/// Lemma 2's concentration bound: `Pr[|X − E[X]| ≥ t] ≤ 2·e^{−t²/m}`.
///
/// `X` is a function of the `2m` independent request destinations, each
/// with bounded difference 1, so McDiarmid's inequality gives
/// `2·exp(−2t²/(2m))`.
pub fn mcdiarmid_tail(m: u64, t: f64) -> f64 {
    (2.0 * (-t * t / m as f64).exp()).min(1.0)
}

/// `E[min(S,R)²]` for independent `S,R ~ Po(λs), Po(λr)`, via
/// `E[min²] = Σ_{k≥1} (2k−1)·P(min ≥ k)`.
pub fn expected_min_sq_poisson(lambda_s: f64, lambda_r: f64) -> f64 {
    if lambda_s == 0.0 || lambda_r == 0.0 {
        return 0.0;
    }
    let s = Poisson::new(lambda_s);
    let r = Poisson::new(lambda_r);
    let mut total = 0.0;
    for k in 1u64.. {
        let tail = s.sf(k - 1) * r.sf(k - 1);
        total += (2 * k - 1) as f64 * tail;
        if tail < 1e-16 && k as f64 > lambda_s.max(lambda_r) {
            break;
        }
        if k > 100_000 {
            break;
        }
    }
    total
}

/// **Upper bound** on `Var[X]` under the independent-matchmakers
/// approximation: `Σ_v Var[min(S_v, R_v)]` with Poissonized marginals.
///
/// The true variance is *smaller*: matchmaker counts are negatively
/// correlated (requests landing on one node cannot land on another).
/// The Lemma 2 experiment measures sd ≈ 0.42·√m at `m = n`, below this
/// bound's ≈ 0.55·√m — both far inside McDiarmid's √m envelope.
pub fn variance_upper_bound_weighted(weights: &[f64], bout_total: u64, bin_total: u64) -> f64 {
    weights
        .iter()
        .map(|&w| {
            let ls = w * bout_total as f64;
            let lr = w * bin_total as f64;
            let mean = expected_min_poisson(ls, lr);
            expected_min_sq_poisson(ls, lr) - mean * mean
        })
        .sum()
}

/// The paper's proven universal ratio: with high probability the dating
/// service arranges at least `β·m` dates, with `β = 0.064` proven (and
/// `β ≈ 0.4` believed for uniform — see §2's closing remark).
pub const BETA_PROVEN: f64 = 0.064;

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn uniform_limit_value() {
        // Hand-computable partial sums: Σ sf(k−1)² for Po(1).
        let v = uniform_ratio_limit();
        close(v, 0.4762, 5e-4);
        // The paper's measured "slightly more than 0.47" brackets it.
        assert!(v > 0.47 && v < 0.48);
    }

    #[test]
    fn bucket_bound_value() {
        let b = bucket_lower_bound();
        close(b, 0.06524, 1e-4);
        // The paper's rounded constant is a valid lower bound of ours.
        assert!(b > BETA_PROVEN);
    }

    #[test]
    fn min_poisson_zero_rate() {
        assert_eq!(expected_min_poisson(0.0, 5.0), 0.0);
        assert_eq!(expected_min_poisson(5.0, 0.0), 0.0);
    }

    #[test]
    fn min_poisson_bounded_by_min_rate() {
        for (a, b) in [(1.0, 1.0), (0.25, 0.25), (2.0, 5.0), (10.0, 3.0)] {
            let e = expected_min_poisson(a, b);
            assert!(e <= a.min(b), "E[min]={e} exceeds min rate");
            assert!(e > 0.0);
        }
    }

    #[test]
    fn min_poisson_symmetric() {
        close(
            expected_min_poisson(2.0, 7.0),
            expected_min_poisson(7.0, 2.0),
            1e-12,
        );
    }

    #[test]
    fn min_poisson_monotone_in_rates() {
        let mut prev = 0.0;
        for i in 1..20 {
            let lam = i as f64 * 0.5;
            let e = expected_min_poisson(lam, lam);
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    fn binomial_agrees_with_poisson_for_large_n() {
        // Bi(m, 1/n) → Po(m/n): at n = m = 2000 the two expectations
        // should agree to ~1/n.
        let n = 2000u64;
        let exact = expected_min_binomial(n, n, 1.0 / n as f64);
        let approx = expected_min_poisson(1.0, 1.0);
        close(exact, approx, 2e-3);
    }

    #[test]
    fn uniform_prediction_increases_with_m_over_n() {
        // §2: "the ratio E[X]/m is an increasing function of m/n".
        let n = 1000;
        let mut prev = 0.0;
        for mult in [1u64, 2, 4, 8, 16] {
            let m = n as u64 * mult;
            let ratio = expected_dates_uniform(n, m, m) / m as f64;
            assert!(ratio > prev, "ratio {ratio} at m/n={mult}");
            prev = ratio;
        }
        // And approaches 1 for large m/n.
        let big = expected_dates_uniform(n, n as u64 * 64, n as u64 * 64) / (n as u64 * 64) as f64;
        assert!(big > 0.9);
    }

    #[test]
    fn weighted_prediction_beats_uniform_for_skew() {
        // The §2 conjecture: skewed weights arrange MORE dates.
        let n = 500;
        let m = n as u64;
        let uniform = vec![1.0 / n as f64; n];
        let zipf = rendez_stats::Zipf::new(n, 1.0).weights();
        let eu = expected_dates_weighted(&uniform, m, m);
        let ez = expected_dates_weighted(&zipf, m, m);
        assert!(ez > eu, "zipf prediction {ez} should exceed uniform {eu}");
    }

    #[test]
    fn weighted_prediction_exceeds_bucket_bound() {
        // Lemma 1: E[X] ≥ 0.064·m for ANY distribution. Check several.
        let n = 300;
        let m = n as u64;
        for weights in [
            vec![1.0 / n as f64; n],
            rendez_stats::Zipf::new(n, 0.8).weights(),
            rendez_stats::Zipf::new(n, 2.0).weights(),
        ] {
            let e = expected_dates_weighted(&weights, m, m);
            assert!(e >= BETA_PROVEN * m as f64, "E[X]={e} below bound");
        }
    }

    #[test]
    fn mcdiarmid_tail_shape() {
        assert_eq!(mcdiarmid_tail(100, 0.0), 1.0);
        let t1 = mcdiarmid_tail(100, 10.0);
        let t2 = mcdiarmid_tail(100, 20.0);
        assert!(t2 < t1);
        close(t1, 2.0 * (-1.0f64).exp(), 1e-12);
        // t = sqrt(m·ln(2/δ)) gives tail δ.
        let m = 1000u64;
        let t = (m as f64 * (2.0f64 / 1e-6).ln()).sqrt();
        assert!(mcdiarmid_tail(m, t) <= 1e-6 * 1.0001);
    }

    #[test]
    fn second_moment_consistency() {
        // For any distribution, Var ≥ 0 and E[min²] ≥ E[min]².
        for (a, b) in [(0.25, 0.25), (1.0, 1.0), (3.0, 7.0)] {
            let m1 = expected_min_poisson(a, b);
            let m2 = expected_min_sq_poisson(a, b);
            assert!(m2 >= m1 * m1 - 1e-12, "E[min²] {m2} < E[min]² at ({a},{b})");
            // And E[min²] ≤ E[min(S,R)·max(S,R)] ≤ E[S·R] = ab (AM-GM-ish
            // sanity: min² ≤ S·R pointwise).
            assert!(m2 <= a * b + 1e-9, "E[min²] {m2} > ab at ({a},{b})");
        }
    }

    #[test]
    fn variance_bound_dominates_measurement_scale() {
        // The independent-matchmaker bound at m = n = 10⁴ predicts
        // sd ≈ 0.55·√m; the measured sd (exp_lemma2) is ≈ 0.42·√m.
        let n = 10_000;
        let w = vec![1.0 / n as f64; n];
        let var = variance_upper_bound_weighted(&w, n as u64, n as u64);
        let sd_scale = var.sqrt() / (n as f64).sqrt();
        assert!(
            (0.45..0.70).contains(&sd_scale),
            "sd scale {sd_scale} outside expected band"
        );
        // Measured 0.42·√m must sit below the bound.
        assert!(0.42 < sd_scale);
    }

    #[test]
    fn exact_and_poisson_weighted_close() {
        let n = 400;
        let m = n as u64;
        let w = rendez_stats::Zipf::new(n, 1.0).weights();
        let a = expected_dates_weighted(&w, m, m);
        let b = expected_dates_weighted_exact(&w, m, m);
        close(a, b, 0.02 * a);
    }

    #[test]
    fn uniform_is_not_the_worst_case_on_imbalanced_totals() {
        // §2 conjectures that uniform selection arranges the fewest dates.
        // A two-level selector (1.5/n on even ids, 0.5/n on odd ids) goes
        // below uniform at ΣBout = 4·ΣBin (bin = 1, bout = 4, so C = 4),
        // but not on the balanced control.
        for (n, bout, bin, skewed, uniform) in [
            (1_000, 4_000, 1_000, 929.7818, 934.1513),
            (200, 200, 200, 100.5906, 95.4603),
        ] {
            let w: Vec<f64> = (0..n).map(|v| [1.5, 0.5][v % 2] / n as f64).collect();
            let s = expected_dates_weighted_exact(&w, bout, bin);
            let u = expected_dates_weighted_exact(&vec![1.0 / n as f64; n], bout, bin);
            close(s, skewed, 1e-3);
            close(u, uniform, 1e-3);
            assert_eq!(s < u, bout > bin, "skewed {s} vs uniform {u}");
        }
    }

    #[test]
    fn per_matchmaker_expectation_is_convex_only_for_balanced_totals() {
        // E[X] = Σ_v g(w_v) with Σ_v w_v = 1 and g(p) = E[min(Bi(ΣBout, p),
        // Bi(ΣBin, p))]: where g is convex, Jensen puts the minimum at
        // uniform weights. For balanced totals every second difference on
        // a dense p-grid is positive (the smallest, 2h² at s = 1, where
        // g(p) = p², is far above rounding).
        const STEPS: usize = 200;
        let h = 1.0 / STEPS as f64;
        let second = |bout: u64, bin: u64, p: f64| {
            let g = |p: f64| expected_min_binomial(bout, bin, p);
            g(p - h) - 2.0 * g(p) + g(p + h)
        };
        for s in [1, 2, 3, 5, 8, 16, 64, 256] {
            for i in 1..STEPS {
                let p = i as f64 * h;
                let d = second(s, s, p);
                assert!(d > 0.5 * h * h, "s = {s}, p = {p}: second difference {d}");
            }
        }
        // (ΣBout, ΣBin) = (16, 4): g bends the other way at p = 1/4, so
        // Jensen says nothing there (the imbalanced counterexample above).
        close(second(16, 4, 0.25), -4.492_018_9e-5, 1e-10);
    }
}
