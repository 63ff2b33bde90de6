//! Lemma 1 on the runtime: the dating service's mean dates per cycle
//! meet the exact expectation
//! `E[X] = Σ_v E[min(Bi(ΣBout, w_v), Bi(ΣBin, w_v))]`
//! (`analysis::expected_dates_weighted_exact`).
//!
//! The paper's tables read `RuntimeDating`'s `dates_per_cycle`, so this
//! is the check that they estimate Lemma 1's quantity. Each cycle is an
//! independent round of Algorithm 1; the tolerance is 4 standard errors
//! of the mean over the run's cycles, with the per-cycle variance taken
//! from `analysis::variance_upper_bound_weighted` — the paper's quantity,
//! not a sample statistic.

use rendezvous::core::analysis;
use rendezvous::prelude::*;

/// Run the dating service for `cycles` cycles on `platform` with
/// `selector` and assert its mean dates per cycle lies within 4
/// standard errors of the exact expectation.
fn assert_meets_exact<S: NodeSelector + Clone>(
    what: &str,
    platform: Platform,
    selector: S,
    cycles: u64,
    seed: u64,
) {
    let weights = selector.weights();
    let (bout, bin) = (platform.total_out(), platform.total_in());
    let exact = analysis::expected_dates_weighted_exact(&weights, bout, bin);
    let variance = analysis::variance_upper_bound_weighted(&weights, bout, bin);
    let report = Scenario::new(platform.n())
        .platform(platform)
        .selector(selector)
        .cycles(cycles)
        .run(seed)
        .expect("valid scenario");
    let out = report.expect_output();
    let dating = out.dating().expect("the dating-service workload");
    assert_eq!(dating.dates_per_cycle.len() as u64, cycles, "{what}");
    let mean = dating.total_dates() as f64 / cycles as f64;
    let se = (variance / cycles as f64).sqrt();
    let z = (mean - exact) / se;
    assert!(
        z.abs() < 4.0,
        "{what}: mean {mean:.3} dates per cycle vs exact {exact:.3}, \
         z = {z:+.2} (se {se:.3} over {cycles} cycles)"
    );
}

#[test]
fn unit_platform_uniform_selector_meets_exact_expectation() {
    let n = 300;
    assert_meets_exact(
        "unit(300), uniform",
        Platform::unit(n),
        UniformSelector::new(n),
        1_500,
        0x1E1,
    );
}

#[test]
fn power_law_bw_in_alias_meets_exact_expectation() {
    let platform = Platform::power_law(60, 1.1, 4.0, 9);
    let weights: Vec<f64> = platform.iter().map(|(_, c)| c.bw_in as f64).collect();
    assert_meets_exact(
        "power_law(60, 1.1, 4.0), bw_in alias",
        platform,
        AliasSelector::new(&weights, "bw_in"),
        4_000,
        0x1E2,
    );
}
