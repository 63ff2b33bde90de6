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
//!
//! The rows: unit, bimodal and power-law platforms with the uniform
//! selector, power-law with the `bw_in` alias, and §2's counterexample
//! pair (bin 1 / bout 4, two-level 1.5 / 0.5 against uniform), whose gap
//! an ignored release test pins at more than 10 standard errors.

use rendezvous::core::analysis;
use rendezvous::prelude::*;

/// One row: the runtime's mean dates per cycle, Lemma 1's exact value,
/// and the standard error of the mean from the variance bound.
struct Row {
    mean: f64,
    exact: f64,
    /// Per-cycle variance bound (`variance_upper_bound_weighted`).
    variance: f64,
    cycles: u64,
}

impl Row {
    fn se(&self) -> f64 {
        (self.variance / self.cycles as f64).sqrt()
    }

    fn z(&self) -> f64 {
        (self.mean - self.exact) / self.se()
    }
}

/// Run the dating service for `cycles` cycles on `platform` with
/// `selector` and assert its mean dates per cycle lies within 4
/// standard errors of the exact expectation.
fn assert_meets_exact<S: NodeSelector + Clone>(
    what: &str,
    platform: Platform,
    selector: S,
    cycles: u64,
    seed: u64,
) -> Row {
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
    let row = Row {
        mean: dating.total_dates() as f64 / cycles as f64,
        exact,
        variance,
        cycles,
    };
    let z = row.z();
    eprintln!(
        "{what}: {cycles} cycles, mean {:.3}, exact {exact:.3}, z = {z:+.2}",
        row.mean
    );
    assert!(
        z.abs() < 4.0,
        "{what}: mean {:.3} dates per cycle vs exact {exact:.3}, \
         z = {z:+.2} (se {:.3} over {cycles} cycles)",
        row.mean,
        row.se()
    );
    row
}

/// Item 9's platform for the §2 counterexample: n = 1 000 nodes with
/// bin = 1 and bout = 4, so ΣBout = 4·ΣBin.
fn imbalanced_platform() -> Platform {
    Platform::new(vec![
        NodeCaps {
            bw_in: 1,
            bw_out: 4
        };
        1_000
    ])
}

/// The counterexample's selector: weight 1.5 on even ids, 0.5 on odd.
fn two_level_selector(n: usize) -> AliasSelector {
    let weights: Vec<f64> = (0..n).map(|v| [1.5, 0.5][v % 2]).collect();
    AliasSelector::new(&weights, "two-level")
}

/// The two-level selector's runtime mean against uniform's on the
/// imbalanced platform over `cycles` cycles, each within 4σ of its exact
/// value; returns the measured gap (uniform − two-level) in standard
/// errors of the difference, σ² from the two variance bounds.
fn counterexample_gap(cycles: u64) -> f64 {
    let n = 1_000;
    let uniform = assert_meets_exact(
        "bin 1 / bout 4, n = 1000, uniform",
        imbalanced_platform(),
        UniformSelector::new(n),
        cycles,
        0x1E5,
    );
    let skewed = assert_meets_exact(
        "bin 1 / bout 4, n = 1000, two-level 1.5 / 0.5",
        imbalanced_platform(),
        two_level_selector(n),
        cycles,
        0x1E6,
    );
    let se = ((uniform.variance + skewed.variance) / cycles as f64).sqrt();
    (uniform.mean - skewed.mean) / se
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

#[test]
fn bimodal_uniform_selector_meets_exact_expectation() {
    let n = 300;
    assert_meets_exact(
        "bimodal(300, 0.2, 1, 8), uniform",
        Platform::bimodal(n, 0.2, 1, 8),
        UniformSelector::new(n),
        600,
        0x1E3,
    );
}

#[test]
fn power_law_uniform_selector_meets_exact_expectation() {
    let n = 200;
    assert_meets_exact(
        "power_law(200, 1.0, 3.0), uniform",
        Platform::power_law(n, 1.0, 3.0, 9),
        UniformSelector::new(n),
        800,
        0x1E4,
    );
}

/// §2's counterexample platform at a tier-1 size: both selectors meet
/// their exact values (the gap itself is under 2σ at this length).
#[test]
fn imbalanced_pair_meets_exact_expectation() {
    counterexample_gap(150);
}

/// The counterexample pinned: at 20 000 cycles the exact gap
/// (934.151 − 929.782) is ≈ 14.8 standard errors of the difference, so
/// the measured gap must clear 10. A size for release builds.
#[test]
#[ignore = "release-size run; CI runs it with --ignored"]
fn two_level_selector_arranges_fewer_dates_by_10_sigma() {
    let z = counterexample_gap(20_000);
    eprintln!("uniform − two-level: z = {z:+.2} standard errors of the difference");
    assert!(z > 10.0, "gap z = {z:+.2} standard errors");
}
