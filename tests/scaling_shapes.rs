//! Quantitative asymptotic-shape checks: fit measured data against the
//! paper's claimed growth laws instead of eyeballing.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_gossip::{run_spread, DatingService, DatingSpread};
use rendezvous::prelude::*;
use rendezvous::stats::fit_log2;

fn mean_dating_rounds(n: usize, trials: u64, seed: u64) -> f64 {
    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let mut total = 0u64;
    for t in 0..trials {
        let mut rng = SmallRng::seed_from_u64(seed + t);
        let mut p = DatingSpread::new(&selector);
        let r = run_spread(&mut p, &platform, NodeId(0), &mut rng, 1_000_000);
        assert!(r.completed);
        total += r.rounds;
    }
    total as f64 / trials as f64
}

#[test]
fn dating_rounds_scale_as_log_n() {
    // Theorem 4 quantified: rounds ≈ a·log₂(n) + b with an excellent
    // linear fit in log n and a modest slope.
    let ns = [64usize, 256, 1024, 4096, 16384];
    let ys: Vec<f64> = ns
        .iter()
        .map(|&n| mean_dating_rounds(n, 12, n as u64))
        .collect();
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    let f = fit_log2(&xs, &ys);
    assert!(
        f.r_squared > 0.98,
        "rounds vs log n not linear: R² = {:.4} (data {ys:?})",
        f.r_squared
    );
    assert!(
        f.slope > 0.5 && f.slope < 6.0,
        "slope {:.2} out of the O(log n) band",
        f.slope
    );
}

#[test]
fn push_rounds_scale_as_log_n_with_known_constant() {
    // PUSH's classic constant is log₂ n + ln n ≈ 2.44·log₂ n; check the
    // fitted slope lands near it.
    let ns = [128usize, 512, 2048, 8192];
    let ys: Vec<f64> = ns
        .iter()
        .map(|&n| {
            let platform = Platform::unit(n);
            let mut total = 0u64;
            let trials = 12;
            for t in 0..trials {
                let mut rng = SmallRng::seed_from_u64(9000 + n as u64 + t);
                let mut p = rendez_gossip::Push::new();
                let r = run_spread(&mut p, &platform, NodeId(0), &mut rng, 1_000_000);
                total += r.rounds;
            }
            total as f64 / trials as f64
        })
        .collect();
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    let f = fit_log2(&xs, &ys);
    assert!(f.r_squared > 0.97, "R² = {:.4}", f.r_squared);
    assert!(
        (1.6..3.4).contains(&f.slope),
        "PUSH slope {:.2} far from 1 + 1/ln 2 ≈ 2.44",
        f.slope
    );
}

#[test]
fn date_fraction_is_flat_in_n() {
    // Figure 1's uniform series converges: the fraction must not trend
    // with n (slope ≈ 0 against log n).
    use rendez_gossip::CountWorkspace;
    let ns = [100usize, 1_000, 10_000];
    let ys: Vec<f64> = ns
        .iter()
        .map(|&n| {
            let platform = Platform::unit(n);
            let selector = UniformSelector::new(n);
            let svc = DatingService::new(&platform, &selector);
            let mut ws = CountWorkspace::new(n);
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let rounds = 300;
            let mut total = 0u64;
            for _ in 0..rounds {
                total += svc.count_dates(&mut ws, &mut rng);
            }
            total as f64 / (rounds as f64 * n as f64)
        })
        .collect();
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    let f = fit_log2(&xs, &ys);
    assert!(
        f.slope.abs() < 0.01,
        "fraction trends with n: slope {:.5}, data {ys:?}",
        f.slope
    );
}
