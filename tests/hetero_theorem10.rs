//! Theorem 10 / Corollary 11 cross-crate checks: heterogeneous platforms
//! spread to their well-provisioned nodes in o(log n) rounds.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_gossip::hetero::{run_hetero_trial, strongest_node, theorem10_prediction, weakest_node};
use rendez_gossip::DatingSpread;
use rendezvous::prelude::*;

fn mean_avg_rounds(platform: &Platform, strong_source: bool, trials: u64, seed: u64) -> f64 {
    let selector = UniformSelector::new(platform.n());
    let mut total = 0u64;
    for t in 0..trials {
        let mut rng = SmallRng::seed_from_u64(seed + t);
        let source = if strong_source {
            strongest_node(platform)
        } else {
            weakest_node(platform)
        };
        let out = run_hetero_trial(platform, &selector, source, &mut rng, 100_000);
        assert!(out.avg_completed && out.all_completed);
        total += out.rounds_avg_nodes;
    }
    total as f64 / trials as f64
}

#[test]
fn sqrt_n_average_bandwidth_gives_constant_rounds() {
    // m/n = √n ⇒ bound = log n / log √n = 2; constants make it a few
    // rounds, but it must not scale with n.
    let r1 = mean_avg_rounds(&Platform::power_law(1_024, 1.1, 32.0, 1), true, 15, 100);
    let r2 = mean_avg_rounds(&Platform::power_law(16_384, 1.1, 128.0, 2), true, 10, 200);
    assert!(r1 < 12.0, "n=1024: {r1} rounds");
    assert!(r2 < 12.0, "n=16384: {r2} rounds");
    assert!(
        r2 < r1 + 4.0,
        "rounds grew with n ({r1} → {r2}) despite √n bandwidth"
    );
}

#[test]
fn log_n_average_beats_unit_platform() {
    let n = 4_096;
    let rich = Platform::power_law(n, 1.1, (n as f64).ln(), 3);
    let rich_rounds = mean_avg_rounds(&rich, true, 15, 300);

    // Unit platform baseline: full Θ(log n) spreading.
    let unit = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let mut total = 0u64;
    for t in 0..15u64 {
        let mut rng = SmallRng::seed_from_u64(400 + t);
        let mut p = DatingSpread::new(&selector);
        let r = rendez_gossip::run_spread(&mut p, &unit, NodeId(0), &mut rng, 100_000);
        total += r.rounds;
    }
    let unit_rounds = total as f64 / 15.0;
    assert!(
        rich_rounds < unit_rounds,
        "rich {rich_rounds} not faster than unit {unit_rounds}"
    );
    // And it should be in the ballpark of the bound shape (generous
    // constant; the bound is asymptotic).
    let bound = theorem10_prediction(n, rich.m() as f64 / n as f64);
    assert!(
        rich_rounds < 6.0 * bound + 10.0,
        "rich {rich_rounds} vs bound {bound}"
    );
}

#[test]
fn corollary11_weak_source_pays_constant_warmup() {
    let n = 2_048;
    let platform = Platform::power_law(n, 1.1, (n as f64).sqrt(), 5);
    let strong = mean_avg_rounds(&platform, true, 15, 500);
    let weak = mean_avg_rounds(&platform, false, 15, 600);
    assert!(weak >= strong - 1.0, "weak start cannot beat strong start");
    assert!(
        weak - strong < 10.0,
        "weak-source warm-up should be O(1) rounds: strong {strong}, weak {weak}"
    );
}
