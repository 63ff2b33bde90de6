//! Heterogeneous broadcast: Theorem 10 in action.
//!
//! A power-law platform with average bandwidth √n (`m = n^1.5`) spreads a
//! rumor from its best-provisioned node. The well-provisioned "average
//! nodes" are informed in `O(log n / log(m/n)) ≈ 2` rounds — far below
//! the `Θ(log n)` of homogeneous gossip — which is the paper's
//! "hierarchical content distribution" enabler. A unit platform runs side
//! by side for contrast.
//!
//! Run: `cargo run --release --example heterogeneous_broadcast`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_gossip::hetero::{run_hetero_trial, strongest_node, theorem10_prediction};
use rendez_gossip::{phase_breakdown, run_spread, DatingSpread};
use rendezvous::prelude::*;

fn main() {
    let n = 4_096;
    let avg = (n as f64).sqrt();
    let rich = Platform::power_law(n, 1.1, avg, 7);
    let unit = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let mut rng = SmallRng::seed_from_u64(10);

    println!(
        "rich platform: n={n}, m={} (m/n = {:.1}), strongest node bout = {}",
        rich.m(),
        rich.m() as f64 / n as f64,
        rich.bw_out(strongest_node(&rich))
    );
    println!(
        "Theorem 10 bound shape: log n / log(m/n) = {:.1} rounds\n",
        theorem10_prediction(n, rich.m() as f64 / n as f64)
    );

    let trials = 10;
    let (mut avg_rounds, mut all_rounds) = (0u64, 0u64);
    for _ in 0..trials {
        let out = run_hetero_trial(&rich, &selector, strongest_node(&rich), &mut rng, 100_000);
        avg_rounds += out.rounds_avg_nodes;
        all_rounds += out.rounds_all;
    }
    println!(
        "rich platform:  average-bandwidth nodes informed in {:.1} rounds (all nodes: {:.1})",
        avg_rounds as f64 / trials as f64,
        all_rounds as f64 / trials as f64
    );

    let mut unit_rounds = 0u64;
    for _ in 0..trials {
        let mut p = DatingSpread::new(&selector);
        let r = run_spread(&mut p, &unit, NodeId(0), &mut rng, 100_000);
        unit_rounds += r.rounds;
    }
    println!(
        "unit platform:  all nodes informed in {:.1} rounds (the Θ(log n) regime)\n",
        unit_rounds as f64 / trials as f64
    );

    // Show the Theorem 4 phase decomposition of one rich-platform run.
    let mut p = DatingSpread::new(&selector);
    let r = run_spread(&mut p, &rich, strongest_node(&rich), &mut rng, 100_000);
    let phases = phase_breakdown(&r.it_history, rich.m(), n);
    println!(
        "phase decomposition of one run (Theorem 4): phase1={} phase2={} phase3={} rounds",
        phases.phase1, phases.phase2, phases.phase3
    );
}
