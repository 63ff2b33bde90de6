//! DHT-backed dating (§4): non-uniform selection still works — better,
//! even.
//!
//! Nodes sit at random ring positions; requests target the owner of a
//! uniform random key, so selection probabilities are the (skewed) arc
//! lengths. The dating service still arranges ≥ the uniform fraction of
//! dates (§2's conjecture says *more*), rumors still spread in O(log n)
//! rounds, and Chord-style routing pays the Θ(log n) hops that motivate
//! the paper's pipelining remark.
//!
//! Run: `cargo run --release --example dht_rumor`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_gossip::{run_spread, DatingService, RoundWorkspace};
use rendezvous::core::analysis;
use rendezvous::core::pipeline;
use rendezvous::dht::{analysis::ArcStats, ChordNet, DhtSelector, Ring};
use rendezvous::prelude::*;

fn main() {
    let n = 2_000;
    let ring = Ring::random(n, 0xD47);
    let arcs = ArcStats::of(&ring);
    println!(
        "ring of {n} nodes: arc fractions min={:.2e} mean={:.2e} max={:.2e} (max/mean = {:.1} ≈ ln n = {:.1})",
        arcs.min,
        arcs.mean,
        arcs.max,
        arcs.max_over_mean,
        (n as f64).ln()
    );

    let selector = DhtSelector::new(ring.clone());
    let platform = Platform::unit(n);
    let service = DatingService::new(&platform, &selector);
    let mut rng = SmallRng::seed_from_u64(4);

    // Date fraction: measured vs the per-ring analytic prediction.
    let predicted =
        analysis::expected_dates_weighted(&selector.weights(), n as u64, n as u64) / n as f64;
    let mut ws = RoundWorkspace::new(n);
    let rounds = 200;
    let mut total = 0usize;
    for _ in 0..rounds {
        total += service.run_round_with(&mut ws, &mut rng).date_count();
    }
    let measured = total as f64 / (rounds * n) as f64;
    println!(
        "date fraction: measured {measured:.4}, predicted {predicted:.4}, uniform limit {:.4}",
        analysis::uniform_ratio_limit()
    );

    // Rumor spreading over DHT-selected dates.
    let mut p = rendez_gossip::DatingSpread::new(&selector);
    let r = run_spread(&mut p, &platform, NodeId(0), &mut rng, 10_000);
    println!("rumor informed all {n} nodes in {} rounds", r.rounds);

    // Routing cost and the pipelining fix (§4).
    let chord = ChordNet::build(ring);
    let (mean_hops, max_hops) = chord.lookup_hops(2_000, 11);
    let hops = mean_hops.round() as u64;
    let k = 100;
    println!(
        "chord lookups: mean {mean_hops:.1} hops (max {max_hops}); k={k} dating rounds: \
         sequential {} steps, pipelined {} steps ({:.1}x)",
        pipeline::sequential_makespan(k, hops),
        pipeline::pipelined_makespan(k, hops),
        pipeline::pipeline_speedup(k, hops)
    );
}
