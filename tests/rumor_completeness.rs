//! Theorem 4 end-to-end: dating-service rumor spreading informs everyone
//! in O(log n) rounds, with the three-phase structure the proof uses.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_gossip::{phase_breakdown, run_spread, DatingSpread};
use rendezvous::prelude::*;

#[test]
fn completes_in_logarithmic_rounds_across_sizes() {
    for &n in &[64usize, 256, 1024, 4096] {
        let platform = Platform::unit(n);
        let selector = UniformSelector::new(n);
        let log2n = (n as f64).log2();
        let trials = 20;
        let mut total = 0u64;
        for t in 0..trials {
            let mut rng = SmallRng::seed_from_u64(n as u64 * 100 + t);
            let mut p = DatingSpread::new(&selector);
            let r = run_spread(&mut p, &platform, NodeId(0), &mut rng, 100_000);
            assert!(r.completed, "n={n} trial {t} did not complete");
            // Generous per-run w.h.p. cap.
            assert!(
                (r.rounds as f64) < 15.0 * log2n + 40.0,
                "n={n}: {} rounds breaks the O(log n) cap",
                r.rounds
            );
            total += r.rounds;
        }
        let mean = total as f64 / trials as f64;
        assert!(
            mean < 6.0 * log2n + 15.0,
            "n={n}: mean {mean} rounds is not O(log n)-like"
        );
    }
}

#[test]
fn informed_set_grows_monotonically_and_fully() {
    let n = 2048;
    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut p = DatingSpread::new(&selector);
    let r = run_spread(&mut p, &platform, NodeId(7), &mut rng, 100_000);
    assert!(r.completed);
    assert_eq!(r.informed_history[0], 1);
    assert_eq!(*r.informed_history.last().unwrap(), n as u64);
    for w in r.informed_history.windows(2) {
        assert!(w[1] >= w[0], "informed set shrank");
    }
}

#[test]
fn all_three_phases_are_logarithmic() {
    let n = 4096;
    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let log2n = (n as f64).log2();
    for seed in 0..10u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = DatingSpread::new(&selector);
        let r = run_spread(&mut p, &platform, NodeId(0), &mut rng, 100_000);
        let phases = phase_breakdown(&r.it_history, platform.m(), n);
        assert_eq!(phases.total(), r.rounds);
        for (name, rounds) in [
            ("phase1", phases.phase1),
            ("phase2", phases.phase2),
            ("phase3", phases.phase3),
        ] {
            assert!(
                (rounds as f64) < 10.0 * log2n + 30.0,
                "{name} took {rounds} rounds at n={n}"
            );
        }
    }
}

#[test]
fn spreads_from_any_source() {
    let n = 512;
    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    for source in [0u32, 1, 255, 511] {
        let mut rng = SmallRng::seed_from_u64(source as u64);
        let mut p = DatingSpread::new(&selector);
        let r = run_spread(&mut p, &platform, NodeId(source), &mut rng, 100_000);
        assert!(r.completed, "source {source} failed");
    }
}

#[test]
fn works_on_heterogeneous_c_bounded_platforms() {
    // The paper's model allows bin ≠ bout up to factor C; spreading must
    // still complete.
    let caps: Vec<NodeCaps> = (0..400)
        .map(|i| match i % 3 {
            0 => NodeCaps {
                bw_in: 2,
                bw_out: 1,
            },
            1 => NodeCaps {
                bw_in: 1,
                bw_out: 2,
            },
            _ => NodeCaps {
                bw_in: 1,
                bw_out: 1,
            },
        })
        .collect();
    let platform = Platform::new(caps);
    assert!(platform.respects_ratio(2.0));
    let selector = UniformSelector::new(400);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut p = DatingSpread::new(&selector);
    let r = run_spread(&mut p, &platform, NodeId(0), &mut rng, 100_000);
    assert!(r.completed);
    assert!(r.rounds < 200);
}
