//! The two implementations of Algorithm 1 — the fast oracle sampler and
//! the real message-passing protocol (`RuntimeDating` on the round
//! runtime) — both respect capacity, on every executor, channel and
//! churn model, and the runtime's transport loses no date.
//!
//! That the runtime's date counts have the right distribution is
//! `lemma1_exact.rs`'s job: each of its rows holds the mean to Lemma 1's
//! exact expectation and the tail to Lemma 2's bound.

mod support;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_gossip::{verify_dates, DatingService};
use rendezvous::prelude::*;
use rendezvous::runtime::{Conditions, DatingRunSummary, RunReport};
use support::run_checked;

fn dating(platform: &Platform, cycles: u64) -> RuntimeDating<UniformSelector> {
    RuntimeDating::new(platform.clone(), UniformSelector::new(platform.n()), cycles)
}

fn distributed_run(platform: &Platform, cycles: u64, seed: u64) -> RunReport<DatingRunSummary> {
    let mut proto = dating(platform, cycles);
    let cfg = RunConfig::seeded(seed).max_rounds(proto.total_rounds());
    SequentialExecutor.run(&mut proto, platform.n(), &cfg)
}

#[test]
fn both_forms_respect_capacity() {
    let platform = Platform::power_law(150, 1.2, 4.0, 5);
    let selector = UniformSelector::new(platform.n());

    let svc = DatingService::new(&platform, &selector);
    let mut rng = SmallRng::seed_from_u64(6);
    for _ in 0..50 {
        let out = svc.run_round(&mut rng);
        verify_dates(&platform, &out.dates).expect("oracle violated capacity");
    }

    let proto = dating(&platform, 50);
    let cfg = RunConfig::seeded(7).max_rounds(proto.total_rounds());
    let (report, seen) = run_checked(&SequentialExecutor, proto, &platform, &cfg);
    // Lossless: each date is announced to both ends, and both were checked.
    assert_eq!(seen, 2 * report.expect_output().total_dates());
}

#[test]
fn capacity_respected_every_cycle() {
    let platform = Platform::power_law(120, 1.0, 3.0, 5);
    let cycles = 6;
    let base = RunConfig::seeded(4).max_rounds(3 * cycles + 1);
    for (what, cfg) in [
        ("ideal", base),
        ("loss 0.1", base.conditions(Conditions::with_loss(0.1))),
        ("intermittent 0.05", base.churn(Churn::intermittent(0.05))),
        ("crash-stop 0.15", base.churn(Churn::crash_stop(0.15, 20))),
    ] {
        let (seq, seen) = run_checked(
            &SequentialExecutor,
            dating(&platform, cycles),
            &platform,
            &cfg,
        );
        assert!(seq.completed && seen > 0, "{what}");
        let sharded = ShardedExecutor::new(3);
        let (sh, sh_seen) = run_checked(&sharded, dating(&platform, cycles), &platform, &cfg);
        assert_eq!(seen, sh_seen, "{what}");
        assert_eq!(seq.digests, sh.digests, "{what}");
        assert_eq!(seq.output, sh.output, "{what}");
        assert_eq!(seq.stats, sh.stats, "{what}");
    }
}

#[test]
fn distributed_transport_is_lossless() {
    // Every arranged date's payload must arrive, every request answered.
    let n = 250u64;
    let cycles = 20u64;
    let r = distributed_run(&Platform::unit(n as usize), cycles, 8).expect_output();
    assert_eq!(r.payloads_received, r.total_dates());
    assert_eq!(r.answers_received, 2 * n * cycles);
}
