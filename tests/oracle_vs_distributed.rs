//! The two implementations of Algorithm 1 — the fast oracle sampler and
//! the real message-passing protocol (`RuntimeDating` on the round
//! runtime) — must produce identically distributed date counts, and both
//! must respect capacity.

mod support;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_gossip::{verify_dates, DatingService, RoundWorkspace};
use rendezvous::prelude::*;
use rendezvous::runtime::{Conditions, DatingRunSummary, RunReport};
use rendezvous::stats::ks_two_sample;
use support::run_checked;

fn oracle_samples(platform: &Platform, trials: usize, seed: u64) -> Vec<f64> {
    let selector = UniformSelector::new(platform.n());
    let svc = DatingService::new(platform, &selector);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ws = RoundWorkspace::new(platform.n());
    (0..trials)
        .map(|_| svc.run_round_with(&mut ws, &mut rng).date_count() as f64)
        .collect()
}

fn dating(platform: &Platform, cycles: u64) -> RuntimeDating<UniformSelector> {
    RuntimeDating::new(platform.clone(), UniformSelector::new(platform.n()), cycles)
}

fn distributed_run(platform: &Platform, cycles: u64, seed: u64) -> RunReport<DatingRunSummary> {
    let mut proto = dating(platform, cycles);
    let cfg = RunConfig::seeded(seed).max_rounds(proto.total_rounds());
    SequentialExecutor.run(&mut proto, platform.n(), &cfg)
}

fn distributed_samples(platform: &Platform, cycles: u64, seed: u64) -> Vec<f64> {
    let r = distributed_run(platform, cycles, seed).expect_output();
    r.dates_per_cycle.iter().map(|&d| d as f64).collect()
}

#[test]
fn date_count_distributions_match_unit_platform() {
    let platform = Platform::unit(300);
    let a = oracle_samples(&platform, 400, 1);
    let b = distributed_samples(&platform, 400, 2);
    let r = ks_two_sample(&a, &b);
    assert!(
        r.accepts(0.001),
        "oracle vs distributed diverge: D={:.4} p={:.5}",
        r.statistic,
        r.p_value
    );
}

#[test]
fn date_count_distributions_match_heterogeneous_platform() {
    let platform = Platform::power_law(200, 1.0, 3.0, 9);
    let a = oracle_samples(&platform, 400, 3);
    let b = distributed_samples(&platform, 400, 4);
    let r = ks_two_sample(&a, &b);
    assert!(
        r.accepts(0.001),
        "heterogeneous: oracle vs distributed diverge: D={:.4} p={:.5}",
        r.statistic,
        r.p_value
    );
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
