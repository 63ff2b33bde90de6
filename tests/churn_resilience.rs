//! Churn resilience: the dating service is stateless across rounds, so
//! failed matchmakers only cost their in-flight requests — the property
//! that §1 motivates ("dynamics of the networks, also node failures").
//! Every run here is `RuntimeDating` under runtime churn, wrapped in the
//! `DateCapacity` checks: no node dates beyond its bandwidth in a cycle,
//! and no date has a matchmaker that was down in its matchmaking round.

mod support;

use rendezvous::prelude::*;
use rendezvous::runtime::DatingRunSummary;
use support::run_checked;

/// A checked sequential run of `cycles` cycles; returns the summary and
/// the number of dates the checks saw.
fn run_with_churn(
    platform: &Platform,
    cycles: u64,
    churn: Churn,
    seed: u64,
) -> (DatingRunSummary, u64) {
    let proto = RuntimeDating::new(platform.clone(), UniformSelector::new(platform.n()), cycles);
    let cfg = RunConfig::seeded(seed)
        .churn(churn)
        .max_rounds(proto.total_rounds());
    let (report, seen) = run_checked(&SequentialExecutor, proto, platform, &cfg);
    (report.expect_output(), seen)
}

#[test]
fn dating_continues_through_crashes() {
    let n = 200;
    let cycles = 12u64;
    // A tenth of the nodes crash over the first 20 rounds.
    let churn = Churn::crash_stop(0.1, 20);
    let (r, _) = run_with_churn(&Platform::unit(n), cycles, churn, 1);
    assert_eq!(r.dates_per_cycle.len() as u64, cycles);
    let live = |round| NodeId::all(n).filter(|&v| churn.alive(1, v, round)).count();
    assert!(live(3 * cycles) < n, "the churn must crash someone");
    for (c, &d) in r.dates_per_cycle.iter().enumerate() {
        let up = live(3 * c as u64 + 1);
        assert!(
            d as f64 > 0.064 * up as f64,
            "cycle {c}: only {d} dates among {up} live nodes"
        );
    }
}

#[test]
fn recovery_restores_full_throughput() {
    // Intermittent churn: every node is down a fifth of the rounds and
    // comes back, so throughput settles in a band below the churn-free
    // mean instead of decaying. A matchmaker is up 4/5 of the time and
    // then hears Poisson(0.8) offers and requests: E[min] ≈ 0.342 per
    // node against 0.476 without churn, a ratio of 0.8 · 0.342 / 0.476
    // ≈ 0.575. Measured: 0.566 (n = 150, 40 cycles, seed 2).
    let platform = Platform::unit(150);
    let (free, _) = run_with_churn(&platform, 40, Churn::none(), 2);
    let (churned, _) = run_with_churn(&platform, 40, Churn::intermittent(0.2), 2);
    // Equal cycle counts: the ratio of totals is the ratio of means.
    let ratio = churned.total_dates() as f64 / free.total_dates() as f64;
    assert!(
        (0.50..0.65).contains(&ratio),
        "churned / churn-free mean dates = {ratio}"
    );
}

#[test]
fn capacity_holds_under_churn() {
    let platform = Platform::power_law(100, 1.0, 3.0, 3);
    let churn = Churn::crash_stop(0.15, 20).protect(NodeId(0));
    let (r, seen) = run_with_churn(&platform, 8, churn, 4);
    assert!(seen > 0 && r.total_dates() > 0);
    assert!(churn.alive(4, NodeId(0), 3 * 8));
}
