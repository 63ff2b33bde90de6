//! Figure 2 kernel: rounds to spread a single rumor, per algorithm.
//!
//! The six algorithms are the runtime registry's [`Spreader`]s, in the
//! table's column order ([`COLUMNS`]); their names head the columns. Two
//! engines produce the same figure, both on one Monte-Carlo [`Fleet`]:
//! the legacy centralized samplers in `rendez_gossip` ([`rumor_point`],
//! one algorithm per call, built by [`legacy_sampler`]) and the
//! message-passing runtime behind the `Scenario` builder
//! ([`rumor_row_fleet`], all six algorithms at one `n` as a single sweep),
//! which also supports churned variants. Both report legacy-equivalent
//! rounds, so their columns are directly comparable.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_core::{Platform, UniformSelector};
use rendez_fleet::{Fleet, SweepSpec};
use rendez_gossip::{
    run_spread, DatingSpread, FairPull, FairPushPull, Pull, Push, PushPull, SpreadProtocol,
};
use rendez_runtime::Spreader;
use rendez_sim::NodeId;
use rendez_stats::{RunningStats, Summary};

/// The six Figure 2 algorithms, in the table's column order.
pub const COLUMNS: [Spreader; 6] = [
    Spreader::Push,
    Spreader::Pull,
    Spreader::PushPull,
    Spreader::FairPull,
    Spreader::FairPushPull,
    Spreader::Dating,
];

/// The legacy centralized sampler of a [`COLUMNS`] algorithm, dating
/// over `selector`.
///
/// # Panics
/// Panics if `spreader` is not one of [`COLUMNS`].
pub fn legacy_sampler(
    spreader: Spreader,
    selector: &UniformSelector,
) -> Box<dyn SpreadProtocol + '_> {
    match spreader {
        Spreader::Push => Box::new(Push::new()),
        Spreader::Pull => Box::new(Pull::new()),
        Spreader::PushPull => Box::new(PushPull::new()),
        Spreader::FairPull => Box::new(FairPull::new()),
        Spreader::FairPushPull => Box::new(FairPushPull::new()),
        Spreader::Dating => Box::new(DatingSpread::new(selector)),
        other => panic!("{other} is not a Figure 2 algorithm"),
    }
}

/// Rounds until all `n` nodes are informed: mean ± sd over `trials`
/// independent runs (parallel on `fleet`) of `spreader`'s legacy sampler.
///
/// # Panics
/// Panics if `spreader` is not one of [`COLUMNS`].
pub fn rumor_point(spreader: Spreader, n: usize, trials: u64, seed: u64, fleet: &Fleet) -> Summary {
    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let max_rounds = 200 + 80 * (n as f64).log2().ceil() as u64;
    let rounds = fleet.map(trials as usize, seed, |_, seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = legacy_sampler(spreader, &selector);
        let r = run_spread(&mut *p, &platform, NodeId(0), &mut rng, max_rounds);
        assert!(r.completed, "{spreader} did not complete at n={n}");
        r.rounds as f64
    });
    RunningStats::from_iter(rounds).summary()
}

/// One Figure-2 table row produced by the Monte-Carlo fleet: all six
/// algorithms at one `n`, as a single-`n` [`SweepSpec`] scheduled onto
/// `fleet`'s persistent pool. Returns `(spreader, summary)` in
/// [`COLUMNS`] order, where the summary is over legacy-equivalent
/// rounds, with trials streamed through Welford accumulators instead of
/// materialized.
pub fn rumor_row_fleet(
    fleet: &Fleet,
    n: usize,
    trials: u64,
    seed: u64,
    churn_down: f64,
) -> Vec<(Spreader, Summary)> {
    let spec = SweepSpec::new()
        .ns(vec![n])
        .protocols(COLUMNS.to_vec())
        .churns(vec![churn_down])
        .trials(trials)
        .seed(seed);
    let report = fleet.run(&spec).expect("fig2 sweep must validate");
    COLUMNS
        .into_iter()
        .zip(&report.cells)
        .map(|(spreader, cell)| {
            assert_eq!(cell.cell.protocol, spreader, "cell order");
            assert_eq!(
                cell.completed, trials,
                "{spreader} (fleet) did not complete at n={n}"
            );
            (spreader, cell.value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ordering_holds_at_n_1000() {
        // Figure 2's ordering, fastest → slowest:
        // push-pull, push-fair-pull, pull, fair-pull, push, dating.
        let n = 1000;
        let trials = 60;
        let fleet = Fleet::new(0);
        let means: Vec<(Spreader, f64)> = COLUMNS
            .into_iter()
            .map(|s| (s, rumor_point(s, n, trials, 7, &fleet).mean))
            .collect();
        let get = |s: Spreader| means.iter().find(|&&(x, _)| x == s).expect("present").1;
        assert!(get(Spreader::PushPull) < get(Spreader::FairPushPull));
        assert!(get(Spreader::FairPushPull) < get(Spreader::Pull));
        assert!(get(Spreader::Pull) < get(Spreader::FairPull));
        assert!(get(Spreader::FairPull) < get(Spreader::Push));
        assert!(get(Spreader::Push) < get(Spreader::Dating));
        // §4's headline comparison: "we should actually compare the rumor
        // spreading based on the dating service only with the PUSH and
        // fair PULL methods. It is less than 2 times slower than them" —
        // i.e. than the two bandwidth-honest protocols individually (the
        // combined PUSH + fair PULL uses double bandwidth per round).
        assert!(
            get(Spreader::Dating) < 2.0 * get(Spreader::Push),
            "dating {} vs 2× push {}",
            get(Spreader::Dating),
            2.0 * get(Spreader::Push)
        );
        assert!(
            get(Spreader::Dating) < 2.0 * get(Spreader::FairPull),
            "dating {} vs 2× fair-pull {}",
            get(Spreader::Dating),
            2.0 * get(Spreader::FairPull)
        );
    }

    #[test]
    fn runtime_engine_agrees_with_legacy_means() {
        let n = 500;
        let trials = 40;
        let fleet = Fleet::new(0);
        let row = rumor_row_fleet(&fleet, n, trials, 4, 0.0);
        for (spreader, runtime) in row {
            if !matches!(
                spreader,
                Spreader::PushPull | Spreader::Push | Spreader::FairPull
            ) {
                continue;
            }
            let legacy = rumor_point(spreader, n, trials, 3, &fleet).mean;
            assert!(
                (runtime.mean - legacy).abs() < 0.2 * legacy + 1.5,
                "{spreader}: runtime mean {} vs legacy mean {legacy}",
                runtime.mean
            );
            assert_eq!(runtime.n, trials);
        }
    }

    #[test]
    fn churn_slows_runtime_spreading() {
        let n = 400;
        let trials = 30;
        let fleet = Fleet::new(0);
        let push_pull = |churn_down| {
            let row = rumor_row_fleet(&fleet, n, trials, 9, churn_down);
            row[COLUMNS
                .iter()
                .position(|&s| s == Spreader::PushPull)
                .expect("listed")]
            .1
            .mean
        };
        let clean = push_pull(0.0);
        let churned = push_pull(0.25);
        assert!(
            churned > clean,
            "25% downtime must cost rounds: {clean} vs {churned}"
        );
    }

    #[test]
    fn rounds_grow_logarithmically() {
        let fleet = Fleet::new(0);
        let small = rumor_point(Spreader::Dating, 100, 40, 1, &fleet);
        let large = rumor_point(Spreader::Dating, 10_000, 40, 1, &fleet);
        // log(10⁴)/log(10²) = 2: rounds should roughly double, not 100×.
        let ratio = large.mean / small.mean;
        assert!(
            (1.2..4.0).contains(&ratio),
            "scaling ratio {ratio} not logarithmic"
        );
    }
}
