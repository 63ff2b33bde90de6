//! Figure 2 kernel: rounds to spread a single rumor, per algorithm.
//!
//! Two engines produce the same figure, both on one Monte-Carlo
//! [`Fleet`]: the legacy centralized samplers in `rendez_gossip`
//! ([`rumor_point`], one algorithm per call) and the message-passing
//! runtime behind the `Scenario` builder ([`rumor_row_fleet`], all six
//! algorithms at one `n` as a single sweep), which also supports churned
//! variants. Both report legacy-equivalent rounds, so their columns are
//! directly comparable.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_core::{Platform, UniformSelector};
use rendez_fleet::{Fleet, SweepSpec};
use rendez_gossip::{run_spread, DatingSpread, FairPull, FairPushPull, Pull, Push, PushPull};
use rendez_runtime::Spreader;
use rendez_sim::NodeId;
use rendez_stats::{RunningStats, Summary};

/// The six Figure 2 algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Simple PUSH.
    Push,
    /// Simple (unfair) PULL.
    Pull,
    /// Simple PUSH&PULL.
    PushPull,
    /// Fair PULL (one answer per informed node per round).
    FairPull,
    /// PUSH + fair PULL — the paper's fair yardstick.
    FairPushPull,
    /// The dating service with the uniform selector.
    Dating,
}

impl Algo {
    /// All algorithms, in the paper's legend order.
    pub const ALL: [Algo; 6] = [
        Algo::Push,
        Algo::Pull,
        Algo::PushPull,
        Algo::FairPull,
        Algo::FairPushPull,
        Algo::Dating,
    ];

    /// Table column label.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Push => "push",
            Algo::Pull => "pull",
            Algo::PushPull => "push-pull",
            Algo::FairPull => "fair-pull",
            Algo::FairPushPull => "push-fair-pull",
            Algo::Dating => "dating",
        }
    }

    /// The runtime registry workload that reproduces this algorithm.
    pub fn spreader(&self) -> Spreader {
        match self {
            Algo::Push => Spreader::Push,
            Algo::Pull => Spreader::Pull,
            Algo::PushPull => Spreader::PushPull,
            Algo::FairPull => Spreader::FairPull,
            Algo::FairPushPull => Spreader::FairPushPull,
            Algo::Dating => Spreader::Dating,
        }
    }
}

/// Rounds until all `n` nodes are informed: mean ± sd over `trials`
/// independent runs (parallel on `fleet`).
pub fn rumor_point(algo: Algo, n: usize, trials: u64, seed: u64, fleet: &Fleet) -> Summary {
    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let max_rounds = 200 + 80 * (n as f64).log2().ceil() as u64;
    let rounds = fleet.map(trials as usize, seed, |_, seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let source = NodeId(0);
        let r = match algo {
            Algo::Push => run_spread(&mut Push::new(), &platform, source, &mut rng, max_rounds),
            Algo::Pull => run_spread(&mut Pull::new(), &platform, source, &mut rng, max_rounds),
            Algo::PushPull => run_spread(
                &mut PushPull::new(),
                &platform,
                source,
                &mut rng,
                max_rounds,
            ),
            Algo::FairPull => run_spread(
                &mut FairPull::new(n),
                &platform,
                source,
                &mut rng,
                max_rounds,
            ),
            Algo::FairPushPull => run_spread(
                &mut FairPushPull::new(n),
                &platform,
                source,
                &mut rng,
                max_rounds,
            ),
            Algo::Dating => {
                let mut p = DatingSpread::new(&selector);
                run_spread(&mut p, &platform, source, &mut rng, max_rounds)
            }
        };
        assert!(r.completed, "{} did not complete at n={n}", algo.name());
        r.rounds as f64
    });
    RunningStats::from_iter(rounds).summary()
}

/// One Figure-2 table row produced by the Monte-Carlo fleet: all six
/// algorithms at one `n`, as a single-`n` [`SweepSpec`] scheduled onto
/// `fleet`'s persistent pool. Returns `(algo, summary)` in
/// [`Algo::ALL`] order, where the summary is over legacy-equivalent
/// rounds, with trials streamed through Welford accumulators instead of
/// materialized.
pub fn rumor_row_fleet(
    fleet: &Fleet,
    n: usize,
    trials: u64,
    seed: u64,
    churn_down: f64,
) -> Vec<(Algo, Summary)> {
    let spec = SweepSpec::new()
        .ns(vec![n])
        .protocols(Algo::ALL.iter().map(|a| a.spreader()).collect())
        .churns(vec![churn_down])
        .trials(trials)
        .seed(seed);
    let report = fleet.run(&spec).expect("fig2 sweep must validate");
    Algo::ALL
        .iter()
        .zip(&report.cells)
        .map(|(&algo, cell)| {
            assert_eq!(cell.cell.protocol, algo.spreader(), "cell order");
            assert_eq!(
                cell.completed,
                trials,
                "{} (fleet) did not complete at n={n}",
                algo.name()
            );
            let m = cell.value;
            (
                algo,
                Summary {
                    n: m.n,
                    mean: m.mean,
                    std_dev: m.sd,
                    sem: m.sem,
                    min: m.min,
                    max: m.max,
                },
            )
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
        let means: Vec<(Algo, f64)> = Algo::ALL
            .iter()
            .map(|&a| (a, rumor_point(a, n, trials, 7, &fleet).mean))
            .collect();
        let get = |a: Algo| means.iter().find(|&&(x, _)| x == a).expect("present").1;
        assert!(get(Algo::PushPull) < get(Algo::FairPushPull));
        assert!(get(Algo::FairPushPull) < get(Algo::Pull));
        assert!(get(Algo::Pull) < get(Algo::FairPull));
        assert!(get(Algo::FairPull) < get(Algo::Push));
        assert!(get(Algo::Push) < get(Algo::Dating));
        // §4's headline comparison: "we should actually compare the rumor
        // spreading based on the dating service only with the PUSH and
        // fair PULL methods. It is less than 2 times slower than them" —
        // i.e. than the two bandwidth-honest protocols individually (the
        // combined PUSH + fair PULL uses double bandwidth per round).
        assert!(
            get(Algo::Dating) < 2.0 * get(Algo::Push),
            "dating {} vs 2× push {}",
            get(Algo::Dating),
            2.0 * get(Algo::Push)
        );
        assert!(
            get(Algo::Dating) < 2.0 * get(Algo::FairPull),
            "dating {} vs 2× fair-pull {}",
            get(Algo::Dating),
            2.0 * get(Algo::FairPull)
        );
    }

    #[test]
    fn runtime_engine_agrees_with_legacy_means() {
        let n = 500;
        let trials = 40;
        let fleet = Fleet::new(0);
        let row = rumor_row_fleet(&fleet, n, trials, 4, 0.0);
        for (algo, runtime) in row {
            if !matches!(algo, Algo::PushPull | Algo::Push | Algo::FairPull) {
                continue;
            }
            let legacy = rumor_point(algo, n, trials, 3, &fleet).mean;
            assert!(
                (runtime.mean - legacy).abs() < 0.2 * legacy + 1.5,
                "{}: runtime mean {} vs legacy mean {legacy}",
                algo.name(),
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
            row[Algo::ALL
                .iter()
                .position(|&a| a == Algo::PushPull)
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
        let small = rumor_point(Algo::Dating, 100, 40, 1, &fleet);
        let large = rumor_point(Algo::Dating, 10_000, 40, 1, &fleet);
        // log(10⁴)/log(10²) = 2: rounds should roughly double, not 100×.
        let ratio = large.mean / small.mean;
        assert!(
            (1.2..4.0).contains(&ratio),
            "scaling ratio {ratio} not logarithmic"
        );
    }
}
