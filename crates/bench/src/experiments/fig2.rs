//! Figure 2 kernel: rounds to spread a single rumor, per algorithm.
//!
//! The six algorithms are the runtime registry's [`Spreader`]s, in the
//! table's column order ([`COLUMNS`]); their names head the columns. A
//! table row is one single-`n` `SweepSpec` over all six on the
//! message-passing runtime ([`rumor_row_fleet`]), scheduled on one
//! Monte-Carlo [`Fleet`], with optional churn. It reports
//! legacy-equivalent rounds (one cycle per round of the paper's model);
//! `tests/scenario_api.rs` KS-pins every column's distribution to its
//! twin in the centralised oracle.

use rendez_fleet::{Fleet, SweepSpec};
use rendez_runtime::Spreader;
use rendez_stats::Summary;

/// The six Figure 2 algorithms, in the table's column order.
pub const COLUMNS: [Spreader; 6] = [
    Spreader::Push,
    Spreader::Pull,
    Spreader::PushPull,
    Spreader::FairPull,
    Spreader::FairPushPull,
    Spreader::Dating,
];

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
        // Fair pull and push are within a standard error of each other
        // at this n; `fair_pull_beats_push_at_n_30000` orders them.
        let row = rumor_row_fleet(&Fleet::new(0), 1000, 60, 7, 0.0);
        let get = |s: Spreader| row.iter().find(|&&(x, _)| x == s).expect("present").1.mean;
        assert!(get(Spreader::PushPull) < get(Spreader::FairPushPull));
        assert!(get(Spreader::FairPushPull) < get(Spreader::Pull));
        assert!(get(Spreader::Pull) < get(Spreader::FairPull));
        assert!(get(Spreader::FairPull) < get(Spreader::Dating));
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

    /// Figure 2 puts fair pull ahead of push. At n = 1000 the two means
    /// are a quarter of a standard error apart; at n = 3·10⁴ seeds 0..8
    /// put them 1.9–5.9 standard errors apart (3.9 on average), so this
    /// is where the order is checked.
    #[test]
    #[ignore = "n = 3·10⁴; run it in release"]
    fn fair_pull_beats_push_at_n_30000() {
        let spec = SweepSpec::new()
            .ns(vec![30_000])
            .protocols(vec![Spreader::Push, Spreader::FairPull])
            .trials(60)
            .seed(7);
        let report = Fleet::new(0).run(&spec).expect("valid sweep");
        let [push, fair_pull] = [0, 1].map(|i| report.cells[i].value);
        let z = (push.mean - fair_pull.mean) / push.sem.hypot(fair_pull.sem);
        println!("push {push:?}\nfair-pull {fair_pull:?}\nz = {z:.2}");
        assert!(
            fair_pull.mean < push.mean,
            "fair-pull {fair_pull:?} vs push {push:?}: z = {z:.2}"
        );
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
        let spec = SweepSpec::new()
            .ns(vec![100, 10_000])
            .protocols(vec![Spreader::Dating])
            .trials(6)
            .seed(1);
        let report = Fleet::new(0).run(&spec).expect("valid sweep");
        let [small, large] = [0, 1].map(|i| report.cells[i].value.mean);
        // log(10⁴)/log(10²) = 2: rounds should roughly double, not 100×.
        let ratio = large / small;
        assert!(
            (1.2..4.0).contains(&ratio),
            "scaling ratio {ratio} not logarithmic"
        );
    }
}
