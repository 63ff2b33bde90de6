//! Figure 1 kernels: fraction of dates arranged per round.
//!
//! Paper workload: `n` nodes, `bin = bout = 1` (so `m = n` and `n`
//! requests of each type per round); the metric is `#dates / n` averaged
//! over many rounds. Two selector families: uniform, and 200 random DHTs
//! of which the paper reports the worst and best.
//!
//! Each point is one `Scenario` run of the dating service
//! (`RuntimeDating`) for `rounds` cycles: its cycles are independent
//! rounds of Algorithm 1, so `dates_per_cycle` is the point's sample.

use rendez_core::{NodeSelector, UniformSelector};
use rendez_dht::DhtSelector;
use rendez_fleet::Fleet;
use rendez_runtime::Scenario;
use rendez_sim::derive_seed;
use rendez_stats::{RunningStats, Summary};

/// Mean date fraction `dates / n` over one `rounds`-cycle run of the
/// dating service with `selector` on the unit platform.
fn date_fraction<S: NodeSelector + Clone>(selector: S, rounds: u64, seed: u64) -> Summary {
    let n = selector.n();
    let report = Scenario::new(n)
        .selector(selector)
        .cycles(rounds)
        .run(seed)
        .expect("a Figure 1 scenario validates");
    let out = report.expect_output();
    let dating = out.dating().expect("the dating-service workload");
    let fracs = dating.dates_per_cycle.iter().map(|&d| d as f64 / n as f64);
    RunningStats::from_iter(fracs).summary()
}

/// Mean date fraction over `rounds` rounds with the uniform selector.
pub fn uniform_point(n: usize, rounds: u64, seed: u64) -> Summary {
    date_fraction(UniformSelector::new(n), rounds, seed)
}

/// The paper's DHT experiment: generate `n_dhts` random rings, measure
/// each over `rounds` rounds, report the worst and best by mean fraction,
/// together with the Poisson-approximation predictions for those rings.
#[derive(Debug, Clone)]
pub struct DhtSweep {
    /// Summary of the worst (lowest-mean) DHT.
    pub worst: Summary,
    /// Summary of the best DHT.
    pub best: Summary,
    /// Analytic prediction (`Σ E[min(Po, Po)] / m`) for the worst ring.
    pub worst_predicted: f64,
    /// Analytic prediction for the best ring.
    pub best_predicted: f64,
}

/// Run the DHT sweep (parallel across DHTs on `fleet`).
pub fn dht_sweep(n: usize, n_dhts: usize, rounds: u64, seed: u64, fleet: &Fleet) -> DhtSweep {
    assert!(n_dhts >= 1, "need at least one DHT");
    let results = fleet.map(n_dhts, seed, |_, seed| {
        let ring_seed = derive_seed(seed, 0xD47);
        let selector = DhtSelector::random(n, ring_seed);
        let s = date_fraction(selector, rounds, derive_seed(seed, 0x70F));
        (ring_seed, s)
    });
    let cmp = |a: &&(u64, Summary), b: &&(u64, Summary)| {
        a.1.mean
            .partial_cmp(&b.1.mean)
            .expect("fractions are finite")
    };
    let worst = *results.iter().min_by(cmp).expect("non-empty");
    let best = *results.iter().max_by(cmp).expect("non-empty");
    let predict = |ring_seed: u64| {
        let sel = DhtSelector::random(n, ring_seed);
        rendez_core::analysis::expected_dates_weighted(&sel.weights(), n as u64, n as u64)
            / n as f64
    };
    DhtSweep {
        worst: worst.1,
        best: best.1,
        worst_predicted: predict(worst.0),
        best_predicted: predict(best.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendez_core::analysis;

    #[test]
    fn uniform_point_tracks_prediction() {
        let s = uniform_point(1000, 300, 1);
        let predicted = analysis::expected_dates_uniform(1000, 1000, 1000) / 1000.0;
        assert!(
            (s.mean - predicted).abs() < 0.01,
            "measured {} vs predicted {predicted}",
            s.mean
        );
        assert!(s.std_dev < 0.05);
        assert_eq!(s.n, 300, "one sample per cycle");
    }

    #[test]
    fn dht_sweep_orders_and_beats_uniform() {
        let sweep = dht_sweep(200, 12, 150, 2, &Fleet::new(0));
        assert!(sweep.worst.mean <= sweep.best.mean);
        // §4: even the worst DHT beats the uniform limit.
        assert!(
            sweep.worst.mean > analysis::uniform_ratio_limit(),
            "worst DHT {} should beat uniform {}",
            sweep.worst.mean,
            analysis::uniform_ratio_limit()
        );
        // Predictions should be close to measurements.
        assert!((sweep.worst.mean - sweep.worst_predicted).abs() < 0.03);
        assert!((sweep.best.mean - sweep.best_predicted).abs() < 0.03);
    }
}
