//! Figure 1 kernels: fraction of dates arranged per round.
//!
//! Paper workload: `n` nodes, `bin = bout = 1` (so `m = n` and `n`
//! requests of each type per round); the metric is `#dates / n` averaged
//! over many rounds. Two selector families: uniform, and 200 random DHTs
//! of which the paper reports the worst and best.

use rand::SeedableRng;
use rendez_core::{NodeSelector, Platform, UniformSelector};
use rendez_dht::DhtSelector;
use rendez_fleet::Fleet;
use rendez_gossip::{CountWorkspace, DatingService};
use rendez_sim::derive_seed;
use rendez_stats::{RunningStats, Summary};

/// Mean date fraction over `rounds` independent rounds with the uniform
/// selector (parallel across rounds on `fleet` — they are i.i.d.).
pub fn uniform_point(n: usize, rounds: u64, seed: u64, fleet: &Fleet) -> Summary {
    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let fracs = fleet.map(rounds as usize, seed, |_, seed| {
        let svc = DatingService::new(&platform, &selector);
        let mut ws = CountWorkspace::new(n);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        svc.count_dates(&mut ws, &mut rng) as f64 / n as f64
    });
    RunningStats::from_iter(fracs).summary()
}

/// One DHT's mean date fraction over `rounds` rounds (sequential; the
/// sweep parallelizes across DHTs).
pub fn dht_point(n: usize, ring_seed: u64, rounds: u64, round_seed: u64) -> Summary {
    let platform = Platform::unit(n);
    let selector = DhtSelector::random(n, ring_seed);
    let svc = DatingService::new(&platform, &selector);
    let mut ws = CountWorkspace::new(n);
    let mut stats = RunningStats::new();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(round_seed);
    for _ in 0..rounds {
        stats.push(svc.count_dates(&mut ws, &mut rng) as f64 / n as f64);
    }
    stats.summary()
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
        let s = dht_point(n, ring_seed, rounds, derive_seed(seed, 0x70F));
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
        let s = uniform_point(1000, 300, 1, &Fleet::new(0));
        let predicted = analysis::expected_dates_uniform(1000, 1000, 1000) / 1000.0;
        assert!(
            (s.mean - predicted).abs() < 0.01,
            "measured {} vs predicted {predicted}",
            s.mean
        );
        assert!(s.std_dev < 0.05);
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

    #[test]
    fn deterministic_given_seed() {
        let a = uniform_point(100, 50, 9, &Fleet::new(2));
        let b = uniform_point(100, 50, 9, &Fleet::new(4));
        assert_eq!(a.mean, b.mean, "pool size must not matter");
    }
}
