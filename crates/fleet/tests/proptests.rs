//! Property tests for the fleet's streaming aggregation: the Welford
//! path (push, block merge, CI) must agree with the naive two-pass
//! computation on arbitrary samples, including through the exact block
//! structure the engines fold.

use proptest::prelude::*;
use rendez_fleet::{CellAgg, TrialPoint, TRIALS_PER_JOB};
use rendez_stats::RunningStats;

fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = if xs.len() < 2 {
        0.0
    } else {
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
    };
    (mean, var)
}

fn point(v: f64) -> TrialPoint {
    TrialPoint {
        completed: true,
        value: v,
        rounds: v + 1.0,
        sent: 2.0 * v,
        delivered: 2.0 * v - 1.0,
    }
}

/// Fold a sample through the engines' block structure: chunks of
/// `TRIALS_PER_JOB`, each pushed in trial order, merged in block order.
fn fold_in_blocks(xs: &[f64]) -> CellAgg {
    let mut cell = CellAgg::new();
    for chunk in xs.chunks(TRIALS_PER_JOB as usize) {
        let mut block = CellAgg::new();
        for &v in chunk {
            block.push(&point(v));
        }
        cell.merge(&block);
    }
    cell
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Streamed mean/variance equal the two-pass computation.
    #[test]
    fn welford_push_matches_two_pass(xs in prop::collection::vec(-1e5f64..1e5, 1..120)) {
        let mut agg = CellAgg::new();
        for &v in &xs {
            agg.push(&point(v));
        }
        let (mean, var) = naive_mean_var(&xs);
        prop_assert!((agg.value.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((agg.value.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
        prop_assert_eq!(agg.trials, xs.len() as u64);
        prop_assert_eq!(agg.completed, xs.len() as u64);
    }

    /// The engines' block-merge path agrees with two-pass too — the
    /// property that makes streaming aggregation safe to parallelize.
    #[test]
    fn block_merge_matches_two_pass(xs in prop::collection::vec(-1e4f64..1e4, 1..200)) {
        let agg = fold_in_blocks(&xs);
        let (mean, var) = naive_mean_var(&xs);
        prop_assert_eq!(agg.trials, xs.len() as u64);
        prop_assert!((agg.value.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((agg.value.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(agg.value.min(), min);
        prop_assert_eq!(agg.value.max(), max);
    }

    /// Folding the same sample through the same block structure twice
    /// is bit-identical — the deterministic-merge contract the reorder
    /// buffer relies on.
    #[test]
    fn block_merge_is_reproducible(xs in prop::collection::vec(-1e4f64..1e4, 1..200)) {
        prop_assert_eq!(fold_in_blocks(&xs), fold_in_blocks(&xs));
    }

    /// The 95% CI matches the naive formula mean ± 1.96·sd/√n.
    #[test]
    fn ci95_matches_naive_formula(xs in prop::collection::vec(-1e3f64..1e3, 2..150)) {
        let agg = fold_in_blocks(&xs);
        let summary = agg.value.summary();
        let (lo, hi) = summary.ci95();
        let (mean, var) = naive_mean_var(&xs);
        let half = 1.959_963_985 * (var / xs.len() as f64).sqrt();
        prop_assert!((lo - (mean - half)).abs() <= 1e-6 * (1.0 + half.abs() + mean.abs()));
        prop_assert!((hi - (mean + half)).abs() <= 1e-6 * (1.0 + half.abs() + mean.abs()));
    }

    /// Incomplete trials are counted but never aggregated.
    #[test]
    fn incomplete_trials_stay_out_of_metrics(
        xs in prop::collection::vec((-1e4f64..1e4, any::<bool>()), 1..100),
    ) {
        let mut agg = CellAgg::new();
        for &(v, completed) in &xs {
            agg.push(&TrialPoint { completed, ..point(v) });
        }
        let completed: Vec<f64> =
            xs.iter().filter(|&&(_, c)| c).map(|&(v, _)| v).collect();
        prop_assert_eq!(agg.trials, xs.len() as u64);
        prop_assert_eq!(agg.completed, completed.len() as u64);
        prop_assert_eq!(agg.value.count(), completed.len() as u64);
        let whole = RunningStats::from_iter(completed.iter().copied());
        prop_assert_eq!(agg.value.mean(), whole.mean());
    }
}
