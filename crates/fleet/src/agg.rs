//! Streaming per-cell aggregation: Welford accumulators per metric,
//! folded through fixed blocks in a deterministic order.
//!
//! The fleet never materializes per-trial vectors. Its block folder
//! takes trial points in canonical trial order, pushes each into a
//! block [`CellAgg`] and merges the block into its cell every
//! [`TRIALS_PER_JOB`] trials (and at a cell's short last block).
//! Because floating-point Welford merges are order-dependent, that fixed
//! block structure and order — not the thread schedule — is what makes
//! a cell's aggregate bit-identical across pool sizes and identical to
//! the serial engine, which feeds the very same folder the very same
//! sequence.
//!
//! lint: deterministic

use rendez_runtime::{ScenarioReport, WorkloadOutput};
use rendez_stats::RunningStats;

/// Trials per aggregation block: a cell's trials are pushed into a
/// fresh [`CellAgg`] this many at a time, and each block is merged into
/// the cell in block order. It fixes the Welford `push`/`merge`
/// sequence — and so the report bits, which `"trials_per_job"` in the
/// report JSON records — and has nothing to do with scheduling: the
/// fleet hands out single trials.
pub const TRIALS_PER_JOB: u64 = 16;

/// One trial reduced to the numbers the sweep aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialPoint {
    /// Whether the protocol halted by itself within the round cap.
    pub completed: bool,
    /// The workload's headline figure: legacy-equivalent spreading
    /// rounds for rumor workloads, total dates for the dating service,
    /// simulated seconds to completion for continuous-time cells.
    /// Meaningless when `completed` is false.
    pub value: f64,
    /// Engine rounds executed.
    pub rounds: f64,
    /// Messages sent.
    pub sent: f64,
    /// Messages delivered.
    pub delivered: f64,
}

impl TrialPoint {
    /// Reduce one run report to a trial point.
    pub fn from_report(report: &ScenarioReport) -> Self {
        let value = match &report.output {
            Some(WorkloadOutput::Spread(s)) => s.cycles as f64,
            Some(WorkloadOutput::Dating(d)) => d.total_dates() as f64,
            Some(WorkloadOutput::AsyncSpread(s)) => s.seconds(),
            None => 0.0,
        };
        Self {
            completed: report.completed,
            value,
            rounds: report.rounds as f64,
            sent: report.stats.sent as f64,
            delivered: report.stats.delivered as f64,
        }
    }
}

/// Streaming aggregate of one cell (or one block of its trials):
/// a Welford accumulator per metric plus completion accounting.
///
/// Only completed trials enter the metric accumulators — a trial that
/// hits the round cap has no meaningful headline value — but every
/// trial is counted in `trials`, so incompleteness is visible in the
/// report as `completed < trials`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellAgg {
    /// Trials folded in (completed or not).
    pub trials: u64,
    /// Trials whose protocol halted by itself.
    pub completed: u64,
    /// Headline figure (spreading rounds / total dates).
    pub value: RunningStats,
    /// Engine rounds.
    pub rounds: RunningStats,
    /// Messages sent.
    pub sent: RunningStats,
    /// Messages delivered.
    pub delivered: RunningStats,
}

impl CellAgg {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one trial in (Welford push per metric).
    pub fn push(&mut self, p: &TrialPoint) {
        self.trials += 1;
        if !p.completed {
            return;
        }
        self.completed += 1;
        self.value.push(p.value);
        self.rounds.push(p.rounds);
        self.sent.push(p.sent);
        self.delivered.push(p.delivered);
    }

    /// Fold a later block's aggregate in (Chan et al. merge per
    /// metric). Merging blocks in block order reproduces, bit for bit,
    /// pushing all their trials through one accumulator in trial order
    /// **of the same block structure** — which is exactly what the
    /// serial engine does.
    pub fn merge(&mut self, other: &CellAgg) {
        self.trials += other.trials;
        self.completed += other.completed;
        self.value.merge(&other.value);
        self.rounds.merge(&other.rounds);
        self.sent.merge(&other.sent);
        self.delivered.merge(&other.delivered);
    }
}

/// Folds a sweep's trial points, fed in canonical order (trial
/// `j = cell · trials + trial`), into per-cell aggregates through the
/// fixed [`TRIALS_PER_JOB`]-trial blocks — the one Welford
/// `push`/`merge` sequence both engines produce.
#[derive(Debug)]
pub(crate) struct BlockFolder {
    trials: u64,
    next: u64,
    block: CellAgg,
    cells: Vec<CellAgg>,
}

impl BlockFolder {
    /// A folder for `cells` cells of `trials` trials each.
    pub(crate) fn new(cells: usize, trials: u64) -> Self {
        Self {
            trials,
            next: 0,
            block: CellAgg::new(),
            cells: vec![CellAgg::new(); cells],
        }
    }

    /// Fold the next trial in canonical order; close its block if it is
    /// the block's last trial or the cell's.
    pub(crate) fn push(&mut self, p: &TrialPoint) {
        self.block.push(p);
        let done = self.next % self.trials + 1;
        if done.is_multiple_of(TRIALS_PER_JOB) || done == self.trials {
            let cell = (self.next / self.trials) as usize;
            self.cells[cell].merge(&std::mem::take(&mut self.block));
        }
        self.next += 1;
    }

    /// The per-cell aggregates, in cell order.
    pub(crate) fn finish(self) -> Vec<CellAgg> {
        self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(v: f64) -> TrialPoint {
        TrialPoint {
            completed: true,
            value: v,
            rounds: 2.0 * v,
            sent: 3.0 * v,
            delivered: 4.0 * v,
        }
    }

    #[test]
    fn folder_closes_every_block_and_each_short_last_block() {
        // Reference: each cell's trials chunked into blocks, each block
        // pushed into a fresh aggregate and merged in block order.
        for trials in [1u64, 15, 16, 17, 33] {
            let point_of = |j: u64| point(((j * 37) % 23) as f64 + 0.25);
            let mut folder = BlockFolder::new(3, trials);
            for j in 0..3 * trials {
                folder.push(&point_of(j));
            }
            let expected: Vec<CellAgg> = (0..3)
                .map(|cell| {
                    let js: Vec<u64> = (cell * trials..(cell + 1) * trials).collect();
                    let mut agg = CellAgg::new();
                    for chunk in js.chunks(TRIALS_PER_JOB as usize) {
                        let mut block = CellAgg::new();
                        for &j in chunk {
                            block.push(&point_of(j));
                        }
                        agg.merge(&block);
                    }
                    agg
                })
                .collect();
            assert_eq!(folder.finish(), expected, "trials={trials}");
        }
    }

    #[test]
    fn incomplete_trials_count_but_do_not_pollute_metrics() {
        let mut agg = CellAgg::new();
        agg.push(&point(10.0));
        agg.push(&TrialPoint {
            completed: false,
            value: 999.0,
            rounds: 999.0,
            sent: 999.0,
            delivered: 999.0,
        });
        assert_eq!(agg.trials, 2);
        assert_eq!(agg.completed, 1);
        assert_eq!(agg.value.count(), 1);
        assert_eq!(agg.value.mean(), 10.0);
    }

    #[test]
    fn block_merge_is_bit_identical_to_one_stream_with_same_blocks() {
        // The determinism core: merging per-block accumulators in block
        // order gives the exact same bits as the serial engine, which
        // builds the identical blocks and merges them in the same order.
        let values: Vec<f64> = (0..40).map(|i| ((i * 37) % 23) as f64 + 0.25).collect();
        let fold_blocks = |order: &[usize]| {
            let mut blocks: Vec<CellAgg> = values
                .chunks(TRIALS_PER_JOB as usize)
                .map(|chunk| {
                    let mut b = CellAgg::new();
                    for &v in chunk {
                        b.push(&point(v));
                    }
                    b
                })
                .collect();
            let mut cell = CellAgg::new();
            for &i in order {
                cell.merge(&std::mem::take(&mut blocks[i]));
            }
            cell
        };
        let in_order = fold_blocks(&[0, 1, 2]);
        let again = fold_blocks(&[0, 1, 2]);
        assert_eq!(in_order, again, "same block order ⇒ same bits");
        assert_eq!(in_order.trials, 40);
        // Against a single stream the merge agrees to fp tolerance (the
        // statistical contract; bit-identity is only promised for equal
        // block structure).
        let mut whole = CellAgg::new();
        for &v in &values {
            whole.push(&point(v));
        }
        assert!((in_order.value.mean() - whole.value.mean()).abs() < 1e-12);
        assert!((in_order.value.variance() - whole.value.variance()).abs() < 1e-9);
    }
}
