//! The shard-parallel executor: the round engine over `k` shards, each
//! round one [`WorkerPool`] scope — `k − 1` shards as jobs, the last on
//! the coordinating thread.
//!
//! Every shard runs the full phase schedule for its own nodes, decides
//! each message's fate as it is sent and files the survivors in emission
//! lanes indexed `[latency_slot][destination_shard]`, which it hands
//! over whole; the coordinator only splices those buckets, merges `k`
//! observation partials and asks the protocol for the verdict. See the `engine` module for the round body, the
//! coordinator loop and the invariants behind the guarantee below.
//!
//! # Determinism
//!
//! Traces are bit-identical to
//! [`SequentialExecutor`](super::SequentialExecutor) — same digests,
//! output, round count and statistics for every shard count and every
//! pool size.
//!
//! lint: deterministic

use super::pool::WorkerPool;
use super::{engine, Executor};
use crate::proto::RoundProtocol;
use crate::report::{RunConfig, RunReport};

/// Executes rounds shard-parallel: nodes are partitioned into contiguous
/// shards of `n.div_ceil(shards)` ids, and each round runs them side by
/// side — one on the calling thread, the others as jobs on a worker pool.
#[derive(Debug, Clone, Copy)]
pub struct ShardedExecutor {
    shards: usize,
}

impl ShardedExecutor {
    /// Executor with a fixed shard count (0 = one shard per core).
    pub fn new(shards: usize) -> Self {
        let shards = if shards == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            shards
        };
        Self { shards }
    }

    /// One shard per available core.
    pub fn auto() -> Self {
        Self::new(0)
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Like [`run`](Executor::run), but the shard jobs execute on parked
    /// threads borrowed from `pool` instead of a pool spawned for this
    /// run — back-to-back runs then pay thread spawn cost once, for the
    /// pool's lifetime.
    ///
    /// The report is bit-identical to [`run`](Executor::run)'s (and to
    /// [`SequentialExecutor`](super::SequentialExecutor)'s) whatever the
    /// pool's size: with fewer threads than jobs the round's jobs queue,
    /// and a layout that comes to one shard runs inline on the calling
    /// thread.
    pub fn run_in<P: RoundProtocol>(
        &self,
        pool: &WorkerPool,
        proto: &mut P,
        n: usize,
        cfg: &RunConfig,
    ) -> RunReport<P::Output> {
        engine::drive(proto, n, cfg, self.shards, Some(pool))
    }
}

impl Executor for ShardedExecutor {
    fn name(&self) -> String {
        format!("sharded({})", self.shards)
    }

    fn run<P: RoundProtocol>(
        &self,
        proto: &mut P,
        n: usize,
        cfg: &RunConfig,
    ) -> RunReport<P::Output> {
        // One thread per shard, this one included, for this run only;
        // at most `n` shards are non-empty.
        let threads = self.shards.min(n);
        if threads <= 1 {
            return engine::drive(proto, n, cfg, self.shards, None);
        }
        self.run_in(&WorkerPool::new(threads - 1), proto, n, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testproto::RandomPing;
    use super::super::SequentialExecutor;
    use super::*;

    fn ping(
        n: usize,
        run: impl FnOnce(&mut RandomPing, &RunConfig) -> RunReport<u64>,
    ) -> RunReport<u64> {
        let mut p = RandomPing {
            n,
            target_total: 5 * n as u64,
        };
        run(&mut p, &RunConfig::seeded(7).max_rounds(100))
    }

    #[test]
    fn pooled_run_matches_scoped_run_bit_for_bit() {
        let reference = ping(193, |p, cfg| ShardedExecutor::new(3).run(p, 193, cfg));
        let pool = WorkerPool::new(3);
        // Back-to-back pooled runs on ONE pool: same parked threads, and
        // every report identical to the run-scoped-pool one.
        for _ in 0..3 {
            let pooled = ping(193, |p, cfg| {
                ShardedExecutor::new(3).run_in(&pool, p, 193, cfg)
            });
            assert_eq!(reference.digests, pooled.digests);
            assert_eq!(reference.stats, pooled.stats);
            assert_eq!(reference.output, pooled.output);
        }
    }

    #[test]
    fn more_shards_than_pool_threads_neither_deadlocks_nor_changes_the_report() {
        // 7 shard jobs per round queue on 2 (and on 1) pool threads; no
        // job waits on another, so every round drains.
        let reference = ping(50, |p, cfg| SequentialExecutor.run(p, 50, cfg));
        for threads in [1, 2] {
            let pool = WorkerPool::new(threads);
            let pooled = ping(50, |p, cfg| {
                ShardedExecutor::new(8).run_in(&pool, p, 50, cfg)
            });
            assert_eq!(reference.digests, pooled.digests, "threads={threads}");
            assert_eq!(reference.stats, pooled.stats, "threads={threads}");
            assert_eq!(reference.output, pooled.output, "threads={threads}");
            assert_eq!(reference.node_bytes, pooled.node_bytes);
        }
    }
}
