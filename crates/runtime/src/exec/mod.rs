//! Executors: pluggable strategies for driving a [`RoundProtocol`].
//!
//! All executors implement [`Executor`] and are observationally
//! equivalent: for the same `(protocol, RunConfig)` they produce the same
//! rounds, output, digest trace and message statistics. There is one
//! round engine (the private `engine` module: shards that own their
//! nodes, one round body, one coordinator loop); the two round executors
//! differ only in how many shards it runs over and on which threads:
//!
//! * [`SequentialExecutor`] — one shard, run inline on the calling
//!   thread; the reference semantics every other executor is tested
//!   against;
//! * [`ShardedExecutor`] — nodes partitioned into contiguous shards,
//!   each round one [`WorkerPool`] scope (a job per shard, bar the one
//!   the coordinating thread runs itself); a shard's sends are filed by
//!   fate — lost, or due in which round — and destination shard as they
//!   are emitted, and the coordinator only splices those lanes whole and
//!   merges the observation partials between rounds.
//!
//! Channel conditions (loss, latency distributions) and churn are not
//! executors but fields of the [`RunConfig`]
//! ([`RunConfig::conditions`], [`RunConfig::churn`]).
//!
//! Outside the round family, [`EventExecutor`] drives continuous-time
//! [`AsyncProtocol`](crate::proto::AsyncProtocol) state machines from a
//! deterministic event queue (exponential per-node wake clocks hashed
//! from `(seed, node, seq)`) — see its module docs for the async leg of
//! the determinism contract.
//!
//! For back-to-back runs (Monte-Carlo sweeps), a long-lived
//! [`WorkerPool`] keeps the worker threads parked between runs:
//! [`ShardedExecutor::run_in`] borrows it instead of spawning a pool per
//! run, with a bit-identical report.
//!
//! lint: deterministic

mod calendar;
mod engine;
mod event;
mod pool;
mod sequential;
mod sharded;

pub(crate) use calendar::{link, NIL};
pub use calendar::{WakeQueue, WakeTimer};
pub use event::{EventExecutor, TICKS_PER_SEC};
pub use pool::{PoolScope, WorkerPool};
pub use sequential::SequentialExecutor;
pub use sharded::ShardedExecutor;

use crate::proto::RoundProtocol;
use crate::report::{RunConfig, RunReport};

/// A strategy for executing a round-based protocol run.
pub trait Executor {
    /// Human-readable name for experiment tables.
    fn name(&self) -> String;

    /// Drive `proto` over `n` nodes until it halts or `cfg.max_rounds`.
    ///
    /// `proto` is borrowed mutably only for
    /// [`finalize_obs`](RoundProtocol::finalize_obs), which runs between
    /// rounds on the coordinating thread; round callbacks see `&P`.
    fn run<P: RoundProtocol>(
        &self,
        proto: &mut P,
        n: usize,
        cfg: &RunConfig,
    ) -> RunReport<P::Output>;
}

#[cfg(test)]
pub(crate) mod testproto {
    //! A tiny protocol used by the executor unit tests: every node sends
    //! one `Ping` to a random target per round; nodes count receptions;
    //! the run halts when the total reception count reaches a threshold.

    use crate::proto::{Outbox, RoundObs, RoundProtocol, Verdict};
    use rand::rngs::SmallRng;
    use rand::Rng;
    use rendez_sim::{NodeId, SplitMix64};

    pub struct RandomPing {
        pub n: usize,
        pub target_total: u64,
    }

    const L_SENT: usize = 0;

    #[derive(Default)]
    pub struct PingNode {
        pub received: u64,
        pub sent: u64,
    }

    impl RoundProtocol for RandomPing {
        type Node = PingNode;
        type Msg = u8;
        type Output = u64;

        fn init_node(&self, _id: NodeId, _rng: &mut SmallRng) -> PingNode {
            PingNode::default()
        }

        fn on_round_start(
            &self,
            node: &mut PingNode,
            _id: NodeId,
            _round: u64,
            rng: &mut SmallRng,
            out: &mut Outbox<'_, u8>,
        ) {
            let dst = NodeId(rng.gen_range(0..self.n as u32));
            out.send(dst, 1);
            node.sent += 1;
        }

        fn on_message(
            &self,
            node: &mut PingNode,
            _id: NodeId,
            _from: NodeId,
            msg: u8,
            _round: u64,
            _rng: &mut SmallRng,
            _out: &mut Outbox<'_, u8>,
        ) {
            node.received += msg as u64;
        }

        fn observe_node(&self, node: &PingNode, id: NodeId, round: u64, obs: &mut RoundObs) {
            obs.count = obs.count.wrapping_add(node.received);
            obs.lane_add(L_SENT, node.sent);
            let local = (node.received << 16) ^ node.sent;
            obs.digest ^= SplitMix64::mix(local ^ SplitMix64::mix(round ^ id.index() as u64));
        }

        fn finalize_obs(&mut self, obs: &RoundObs, _round: u64) -> Verdict<u64> {
            if obs.count >= self.target_total {
                Verdict::Halt(obs.count)
            } else {
                Verdict::Continue
            }
        }

        fn digest_obs(&self, obs: &RoundObs, round: u64) -> u64 {
            SplitMix64::mix(round) ^ obs.digest
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testproto::RandomPing;
    use super::*;
    use crate::conditions::{Conditions, LatencyDist};

    fn run_with<E: Executor>(exec: &E, n: usize, seed: u64) -> RunReport<u64> {
        let mut proto = RandomPing {
            n,
            target_total: 5 * n as u64,
        };
        exec.run(&mut proto, n, &RunConfig::seeded(seed).max_rounds(100))
    }

    #[test]
    fn sequential_completes_and_accounts() {
        let r = run_with(&SequentialExecutor, 100, 1);
        assert!(r.completed);
        // One ping per node per round, all delivered one round later.
        assert_eq!(r.stats.sent, 100 * r.rounds);
        assert_eq!(r.stats.dropped, 0);
        assert_eq!(r.stats.delivered, r.stats.sent - 100);
        assert_eq!(r.digests.len() as u64, r.rounds);
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        for seed in [0, 7, 99] {
            let seq = run_with(&SequentialExecutor, 193, seed);
            for shards in [1, 2, 3, 8, 64] {
                let sh = run_with(&ShardedExecutor::new(shards), 193, seed);
                assert_eq!(seq.rounds, sh.rounds, "shards={shards}");
                assert_eq!(seq.output, sh.output, "shards={shards}");
                assert_eq!(seq.digests, sh.digests, "shards={shards}");
                assert_eq!(seq.stats, sh.stats, "shards={shards}");
            }
        }
    }

    #[test]
    fn more_shards_than_nodes_matches_sequential() {
        // chunk = 1: every node is its own shard and the splice merge
        // degenerates to n single-element lanes. Also exercises shard
        // counts that do not divide n.
        for n in [1, 2, 3, 5] {
            let seq = run_with(&SequentialExecutor, n, 11);
            for shards in [n + 1, 4 * n + 3, 64] {
                let sh = run_with(&ShardedExecutor::new(shards), n, 11);
                assert_eq!(seq.digests, sh.digests, "n={n} shards={shards}");
                assert_eq!(seq.stats, sh.stats, "n={n} shards={shards}");
                assert_eq!(seq.output, sh.output, "n={n} shards={shards}");
            }
        }
    }

    #[test]
    fn latency_slots_beyond_the_final_round_are_discarded_identically() {
        // Every message takes 10 rounds but the run is capped at 4:
        // nothing is ever delivered, the full latency window stays in
        // flight at exit, and both executors must agree on that.
        let cond = Conditions::with_latency(LatencyDist::Fixed(10));
        let run = |shards: Option<usize>| {
            let mut p = RandomPing {
                n: 40,
                target_total: 1,
            };
            let cfg = RunConfig::seeded(13).max_rounds(4).conditions(cond);
            match shards {
                None => SequentialExecutor.run(&mut p, 40, &cfg),
                Some(s) => ShardedExecutor::new(s).run(&mut p, 40, &cfg),
            }
        };
        let seq = run(None);
        assert!(!seq.completed);
        assert_eq!(seq.stats.sent, 40 * 4);
        assert_eq!(seq.stats.delivered, 0, "latency 10 > 4 rounds");
        assert_eq!(seq.stats.dropped, 0);
        for shards in [3, 8, 64] {
            let sh = run(Some(shards));
            assert_eq!(seq.digests, sh.digests, "shards={shards}");
            assert_eq!(seq.stats, sh.stats, "shards={shards}");
        }
    }

    #[test]
    fn mixed_send_rounds_in_one_bucket_deliver_in_sequential_order() {
        // Uniform latency interleaves several send rounds into one
        // delivery bucket, so `order_deliveries` merges up to six
        // streams of run headers. The spread (min 1, max 6) guarantees
        // in-flight messages at halt too.
        let cond = Conditions::with_latency(LatencyDist::Uniform { min: 1, max: 6 });
        let run = |shards: Option<usize>| {
            let mut p = RandomPing {
                n: 90,
                target_total: 400,
            };
            let cfg = RunConfig::seeded(17).max_rounds(200).conditions(cond);
            match shards {
                None => SequentialExecutor.run(&mut p, 90, &cfg),
                Some(s) => ShardedExecutor::new(s).run(&mut p, 90, &cfg),
            }
        };
        let seq = run(None);
        assert!(seq.completed);
        assert!(
            seq.stats.delivered < seq.stats.sent,
            "some messages must still be in flight at halt"
        );
        for shards in [2, 7, 13] {
            let sh = run(Some(shards));
            assert_eq!(seq.digests, sh.digests, "shards={shards}");
            assert_eq!(seq.stats, sh.stats, "shards={shards}");
            assert_eq!(seq.output, sh.output, "shards={shards}");
        }
    }

    #[test]
    fn conditioned_loss_drops_messages_identically_on_both_executors() {
        let cfg = RunConfig::seeded(5)
            .max_rounds(100)
            .conditions(Conditions::with_loss(0.4));
        let a = {
            let mut p = RandomPing {
                n: 80,
                target_total: 200,
            };
            SequentialExecutor.run(&mut p, 80, &cfg)
        };
        let b = {
            let mut p = RandomPing {
                n: 80,
                target_total: 200,
            };
            ShardedExecutor::new(4).run(&mut p, 80, &cfg)
        };
        assert!(a.stats.dropped > 0, "loss must actually drop messages");
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn latency_spreads_deliveries_over_rounds() {
        let cond = Conditions::with_latency(LatencyDist::Uniform { min: 1, max: 4 });
        let mut p = RandomPing {
            n: 50,
            target_total: 100,
        };
        let r = SequentialExecutor.run(
            &mut p,
            50,
            &RunConfig::seeded(6).max_rounds(100).conditions(cond),
        );
        assert!(r.completed);
        assert_eq!(r.stats.dropped, 0);
    }

    #[test]
    fn round_cap_reports_incomplete() {
        let mut p = RandomPing {
            n: 10,
            target_total: u64::MAX,
        };
        let r = SequentialExecutor.run(&mut p, 10, &RunConfig::seeded(1).max_rounds(7));
        assert!(!r.completed);
        assert_eq!(r.rounds, 7);
        assert!(r.output.is_none());
    }

    #[test]
    fn churn_suppresses_dispatch_and_delivery_identically() {
        use crate::churn::Churn;
        let run = |shards: Option<usize>, churn: Churn| {
            let mut p = RandomPing {
                n: 120,
                target_total: 300,
            };
            let cfg = RunConfig::seeded(8).max_rounds(60).churn(churn);
            match shards {
                None => SequentialExecutor.run(&mut p, 120, &cfg),
                Some(s) => ShardedExecutor::new(s).run(&mut p, 120, &cfg),
            }
        };
        let clean = run(None, Churn::none());
        let churned = run(None, Churn::intermittent(0.3));
        assert_eq!(clean.stats.churn_lost, 0);
        assert!(churned.stats.churn_lost > 0, "churn must lose messages");
        // Down senders are not dispatched: fewer sends than the clean run
        // over the same number of rounds.
        assert!(churned.stats.sent < 120 * churned.rounds);
        assert_ne!(clean.digests, churned.digests);
        for shards in [2, 5, 9] {
            let sh = run(Some(shards), Churn::intermittent(0.3));
            assert_eq!(churned.digests, sh.digests, "shards={shards}");
            assert_eq!(churned.stats, sh.stats, "shards={shards}");
            assert_eq!(churned.rounds, sh.rounds, "shards={shards}");
        }
    }

    #[test]
    fn crash_stop_churn_is_permanent_and_deterministic() {
        use crate::churn::{Churn, ChurnModel};
        let churn = Churn::crash_stop(0.25, 20);
        assert!(matches!(churn.model, ChurnModel::CrashStop { .. }));
        let mut p = RandomPing {
            n: 100,
            target_total: u64::MAX,
        };
        let cfg = RunConfig::seeded(3).max_rounds(40).churn(churn);
        let a = SequentialExecutor.run(&mut p, 100, &cfg);
        let mut p = RandomPing {
            n: 100,
            target_total: u64::MAX,
        };
        let b = ShardedExecutor::new(7).run(&mut p, 100, &cfg);
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.churn_lost > 0);
    }

    #[test]
    fn executor_names() {
        assert_eq!(SequentialExecutor.name(), "sequential");
        assert_eq!(ShardedExecutor::new(8).name(), "sharded(8)");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let mut p = RandomPing {
            n: 1,
            target_total: 1,
        };
        let _ = SequentialExecutor.run(&mut p, 0, &RunConfig::default());
    }

    #[test]
    #[should_panic(expected = "p in (0,1]")]
    fn degenerate_geometric_latency_rejected_at_run_entry() {
        let mut p = RandomPing {
            n: 4,
            target_total: 1,
        };
        let cond = Conditions::with_latency(LatencyDist::Geometric { p: 0.0, cap: 64 });
        let _ = SequentialExecutor.run(&mut p, 4, &RunConfig::default().conditions(cond));
    }
}
