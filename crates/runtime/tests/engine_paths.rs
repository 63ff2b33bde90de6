//! The three ways into the one round engine — `SequentialExecutor`,
//! `ShardedExecutor::run` (run-scoped pool) and `ShardedExecutor::run_in`
//! (shared pool) — agree on *which thread* runs a shard and on what a
//! panicking protocol callback looks like to the caller.

use rand::rngs::SmallRng;
use rendez_runtime::{
    Executor, Outbox, RoundObs, RoundProtocol, RunConfig, RunReport, SequentialExecutor,
    ShardedExecutor, Verdict, WorkerPool,
};
use rendez_sim::NodeId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread::ThreadId;

const GAVE_UP: &str = "probe: node 7 gave up in round 2";

/// Every node pings its successor each round and counts receptions;
/// `on_round_start` records the calling thread, and `on_round_end`
/// panics with [`GAVE_UP`] at node 7 in round 2 when `faulty`.
struct Probe {
    n: u32,
    faulty: bool,
    threads: Mutex<Vec<ThreadId>>,
}

impl Probe {
    fn new(n: usize, faulty: bool) -> Self {
        Probe {
            n: n as u32,
            faulty,
            threads: Mutex::new(Vec::new()),
        }
    }
}

impl RoundProtocol for Probe {
    type Node = u64;
    type Msg = u8;
    type Output = u64;

    fn init_node(&self, _id: NodeId, _rng: &mut SmallRng) -> u64 {
        0
    }

    fn on_round_start(
        &self,
        _node: &mut u64,
        id: NodeId,
        _round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, u8>,
    ) {
        let me = std::thread::current().id();
        let mut seen = self
            .threads
            .lock()
            .expect("no callback panics while locked");
        if !seen.contains(&me) {
            seen.push(me);
        }
        out.send(NodeId((id.0 + 1) % self.n), 1);
    }

    fn on_message(
        &self,
        node: &mut u64,
        _id: NodeId,
        _from: NodeId,
        msg: u8,
        _round: u64,
        _rng: &mut SmallRng,
        _out: &mut Outbox<'_, u8>,
    ) {
        *node += u64::from(msg);
    }

    fn on_round_end(
        &self,
        _node: &mut u64,
        id: NodeId,
        round: u64,
        _rng: &mut SmallRng,
        _out: &mut Outbox<'_, u8>,
    ) {
        if self.faulty && id == NodeId(7) && round == 2 {
            panic!("{GAVE_UP}");
        }
    }

    fn observe_node(&self, node: &u64, _id: NodeId, _round: u64, obs: &mut RoundObs) {
        obs.count += node;
    }

    fn finalize_obs(&mut self, obs: &RoundObs, _round: u64) -> Verdict<u64> {
        if obs.count >= 5 * u64::from(self.n) {
            Verdict::Halt(obs.count)
        } else {
            Verdict::Continue
        }
    }
}

const N: usize = 40;

fn cfg() -> RunConfig {
    RunConfig::seeded(3).max_rounds(20)
}

/// The panic message a faulty run over `n` nodes dies with, as the
/// caller sees it.
fn panic_message(n: usize, run: impl FnOnce(&mut Probe) -> RunReport<u64>) -> String {
    let mut probe = Probe::new(n, true);
    let payload = catch_unwind(AssertUnwindSafe(|| run(&mut probe)))
        .expect_err("the faulty probe must panic");
    payload
        .downcast_ref::<String>()
        .expect("the callback's own payload, not a wrapper's")
        .clone()
}

#[test]
fn a_callback_panic_surfaces_verbatim_on_every_path() {
    assert_eq!(
        panic_message(N, |p| SequentialExecutor.run(p, N, &cfg())),
        GAVE_UP
    );
    assert_eq!(
        panic_message(N, |p| ShardedExecutor::new(3).run(p, N, &cfg())),
        GAVE_UP
    );
    let pool = WorkerPool::new(2);
    // Node 7 sits in a shard that runs as a pool job (3 shards of 14) …
    assert_eq!(
        panic_message(N, |p| ShardedExecutor::new(3).run_in(&pool, p, N, &cfg())),
        GAVE_UP
    );
    // … and in the one the calling thread runs itself (3 shards of 3).
    assert_eq!(
        panic_message(9, |p| ShardedExecutor::new(3).run_in(&pool, p, 9, &cfg())),
        GAVE_UP
    );

    // The shared pool survives the panic: a normal run on it completes
    // and matches the sequential report.
    let reference = SequentialExecutor.run(&mut Probe::new(N, false), N, &cfg());
    let pooled = ShardedExecutor::new(3).run_in(&pool, &mut Probe::new(N, false), N, &cfg());
    assert!(pooled.completed);
    assert_eq!(reference.digests, pooled.digests);
    assert_eq!(reference.stats, pooled.stats);
    assert_eq!(reference.output, pooled.output);
}

#[test]
fn one_shard_runs_inline_on_the_calling_thread() {
    // Neither `run` nor `run_in` may hand a one-shard layout to another
    // thread: every callback sees the caller's thread id.
    let me = std::thread::current().id();
    let pool = WorkerPool::new(2);
    let threads_of = |run: &dyn Fn(&mut Probe) -> RunReport<u64>| {
        let mut probe = Probe::new(N, false);
        assert!(run(&mut probe).completed);
        probe.threads.into_inner().expect("no callback panicked")
    };
    assert_eq!(
        threads_of(&|p| ShardedExecutor::new(1).run(p, N, &cfg())),
        [me]
    );
    assert_eq!(
        threads_of(&|p| ShardedExecutor::new(1).run_in(&pool, p, N, &cfg())),
        [me]
    );
    // Control: of two shards, one stays here and one goes to the pool.
    let seen = threads_of(&|p| ShardedExecutor::new(2).run_in(&pool, p, N, &cfg()));
    assert!(seen.contains(&me) && seen.len() >= 2, "{seen:?}");
}
