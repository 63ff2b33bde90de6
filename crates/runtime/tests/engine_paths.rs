//! The three ways into the one round engine — `SequentialExecutor`,
//! `ShardedExecutor::run` (run-scoped pool) and `ShardedExecutor::run_in`
//! (shared pool) — agree on *which thread* runs a shard, on what a
//! panicking protocol callback looks like to the caller, and on the
//! report whichever way a round's sends were routed (handed over whole
//! on one shard, copied bucket by bucket otherwise).

use rand::rngs::SmallRng;
use rendez_runtime::{
    Conditions, Executor, LatencyDist, Outbox, RoundObs, RoundProtocol, RunConfig, RunReport,
    SequentialExecutor, ShardedExecutor, Verdict, WorkerPool,
};
use rendez_sim::{NodeId, SplitMix64};
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

/// Every node pings a round-dependent target from `on_round_start`;
/// with `reply`, a pinged node answers from `on_receive_run` in the same
/// round, so that round's run headers step back (senders `0..n` from
/// the first phase, then repliers from the second) and routing has to
/// regroup them. Node state is an order-sensitive hash of everything
/// received.
struct Echo {
    n: u32,
    reply: bool,
}

const PING: u8 = 1;
const PONG: u8 = 2;

impl RoundProtocol for Echo {
    type Node = u64;
    type Msg = u8;
    type Output = u64;

    fn init_node(&self, id: NodeId, _rng: &mut SmallRng) -> u64 {
        u64::from(id.0)
    }

    fn on_round_start(
        &self,
        _node: &mut u64,
        id: NodeId,
        round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, u8>,
    ) {
        let hop = 1 + (7 * round as u32 + id.0 % 3) % (self.n - 1);
        out.send(NodeId((id.0 + hop) % self.n), PING);
    }

    fn on_message(
        &self,
        node: &mut u64,
        _id: NodeId,
        from: NodeId,
        msg: u8,
        round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, u8>,
    ) {
        *node = SplitMix64::mix(*node ^ (u64::from(from.0) << 8 | u64::from(msg)) ^ round << 40);
        if self.reply && msg == PING {
            out.send(from, PONG);
        }
    }

    fn observe_node(&self, node: &u64, id: NodeId, _round: u64, obs: &mut RoundObs) {
        obs.count += 1;
        obs.digest ^= SplitMix64::mix(*node ^ SplitMix64::mix(u64::from(id.0)));
    }

    fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<u64> {
        if round == 11 {
            Verdict::Halt(obs.digest)
        } else {
            Verdict::Continue
        }
    }

    fn digest_obs(&self, obs: &RoundObs, round: u64) -> u64 {
        SplitMix64::mix(round) ^ obs.digest
    }
}

/// `Echo` on every path into the engine; all must equal the sequential
/// report, which is returned.
fn echo_everywhere(reply: bool, cond: Conditions) -> RunReport<u64> {
    const N: usize = 53;
    let cfg = RunConfig::seeded(21).max_rounds(30).conditions(cond);
    let echo = || Echo { n: N as u32, reply };
    let reference = SequentialExecutor.run(&mut echo(), N, &cfg);
    assert!(reference.completed);
    let pool = WorkerPool::new(2);
    for shards in [1, 2, 3, 5] {
        let sharded = ShardedExecutor::new(shards);
        for (path, report) in [
            ("run", sharded.run(&mut echo(), N, &cfg)),
            ("run_in", sharded.run_in(&pool, &mut echo(), N, &cfg)),
        ] {
            let what = format!("reply={reply} {cond:?} shards={shards} {path}");
            assert_eq!(reference.digests, report.digests, "{what}");
            assert_eq!(reference.stats, report.stats, "{what}");
            assert_eq!(reference.rounds, report.rounds, "{what}");
            assert_eq!(reference.output, report.output, "{what}");
        }
    }
    reference
}

#[test]
fn a_round_that_sends_from_two_phases_routes_like_any_other() {
    // Ideal conditions on one shard would hand the batch over whole —
    // but its headers step back, so it takes the regrouping copy, and
    // the report must not show which.
    let report = echo_everywhere(true, Conditions::ideal());
    // 53 pings a round and, from round 1 on, 53 replies to last
    // round's pings.
    assert_eq!(report.stats.sent, 53 * 12 + 53 * 11);
    assert_eq!(report.stats.dropped, 0);
    assert_ne!(
        report.digests,
        echo_everywhere(false, Conditions::ideal()).digests,
        "the replies are observable"
    );
}

#[test]
fn loss_filters_the_same_messages_in_place_and_on_the_copy_path() {
    // One phase, fixed latency: one shard filters the emission batch in
    // place and hands it over, several shards copy survivors out.
    for cond in [
        Conditions::with_loss(0.35),
        Conditions {
            drop_prob: 0.35,
            latency: LatencyDist::Fixed(3),
        },
    ] {
        let report = echo_everywhere(false, cond);
        assert_eq!(report.stats.sent, 53 * 12);
        assert!(report.stats.dropped > 100, "{:?}", report.stats);
        assert!(report.stats.delivered > 100, "{:?}", report.stats);
    }
    // Two phases under loss: the copy path on every layout.
    assert!(
        echo_everywhere(true, Conditions::with_loss(0.35))
            .stats
            .dropped
            > 100
    );
}
