//! The ways into the one round engine — `SequentialExecutor`,
//! `ShardedExecutor::run` (run-scoped pool) and `ShardedExecutor::run_in`
//! (shared pool) — agree on *which thread* runs a shard, on what a
//! panicking protocol callback looks like to the caller, and on the
//! report whatever the channel and the phases a round sends from: every
//! emission lane is handed over whole — read off the number of times the
//! engine cloned a message, never off a clock. And every path keeps the
//! books: each message sent is delivered, lost to the channel or lost to
//! churn, never before its latency is up. The registry workloads on
//! every path, `Scenario::run_pooled` included, are the differential
//! grid's (`tests/differential.rs` at the workspace root).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rendez_runtime::{
    Churn, Conditions, Executor, LatencyDist, Outbox, RoundObs, RoundProtocol, RunConfig,
    RunReport, SequentialExecutor, ShardedExecutor, Verdict, WorkerPool,
};
use rendez_sim::{NodeId, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
/// round, so that round's senders step back (senders `0..n` from
/// the first phase, then repliers from the second) and delivery has to
/// merge the two stretches. Node state is an order-sensitive hash of
/// everything received.
struct Echo {
    n: u32,
    reply: bool,
    /// How often a [`Note`] of this run was cloned.
    clones: Arc<AtomicU64>,
}

impl Echo {
    fn new(n: usize, reply: bool) -> Self {
        Echo {
            n: n as u32,
            reply,
            clones: Arc::default(),
        }
    }

    fn note(&self, kind: u8) -> Note {
        Note {
            kind,
            clones: Arc::clone(&self.clones),
        }
    }
}

const PING: u8 = 1;
const PONG: u8 = 2;

/// `Echo`'s message: a kind, and a tally of its own clones. The engine
/// clones a message once to put it in delivery order (routing moves the
/// lane it was sent into), and the default `on_receive_run` once more to
/// pass it to `on_message`.
struct Note {
    kind: u8,
    clones: Arc<AtomicU64>,
}

impl Clone for Note {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::Relaxed);
        Note {
            kind: self.kind,
            clones: Arc::clone(&self.clones),
        }
    }
}

impl RoundProtocol for Echo {
    type Node = u64;
    type Msg = Note;
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
        out: &mut Outbox<'_, Note>,
    ) {
        let hop = 1 + (7 * round as u32 + id.0 % 3) % (self.n - 1);
        out.send(NodeId((id.0 + hop) % self.n), self.note(PING));
    }

    fn on_message(
        &self,
        node: &mut u64,
        _id: NodeId,
        from: NodeId,
        msg: Note,
        round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, Note>,
    ) {
        *node =
            SplitMix64::mix(*node ^ (u64::from(from.0) << 8 | u64::from(msg.kind)) ^ round << 40);
        if self.reply && msg.kind == PING {
            out.send(from, self.note(PONG));
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

/// Nodes in an `Echo` run: a prime, so no shard count divides it.
const ECHO_N: usize = 53;

/// One `Echo` run's report and how many message clones it took.
fn echo_run(reply: bool, run: impl FnOnce(&mut Echo) -> RunReport<u64>) -> (RunReport<u64>, u64) {
    let mut echo = Echo::new(ECHO_N, reply);
    let report = run(&mut echo);
    let clones = echo.clones.load(Ordering::Relaxed);
    (report, clones)
}

/// `Echo` on every path into the engine and on layouts of one shard, of
/// several with a short last one (53 is prime), and of one node per
/// shard (`chunk = 1`: 53 and "64" shards). Every report must equal the
/// sequential one, which is returned with each layout's
/// `(shards, clones)`.
fn echo_everywhere(reply: bool, cond: Conditions) -> (RunReport<u64>, Vec<(usize, u64)>) {
    let cfg = RunConfig::seeded(21).max_rounds(30).conditions(cond);
    let (reference, clones) = echo_run(reply, |p| SequentialExecutor.run(p, ECHO_N, &cfg));
    assert!(reference.completed);
    let mut layouts = vec![(1, clones)];
    let pool = WorkerPool::new(2);
    for shards in [1, 2, 3, 5, 53, 64] {
        let sharded = ShardedExecutor::new(shards);
        for (path, (report, clones)) in [
            ("run", echo_run(reply, |p| sharded.run(p, ECHO_N, &cfg))),
            (
                "run_in",
                echo_run(reply, |p| sharded.run_in(&pool, p, ECHO_N, &cfg)),
            ),
        ] {
            let what = format!("reply={reply} {cond:?} shards={shards} {path}");
            assert_eq!(reference.digests, report.digests, "{what}");
            assert_eq!(reference.stats, report.stats, "{what}");
            assert_eq!(reference.rounds, report.rounds, "{what}");
            assert_eq!(reference.output, report.output, "{what}");
            assert_eq!(reference.node_bytes, report.node_bytes, "{what}");
            layouts.push((shards, clones));
        }
    }
    (reference, layouts)
}

/// Clones of a run whose every lane was handed over: one per message
/// put in delivery order, one per message passed to `on_message`.
fn clones_if_handed_over(report: &RunReport<u64>) -> u64 {
    2 * report.stats.delivered
}

/// Every layout of `echo_everywhere` moved every lane.
fn assert_handed_over(report: &RunReport<u64>, layouts: &[(usize, u64)], what: &str) {
    for &(shards, clones) in layouts {
        assert_eq!(
            clones,
            clones_if_handed_over(report),
            "{what} shards={shards}"
        );
    }
}

#[test]
fn single_phase_rounds_hand_every_lane_over_on_every_layout() {
    // One phase, fixed latency — ideal, lossy, three rounds late: every
    // lane of every shard is moved, whatever the shard count.
    for cond in [
        Conditions::ideal(),
        Conditions::with_loss(0.35),
        Conditions {
            drop_prob: 0.35,
            latency: LatencyDist::Fixed(3),
        },
    ] {
        let (report, layouts) = echo_everywhere(false, cond);
        assert_eq!(report.stats.sent, 53 * 12);
        assert!(report.stats.delivered > 100, "{:?}", report.stats);
        assert_eq!(
            report.stats.dropped > 100,
            cond.drop_prob > 0.0,
            "{:?}",
            report.stats
        );
        assert_handed_over(&report, &layouts, &format!("{cond:?}"));
    }
}

/// Loss and three latencies: fate files each send in one of three rows.
const SPREAD: Conditions = Conditions {
    drop_prob: 0.2,
    latency: LatencyDist::Uniform { min: 1, max: 3 },
};

#[test]
fn a_lane_that_was_sent_to_from_two_phases_is_handed_over_like_any_other() {
    let (report, layouts) = echo_everywhere(true, Conditions::ideal());
    // 53 pings a round and, from round 1 on, 53 replies to last
    // round's pings.
    assert_eq!(report.stats.sent, 53 * 12 + 53 * 11);
    assert_eq!(report.stats.dropped, 0);
    assert_ne!(
        report.digests,
        echo_everywhere(false, Conditions::ideal()).0.digests,
        "the replies are observable"
    );
    // The lanes' senders step back where the replies begin; delivery
    // merges the two stretches, routing does not look.
    assert_handed_over(&report, &layouts, "two phases");
    // The same under loss, and under loss and a latency spread at once.
    for cond in [Conditions::with_loss(0.35), SPREAD] {
        let (lossy, layouts) = echo_everywhere(true, cond);
        assert!(lossy.stats.dropped > 100, "{:?}", lossy.stats);
        assert_handed_over(&lossy, &layouts, &format!("two phases, {cond:?}"));
    }
}

#[test]
fn a_latency_spread_hands_every_lane_over() {
    let (report, layouts) = echo_everywhere(false, SPREAD);
    assert!(report.stats.dropped > 50, "{:?}", report.stats);
    assert!(
        report.stats.delivered < report.stats.sent - report.stats.dropped,
        "some messages are still in flight at the halt"
    );
    assert_handed_over(&report, &layouts, "spread");
    // 64 rows, most of them never due in.
    let long_tail = Conditions::with_latency(LatencyDist::Geometric { p: 0.5, cap: 64 });
    let (report, layouts) = echo_everywhere(false, long_tail);
    assert!(report.stats.delivered > 400, "{:?}", report.stats);
    assert_handed_over(&report, &layouts, "geometric");
}

/// Every node sends one message a round, to a round-dependent target,
/// while `round < stop`, then falls silent; nodes count what they
/// receive. A round's digest is the reception count so far, and the run
/// halts after `rounds` rounds with the final one.
struct Burst {
    n: u32,
    stop: u64,
    rounds: u64,
}

impl RoundProtocol for Burst {
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
        round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, u8>,
    ) {
        if round < self.stop {
            let hop = 1 + round as u32 % (self.n - 1);
            out.send(NodeId((id.0 + hop) % self.n), 1);
        }
    }

    fn on_message(
        &self,
        node: &mut u64,
        _id: NodeId,
        _from: NodeId,
        _msg: u8,
        _round: u64,
        _rng: &mut SmallRng,
        _out: &mut Outbox<'_, u8>,
    ) {
        *node += 1;
    }

    fn observe_node(&self, node: &u64, _id: NodeId, _round: u64, obs: &mut RoundObs) {
        obs.count += node;
    }

    fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<u64> {
        if round + 1 == self.rounds {
            Verdict::Halt(obs.count)
        } else {
            Verdict::Continue
        }
    }

    fn digest_obs(&self, obs: &RoundObs, _round: u64) -> u64 {
        obs.count
    }
}

const LATENCIES: [LatencyDist; 6] = [
    LatencyDist::Fixed(1),
    LatencyDist::Fixed(2),
    LatencyDist::Fixed(3),
    LatencyDist::Fixed(4),
    LatencyDist::Uniform { min: 1, max: 3 },
    LatencyDist::Geometric { p: 0.5, cap: 8 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation and latency on every executor path: a burst of
    /// `stop` rounds, run until its slowest message is due, ends with
    /// `sent == delivered + dropped + churn_lost` exactly, under loss ×
    /// latency × churn; on an ideal channel with fixed latency `l`
    /// nothing arrives before round `l` and round 0's sends all arrive
    /// in it. Sharded runs at 1, 2 and 3 shards reproduce the sequential
    /// report.
    #[test]
    fn every_send_is_delivered_dropped_or_churn_lost(
        n in 2usize..40,
        stop in 1u64..12,
        seed in 0u64..10_000,
    ) {
        let pool = WorkerPool::new(2);
        let churns = [Churn::none(), Churn::intermittent(0.1), Churn::crash_stop(0.3, 10)];
        for drop_prob in [0.0, 0.1] {
            for latency in LATENCIES {
                for churn in churns {
                    let rounds = stop + latency.max_latency();
                    let burst = || Burst { n: n as u32, stop, rounds };
                    let cfg = RunConfig::seeded(seed)
                        .conditions(Conditions { drop_prob, latency })
                        .churn(churn)
                        .max_rounds(rounds);
                    let what = format!("n={n} stop={stop} {cfg:?}");
                    let reference = SequentialExecutor.run(&mut burst(), n, &cfg);
                    let (s, received) = (reference.stats, &reference.digests);
                    prop_assert_eq!(s.sent, s.delivered + s.dropped + s.churn_lost, "{}", what);
                    prop_assert_eq!(reference.output, Some(s.delivered), "{}", what);
                    if churn.is_none() {
                        prop_assert_eq!(s.sent, (n as u64) * stop, "{}", what);
                    }
                    match latency {
                        LatencyDist::Fixed(l) if drop_prob == 0.0 && churn.is_none() => {
                            let l = l as usize;
                            prop_assert_eq!(received[l - 1], 0, "{}", what);
                            prop_assert_eq!(received[l], n as u64, "{}", what);
                        }
                        _ => {}
                    }
                    for shards in [1, 2, 3] {
                        let sharded = ShardedExecutor::new(shards).run_in(&pool, &mut burst(), n, &cfg);
                        prop_assert_eq!(&sharded.digests, received, "{} shards={}", what, shards);
                        prop_assert_eq!(sharded.stats, s, "{} shards={}", what, shards);
                        prop_assert_eq!(sharded.output, reference.output, "{} shards={}", what, shards);
                    }
                }
            }
        }
    }
}
