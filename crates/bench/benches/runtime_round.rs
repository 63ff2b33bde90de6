//! Runtime executor micro-benchmarks: the same dating workload driven by
//! the sequential and sharded executors, so a regression in either the
//! round core, the shard-local routing or the splice merge shows up as a
//! relative shift — and, in `adapter_phases`, what each kind of round of
//! the dating cycle costs per node.
//!
//! Set `RENDEZ_BENCH_QUICK=1` to restrict to the smallest size with few
//! samples — the CI smoke mode that keeps the harness from bit-rotting
//! without spending CI minutes on statistics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rendez_core::{Platform, UniformSelector};
use rendez_runtime::adapters::RtDatingSpread;
use rendez_runtime::{
    Conditions, Executor, LatencyDist, Outbox, RoundObs, RoundProtocol, RunConfig, RuntimeDating,
    SequentialExecutor, ShardedExecutor, Verdict,
};
use rendez_sim::NodeId;
use std::time::{Duration, Instant};

const CYCLES: u64 = 3;

fn run_dating<E: Executor>(exec: &E, n: usize, seed: u64) -> u64 {
    let mut proto = RuntimeDating::new(Platform::unit(n), UniformSelector::new(n), CYCLES);
    let rounds = proto.total_rounds();
    exec.run(&mut proto, n, &RunConfig::seeded(seed).max_rounds(rounds))
        .expect_output()
        .total_dates()
}

fn bench_runtime_round(c: &mut Criterion) {
    let quick = std::env::var("RENDEZ_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let sizes: &[usize] = if quick { &[1_000] } else { &[1_000, 10_000] };
    let mut g = c.benchmark_group("runtime_round");
    g.sample_size(if quick { 3 } else { 10 });
    for &n in sizes {
        // One unit of throughput = one node-cycle of dating work.
        g.throughput(Throughput::Elements(CYCLES * n as u64));
        g.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, &n| {
            b.iter(|| run_dating(&SequentialExecutor, n, 1));
        });
        for shards in [4usize, 8] {
            let exec = ShardedExecutor::new(shards);
            g.bench_with_input(
                BenchmarkId::new(&format!("sharded{shards}"), n),
                &n,
                |b, &n| {
                    b.iter(|| run_dating(&exec, n, 1));
                },
            );
        }
    }
    g.finish();
}

/// `P` with the clock read at every verdict — once a round, on the
/// coordinating thread — so that a run's time splits by round. Every
/// hook is forwarded inlined: the engine runs the loops it runs for `P`.
struct RoundClock<P> {
    inner: P,
    verdicts: Vec<Instant>,
}

impl<P: RoundProtocol> RoundProtocol for RoundClock<P> {
    type Node = P::Node;
    type Msg = P::Msg;
    type Output = P::Output;

    fn init_node(&self, id: NodeId, rng: &mut SmallRng) -> P::Node {
        self.inner.init_node(id, rng)
    }

    #[inline]
    fn on_round_start(
        &self,
        node: &mut P::Node,
        id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, P::Msg>,
    ) {
        self.inner.on_round_start(node, id, round, rng, out);
    }

    #[inline]
    fn on_message(
        &self,
        node: &mut P::Node,
        id: NodeId,
        from: NodeId,
        msg: P::Msg,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, P::Msg>,
    ) {
        self.inner.on_message(node, id, from, msg, round, rng, out);
    }

    #[inline]
    fn on_receive_run(
        &self,
        node: &mut P::Node,
        id: NodeId,
        srcs: &[NodeId],
        msgs: &[P::Msg],
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, P::Msg>,
    ) {
        self.inner
            .on_receive_run(node, id, srcs, msgs, round, rng, out);
    }

    #[inline]
    fn on_round_end(
        &self,
        node: &mut P::Node,
        id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, P::Msg>,
    ) {
        self.inner.on_round_end(node, id, round, rng, out);
    }

    #[inline]
    fn observe_node(&self, node: &P::Node, id: NodeId, round: u64, obs: &mut RoundObs) {
        self.inner.observe_node(node, id, round, obs);
    }

    fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<P::Output> {
        self.verdicts.push(Instant::now());
        self.inner.finalize_obs(obs, round)
    }

    fn digest_obs(&self, obs: &RoundObs, round: u64) -> u64 {
        self.inner.digest_obs(obs, round)
    }

    #[inline]
    fn msg_bytes(&self, msg: &P::Msg) -> usize {
        self.inner.msg_bytes(msg)
    }
}

/// Mean duration of the rounds `r ≡ phase (mod 3)`, first cycle left out
/// as warm-up, of one sequential dating-spread run of `ROUNDS` rounds.
fn phase_round(n: usize, conditions: Conditions, phase: usize) -> Duration {
    const ROUNDS: u64 = 24;
    let mut proto = RoundClock {
        inner: RtDatingSpread::new(Platform::unit(n), UniformSelector::new(n), NodeId(0)),
        verdicts: Vec::new(),
    };
    let cfg = RunConfig::seeded(1)
        .max_rounds(ROUNDS)
        .conditions(conditions);
    SequentialExecutor.run(&mut proto, n, &cfg);
    let rounds: Vec<Duration> = proto.verdicts.windows(2).map(|w| w[1] - w[0]).collect();
    // `rounds[k]` is round `k + 1`.
    let of_phase = rounds.iter().skip(2 + phase).step_by(3);
    of_phase.clone().sum::<Duration>() / of_phase.count() as u32
}

/// What a round of the dating cycle costs per node (throughput is nodes
/// per second of one round): the emit round (offers and requests go out,
/// the last cycle's payloads land), the matchmaking round (they land and
/// are paired at round end), the answer round (answers land, payloads go
/// out) — and an off-phase round with nothing to deliver, where all
/// three engine loops meet a guard that fails. The last is a round
/// `≡ 2 (mod 3)` under a fixed latency of one whole cycle: offers land in
/// the next emit round and expire unmatched, so nothing is ever in
/// flight towards it.
fn bench_adapter_phases(c: &mut Criterion) {
    let quick = std::env::var("RENDEZ_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let n = 10_000;
    let mut g = c.benchmark_group("adapter_phases");
    g.sample_size(if quick { 3 } else { 15 });
    g.throughput(Throughput::Elements(n as u64));
    let one_cycle_late = Conditions::with_latency(LatencyDist::Fixed(3));
    for (name, conditions, phase) in [
        ("emit_round", Conditions::ideal(), 0),
        ("matchmaking_round", Conditions::ideal(), 1),
        ("answer_round", Conditions::ideal(), 2),
        ("off_phase_round", one_cycle_late, 2),
    ] {
        g.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
            b.iter_custom(|iters| (0..iters).map(|_| phase_round(n, conditions, phase)).sum());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_runtime_round, bench_adapter_phases);
criterion_main!(benches);
