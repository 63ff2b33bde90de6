//! Micro-benchmarks of the cache-resident message plane: SoA message
//! batches, the hoisted fate kernel, and the end-to-end delivery path.
//!
//! Seven groups:
//!
//! * `emit` — filling an [`EnvBatch`] through `push` (three appends per
//!   message), and reading it back in emission order through `iter`;
//! * `fate` — a fresh [`Conditions::fate_run`] per message vs one per
//!   sender's burst, which keys the sender once and then pays one `mix`
//!   per message for the loss test;
//! * `deliver` — a full dating run on the sequential executor, which is
//!   dominated by the route → slot-row → counting-delivery pass;
//! * `deliver_mixed` — [`order_deliveries`] on a bucket that `k` send
//!   rounds filed into (what a latency spread produces), over the same
//!   message count: the conditioned counterpart of `deliver`, with
//!   `k = 1` (plain concatenation) as the reference point;
//! * `route` — a round's sends from `Outbox::send` to delivery, at 10⁵
//!   messages a round, every emission lane handed over whole: on one
//!   shard with every sender emitting in one phase (`whole_batch`), the
//!   same messages emitted from two phases so the lane's senders step
//!   back and delivery merges two stretches (`two_phase`), under
//!   `Uniform{1,3}` latency so fate files each send in one of three slot
//!   rows (`spread`), under `spread-faulty-seq`'s channel — loss 0.05,
//!   `Uniform{1,2}`, intermittent churn 0.05 — so every send looks up
//!   its sender's fate key and every round fills a churn mask (`faulty`;
//!   down nodes do not send, so it moves ≈ 5 % fewer messages than the
//!   throughput counts), and lane by lane on two shards
//!   (`ShardedExecutor::run_in` on a 2-thread pool);
//! * `event_queue` — the event executor's wake queue under the hold
//!   model (pop the earliest wake, push the same node back one
//!   exponential inter-arrival later): the calendar [`WakeQueue`]
//!   against the `BinaryHeap` it replaced, at `n` = 10⁴ and 10⁶;
//! * `event_loop` — a whole asynchronous push&pull run on the
//!   [`EventExecutor`] at `n` = 2.5×10⁴, in wake events per second: the
//!   queue, the callbacks parking their sends and the per-event
//!   observation and digest together.
//!
//! Set `RENDEZ_BENCH_QUICK=1` for the CI smoke mode (smallest size,
//! few samples) that keeps the harness from bit-rotting without
//! spending CI minutes on statistics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rendez_core::{Platform, UniformSelector};
use rendez_runtime::batch::{order_deliveries, DeliverScratch};
use rendez_runtime::{
    AsyncSpread, Churn, Conditions, EnvBatch, EventExecutor, Executor, LatencyDist, Outbox,
    RoundObs, RoundProtocol, RunConfig, RuntimeDating, SequentialExecutor, ShardedExecutor,
    Spreader, Verdict, WakeQueue, WorkerPool, TICKS_PER_SEC,
};
use rendez_sim::{NodeId, SplitMix64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const CYCLES: u64 = 3;

/// Synthetic emission trace: `senders` sources each emit `per_src`
/// messages in one burst (the executor phase pattern), destinations
/// striding over the id space, as `(src, seq, dst, msg)`.
fn emission(senders: usize, per_src: usize) -> Vec<(NodeId, u64, NodeId, u64)> {
    let n = senders * 4;
    let mut out = Vec::with_capacity(senders * per_src);
    for s in 0..senders {
        for k in 0..per_src {
            out.push((
                NodeId(s as u32),
                k as u64,
                NodeId(((s * 7 + k * 13) % n) as u32),
                (s * per_src + k) as u64,
            ));
        }
    }
    out
}

/// The trace pushed into one batch.
fn batched(trace: &[(NodeId, u64, NodeId, u64)]) -> EnvBatch<u64> {
    let mut batch = EnvBatch::new();
    for &(src, seq, dst, msg) in trace {
        batch.push(src, seq, dst, msg);
    }
    batch
}

fn bench_emit(c: &mut Criterion) {
    let quick = std::env::var("RENDEZ_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let trace = emission(1_000, 16);
    let mut g = c.benchmark_group("delivery_kernel/emit");
    g.sample_size(if quick { 3 } else { 20 });
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function(BenchmarkId::new("envbatch_push", ""), |b| {
        let mut batch = EnvBatch::new();
        b.iter(|| {
            batch.clear();
            for &(src, seq, dst, msg) in &trace {
                batch.push(src, seq, dst, msg);
            }
            batch.len()
        });
    });
    g.bench_function(BenchmarkId::new("envbatch_iter", ""), |b| {
        let batch = batched(&trace);
        b.iter(|| {
            batch
                .iter()
                .map(|(src, dst, msg)| u64::from(src.0 ^ dst.0) ^ *msg)
                .fold(0u64, u64::wrapping_add)
        });
    });
    g.finish();
}

fn bench_fate(c: &mut Criterion) {
    let quick = std::env::var("RENDEZ_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let trace = emission(1_000, 16);
    let cond = Conditions::with_loss(0.05);
    let seed = 0x5CA1E;
    let mut g = c.benchmark_group("delivery_kernel/fate");
    g.sample_size(if quick { 3 } else { 20 });
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function(BenchmarkId::new("per_envelope", ""), |b| {
        b.iter(|| {
            trace
                .iter()
                .filter_map(|&(src, seq, _, _)| cond.fate_run(seed, src).fate(seq))
                .fold(0u64, u64::wrapping_add)
        });
    });
    g.bench_function(BenchmarkId::new("hoisted_run", ""), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for burst in trace.chunk_by(|a, b| a.0 == b.0) {
                let fr = cond.fate_run(seed, burst[0].0);
                for &(_, seq, _, _) in burst {
                    if let Some(l) = fr.fate(seq) {
                        acc = acc.wrapping_add(l);
                    }
                }
            }
            acc
        });
    });
    g.finish();
}

fn bench_deliver(c: &mut Criterion) {
    let quick = std::env::var("RENDEZ_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let n: usize = if quick { 1_000 } else { 10_000 };
    let mut g = c.benchmark_group("delivery_kernel/deliver");
    g.sample_size(if quick { 3 } else { 10 });
    g.throughput(Throughput::Elements(CYCLES * n as u64));
    g.bench_with_input(BenchmarkId::new("dating_sequential", n), &n, |b, &n| {
        b.iter(|| {
            let mut proto = RuntimeDating::new(Platform::unit(n), UniformSelector::new(n), CYCLES);
            let rounds = proto.total_rounds();
            SequentialExecutor
                .run(&mut proto, n, &RunConfig::seeded(1).max_rounds(rounds))
                .expect_output()
                .total_dates()
        });
    });
    g.finish();
}

fn bench_deliver_mixed(c: &mut Criterion) {
    let quick = std::env::var("RENDEZ_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let n: usize = if quick { 1_000 } else { 10_000 };
    let total = CYCLES as usize * n;
    let mut g = c.benchmark_group("delivery_kernel/deliver_mixed");
    g.sample_size(if quick { 3 } else { 10 });
    g.throughput(Throughput::Elements(total as u64));
    for k in [1usize, 2, 8] {
        g.bench_with_input(BenchmarkId::new("order_deliveries", k), &k, |b, &k| {
            let mut segments: Vec<EnvBatch<u64>> = (0..k).map(|_| EnvBatch::new()).collect();
            let mut ds = DeliverScratch::default();
            b.iter(|| {
                // Refill (the kernel drains its input): segment `r` is
                // send round `r`, `total / k` messages from senders in
                // ascending id order, the same senders in every round —
                // so all `k` streams interleave sender by sender, and a
                // sender's burst splits into `k` shorter stretches, as
                // under a latency spread. The refill is timed too; it pushes
                // the same messages for every `k`.
                let per_seg = total / k;
                for (r, seg) in segments.iter_mut().enumerate() {
                    for m in 0..per_seg {
                        let src = m * n / per_seg;
                        let dst = (src * 7 + (r * per_seg + m) * 13) % n;
                        seg.push(NodeId(src as u32), m as u64, NodeId(dst as u32), m as u64);
                    }
                }
                order_deliveries(&mut segments, 0, n, &mut ds)
            });
        });
    }
    g.finish();
}

/// One message per node and round to a strided target, nothing else.
/// With `two_phase` the upper half of the ids sends from `on_round_start`
/// and the lower half from `on_round_end`: the same messages, but the
/// round's senders step back once, and delivery merges the lane's
/// two stretches instead of walking it straight through.
struct Stride {
    n: u32,
    two_phase: bool,
}

impl Stride {
    fn send(&self, id: NodeId, out: &mut Outbox<'_, u64>) {
        out.send(NodeId((id.0 * 7 + 13) % self.n), u64::from(id.0));
    }
}

impl RoundProtocol for Stride {
    type Node = u64;
    type Msg = u64;
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
        out: &mut Outbox<'_, u64>,
    ) {
        if !self.two_phase || id.0 >= self.n / 2 {
            self.send(id, out);
        }
    }

    fn on_message(
        &self,
        node: &mut u64,
        _id: NodeId,
        _from: NodeId,
        msg: u64,
        _round: u64,
        _rng: &mut SmallRng,
        _out: &mut Outbox<'_, u64>,
    ) {
        *node = node.wrapping_add(msg);
    }

    fn on_round_end(
        &self,
        _node: &mut u64,
        id: NodeId,
        _round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, u64>,
    ) {
        if self.two_phase && id.0 < self.n / 2 {
            self.send(id, out);
        }
    }

    fn observe_node(&self, node: &u64, _id: NodeId, _round: u64, obs: &mut RoundObs) {
        obs.count = obs.count.wrapping_add(*node);
    }

    fn finalize_obs(&mut self, _obs: &RoundObs, _round: u64) -> Verdict<u64> {
        Verdict::Continue
    }
}

fn bench_route(c: &mut Criterion) {
    let quick = std::env::var("RENDEZ_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    const ROUNDS: u64 = 8;
    let n: usize = 100_000;
    let mut g = c.benchmark_group("delivery_kernel/route");
    g.sample_size(if quick { 3 } else { 10 });
    g.throughput(Throughput::Elements(ROUNDS * n as u64));
    let pool = WorkerPool::new(2);
    let spread = Conditions::with_latency(LatencyDist::Uniform { min: 1, max: 3 });
    let faulty = Conditions {
        drop_prob: 0.05,
        latency: LatencyDist::Uniform { min: 1, max: 2 },
    };
    let (ideal, none) = (Conditions::ideal(), Churn::none());
    for (path, two_phase, cond, churn, shards) in [
        ("whole_batch", false, ideal, none, 1),
        ("two_phase", true, ideal, none, 1),
        ("spread", false, spread, none, 1),
        ("faulty", false, faulty, Churn::intermittent(0.05), 1),
        ("sharded(2)", false, ideal, none, 2),
    ] {
        g.bench_with_input(BenchmarkId::new(path, n), &n, |b, &n| {
            b.iter(|| {
                let mut proto = Stride {
                    n: n as u32,
                    two_phase,
                };
                let cfg = RunConfig::seeded(1)
                    .max_rounds(ROUNDS)
                    .conditions(cond)
                    .churn(churn);
                let report = match shards {
                    1 => SequentialExecutor.run(&mut proto, n, &cfg),
                    _ => ShardedExecutor::new(shards).run_in(&pool, &mut proto, n, &cfg),
                };
                if churn.is_none() {
                    assert_eq!(report.stats.sent, ROUNDS * n as u64);
                }
                report.stats.delivered
            });
        });
    }
    g.finish();
}

/// Exponential inter-arrival at one wake per simulated second, from
/// the next hash of `draws` — the executor's wake clock, minus the
/// per-node streams.
fn hold_dt(draws: &mut SplitMix64) -> u64 {
    let u = (draws.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    ((-(1.0 - u).ln() * TICKS_PER_SEC as f64) as u64).max(1)
}

fn bench_event_queue(c: &mut Criterion) {
    let quick = std::env::var("RENDEZ_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    const HOLDS: u64 = 100_000;
    let sizes: &[usize] = if quick {
        &[10_000]
    } else {
        &[10_000, 1_000_000]
    };
    let mut g = c.benchmark_group("delivery_kernel/event_queue");
    g.sample_size(if quick { 3 } else { 20 });
    g.throughput(Throughput::Elements(HOLDS));
    for &n in sizes {
        // Both queues start from the same `n` wakes and see the same
        // inter-arrivals; the hold loop carries on across iterations.
        let mut draws = SplitMix64::new(7);
        let starts: Vec<u64> = (0..n).map(|_| hold_dt(&mut draws)).collect();

        g.bench_with_input(BenchmarkId::new("calendar", n), &n, |b, &n| {
            let mut draws = SplitMix64::new(11);
            let mut timers: Vec<(u64, u32)> = starts.iter().map(|&at| (at, 0)).collect();
            let mut queue = WakeQueue::new(n, 1.0);
            for node in 0..n as u32 {
                queue.push(&mut timers, node);
            }
            b.iter(|| {
                let mut last = 0;
                for _ in 0..HOLDS {
                    let (now, node) = queue.pop(&timers).expect("n wakes are queued");
                    timers[node as usize].0 = now + hold_dt(&mut draws);
                    queue.push(&mut timers, node);
                    last = now;
                }
                last
            });
        });

        g.bench_with_input(BenchmarkId::new("binary_heap", n), &n, |b, _| {
            let mut draws = SplitMix64::new(11);
            let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
                starts.iter().copied().zip(0u32..).map(Reverse).collect();
            b.iter(|| {
                let mut last = 0;
                for _ in 0..HOLDS {
                    let Reverse((now, node)) = heap.pop().expect("n wakes are queued");
                    heap.push(Reverse((now + hold_dt(&mut draws), node)));
                    last = now;
                }
                last
            });
        });
    }
    g.finish();
}

fn bench_event_loop(c: &mut Criterion) {
    let quick = std::env::var("RENDEZ_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let n: usize = if quick { 2_500 } else { 25_000 };
    let cfg = RunConfig::seeded(1).max_rounds(500);
    let run = || {
        let mut proto = AsyncSpread::new(n, NodeId(0), Spreader::PushPull);
        EventExecutor::new(1.0).run(&mut proto, n, &cfg)
    };
    // Every run processes the same events, so one tells the throughput.
    let events = run().rounds;
    let mut g = c.benchmark_group("delivery_kernel/event_loop");
    g.sample_size(if quick { 3 } else { 10 });
    g.throughput(Throughput::Elements(events));
    g.bench_with_input(BenchmarkId::new("push_pull", n), &n, |b, _| {
        b.iter(|| {
            let report = run();
            assert!(report.completed);
            report.stats.delivered
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_emit,
    bench_fate,
    bench_deliver,
    bench_deliver_mixed,
    bench_route,
    bench_event_queue,
    bench_event_loop
);
criterion_main!(benches);
