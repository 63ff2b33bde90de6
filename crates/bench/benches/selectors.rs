//! Selector throughput: the `select` call is the hot loop of every
//! dating round (`Bin + Bout` draws per round). Ablation: alias-method
//! weighted draw vs uniform vs DHT owner lookup (binary search).
//!
//! Every selector is called through static dispatch, as the runtime's
//! adapters call it (they are generic over `S: NodeSelector`); a
//! `&dyn NodeSelector` row would time a virtual call nothing makes.
//!
//! * `uniform`, `alias_zipf`, `dht_owner` at n = 10³ and 10⁵;
//! * `alias_bw_in/20000` — the benchmark's `hetero-dating-seq` selector:
//!   incoming bandwidth of its power-law platform;
//! * `alias_emit/20000` — the same draw followed by what a send does
//!   with it: an out-of-line [`EnvBatch::push`] of one [`DatingMsg`]
//!   (an 8-byte word), `BW` sends per source as in a node's phase 0.
//!
//! Set `RENDEZ_BENCH_QUICK=1` for the CI smoke mode (few samples).

use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_core::{AliasSelector, DatingMsg, NodeSelector, Platform, UniformSelector};
use rendez_dht::DhtSelector;
use rendez_runtime::EnvBatch;
use rendez_sim::NodeId;

const DRAWS: u64 = 10_000;
/// Workload 4's size and platform (`benchmark/src/workloads.rs`).
const HETERO_N: usize = 20_000;
/// Sends per source in the emit-shaped row.
const BW: u64 = 4;

fn draws<S: NodeSelector>(b: &mut Bencher<'_>, sel: &S) {
    let mut rng = SmallRng::seed_from_u64(9);
    b.iter(|| {
        let mut acc = 0u64;
        for _ in 0..DRAWS {
            acc = acc.wrapping_add(sel.select(&mut rng).0 as u64);
        }
        acc
    });
}

/// The send behind `Outbox::send`: one call, the message by value.
#[inline(never)]
fn send(lane: &mut EnvBatch<DatingMsg>, src: NodeId, seq: u64, dst: NodeId, msg: DatingMsg) {
    lane.push(src, seq, dst, msg);
}

fn emits<S: NodeSelector>(b: &mut Bencher<'_>, sel: &S) {
    let mut rng = SmallRng::seed_from_u64(9);
    let mut lane = EnvBatch::with_capacity(DRAWS as usize);
    // Opaque, as `emit`'s message argument is to the adapter's send loop.
    let msg = std::hint::black_box(DatingMsg::Offer);
    b.iter(|| {
        lane.clear();
        for seq in 0..DRAWS {
            let src = NodeId((seq / BW) as u32);
            send(&mut lane, src, seq, sel.select(&mut rng), msg);
        }
        lane.len()
    });
}

fn bench_selectors(c: &mut Criterion) {
    let quick = std::env::var("RENDEZ_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut g = c.benchmark_group("selectors");
    g.throughput(Throughput::Elements(DRAWS));
    g.sample_size(if quick { 3 } else { 20 });
    for &n in &[1_000usize, 100_000] {
        let uniform = UniformSelector::new(n);
        let zipf = AliasSelector::zipf(n, 1.0);
        let dht = DhtSelector::random(n, 5);
        g.bench_with_input(BenchmarkId::new("uniform", n), &n, |b, _| {
            draws(b, &uniform)
        });
        g.bench_with_input(BenchmarkId::new("alias_zipf", n), &n, |b, _| {
            draws(b, &zipf)
        });
        g.bench_with_input(BenchmarkId::new("dht_owner", n), &n, |b, _| draws(b, &dht));
    }
    let bw_in: Vec<f64> = Platform::power_law(HETERO_N, 1.1, 4.0, 5)
        .iter()
        .map(|(_, caps)| caps.bw_in as f64)
        .collect();
    let hetero = AliasSelector::new(&bw_in, "bw_in");
    g.bench_with_input(
        BenchmarkId::new("alias_bw_in", HETERO_N),
        &HETERO_N,
        |b, _| draws(b, &hetero),
    );
    g.bench_with_input(
        BenchmarkId::new("alias_emit", HETERO_N),
        &HETERO_N,
        |b, _| emits(b, &hetero),
    );
    g.finish();
}

criterion_group!(benches, bench_selectors);
criterion_main!(benches);
