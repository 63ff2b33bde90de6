//! Criterion counterpart of Figure 1: one dating round at each `n`,
//! uniform and DHT selectors, count-only and full-materialization paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_core::{Platform, UniformSelector};
use rendez_dht::DhtSelector;
use rendez_gossip::{CountWorkspace, DatingService, RoundWorkspace};

fn bench_dating_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_dating_round");
    for &n in &[100usize, 1_000, 10_000] {
        let platform = Platform::unit(n);
        let uniform = UniformSelector::new(n);
        let dht = DhtSelector::random(n, 7);
        g.throughput(Throughput::Elements(n as u64));

        g.bench_with_input(BenchmarkId::new("uniform_count", n), &n, |b, _| {
            let svc = DatingService::new(&platform, &uniform);
            let mut ws = CountWorkspace::new(n);
            let mut rng = SmallRng::seed_from_u64(1);
            b.iter(|| svc.count_dates(&mut ws, &mut rng));
        });

        g.bench_with_input(BenchmarkId::new("uniform_full", n), &n, |b, _| {
            let svc = DatingService::new(&platform, &uniform);
            let mut ws = RoundWorkspace::new(n);
            let mut rng = SmallRng::seed_from_u64(2);
            b.iter(|| svc.run_round_with(&mut ws, &mut rng).date_count());
        });

        g.bench_with_input(BenchmarkId::new("dht_count", n), &n, |b, _| {
            let svc = DatingService::new(&platform, &dht);
            let mut ws = CountWorkspace::new(n);
            let mut rng = SmallRng::seed_from_u64(3);
            b.iter(|| svc.count_dates(&mut ws, &mut rng));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dating_round);
criterion_main!(benches);
