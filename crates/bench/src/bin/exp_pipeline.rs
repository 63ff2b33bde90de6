//! §4 pipelining experiment: k dating rounds over DHT routing.
//!
//! Routing a request on the DHT costs Θ(log n) hops; without pipelining
//! each dating round pays it serially, with pipelining "for k rounds of
//! dating service we need time Θ(log n + k)". We measure real Chord and
//! Naor–Wieder hop counts on random rings and print both makespans and
//! the speedup.
//!
//! The second section runs the §4 workload itself — the dating service
//! targeting DHT arc owners — on the message-passing runtime through the
//! [`Scenario`] builder (`Scenario::selector(DhtSelector::…)`), on both
//! the sequential and the sharded executor: the measured date fraction
//! is checked against the ring's analytic prediction, and the traces
//! must be bit-identical (the §4 model rides the same zero-coordinator
//! hot path as every other workload).
//!
//! Usage: `exp_pipeline [--quick|--full] [--k K] [--seed S] [--shards S]
//!         [--csv]`

use rendez_bench::{CliArgs, Table};
use rendez_core::pipeline::{
    pipeline_speedup, pipelined_makespan, round_latency, sequential_makespan,
};
use rendez_core::NodeSelector;
use rendez_dht::{ChordNet, DhtSelector, NaorWiederNet, Ring};
use rendez_runtime::Scenario;

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x919);
    let k = args.get_u64("k", 100);
    let samples = args.scaled_trials(5_000, 300) as usize;
    let default_ns: Vec<usize> = if args.has("quick") {
        vec![100, 1_000]
    } else {
        vec![100, 1_000, 10_000, 100_000]
    };
    let ns = args.get_usize_list("n", &default_ns);
    let shards = args.get_u64("shards", 4) as usize;
    let cycles = args.scaled_trials(200, 40);
    let runtime_ns = args.get_usize_list("runtime-n", &[1_000, 10_000]);
    let csv = args.has("csv");
    args.reject_unread();

    println!("# §4 pipelining — k={k} dating rounds over DHT routing ({samples} lookups/point)");
    let mut t = Table::new(
        vec![
            "n",
            "log2 n",
            "chord_hops",
            "nw_hops",
            "round_latency",
            "sequential",
            "pipelined",
            "speedup",
        ],
        csv,
    );

    for &n in &ns {
        let ring = Ring::random(n, seed ^ n as u64);
        let chord = ChordNet::build(ring.clone());
        let (chord_mean, _) = chord.lookup_hops(samples, seed ^ 1);
        let nw = NaorWiederNet::new(ring, 3);
        let (nw_mean, _) = nw.lookup_hops(samples, seed ^ 2);
        let hops = chord_mean.round() as u64;
        t.row(vec![
            n.to_string(),
            format!("{:.1}", (n as f64).log2()),
            format!("{chord_mean:.2}"),
            format!("{nw_mean:.2}"),
            round_latency(hops).to_string(),
            sequential_makespan(k, hops).to_string(),
            pipelined_makespan(k, hops).to_string(),
            format!("{:.1}x", pipeline_speedup(k, hops)),
        ]);
    }
    t.print();
    println!("# expected: pipelined ≈ 2·log n + k, speedup → 2·hops+1 for k >> log n");

    // ---- §4 on the runtime: DHT-selected dating via the Scenario
    // builder, sequential vs sharded (ROADMAP: "DHT selector through the
    // builder").
    println!();
    println!(
        "# §4 workload on the runtime — dating service over DhtSelector, \
         {cycles} cycles, sequential vs sharded({shards})"
    );
    let mut rt = Table::new(
        vec![
            "n",
            "dates/m",
            "predicted",
            "seq_wall_s",
            "shard_wall_s",
            "trace",
        ],
        csv,
    );
    for &n in &runtime_ns {
        let selector = DhtSelector::random(n, seed ^ 0xD47 ^ n as u64);
        let predicted =
            rendez_core::analysis::expected_dates_weighted(&selector.weights(), n as u64, n as u64)
                / n as f64;
        let scenario = Scenario::new(n).selector(selector).cycles(cycles);
        let t0 = std::time::Instant::now();
        let seq = scenario.run(seed ^ n as u64).expect("valid scenario");
        let seq_wall = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let sh = scenario
            .clone()
            .sharded(shards)
            .run(seed ^ n as u64)
            .expect("valid scenario");
        let shard_wall = t1.elapsed().as_secs_f64();
        let same = seq.digests == sh.digests && seq.stats == sh.stats && seq.output == sh.output;
        let dating = seq
            .expect_output()
            .dating()
            .expect("dating workload")
            .clone();
        let frac = dating.total_dates() as f64 / (cycles * n as u64) as f64;
        rt.row(vec![
            n.to_string(),
            format!("{frac:.4}"),
            format!("{predicted:.4}"),
            format!("{seq_wall:.3}"),
            format!("{shard_wall:.3}"),
            if same { "identical" } else { "DIVERGED" }.to_string(),
        ]);
        assert!(same, "DHT-selected dating diverged between executors");
        assert!(
            (frac - predicted).abs() < 0.05,
            "measured {frac} vs predicted {predicted}"
        );
    }
    rt.print();
    println!("# builder one-liner: Scenario::new(n).selector(DhtSelector::random(n, s)).cycles(k).sharded(4).run(seed)");
}
