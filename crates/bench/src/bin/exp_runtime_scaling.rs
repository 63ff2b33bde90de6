//! Runtime scaling experiment: sequential vs sharded execution at large
//! `n`, plus the full-registry determinism gate and the recorded perf
//! baseline.
//!
//! Three sections:
//!
//! 1. **Scaling** — the dating-service rumor spread at paper scale
//!    (`n = 10⁵`), sequential vs sharded, measuring wall-clock speedup
//!    and message throughput while verifying the headline property end
//!    to end: same seed → identical round count, informed history and
//!    per-round digest trace.
//! 2. **Determinism gate** — every workload in the [`Spreader`] registry
//!    (dating service + all seven Figure-2 spreaders), with and without
//!    churn, run through the [`Scenario`] builder on the sequential and
//!    sharded executors; every report must be bit-identical.
//! 3. **Recorded baseline** — `--bench-out PATH` additionally writes
//!    machine-readable records (ns/round, msgs/sec per
//!    `{workload, n, shards}`) so the hot path's perf trajectory is
//!    tracked across PRs; see `BENCH_runtime.json` and `EXPERIMENTS.md`.
//! 4. **n-scaling series** (`--n-series`) — the millions-of-nodes tier:
//!    the dating-spread workload at each `--series-n` point (default
//!    `10⁵` and `10⁶`), sequential plus every `--series-shards` count,
//!    exercising the streaming per-shard finalize and arena-backed node
//!    state. Each point verifies digest-trace identity across
//!    executors and records ns/round, msgs/sec and resident bytes/node
//!    into the `scaling` series of the benchmark file. Points whose
//!    estimated footprint exceeds `MemAvailable` are skipped.
//! 5. **Async determinism gate** (`--time-model continuous`) — every
//!    workload with a continuous-time port, run [`ASYNC_RUNS`] times
//!    through the event-driven [`EventExecutor`] at each `--async-n`
//!    size; every repetition must reproduce the first one's event
//!    trace bit for bit, and each `{workload, n}` cell records
//!    events/sec and ns/event at the median wall time into the
//!    `async_events` series of the benchmark file.
//!
//! Usage: `exp_runtime_scaling [--quick] [--n N] [--seed S]
//!         [--shards 2,4,8] [--gate-n N] [--bench-out PATH]
//!         [--n-series] [--series-n 100000,1000000]
//!         [--series-shards 1,2,8] [--series-floor MSGS_PER_SEC]
//!         [--time-model continuous] [--async-n 20000,100000] [--csv]`
//!
//! `--series-floor` turns the n-scaling series into a perf regression
//! gate: every regenerated scaling point must sustain at least the
//! given msgs/sec (CI pins this to the pre-refactor throughput of the
//! message plane at the smoke-test `n`, so a hot-path regression fails
//! the job instead of silently shipping).
//!
//! Defaults run the paper-scale `n = 10⁵` spread; `--quick` drops to
//! `n = 10⁴` for CI.

use rendez_bench::{
    load_bench_json, write_bench_json, AsyncEventsRecord, BenchRecord, CliArgs, ScalingRecord,
    Table,
};
use rendez_runtime::{
    AsyncSpread, AsyncSpreadSummary, Churn, EventExecutor, RunConfig, RunReport, Scenario,
    ScenarioReport, Spreader,
};
use rendez_sim::NodeId;
use std::time::Instant;

fn timed_run(scenario: &Scenario, seed: u64) -> (ScenarioReport, f64) {
    let start = Instant::now();
    let report = scenario.run(seed).expect("scenario must validate");
    (report, start.elapsed().as_secs_f64())
}

fn identical(a: &ScenarioReport, b: &ScenarioReport) -> bool {
    a.rounds == b.rounds && a.digests == b.digests && a.stats == b.stats && a.output == b.output
}

fn record(workload: &str, n: usize, shards: usize, r: &ScenarioReport, wall_s: f64) -> BenchRecord {
    BenchRecord {
        workload: workload.to_string(),
        n,
        shards,
        rounds: r.rounds,
        wall_s,
        msgs_sent: r.stats.sent,
        msgs_delivered: r.stats.delivered,
    }
}

/// Identical runs per async gate cell: all must produce one event
/// trace, and the recorded wall time is their median (odd, so the
/// median is a run).
const ASYNC_RUNS: usize = 5;

/// Per-node resident-footprint estimate used by the memory gate:
/// node state plus arena lanes plus in-flight envelopes. Deliberately
/// generous — skipping a point is cheaper than thrashing swap.
const EST_BYTES_PER_NODE: u64 = 256;

/// `MemAvailable` from `/proc/meminfo`, in bytes. `None` (non-Linux or
/// unreadable) disables the memory gate.
fn available_mem_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn scaling_point(n: usize, shards: usize, r: &ScenarioReport, wall_s: f64) -> ScalingRecord {
    ScalingRecord {
        workload: Spreader::Dating.name().to_string(),
        n,
        shards,
        rounds: r.rounds,
        wall_s,
        msgs_sent: r.stats.sent,
        node_bytes: r.node_bytes,
    }
}

fn main() {
    let args = CliArgs::parse();
    let n = args.get_u64("n", if args.has("quick") { 10_000 } else { 100_000 }) as usize;
    let gate_n = args.get_u64("gate-n", if args.has("quick") { 1_500 } else { 4_000 }) as usize;
    let seed = args.get_u64("seed", 0x5CA1E);
    let shard_counts = args.get_usize_list("shards", &[2, 4, 8]);
    let bench_out = args.get_str("bench-out", "");
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut records: Vec<BenchRecord> = Vec::new();

    println!("# Runtime scaling — dating-service rumor spread, sequential vs sharded");
    println!("# n={n} seed={seed:#x} cores={cores}");
    if cores == 1 {
        println!(
            "# note: single-core host — sharded rows measure the zero-coordinator \
             hot path against the sequential reference (the counting-bucket \
             delivery pass usually wins even without parallelism); rerun on a \
             >= 4-core host for the parallel speedup numbers"
        );
    }

    let mut t = Table::new(
        vec![
            "executor", "rounds", "informed", "wall_s", "speedup", "Mmsg/s", "trace",
        ],
        args.has("csv"),
    );

    let scaling = Scenario::new(n).protocol(Spreader::Dating);
    let (seq, seq_wall) = timed_run(&scaling, seed);
    let seq_out = seq.output.clone().expect("sequential run must complete");
    let seq_rec = record("dating", n, 0, &seq, seq_wall);
    t.row(vec![
        scaling.executor_name(),
        seq.rounds.to_string(),
        seq_out
            .spread()
            .expect("spread")
            .final_informed()
            .to_string(),
        format!("{seq_wall:.3}"),
        "1.00".to_string(),
        format!("{:.2}", seq_rec.msgs_per_sec() / 1e6),
        "reference".to_string(),
    ]);
    records.push(seq_rec);

    let mut all_identical = true;
    for &shards in &shard_counts {
        let sharded = scaling.clone().sharded(shards);
        let (sh, wall) = timed_run(&sharded, seed);
        let same = identical(&seq, &sh);
        all_identical &= same;
        let rec = record("dating", n, shards, &sh, wall);
        t.row(vec![
            sharded.executor_name(),
            sh.rounds.to_string(),
            sh.output
                .as_ref()
                .and_then(|o| o.spread())
                .expect("sharded run must complete")
                .final_informed()
                .to_string(),
            format!("{wall:.3}"),
            format!("{:.2}", seq_wall / wall),
            format!("{:.2}", rec.msgs_per_sec() / 1e6),
            if same { "identical" } else { "DIVERGED" }.to_string(),
        ]);
        records.push(rec);
    }
    t.print();

    // ---- Determinism gate: all eight workloads, with and without churn.
    let gate_shards = *shard_counts.iter().max().unwrap_or(&4);
    println!();
    println!(
        "# Determinism gate — every registry workload via Scenario, n={gate_n}, \
         sequential vs sharded({gate_shards}), ideal vs churned (5% intermittent)"
    );
    let mut gate = Table::new(
        vec![
            "workload",
            "churn",
            "rounds",
            "delivered",
            "churn_lost",
            "trace",
        ],
        args.has("csv"),
    );
    for spreader in Spreader::ALL {
        for churned in [false, true] {
            let scenario = {
                let s = Scenario::new(gate_n).protocol(spreader).cycles(20);
                if churned {
                    s.churn(Churn::intermittent(0.05))
                } else {
                    s
                }
            };
            let (a, seq_wall) = timed_run(&scenario, seed ^ 0x6A7E);
            let sharded = scenario.clone().sharded(gate_shards);
            let (b, sh_wall) = timed_run(&sharded, seed ^ 0x6A7E);
            let same = identical(&a, &b);
            all_identical &= same;
            if !churned {
                records.push(record(spreader.name(), gate_n, 0, &a, seq_wall));
                records.push(record(spreader.name(), gate_n, gate_shards, &b, sh_wall));
            }
            gate.row(vec![
                spreader.name().to_string(),
                if churned { "5%" } else { "none" }.to_string(),
                a.rounds.to_string(),
                a.stats.delivered.to_string(),
                a.stats.churn_lost.to_string(),
                if same { "identical" } else { "DIVERGED" }.to_string(),
            ]);
        }
    }
    gate.print();

    println!(
        "# determinism: {}",
        if all_identical {
            "every sharded run reproduced its sequential trace bit-for-bit"
        } else {
            "FAILURE: executor traces diverged"
        }
    );

    // ---- n-scaling series: the millions-of-nodes tier.
    let mut scaling_records: Vec<ScalingRecord> = Vec::new();
    if args.has("n-series") {
        let series_n = args.get_usize_list("series-n", &[100_000, 1_000_000]);
        let series_shards = args.get_usize_list("series-shards", &[1, 2, 8]);
        println!();
        println!(
            "# n-scaling series — {} via streaming finalize + arena node state",
            Spreader::Dating.name()
        );
        let mut st = Table::new(
            vec![
                "n", "shards", "rounds", "wall_s", "ns/round", "Mmsg/s", "B/node", "trace",
            ],
            args.has("csv"),
        );
        for &sn in &series_n {
            if let Some(avail) = available_mem_bytes() {
                let est = sn as u64 * EST_BYTES_PER_NODE;
                if est > avail {
                    println!(
                        "# skipping n={sn}: estimated {est} bytes resident, \
                         only {avail} available"
                    );
                    continue;
                }
            }
            let sc = Scenario::new(sn).protocol(Spreader::Dating);
            let (seq, seq_wall) = timed_run(&sc, seed);
            let mut point_rows =
                vec![(0usize, seq_wall, scaling_point(sn, 0, &seq, seq_wall), true)];
            for &k in &series_shards {
                let sharded = sc.clone().sharded(k);
                let (sh, wall) = timed_run(&sharded, seed);
                let same = seq.digests == sh.digests && identical(&seq, &sh);
                all_identical &= same;
                point_rows.push((k, wall, scaling_point(sn, k, &sh, wall), same));
            }
            for (k, wall, rec, same) in point_rows {
                st.row(vec![
                    sn.to_string(),
                    k.to_string(),
                    rec.rounds.to_string(),
                    format!("{wall:.3}"),
                    format!("{:.0}", rec.ns_per_round()),
                    format!("{:.2}", rec.msgs_per_sec() / 1e6),
                    format!("{:.1}", rec.bytes_per_node()),
                    if k == 0 {
                        "reference".to_string()
                    } else if same {
                        "identical".to_string()
                    } else {
                        "DIVERGED".to_string()
                    },
                ]);
                scaling_records.push(rec);
            }
        }
        st.print();

        let floor = args.get_f64("series-floor", 0.0);
        if floor > 0.0 {
            let slowest = scaling_records
                .iter()
                .min_by(|a, b| a.msgs_per_sec().total_cmp(&b.msgs_per_sec()));
            match slowest {
                None => println!("# series floor: no scaling points ran (all skipped)"),
                Some(rec) => {
                    println!(
                        "# series floor: slowest point n={} shards={} at {:.2} Mmsg/s \
                         (floor {:.2} Mmsg/s)",
                        rec.n,
                        rec.shards,
                        rec.msgs_per_sec() / 1e6,
                        floor / 1e6
                    );
                    assert!(
                        rec.msgs_per_sec() >= floor,
                        "n-scaling throughput regression: n={} shards={} ran at {:.0} msgs/s, \
                         below --series-floor {:.0}",
                        rec.n,
                        rec.shards,
                        rec.msgs_per_sec(),
                        floor
                    );
                }
            }
        }
    }

    // ---- Async determinism gate: the continuous-time executor must
    // reproduce its event trace run after run.
    let mut async_records: Vec<AsyncEventsRecord> = Vec::new();
    let run_async = args.get_str("time-model", "") == "continuous";
    if run_async {
        let async_ns = args.get_usize_list("async-n", &[20_000]);
        println!();
        println!(
            "# Async determinism gate — event-driven executor (rate 1.0/s), \
             n={async_ns:?}, {ASYNC_RUNS} runs per cell must be bit-identical"
        );
        let mut at = Table::new(
            vec![
                "workload", "n", "events", "sim_s", "wall_s", "ns/event", "Mev/s", "trace",
            ],
            args.has("csv"),
        );
        let cfg = RunConfig::seeded(seed ^ 0xA57C);
        for &an in &async_ns {
            for sp in Spreader::ALL
                .into_iter()
                .filter(|s| s.supports_continuous())
            {
                let mut walls = Vec::with_capacity(ASYNC_RUNS);
                let mut reference: Option<RunReport<AsyncSpreadSummary>> = None;
                let mut same = true;
                for _ in 0..ASYNC_RUNS {
                    let mut proto = AsyncSpread::new(an, NodeId(0), sp);
                    let start = Instant::now();
                    let r = EventExecutor::new(1.0).run(&mut proto, an, &cfg);
                    walls.push(start.elapsed().as_secs_f64());
                    assert!(r.completed, "{sp} must complete at n={an}");
                    match &reference {
                        None => reference = Some(r),
                        Some(first) => {
                            same &= r.rounds == first.rounds
                                && r.digests == first.digests
                                && r.stats == first.stats
                                && r.output == first.output
                                && r.time == first.time
                        }
                    }
                }
                all_identical &= same;
                let first = reference.expect("ASYNC_RUNS > 0");
                walls.sort_by(f64::total_cmp);
                let rec = AsyncEventsRecord {
                    workload: sp.name().to_string(),
                    n: an,
                    reps: ASYNC_RUNS,
                    events: first.rounds,
                    wall_s: walls[ASYNC_RUNS / 2],
                };
                at.row(vec![
                    sp.name().to_string(),
                    an.to_string(),
                    first.rounds.to_string(),
                    format!("{:.2}", first.time.sim_seconds().unwrap_or(0.0)),
                    format!("{:.3}", rec.wall_s),
                    format!("{:.0}", rec.ns_per_event()),
                    format!("{:.2}", rec.events_per_sec() / 1e6),
                    if same { "identical" } else { "DIVERGED" }.to_string(),
                ]);
                async_records.push(rec);
            }
        }
        at.print();
        println!(
            "# async determinism: {}",
            if all_identical {
                "every repeated run reproduced its event trace bit-for-bit"
            } else {
                "FAILURE: event traces diverged between runs of one seed"
            }
        );
    }

    if !bench_out.is_empty() {
        let path = std::path::Path::new(&bench_out);
        // Preserve the sweep_throughput series exp_sweep owns; rewrite
        // only the records this binary produced. The scaling and
        // async_events series are replaced only when their sections
        // actually ran.
        let (_, sweeps, old_scaling, old_async) = load_bench_json(path);
        let scaling_out = if args.has("n-series") {
            &scaling_records
        } else {
            &old_scaling
        };
        let async_out = if run_async {
            &async_records
        } else {
            &old_async
        };
        write_bench_json(path, cores, seed, &records, &sweeps, scaling_out, async_out)
            .unwrap_or_else(|e| panic!("cannot write {bench_out}: {e}"));
        println!(
            "# wrote {} benchmark records, {} scaling points and {} async points to {bench_out}",
            records.len(),
            scaling_out.len(),
            async_out.len()
        );
    }
    assert!(
        all_identical,
        "a run diverged from its reference trace (sharded vs sequential, or async run vs run)"
    );
}
