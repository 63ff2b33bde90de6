//! Runtime scaling experiment: sequential vs sharded execution at large
//! `n`, plus the full-registry determinism gates.
//!
//! Four sections:
//!
//! 1. **Scaling** — the dating-service rumor spread at paper scale
//!    (`n = 10⁵`), sequential vs sharded, measuring wall-clock speedup
//!    and message throughput while verifying the headline property end
//!    to end: same seed → identical [`RunReport`], field for field.
//! 2. **Determinism gate** — every workload in the [`Spreader`] registry
//!    (dating service + all seven Figure-2 spreaders), with and without
//!    churn, run through the [`Scenario`] builder on the sequential and
//!    sharded executors; every report must be bit-identical. Each row
//!    also prints the messages sent and both executors' wall times.
//! 3. **n-scaling series** (`--n-series`) — the millions-of-nodes tier:
//!    the dating-spread workload at each `--series-n` point (default
//!    `10⁵` and `10⁶`), sequential plus every `--series-shards` count,
//!    exercising the streaming per-shard finalize and arena-backed node
//!    state. Each point verifies report identity across executors and
//!    prints ns/round, msgs/sec and resident bytes/node. Points whose
//!    estimated footprint exceeds `MemAvailable` are skipped.
//! 4. **Async determinism gate** (`--time-model continuous`) — every
//!    workload with a continuous-time port, run [`ASYNC_RUNS`] times
//!    through the event-driven [`EventExecutor`] at each `--async-n`
//!    size; every repetition must reproduce the first one's report bit
//!    for bit, and each `{workload, n}` cell prints events/sec and
//!    ns/event at the median wall time.
//!
//! Usage: `exp_runtime_scaling [--quick] [--n N] [--seed S]
//!         [--shards 2,4,8] [--gate-n N]
//!         [--n-series] [--series-n 100000,1000000]
//!         [--series-shards 1,2,8] [--series-floor MSGS_PER_SEC]
//!         [--time-model continuous] [--async-n 20000,100000] [--csv]`
//!
//! `--csv` prints every table as CSV, the machine-readable form of the
//! numbers. `--series-floor` turns the n-scaling series into a perf
//! regression gate: every regenerated scaling point must sustain at
//! least the given msgs/sec (CI pins this to the pre-refactor
//! throughput of the message plane at the smoke-test `n`, so a hot-path
//! regression fails the job instead of silently shipping).
//!
//! Defaults run the paper-scale `n = 10⁵` spread; `--quick` drops to
//! `n = 10⁴` for CI.

use rendez_bench::{CliArgs, Table};
use rendez_runtime::{
    AsyncSpread, Churn, EventExecutor, RunConfig, RunReport, Scenario, ScenarioReport, Spreader,
};
use rendez_sim::NodeId;
use std::time::Instant;

fn timed_run(scenario: &Scenario, seed: u64) -> (ScenarioReport, f64) {
    let start = Instant::now();
    let report = scenario.run(seed).expect("scenario must validate");
    (report, start.elapsed().as_secs_f64())
}

/// The determinism contract: every field of the report agrees.
fn identical<R: PartialEq>(a: &RunReport<R>, b: &RunReport<R>) -> bool {
    a.rounds == b.rounds
        && a.time == b.time
        && a.completed == b.completed
        && a.output == b.output
        && a.digests == b.digests
        && a.stats == b.stats
        && a.node_bytes == b.node_bytes
}

/// `count` per wall-clock second (0 for an untimed run).
fn per_sec(count: u64, wall_s: f64) -> f64 {
    if wall_s <= 0.0 {
        return 0.0;
    }
    count as f64 / wall_s
}

/// Wall-clock nanoseconds per unit of `count` (0 when nothing ran).
fn ns_per(wall_s: f64, count: u64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    wall_s * 1e9 / count as f64
}

fn trace_cell(same: bool) -> String {
    if same { "identical" } else { "DIVERGED" }.to_string()
}

/// Identical runs per async gate cell: all must produce one event
/// trace, and the printed wall time is their median (odd, so the
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

fn main() {
    let args = CliArgs::parse();
    let n = args.get_u64("n", if args.has("quick") { 10_000 } else { 100_000 }) as usize;
    let gate_n = args.get_u64("gate-n", if args.has("quick") { 1_500 } else { 4_000 }) as usize;
    let seed = args.get_u64("seed", 0x5CA1E);
    let shard_counts = args.get_usize_list("shards", &[2, 4, 8]);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

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
            "executor",
            "rounds",
            "informed",
            "sent",
            "delivered",
            "wall_s",
            "speedup",
            "Mmsg/s",
            "trace",
        ],
        args.has("csv"),
    );

    let scaling = Scenario::new(n).protocol(Spreader::Dating);
    let (seq, seq_wall) = timed_run(&scaling, seed);
    let mut scaling_row = |executor: String, r: &ScenarioReport, wall: f64, trace: String| {
        t.row(vec![
            executor,
            r.rounds.to_string(),
            r.output
                .as_ref()
                .and_then(|o| o.spread())
                .expect("run must complete")
                .final_informed()
                .to_string(),
            r.stats.sent.to_string(),
            r.stats.delivered.to_string(),
            format!("{wall:.3}"),
            format!("{:.2}", seq_wall / wall),
            format!("{:.2}", per_sec(r.stats.sent, wall) / 1e6),
            trace,
        ]);
    };
    scaling_row(
        scaling.executor_name(),
        &seq,
        seq_wall,
        "reference".to_string(),
    );

    let mut all_identical = true;
    for &shards in &shard_counts {
        let sharded = scaling.clone().sharded(shards);
        let (sh, wall) = timed_run(&sharded, seed);
        let same = identical(&seq, &sh);
        all_identical &= same;
        scaling_row(sharded.executor_name(), &sh, wall, trace_cell(same));
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
            "sent",
            "delivered",
            "churn_lost",
            "seq_s",
            "sharded_s",
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
            gate.row(vec![
                spreader.name().to_string(),
                if churned { "5%" } else { "none" }.to_string(),
                a.rounds.to_string(),
                a.stats.sent.to_string(),
                a.stats.delivered.to_string(),
                a.stats.churn_lost.to_string(),
                format!("{seq_wall:.3}"),
                format!("{sh_wall:.3}"),
                trace_cell(same),
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
                "n", "shards", "rounds", "sent", "wall_s", "ns/round", "Mmsg/s", "B/node", "trace",
            ],
            args.has("csv"),
        );
        // (n, shards, msgs/sec) of every point, for the floor below.
        let mut throughputs: Vec<(usize, usize, f64)> = Vec::new();
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
            let mut point_rows = vec![(0usize, seq_wall, "reference".to_string())];
            let mut reports = vec![seq];
            for &k in &series_shards {
                let sharded = sc.clone().sharded(k);
                let (sh, wall) = timed_run(&sharded, seed);
                let same = identical(&reports[0], &sh);
                all_identical &= same;
                point_rows.push((k, wall, trace_cell(same)));
                reports.push(sh);
            }
            for ((k, wall, trace), r) in point_rows.into_iter().zip(&reports) {
                let msgs_per_sec = per_sec(r.stats.sent, wall);
                st.row(vec![
                    sn.to_string(),
                    k.to_string(),
                    r.rounds.to_string(),
                    r.stats.sent.to_string(),
                    format!("{wall:.3}"),
                    format!("{:.0}", ns_per(wall, r.rounds)),
                    format!("{:.2}", msgs_per_sec / 1e6),
                    format!("{:.1}", r.node_bytes as f64 / sn.max(1) as f64),
                    trace,
                ]);
                throughputs.push((sn, k, msgs_per_sec));
            }
        }
        st.print();

        let floor = args.get_f64("series-floor", 0.0);
        if floor > 0.0 {
            let slowest = throughputs.iter().min_by(|a, b| a.2.total_cmp(&b.2));
            match slowest {
                None => println!("# series floor: no scaling points ran (all skipped)"),
                Some(&(sn, k, msgs_per_sec)) => {
                    println!(
                        "# series floor: slowest point n={sn} shards={k} at {:.2} Mmsg/s \
                         (floor {:.2} Mmsg/s)",
                        msgs_per_sec / 1e6,
                        floor / 1e6
                    );
                    assert!(
                        msgs_per_sec >= floor,
                        "n-scaling throughput regression: n={sn} shards={k} ran at \
                         {msgs_per_sec:.0} msgs/s, below --series-floor {floor:.0}"
                    );
                }
            }
        }
    }

    // ---- Async determinism gate: the continuous-time executor must
    // reproduce its event trace run after run.
    if args.get_str("time-model", "") == "continuous" {
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
                let mut reference = None;
                let mut same = true;
                for _ in 0..ASYNC_RUNS {
                    let mut proto = AsyncSpread::new(an, NodeId(0), sp);
                    let start = Instant::now();
                    let r = EventExecutor::new(1.0).run(&mut proto, an, &cfg);
                    walls.push(start.elapsed().as_secs_f64());
                    assert!(r.completed, "{sp} must complete at n={an}");
                    match &reference {
                        None => reference = Some(r),
                        Some(first) => same &= identical(first, &r),
                    }
                }
                all_identical &= same;
                let first = reference.expect("ASYNC_RUNS > 0");
                walls.sort_by(f64::total_cmp);
                let wall = walls[ASYNC_RUNS / 2];
                at.row(vec![
                    sp.name().to_string(),
                    an.to_string(),
                    first.rounds.to_string(),
                    format!("{:.2}", first.time.sim_seconds().unwrap_or(0.0)),
                    format!("{wall:.3}"),
                    format!("{:.0}", ns_per(wall, first.rounds)),
                    format!("{:.2}", per_sec(first.rounds, wall) / 1e6),
                    trace_cell(same),
                ]);
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

    assert!(
        all_identical,
        "a run diverged from its reference trace (sharded vs sequential, or async run vs run)"
    );
}
