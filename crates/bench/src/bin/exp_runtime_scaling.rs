//! Runtime scaling: the paper's workloads at large `n`, one table per
//! time model over one `--n` list (default `10⁵`, `--quick`: `10⁴`).
//!
//! * **Rounds** (default) — the dating-service rumor spread at each `n`
//!   on the sequential executor, then on `sharded(k)` for each
//!   `--shards` value; every sharded report must equal the sequential
//!   one. `--floor` makes it a throughput gate: every point must sustain
//!   the given msgs/sec, and a run that measured no point fails.
//! * **Continuous** (`--time-model continuous`) — every workload with a
//!   continuous-time port on the [`EventExecutor`], [`ASYNC_RUNS`] runs
//!   per `{workload, n}` cell that must reproduce one report.
//!
//! Sizes whose estimated footprint exceeds `MemAvailable` are skipped.
//! Determinism across workloads, executors and channel laws is checked
//! by `tests/differential.rs`; this harness measures.
//!
//! Usage: `exp_runtime_scaling [--quick] [--n 100000,1000000]
//!         [--shards 2,4,8] [--seed S] [--floor MSGS_PER_SEC]
//!         [--time-model rounds|continuous] [--csv]`

use rendez_bench::{CliArgs, Table};
use rendez_runtime::{AsyncSpread, EventExecutor, RunConfig, Scenario, ScenarioReport, Spreader};
use rendez_sim::NodeId;
use std::fmt::Debug;
use std::time::Instant;

/// The determinism contract, as `tests/differential.rs` checks it: the
/// two reports print the same, field for field.
fn identical<R: Debug>(a: &R, b: &R) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn trace_cell(same: bool) -> String {
    if same { "identical" } else { "DIVERGED" }.to_string()
}

/// Runs per continuous-time cell: all must produce one event trace, and
/// the printed wall time is their median (odd, so the median is a run).
const ASYNC_RUNS: usize = 5;

/// Per-node resident-footprint estimate used by the memory guard:
/// node state plus arena lanes plus in-flight envelopes. Deliberately
/// generous — skipping a point is cheaper than thrashing swap.
const EST_BYTES_PER_NODE: u64 = 256;

/// `MemAvailable` from `/proc/meminfo`, in bytes. `None` (non-Linux or
/// unreadable) disables the memory guard.
fn available_mem_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Print `msg` to stderr and exit with status 1.
fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

fn main() {
    let args = CliArgs::parse();
    let ns = args.get_usize_list("n", &[if args.has("quick") { 10_000 } else { 100_000 }]);
    let seed = args.get_u64("seed", 0x5CA1E);
    // The round executors' flags stay unread under `continuous`: passing
    // one there is an error.
    let rounds = match args.get_str("time-model", "rounds").as_str() {
        "rounds" => Some((
            args.get_usize_list("shards", &[2, 4, 8]),
            args.get_f64("floor", 0.0),
        )),
        "continuous" => None,
        other => panic!("--time-model wants rounds or continuous, got {other}"),
    };
    let csv = args.has("csv");
    args.reject_unread();

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("# n={ns:?} seed={seed:#x} cores={cores}");
    let fits = |&n: &usize| {
        let est = n as u64 * EST_BYTES_PER_NODE;
        match available_mem_bytes() {
            Some(avail) if est > avail => {
                println!(
                    "# skipping n={n}: estimated {est} bytes resident, only {avail} available"
                );
                false
            }
            _ => true,
        }
    };
    let ns: Vec<usize> = ns.into_iter().filter(fits).collect();
    match rounds {
        Some((shards, floor)) => rounds_table(&ns, &shards, seed, floor, csv),
        None => continuous_table(&ns, seed, csv),
    }
}

/// The dating spread at each `n`, sequential then every `shards` count.
fn rounds_table(ns: &[usize], shards: &[usize], seed: u64, floor: f64, csv: bool) {
    println!("# Rounds — dating-service rumor spread, sequential vs sharded");
    let columns =
        "n executor rounds informed sent delivered wall_s speedup ns/round Mmsg/s B/node trace";
    let mut t = Table::new(columns.split(' ').collect(), csv);
    let mut all_identical = true;
    // (msgs/sec, n, executor) of the slowest point, for the floor.
    let mut slowest: Option<(f64, usize, String)> = None;
    for &n in ns {
        let sequential = Scenario::new(n).protocol(Spreader::Dating);
        let sharded = shards.iter().map(|&k| sequential.clone().sharded(k));
        let mut reference: Option<(ScenarioReport, f64)> = None;
        for scenario in std::iter::once(sequential.clone()).chain(sharded) {
            let start = Instant::now();
            let r = scenario.run(seed).expect("scenario must validate");
            let wall = start.elapsed().as_secs_f64();
            let (trace, seq_wall) = match &reference {
                None => ("reference".to_string(), wall),
                Some((seq, seq_wall)) => {
                    let same = identical(seq, &r);
                    all_identical &= same;
                    (trace_cell(same), *seq_wall)
                }
            };
            let spread = r.output.as_ref().and_then(|o| o.spread());
            let informed = spread.expect("run must complete").final_informed();
            let msgs_per_sec = r.stats.sent as f64 / wall;
            t.row(vec![
                n.to_string(),
                scenario.executor_name(),
                r.rounds.to_string(),
                informed.to_string(),
                r.stats.sent.to_string(),
                r.stats.delivered.to_string(),
                format!("{wall:.3}"),
                format!("{:.2}", seq_wall / wall),
                format!("{:.0}", wall * 1e9 / r.rounds as f64),
                format!("{:.2}", msgs_per_sec / 1e6),
                format!("{:.1}", r.node_bytes as f64 / n as f64),
                trace,
            ]);
            if slowest.as_ref().is_none_or(|s| msgs_per_sec < s.0) {
                slowest = Some((msgs_per_sec, n, scenario.executor_name()));
            }
            reference.get_or_insert((r, wall));
        }
    }
    t.print();

    if floor > 0.0 {
        let Some((msgs_per_sec, n, executor)) = slowest else {
            fail(format!("--floor {floor:.0} set, but no point was measured"));
        };
        println!(
            "# floor: slowest point n={n} {executor} at {:.2} Mmsg/s (floor {:.2} Mmsg/s)",
            msgs_per_sec / 1e6,
            floor / 1e6
        );
        if msgs_per_sec < floor {
            fail(format!(
                "n={n} {executor} ran at {msgs_per_sec:.0} msgs/s, below --floor {floor:.0}"
            ));
        }
    }
    if !all_identical {
        fail("a sharded report diverged from the sequential one".to_string());
    }
    println!("# determinism: every sharded run reproduced its sequential trace bit-for-bit");
}

/// Every continuous-time workload at each `n`, [`ASYNC_RUNS`] runs each.
fn continuous_table(ns: &[usize], seed: u64, csv: bool) {
    println!(
        "# Continuous time — event-driven executor (rate 1.0/s), \
         {ASYNC_RUNS} runs per cell must be bit-identical"
    );
    let columns = "workload n events sim_s wall_s ns/event Mev/s trace";
    let mut t = Table::new(columns.split(' ').collect(), csv);
    let mut all_identical = true;
    let cfg = RunConfig::seeded(seed ^ 0xA57C);
    let workloads = Spreader::ALL
        .into_iter()
        .filter(|s| s.supports_continuous());
    for &n in ns {
        for sp in workloads.clone() {
            let mut walls = Vec::with_capacity(ASYNC_RUNS);
            let mut reference = None;
            let mut same = true;
            for _ in 0..ASYNC_RUNS {
                let mut proto = AsyncSpread::new(n, NodeId(0), sp);
                let start = Instant::now();
                let r = EventExecutor::new(1.0).run(&mut proto, n, &cfg);
                walls.push(start.elapsed().as_secs_f64());
                assert!(r.completed, "{sp} must complete at n={n}");
                match &reference {
                    None => reference = Some(r),
                    Some(first) => same &= identical(first, &r),
                }
            }
            all_identical &= same;
            let first = reference.expect("ASYNC_RUNS > 0");
            walls.sort_by(f64::total_cmp);
            let wall = walls[ASYNC_RUNS / 2];
            t.row(vec![
                sp.name().to_string(),
                n.to_string(),
                first.rounds.to_string(),
                format!("{:.2}", first.time.sim_seconds().unwrap_or(0.0)),
                format!("{wall:.3}"),
                format!("{:.0}", wall * 1e9 / first.rounds as f64),
                format!("{:.2}", first.rounds as f64 / wall / 1e6),
                trace_cell(same),
            ]);
        }
    }
    t.print();
    if !all_identical {
        fail("event traces diverged between runs of one seed".to_string());
    }
    println!("# async determinism: every repeated run reproduced its event trace bit-for-bit");
}
