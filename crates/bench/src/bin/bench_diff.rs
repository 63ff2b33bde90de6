//! Compare two `BENCH_runtime.json` files record by record.
//!
//! Joins the `records` and `scaling` series of an old and a new
//! benchmark document on `{workload, n, shards}` (and `sweep_throughput`
//! on `{engine, pool}`, `async_events` on `{workload, n}`) and
//! prints the throughput delta for every matched cell, plus cells that
//! appear on only one side. CI runs this as an informational step after
//! regenerating the benchmark file, so perf regressions show up in the
//! job log next to the run that caused them.
//!
//! Usage: `bench_diff --old OLD.json --new NEW.json [--csv]
//!         [--min-ratio R]`
//!
//! By default the exit code is always 0 (informational). With
//! `--min-ratio R`, the process fails if any matched cell's
//! `new/old` throughput ratio drops below `R` — an opt-in regression
//! gate for local use.

use rendez_bench::{load_bench_json, CliArgs, Table};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One joined series: rows of `(cell label, old rate, new rate)` in
/// stable label order, with a per-series unit for display.
struct SeriesDiff {
    name: &'static str,
    unit: &'static str,
    /// Rates are divided by this before printing (1e6 → "M/s" columns).
    display_scale: f64,
    rows: Vec<(String, Option<f64>, Option<f64>)>,
}

fn join<T>(
    name: &'static str,
    unit: &'static str,
    display_scale: f64,
    old: &[T],
    new: &[T],
    key: impl Fn(&T) -> String,
    rate: impl Fn(&T) -> f64,
) -> SeriesDiff {
    let mut merged: BTreeMap<String, (Option<f64>, Option<f64>)> = BTreeMap::new();
    for r in old {
        merged.entry(key(r)).or_default().0 = Some(rate(r));
    }
    for r in new {
        merged.entry(key(r)).or_default().1 = Some(rate(r));
    }
    SeriesDiff {
        name,
        unit,
        display_scale,
        rows: merged.into_iter().map(|(k, (a, b))| (k, a, b)).collect(),
    }
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    let old_path = args.get_str("old", "");
    let new_path = args.get_str("new", "");
    assert!(
        !old_path.is_empty() && !new_path.is_empty(),
        "usage: bench_diff --old OLD.json --new NEW.json [--csv] [--min-ratio R]"
    );
    let min_ratio = args.get_f64("min-ratio", 0.0);

    let (old_recs, old_sweeps, old_scaling, old_async) = load_bench_json(Path::new(&old_path));
    let (new_recs, new_sweeps, new_scaling, new_async) = load_bench_json(Path::new(&new_path));

    let diffs = [
        join(
            "records",
            "Mmsg/s",
            1e6,
            &old_recs,
            &new_recs,
            |r| format!("{} n={} shards={}", r.workload, r.n, r.shards),
            |r| r.msgs_per_sec(),
        ),
        join(
            "scaling",
            "Mmsg/s",
            1e6,
            &old_scaling,
            &new_scaling,
            |r| format!("{} n={} shards={}", r.workload, r.n, r.shards),
            |r| r.msgs_per_sec(),
        ),
        join(
            "sweep_throughput",
            "scenarios/s",
            1.0,
            &old_sweeps,
            &new_sweeps,
            |r| format!("{} pool={}", r.engine, r.pool),
            |r| r.scenarios_per_sec(),
        ),
        join(
            "async_events",
            "Mev/s",
            1e6,
            &old_async,
            &new_async,
            |r| format!("{} n={}", r.workload, r.n),
            |r| r.events_per_sec(),
        ),
    ];

    println!("# bench-diff: {old_path} -> {new_path}");
    let mut worst: Option<(String, f64)> = None;
    for diff in &diffs {
        if diff.rows.is_empty() {
            continue;
        }
        let fmt = |r: Option<f64>| match r {
            Some(v) => format!("{:.2}", v / diff.display_scale),
            None => "-".to_string(),
        };
        println!();
        println!("# series: {} ({})", diff.name, diff.unit);
        let mut t = Table::new(
            vec!["cell", "old", "new", "delta", "ratio"],
            args.has("csv"),
        );
        for (cell, old, new) in &diff.rows {
            let (delta, ratio) = match (old, new) {
                (Some(a), Some(b)) if *a > 0.0 => {
                    (format!("{:+.1}%", (b - a) / a * 100.0), Some(b / a))
                }
                (None, Some(_)) => ("added".to_string(), None),
                (Some(_), None) => ("removed".to_string(), None),
                _ => ("-".to_string(), None),
            };
            if let Some(r) = ratio {
                if worst.as_ref().is_none_or(|(_, w)| r < *w) {
                    worst = Some((format!("{}: {cell}", diff.name), r));
                }
            }
            t.row(vec![
                cell.clone(),
                fmt(*old),
                fmt(*new),
                delta,
                ratio.map_or("-".to_string(), |r| format!("{r:.3}")),
            ]);
        }
        t.print();
    }

    match &worst {
        Some((cell, r)) => println!("# worst ratio: {r:.3} ({cell})"),
        None => println!("# no overlapping cells to compare"),
    }
    if min_ratio > 0.0 {
        if let Some((cell, r)) = &worst {
            if *r < min_ratio {
                eprintln!("bench-diff: {cell} ratio {r:.3} below --min-ratio {min_ratio}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
