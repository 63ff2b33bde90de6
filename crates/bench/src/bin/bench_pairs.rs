//! Compare two builds of the repository benchmark in alternated pairs.
//!
//! ```text
//! bench_pairs --a OLD_BIN --b NEW_BIN [--workloads w,…] [--pairs 10]
//!             [--seconds 12] [--seed S] [--quick]
//! ```
//!
//! `OLD_BIN` and `NEW_BIN` are `rendez-benchmark` executables (build
//! each checkout with `cargo build --release --manifest-path
//! benchmark/Cargo.toml` and copy the binary out). For each workload
//! (default: every workload `BENCHMARK.json` lists) the runner makes
//! `--pairs` pairs of child runs, alternating which build goes first
//! (A B, B A, …) so a drift of the host favours neither, and reads each
//! child's last line — the benchmark's JSON result — with
//! `rendez_fleet::json`. A child run that is not `correct` or reports a
//! failed check stops the comparison.
//!
//! It prints one row per workload × end-to-end metric: A and B as
//! median [lower quartile, upper quartile], the ratio of the medians
//! B/A, the pairs in which B is ahead (better in the metric's direction
//! than A in the same pair), whether the medians differ by more than A's
//! interquartile range, and the metric's bound. Direction and bound come
//! from `BENCHMARK.json`, which the runner only reads (it is compiled
//! in). Quartiles follow Python's `statistics.quantiles(values, n=4)`,
//! as the benchmark's own `iqr_rel` does.
//!
//! Exit status: 0 when B is inside every bound, 1 when B's median is
//! worse than A's by more than a metric's bound or a child run failed,
//! 2 on an unread flag. `--quick` runs the children at smoke size
//! (three repetitions each), whose timings say nothing about a bound:
//! the table is printed, every child is still checked, and no bound is
//! applied.

use std::process::{Command, ExitCode};

use rendez_bench::CliArgs;
use rendez_fleet::json::{self, Json};

/// The benchmark's manifest: workloads, and each end-to-end metric's
/// direction and bound.
const MANIFEST: &str = include_str!("../../../../BENCHMARK.json");

/// One gated end-to-end metric, as `BENCHMARK.json` declares it.
#[derive(Debug)]
struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// The workload names and gated metrics of a `BENCHMARK.json` text.
fn read_manifest(text: &str) -> Result<(Vec<String>, Vec<Metric>), String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key:?} list"))
    };
    let name = |item: &Json| {
        item.get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("an entry without a name")
    };
    let workloads = list("workloads")?
        .iter()
        .map(name)
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|item| {
            let better = item.get("better").and_then(Json::as_str);
            Ok(Metric {
                name: name(item)?,
                higher_is_better: match better {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => return Err(format!("metric direction {other:?}")),
                },
                bound: item
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("a metric without a bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

/// Linear-interpolation quantile at position `(len + 1)·k/4`, clamped
/// to the sample (Python's `statistics.quantiles(…, n=4)`, "exclusive").
fn quartile(sorted: &[f64], k: usize) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = (sorted.len() + 1) as f64 * k as f64 / 4.0;
    let j = (pos.floor() as usize).clamp(1, sorted.len() - 1);
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * (pos - j as f64)
}

/// Median and quartiles of one build's runs.
#[derive(Debug, Clone, Copy)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "no runs to summarise");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("a NaN metric"));
        let mid = v.len() / 2;
        let median = if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        };
        Self {
            q1: quartile(&v, 1),
            median,
            q3: quartile(&v, 3),
        }
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Pairs in which B beats A in the metric's direction (ties are not
/// ahead).
fn pairs_ahead(a: &[f64], b: &[f64], higher_is_better: bool) -> usize {
    a.iter()
        .zip(b)
        .filter(|(a, b)| if higher_is_better { b > a } else { b < a })
        .count()
}

/// Whether B's median is worse than A's by more than `bound`, as a
/// share of A's median.
fn over_bound(a: f64, b: f64, metric: &Metric) -> bool {
    if metric.higher_is_better {
        b < a * (1.0 - metric.bound)
    } else {
        b > a * (1.0 + metric.bound)
    }
}

/// Four significant digits, never in exponent form; millions as `M`.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    if v.abs() >= 1e6 {
        return format!("{} M", sig(v / 1e6));
    }
    let decimals = 3 - v.abs().log10().floor() as i32;
    format!("{v:.*}", decimals.max(0) as usize)
}

/// The child's arguments, shared by both builds.
struct Child {
    seconds: f64,
    /// Passed through as given; the benchmark reads decimal or `0x` hex.
    seed: Option<String>,
    quick: bool,
}

impl Child {
    /// Run `bin` on `workload` once and return its metrics in `metrics`'
    /// order, refusing a run that is not correct or failed a check.
    fn run(&self, bin: &str, workload: &str, metrics: &[Metric]) -> Result<Vec<f64>, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--workload", workload])
            .args(["--seconds", &self.seconds.to_string()]);
        if let Some(seed) = &self.seed {
            cmd.args(["--seed", seed]);
        }
        if self.quick {
            cmd.arg("--quick");
        }
        let out = cmd.output().map_err(|e| format!("cannot run {bin}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "{bin} --workload {workload} exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let line = stdout.lines().last().unwrap_or_default();
        let doc = json::parse(line).map_err(|e| format!("{bin} {workload} result line: {e}"))?;
        let failed = doc.get("failed").and_then(Json::as_f64);
        if doc.get("correct") != Some(&Json::Bool(true)) || failed != Some(0.0) {
            return Err(format!("{bin} {workload}: refused run: {line}"));
        }
        metrics
            .iter()
            .map(|m| {
                doc.get("metrics")
                    .and_then(|all| all.get(&m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{bin} {workload} did not report {}", m.name))
            })
            .collect()
    }
}

fn run(args: &CliArgs) -> Result<ExitCode, String> {
    let a = args.get_str("a", "");
    let b = args.get_str("b", "");
    let (all, metrics) = read_manifest(MANIFEST)?;
    let workloads = args.get_str_list("workloads", &[]);
    let workloads = if workloads.is_empty() {
        all.clone()
    } else {
        workloads
    };
    let pairs = args.get_u64("pairs", 10) as usize;
    let seed = args.get_str("seed", "");
    let child = Child {
        seconds: args.get_f64("seconds", 12.0),
        seed: (!seed.is_empty()).then_some(seed),
        quick: args.has("quick"),
    };
    args.reject_unread();
    if a.is_empty() || b.is_empty() {
        return Err("--a BIN and --b BIN are required".to_string());
    }
    if let Some(unknown) = workloads.iter().find(|w| !all.contains(w)) {
        return Err(format!("BENCHMARK.json lists no workload {unknown:?}"));
    }
    if pairs == 0 {
        return Err("--pairs must be at least 1".to_string());
    }

    println!("# A = {a}");
    println!("# B = {b}");
    println!(
        "# {pairs} alternated pairs per workload, --seconds {}{}{}",
        child.seconds,
        child
            .seed
            .as_ref()
            .map(|s| format!(", --seed {s}"))
            .unwrap_or_default(),
        if child.quick { ", --quick" } else { "" }
    );
    println!(
        "{:<22} {:<17} {:>28} {:>28} {:>7} {:>6} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "B/A",
        "ahead",
        ">IQR(A)",
        "bound"
    );
    let mut exceeded = 0;
    for workload in &workloads {
        // runs[build][pair][metric]
        let mut runs = [Vec::with_capacity(pairs), Vec::with_capacity(pairs)];
        for pair in 0..pairs {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for build in order {
                let bin = if build == 0 { &a } else { &b };
                runs[build].push(child.run(bin, workload, &metrics)?);
            }
            eprintln!("{workload}: pair {}/{pairs} done", pair + 1);
        }
        for (i, metric) in metrics.iter().enumerate() {
            let [va, vb] =
                [0, 1].map(|build| runs[build].iter().map(|r| r[i]).collect::<Vec<f64>>());
            let (sa, sb) = (Spread::of(&va), Spread::of(&vb));
            let over = !child.quick && over_bound(sa.median, sb.median, metric);
            exceeded += over as usize;
            let show = |s: Spread| format!("{} [{}, {}]", sig(s.median), sig(s.q1), sig(s.q3));
            println!(
                "{:<22} {:<17} {:>28} {:>28} {:>7.3} {:>6} {:>8} {:>6.2}  {}",
                workload,
                metric.name,
                show(sa),
                show(sb),
                sb.median / sa.median,
                format!("{}/{pairs}", pairs_ahead(&va, &vb, metric.higher_is_better)),
                if (sb.median - sa.median).abs() > sa.iqr() {
                    "yes"
                } else {
                    "no"
                },
                metric.bound,
                match (child.quick, over) {
                    (true, _) => "not gated",
                    (false, true) => "OVER BOUND",
                    (false, false) => "ok",
                }
            );
        }
    }
    if exceeded > 0 {
        println!("# {exceeded} metric(s) worse than their bound");
        return Ok(ExitCode::FAILURE);
    }
    if child.quick {
        println!("# --quick: every child run checked, no bound applied");
    } else {
        println!("# every metric inside its bound");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    run(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Spread::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.iqr(), 5.5);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Spread::of(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // Two runs: the positions clamp and extrapolate, as Python's do
        // (statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]).
        let s = Spread::of(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        // One run (a --pairs 1 smoke): every statistic is that run.
        let s = Spread::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn ahead_counts_pairs_in_the_metrics_direction() {
        let a = [10.0, 10.0, 10.0, 10.0];
        let b = [11.0, 9.0, 10.0, 12.0];
        assert_eq!(pairs_ahead(&a, &b, true), 2);
        assert_eq!(pairs_ahead(&a, &b, false), 1);
        // Pairs compare run i of A with run i of B, not sorted samples.
        assert_eq!(pairs_ahead(&[1.0, 5.0], &[4.0, 2.0], true), 1);
    }

    #[test]
    fn bounds_apply_to_the_worse_direction_only() {
        let higher = Metric {
            name: "throughput_per_s".into(),
            higher_is_better: true,
            bound: 0.25,
        };
        assert!(!over_bound(100.0, 76.0, &higher));
        assert!(over_bound(100.0, 74.0, &higher));
        assert!(!over_bound(100.0, 500.0, &higher));
        let lower = Metric {
            name: "setup_s".into(),
            higher_is_better: false,
            bound: 0.15,
        };
        assert!(!over_bound(1.0, 1.14, &lower));
        assert!(over_bound(1.0, 1.16, &lower));
        assert!(!over_bound(1.0, 0.1, &lower));
    }

    #[test]
    fn the_checked_in_manifest_reads() {
        let (workloads, metrics) = read_manifest(MANIFEST).expect("BENCHMARK.json parses");
        assert!(workloads.iter().any(|w| w == "sweep-fleet"));
        let setup = metrics
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(!setup.higher_is_better && setup.bound > 0.0);
        assert!(metrics.iter().any(|m| m.higher_is_better));
    }

    #[test]
    fn numbers_print_with_four_significant_digits() {
        assert_eq!(sig(3689.4), "3689");
        assert_eq!(sig(0.0109456), "0.01095");
        assert_eq!(sig(4.171875), "4.172");
        assert_eq!(sig(46_970_000.0), "46.97 M");
        assert_eq!(sig(999_950.0), "999950");
    }
}
