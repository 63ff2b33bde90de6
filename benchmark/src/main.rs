//! The repository benchmark.
//!
//! ```text
//! rendez-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! rendez-benchmark agree [--seed N] [--seconds S]
//! rendez-benchmark bless
//! rendez-benchmark manifest
//! rendez-benchmark --list
//! ```
//!
//! One invocation runs one workload in one process: it generates the
//! inputs from the seed, drives the system through its public API for the
//! measuring time, checks every repetition's output, prints every metric
//! by name and unit, and ends with one JSON line (`correct`, `attempted`,
//! `failed`, `metrics`). `--trace 0` (default) reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics from a separate
//! traced run and writes the spans to `out/trace-<workload>.json`. See
//! `README.md` for the metric and workload definitions.

mod agree;
mod host;
mod layers;
mod measure;
mod pins;
mod probes;
mod stats;
mod traced;
mod tracefile;
mod workloads;

use measure::Tally;
use std::process::ExitCode;
use workloads::{Plan, Scale, Workload, DEFAULT_SEED};

/// Measuring time when `--seconds` is not given (and `BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 12.0;

/// Name, unit, direction and regression bound of one end-to-end metric.
pub struct GatedDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` states it.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The end-to-end metrics — the single source `BENCHMARK.json`'s
/// `end_to_end` list is checked against.
pub const END_TO_END: [GatedDef; 3] = [
    GatedDef {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    GatedDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    GatedDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

/// Parsed command line of a workload invocation.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}; try --list"))?,
                );
            }
            "--seed" => o.seed = parse_u64(value()?)?,
            "--seconds" => {
                let text = value()?;
                o.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {text:?}"))?;
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Render a metric value with all its digits (shortest representation
/// that parses back to the same `f64`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The closing JSON line of an invocation.
fn result_line(tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn print_row(name: &str, value: f64, unit: &str, better: &str, note: &str) {
    println!("{name:<30} {value:>18.6} {unit:<6} {better:<7} {note}");
}

/// Run one workload invocation and print its report.
fn run_workload(o: &Options) -> Result<ExitCode, String> {
    let workload = o.workload.ok_or("--workload is required; try --list")?;
    if workload.threads() > host::nproc() {
        return Err(format!(
            "{} keeps {} threads busy but only {} cores are available",
            workload.name(),
            workload.threads(),
            host::nproc()
        ));
    }
    let scale = if o.quick { Scale::Quick } else { Scale::Full };
    // `--quick` is a smoke test: three repetitions, no pins.
    let seconds = if o.quick { 0.0 } else { o.seconds };
    let pinned = !o.quick && o.seed == DEFAULT_SEED;
    let plan = Plan::generate(workload, scale, o.seed);
    println!(
        "# rendez-benchmark {} seed={:#x} seconds={} trace={} scale={:?}",
        workload.name(),
        o.seed,
        seconds,
        o.trace as u8,
        scale
    );
    println!("{}", host::header(workload.threads()));
    println!("# why: {}", workload.why());
    println!(
        "# inputs: n={} source={} work unit = {}",
        plan.n,
        plan.source,
        workload.work_unit()
    );

    let (mut tally, metrics, facts): (Tally, Vec<(&str, f64, &str)>, _) = if o.trace {
        let report = layers::per_layer(&plan, seconds)?;
        let (path, spans) = tracefile::write(
            workload.name(),
            o.seed,
            if workload == Workload::AsyncEvents {
                "event"
            } else {
                "round"
            },
            &report.runs,
        )
        .map_err(|e| format!("writing the span file: {e}"))?;
        println!("# spans: {spans} written to {}", path.display());
        println!(
            "{:<30} {:>18} {:<6} {:<7} measured on",
            "metric", "value", "unit", "better"
        );
        let mut metrics = Vec::new();
        for d in layers::PER_LAYER {
            let value = report.values[d.name];
            let note = report
                .borrowed
                .get(d.name)
                .map(|w| format!("{} --quick", w.name()))
                .unwrap_or_default();
            print_row(d.name, value, d.unit, d.better, &note);
            metrics.push((d.name, value, d.unit));
        }
        (report.tally, metrics, report.facts)
    } else {
        let e = measure::end_to_end(&plan, seconds)?;
        println!(
            "# work per run = {} {}; {} repetitions; {} set-up samples of {} set-ups each",
            e.facts.work,
            workload.work_unit(),
            e.reps.len(),
            e.setups.len(),
            e.setup_batch
        );
        println!(
            "{:<30} {:>18} {:<6} {:<7} bound",
            "metric", "value", "unit", "better"
        );
        let values = [e.throughput_per_s(), e.setup_s(), e.peak_rss_mib];
        let mut metrics = Vec::new();
        for (d, value) in END_TO_END.iter().zip(values) {
            print_row(d.name, value, d.unit, d.better, &format!("{:.2}", d.bound));
            metrics.push((d.name, value, d.unit));
        }
        // Ungated context: the raw wall clock, and how often the host
        // was slow while we measured.
        let wall: Vec<f64> = e.reps.iter().map(|s| s.wall_s).collect();
        let all: Vec<host::Sample> = e.reps.iter().chain(&e.setups).copied().collect();
        for (name, value, unit) in [
            ("run_s (normalised, steady)", e.run_s(), "s"),
            ("run_s_min (raw)", stats::best_of(&wall), "s"),
            ("run_s_p50 (raw)", stats::median(&wall), "s"),
            ("run_s_iqr_rel (raw)", stats::iqr_rel(&wall), "ratio"),
            ("calib_slow_frac", host::slow_frac(&all), "ratio"),
        ] {
            print_row(name, value, unit, "lower", "ungated");
        }
        (e.tally, metrics, e.facts)
    };
    if pinned {
        tally.record(pins::check(workload, &facts));
    }

    println!(
        "# checks: attempted={} failed={} pins={}",
        tally.attempted,
        tally.failed,
        if pinned { "compared" } else { "skipped" }
    );
    if let Some(failure) = tally.first_failure.take() {
        println!("# first failure: {failure}");
    }
    println!("{}", result_line(&tally, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// Regenerate `pins.json` from one full-size run of every workload at
/// the default seed.
fn bless() -> Result<ExitCode, String> {
    let mut entries = Vec::new();
    for workload in Workload::ALL {
        let plan = Plan::generate(workload, Scale::Full, DEFAULT_SEED);
        let system = workloads::System::build(&plan);
        let facts = system.run(&plan)?;
        if let Some(reference) = system.reference(&plan)? {
            measure::same_facts(facts.clone(), &reference, workload.name())?;
        }
        println!("{}: {facts:?}", workload.name());
        entries.push((workload, facts));
    }
    let path = pins::path();
    std::fs::write(&path, pins::render(DEFAULT_SEED, &entries))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "wrote {}; rebuild to compile the new pins in",
        path.display()
    );
    Ok(ExitCode::SUCCESS)
}

/// The text of the repository-root `BENCHMARK.json`, generated from the
/// tables this binary reports from, so the two cannot drift apart.
fn manifest() -> String {
    let quoted = |items: Vec<String>| items.join(",\n    ");
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let gated = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            )
        })
        .collect();
    let per_layer = layers::PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        DEFAULT_SECONDS,
        quoted(workloads),
        quoted(gated),
        quoted(per_layer)
    )
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("agree") => agree::run(&parse_options(&args[1..])?),
        Some("bless") => bless(),
        Some("manifest") => {
            print!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("--list") => {
            for w in Workload::ALL {
                println!("{:<22} {}", w.name(), w.why());
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => run_workload(&parse_options(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("rendez-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendez_fleet::json::{self, Json};

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = parse_options(&args(
            "--workload sweep-fleet --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workload, Some(Workload::SweepFleet));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (7, 12.0, true, false)
        );
        let o =
            parse_options(&args("--workload async-events --seed 0x5ca1e --quick")).expect("valid");
        assert_eq!(o.seed, DEFAULT_SEED);
        assert!(o.quick);
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--trace 2")).is_err());
        assert!(parse_options(&args("--seed")).is_err());
    }

    #[test]
    fn result_line_is_the_contracts_json() {
        let tally = Tally {
            attempted: 9,
            failed: 0,
            first_failure: None,
        };
        let line = result_line(&tally, &[("setup_s", 0.012345678912345, "s")]);
        let doc = json::parse(&line).expect("parses");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(9.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(
            m.get("value").and_then(Json::as_f64),
            Some(0.012345678912345)
        );
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    /// `BENCHMARK.json` at the repository root must be exactly what this
    /// binary's `manifest` prints, and within the contract's limits.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            text,
            manifest(),
            "regenerate with `rendez-benchmark manifest`"
        );
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
        let mut names: Vec<&str> = layers::PER_LAYER.iter().map(|d| d.name).collect();
        names.extend(END_TO_END.iter().map(|d| d.name));
        assert!(names.iter().all(|n| n.len() <= 64));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
        assert!(layers::PER_LAYER.len() <= 128);
    }
}
