//! Monte-Carlo sweep driver: one `SweepSpec` from CLI flags, scheduled
//! onto the persistent-pool fleet engine, streamed into one
//! machine-readable `SweepReport` JSON.
//!
//! The grid is the cartesian product of four axes (× trials per cell):
//!
//! ```text
//! exp_sweep --n 1000,10000 --protocols push,push-pull,fair-pull,dating \
//!           --churn 0.0,0.1 --loss 0.0,0.05 --trials 64 \
//!           --pool 0 --out sweep.json
//! ```
//!
//! `--serial` runs the same sweep inline on the calling thread instead —
//! the honest baseline for speedup claims, byte-identical output by the
//! fleet's determinism contract (run both and `diff` the files). With
//! `--bench-out PATH` the harness times **both** engines, verifies that
//! byte-identity, and appends `{engine, pool, scenarios/sec}` records to
//! the `sweep_throughput` series of `BENCH_runtime.json`, preserving the
//! `records` series that `exp_runtime_scaling` owns.
//!
//! Before writing anything the harness re-parses its own JSON and checks
//! every cell carries 95% CI bounds that bracket the mean — the emitted
//! artifact is self-verified, not just pretty-printed.
//!
//! Usage: `exp_sweep [--n LIST] [--protocols LIST] [--churn LIST]
//!         [--loss LIST] [--trials N] [--cycles N] [--seed S] [--pool P]
//!         [--serial] [--out PATH] [--bench-out PATH] [--quick] [--csv]`

use rendez_bench::{load_bench_json, write_bench_json, CliArgs, SweepThroughputRecord, Table};
use rendez_fleet::{json, run_serial, Fleet, SweepReport, SweepSpec};
use std::time::Instant;

fn spec_from_args(args: &CliArgs) -> SweepSpec {
    let default_ns: &[usize] = if args.has("quick") {
        &[100, 300]
    } else {
        &[1_000, 3_000, 10_000]
    };
    let protocols = args
        .get_str_list(
            "protocols",
            &["push", "push-pull", "fair-pull", "push-fair-pull", "dating"],
        )
        .iter()
        .map(|name| {
            rendez_runtime::Spreader::from_name(name)
                .unwrap_or_else(|| panic!("unknown protocol {name:?}; see Spreader::ALL"))
        })
        .collect();
    SweepSpec::new()
        .ns(args.get_usize_list("n", default_ns))
        .protocols(protocols)
        .churns(args.get_f64_list("churn", &[0.0, 0.1]))
        .losses(args.get_f64_list("loss", &[0.0]))
        .trials(args.get_u64("trials", if args.has("quick") { 8 } else { 64 }))
        .cycles(args.get_u64("cycles", 30))
        .seed(args.get_u64("seed", 0x57EE9))
}

/// Re-parse the rendered report and check every cell carries CI bounds
/// bracketing its mean — proof the artifact is machine-readable, run on
/// every invocation before anything is written.
fn self_check(json_text: &str) -> Result<(), String> {
    let doc = json::parse(json_text)?;
    if doc.get("schema").and_then(|v| v.as_str()) != Some("rendez-fleet/sweep-v1") {
        return Err("missing or wrong schema".to_string());
    }
    let cells = doc
        .get("cells")
        .and_then(|v| v.as_array())
        .ok_or("missing cells array")?;
    for cell in cells {
        let value = cell.get("value").ok_or("cell missing value metric")?;
        let mean = value.get("mean").and_then(|v| v.as_f64());
        let lo = value.get("ci95_lo").and_then(|v| v.as_f64());
        let hi = value.get("ci95_hi").and_then(|v| v.as_f64());
        match (lo, mean, hi) {
            (Some(lo), Some(mean), Some(hi)) if lo <= mean && mean <= hi => {}
            _ => {
                return Err(format!(
                    "cell {:?} lacks CI bounds bracketing the mean",
                    cell.get("index").and_then(|v| v.as_f64())
                ))
            }
        }
    }
    Ok(())
}

fn print_table(report: &SweepReport, csv: bool) {
    let mut t = Table::new(
        vec![
            "n", "protocol", "churn", "loss", "done", "mean", "sd", "ci95",
        ],
        csv,
    );
    for c in &report.cells {
        let (lo, hi) = c.value.ci95();
        t.row(vec![
            c.cell.n.to_string(),
            c.cell.protocol.name().to_string(),
            format!("{:.2}", c.cell.churn),
            format!("{:.2}", c.cell.loss),
            format!("{}/{}", c.completed, c.trials),
            format!("{:.2}", c.value.mean),
            format!("{:.2}", c.value.std_dev),
            format!("[{lo:.2}, {hi:.2}]"),
        ]);
    }
    t.print();
}

fn main() {
    let args = CliArgs::parse();
    let spec = spec_from_args(&args);
    let pool = args.get_u64("pool", 0) as usize;
    let out = args.get_str("out", "");
    let bench_out = args.get_str("bench-out", "");
    let serial_only = args.has("serial") && bench_out.is_empty();
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    println!("# Monte-Carlo sweep — fleet engine over a Scenario grid");
    println!(
        "# cells={} trials/cell={} total={} seed={:#x} engine={}",
        spec.cell_count(),
        spec.trials,
        spec.cell_count() as u64 * spec.trials,
        spec.seed,
        if serial_only {
            "serial".to_string()
        } else {
            format!("fleet (pool={pool}, 0=cores; cores={cores})")
        }
    );

    // --bench-out times both engines (the speedup claim needs the
    // serial baseline) and verifies their byte-identity on the way.
    let (report, timings) = if !bench_out.is_empty() {
        let start = Instant::now();
        let serial = run_serial(&spec).unwrap_or_else(|e| panic!("serial sweep failed: {e}"));
        let serial_wall = start.elapsed().as_secs_f64();
        let fleet = Fleet::new(pool);
        let start = Instant::now();
        let fleet_report = fleet
            .run(&spec)
            .unwrap_or_else(|e| panic!("sweep failed: {e}"));
        let fleet_wall = start.elapsed().as_secs_f64();
        assert_eq!(
            serial.to_json(),
            fleet_report.to_json(),
            "fleet output diverged from the serial baseline"
        );
        println!(
            "# engines agree byte-for-byte (serial vs fleet at pool={})",
            fleet.size()
        );
        (
            fleet_report,
            vec![
                ("serial", 0, serial_wall),
                ("fleet", fleet.size(), fleet_wall),
            ],
        )
    } else if serial_only {
        let start = Instant::now();
        let report = run_serial(&spec).unwrap_or_else(|e| panic!("serial sweep failed: {e}"));
        (report, vec![("serial", 0, start.elapsed().as_secs_f64())])
    } else {
        let fleet = Fleet::new(pool);
        let start = Instant::now();
        let report = fleet
            .run(&spec)
            .unwrap_or_else(|e| panic!("sweep failed: {e}"));
        (
            report,
            vec![("fleet", fleet.size(), start.elapsed().as_secs_f64())],
        )
    };

    print_table(&report, args.has("csv"));

    let json_text = report.to_json();
    self_check(&json_text).unwrap_or_else(|e| panic!("emitted report failed self-check: {e}"));
    println!(
        "# self-check: JSON parses, {} cells carry 95% CI bounds",
        report.cells.len()
    );

    let total_trials = report.cells.iter().map(|c| c.trials).sum::<u64>();
    for (engine, pool, wall_s) in &timings {
        let rec = SweepThroughputRecord {
            engine: engine.to_string(),
            pool: *pool,
            cells: report.cells.len(),
            trials_per_cell: spec.trials,
            trials: total_trials,
            wall_s: *wall_s,
        };
        println!(
            "# {engine}: {wall_s:.3}s wall, {:.1} scenarios/sec",
            rec.scenarios_per_sec()
        );
    }

    if !out.is_empty() {
        std::fs::write(&out, &json_text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("# wrote sweep report to {out}");
    }

    if !bench_out.is_empty() {
        let path = std::path::Path::new(&bench_out);
        // Preserve the `records`, `scaling` and `async_events` series
        // exp_runtime_scaling owns; rewrite only the sweep series.
        let (records, _, scaling, async_events) = load_bench_json(path);
        let sweeps: Vec<SweepThroughputRecord> = timings
            .iter()
            .map(|(engine, pool, wall_s)| SweepThroughputRecord {
                engine: engine.to_string(),
                pool: *pool,
                cells: report.cells.len(),
                trials_per_cell: spec.trials,
                trials: total_trials,
                wall_s: *wall_s,
            })
            .collect();
        write_bench_json(
            path,
            cores,
            spec.seed,
            &records,
            &sweeps,
            &scaling,
            &async_events,
        )
        .unwrap_or_else(|e| panic!("cannot write {bench_out}: {e}"));
        println!(
            "# wrote {} sweep_throughput records to {bench_out} ({} records preserved)",
            sweeps.len(),
            records.len()
        );
    }
}
