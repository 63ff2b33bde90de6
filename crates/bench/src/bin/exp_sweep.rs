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
//! fleet's determinism contract (run both and `cmp` the files). Either
//! engine prints its wall time and scenarios/sec.
//!
//! Before writing anything the harness re-parses its own JSON and checks
//! every cell carries 95% CI bounds that bracket the mean — the emitted
//! artifact is self-verified, not just pretty-printed.
//!
//! Usage: `exp_sweep [--n LIST] [--protocols LIST] [--churn LIST]
//!         [--loss LIST] [--trials N] [--cycles N] [--seed S] [--pool P]
//!         [--serial] [--out PATH] [--quick] [--csv]`

use rendez_bench::{CliArgs, Table};
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
    let serial = args.has("serial");
    let csv = args.has("csv");
    args.reject_unread();
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
        if serial {
            "serial".to_string()
        } else {
            format!("fleet (pool={pool}, 0=cores; cores={cores})")
        }
    );

    let (report, engine, wall_s) = if serial {
        let start = Instant::now();
        let report = run_serial(&spec).unwrap_or_else(|e| panic!("serial sweep failed: {e}"));
        (report, "serial", start.elapsed().as_secs_f64())
    } else {
        let fleet = Fleet::new(pool);
        let start = Instant::now();
        let report = fleet
            .run(&spec)
            .unwrap_or_else(|e| panic!("sweep failed: {e}"));
        (report, "fleet", start.elapsed().as_secs_f64())
    };

    print_table(&report, csv);

    let json_text = report.to_json();
    self_check(&json_text).unwrap_or_else(|e| panic!("emitted report failed self-check: {e}"));
    println!(
        "# self-check: JSON parses, {} cells carry 95% CI bounds",
        report.cells.len()
    );

    let trials = report.cells.iter().map(|c| c.trials).sum::<u64>();
    let scenarios_per_sec = if wall_s > 0.0 {
        trials as f64 / wall_s
    } else {
        0.0
    };
    println!("# {engine}: {wall_s:.3}s wall, {scenarios_per_sec:.1} scenarios/sec");

    if !out.is_empty() {
        std::fs::write(&out, &json_text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("# wrote sweep report to {out}");
    }
}
