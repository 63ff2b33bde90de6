//! Figure 2 regenerator: rounds to spread a single rumor.
//!
//! Paper: n from 10 to 10⁵; algorithms PUSH, PULL, PUSH&PULL, fair PULL,
//! fair PUSH&PULL, dating service; 10⁴ runs (10³ for large n). Expected
//! ordering fastest→slowest: push-pull, push-fair-pull, pull, fair-pull,
//! push, dating; dating < 2× push-fair-pull.
//!
//! Engines: the default runs the legacy centralized samplers
//! (`rendez_gossip`); `--runtime` reproduces the figure entirely on the
//! message-passing runtime via the `Scenario` builder, and `--churn P`
//! additionally runs every protocol with each node down a fraction `P`
//! of rounds (source protected) — a variant only the runtime supports.
//! Both engines run on one persistent Monte-Carlo fleet
//! (`rendez_fleet`), so thread spawn cost is paid once for the whole
//! table: the legacy engine maps each cell's trials onto it, and each
//! runtime/churn row is a single-`n` `SweepSpec` over all six
//! algorithms whose per-trial results stream through Welford
//! accumulators instead of being materialized.
//!
//! Usage: `exp_fig2_rumor [--quick|--full] [--runtime] [--churn P]
//!         [--seed S] [--threads T] [--trials T] [--csv]`
//!
//! `--threads T` sizes the fleet's worker pool (0 = one per core).
//!
//! `--trials T` overrides the scaled per-point trial count — the paper-
//! scale churn sweep (`--runtime --n 100000 --churn P --trials 5`) runs
//! million-node-message workloads where a handful of trials already
//! separates the churn levels cleanly.

use rendez_bench::experiments::fig2::{rumor_point, rumor_row_fleet, COLUMNS};
use rendez_bench::{table, CliArgs, Table};
use rendez_fleet::Fleet;

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0xF162);
    let fleet = Fleet::new(args.get_u64("threads", 0) as usize);
    let churn = args.get_f64("churn", 0.0);
    let runtime = args.has("runtime") || churn > 0.0;
    let default_ns: Vec<usize> = if args.has("quick") {
        vec![10, 100, 1000]
    } else {
        vec![10, 100, 1000, 10_000, 100_000]
    };
    let ns = args.get_usize_list("n", &default_ns);
    // 0: the paper's trial count at each n, scaled.
    let fixed_trials = args.get_u64("trials", 0);
    let scale = args.scale();
    let csv = args.has("csv");
    args.reject_unread();

    println!("# Figure 2 — rounds to spread a single rumor (mean ± sd)");
    println!(
        "# seed={seed} scale={} engine={}{}",
        scale,
        if runtime {
            "runtime (Scenario grid on the Monte-Carlo fleet)"
        } else {
            "legacy (centralized samplers)"
        },
        if churn > 0.0 {
            format!(", churn: each node down {:.0}% of rounds", churn * 100.0)
        } else {
            String::new()
        }
    );
    let mut headers = vec!["n".to_string(), "trials".to_string()];
    headers.extend(COLUMNS.iter().map(|s| s.name().to_string()));
    let mut t = Table::new(headers, csv);

    for &n in &ns {
        let paper_trials: u64 = if n >= 10_000 { 1_000 } else { 10_000 };
        let trials = match fixed_trials {
            0 => args.scaled_trials(paper_trials, 30),
            t => t,
        };
        let mut row = vec![n.to_string(), trials.to_string()];
        if runtime {
            for (_, s) in rumor_row_fleet(&fleet, n, trials, seed ^ n as u64, churn) {
                row.push(table::pm(s.mean, s.std_dev, 1));
            }
        } else {
            for spreader in COLUMNS {
                let s = rumor_point(spreader, n, trials, seed ^ n as u64, &fleet);
                row.push(table::pm(s.mean, s.std_dev, 1));
            }
        }
        t.row(row);
    }
    t.print();
    println!("# paper ordering: push-pull < push-fair-pull < pull < fair-pull < push < dating");
    println!("# paper claim: dating < 2x the bandwidth-honest baselines (push, fair-pull)");
    if runtime {
        println!(
            "# fleet: one SweepSpec row per n, {} persistent workers, \
             streaming Welford aggregation",
            fleet.size()
        );
    }
}
