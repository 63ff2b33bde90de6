//! Theorem 10 / Corollary 11 experiment: heterogeneous speed-up.
//!
//! On platforms with `m = Ω(n log n)` and a source of bandwidth
//! `Ω(m/n)`, all nodes of bandwidth `≥ m/n` are informed within
//! `O(log n / log(m/n))` rounds (Theorem 10); from a weak source the same
//! holds in expectation (Corollary 11). We sweep `m/n ∈ {log n, √n}` and
//! print measured rounds next to the bound shape, plus the unit-platform
//! dating rounds as the `Θ(log n)` baseline.
//!
//! Usage: `exp_thm10_hetero [--quick|--full] [--seed S] [--weak-source] [--threads T]`
//!
//! `--threads T`: worker threads (0 = one per core; sizes the fleet).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_bench::experiments::rumor_point;
use rendez_bench::{table, CliArgs, Table};
use rendez_core::{Platform, UniformSelector};
use rendez_fleet::Fleet;
use rendez_gossip::hetero::{run_hetero_trial, strongest_node, theorem10_prediction, weakest_node};
use rendez_runtime::Spreader;
use rendez_stats::RunningStats;

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x710);
    let fleet = Fleet::new(args.get_u64("threads", 0) as usize);
    let weak = args.has("weak-source");
    let trials = args.scaled_trials(1_000, 40) as usize;
    let ns = args.get_usize_list("n", &[1_000, 10_000]);
    let csv = args.has("csv");
    args.reject_unread();

    println!(
        "# Theorem 10 / Corollary 11 — heterogeneous speed-up ({} source, {trials} trials)",
        if weak { "weak" } else { "strong" }
    );
    let mut t = Table::new(
        vec![
            "n",
            "m/n",
            "rounds_avg_nodes",
            "rounds_all",
            "bound log n/log(m/n)",
            "unit-platform dating",
        ],
        csv,
    );

    for &n in &ns {
        // Baseline: unit platform (m/n = 1) full-spread rounds.
        let baseline = rumor_point(Spreader::Dating, n, trials as u64, seed ^ n as u64, &fleet);

        for (label, avg) in [("log n", (n as f64).ln()), ("sqrt n", (n as f64).sqrt())] {
            let platform = Platform::power_law(n, 1.1, avg, seed ^ (n as u64) << 4);
            let selector = UniformSelector::new(n);
            let m_over_n = platform.m() as f64 / platform.n() as f64;
            let outs = fleet.map(trials, seed ^ avg as u64, |_, seed| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let source = if weak {
                    weakest_node(&platform)
                } else {
                    strongest_node(&platform)
                };
                let out = run_hetero_trial(&platform, &selector, source, &mut rng, 100_000);
                assert!(out.avg_completed && out.all_completed);
                (out.rounds_avg_nodes as f64, out.rounds_all as f64)
            });
            let avg_rounds = RunningStats::from_iter(outs.iter().map(|&(a, _)| a)).summary();
            let all_rounds = RunningStats::from_iter(outs.iter().map(|&(_, b)| b)).summary();
            let bound = theorem10_prediction(n, m_over_n);
            t.row(vec![
                n.to_string(),
                format!("{label} ({m_over_n:.1})"),
                table::pm(avg_rounds.mean, avg_rounds.std_dev, 1),
                table::pm(all_rounds.mean, all_rounds.std_dev, 1),
                format!("{bound:.1}"),
                table::pm(baseline.mean, baseline.std_dev, 1),
            ]);
        }
    }
    t.print();
    println!("# expected: rounds_avg_nodes ≈ O(bound) and well below the unit-platform column");
}
