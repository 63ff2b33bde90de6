//! Figure 1 regenerator: fraction of dates arranged by the dating service.
//!
//! Paper series: uniform selector (10⁴ rounds, 10³ for n ≥ 10⁴) and the
//! worst/best of 200 random DHTs. Paper values: uniform "slightly more
//! than 0.47·n"; worst DHT > 0.52·n; best DHT 0.67·n at n=10 down to
//! ≈ 0.55·n at n=10⁴ (no DHT run at n=10⁵).
//!
//! Usage: `exp_fig1_dates [--quick|--full] [--seed S] [--threads T] [--csv]`

use rendez_bench::experiments::fig1;
use rendez_bench::{table, CliArgs, Table};
use rendez_core::analysis;
use rendez_fleet::Fleet;

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0xF1D1);
    let fleet = Fleet::new(args.get_u64("threads", 0) as usize);
    let default_ns: Vec<usize> = if args.has("quick") {
        vec![10, 100, 1000]
    } else {
        vec![10, 100, 1000, 10_000, 100_000]
    };
    let ns = args.get_usize_list("n", &default_ns);
    let scale = args.scale();
    let csv = args.has("csv");
    args.reject_unread();

    println!("# Figure 1 — fraction of dates arranged by the dating service");
    println!(
        "# seed={seed} scale={} (uniform limit = {:.4})",
        scale,
        analysis::uniform_ratio_limit()
    );
    let mut t = Table::new(
        vec![
            "n",
            "uniform",
            "uniform_pred",
            "dht_worst",
            "dht_worst_pred",
            "dht_best",
            "dht_best_pred",
            "dhts",
        ],
        csv,
    );

    for &n in &ns {
        // Paper: 10^4 rounds (10^3 for n >= 10^4).
        let paper_rounds: u64 = if n >= 10_000 { 1_000 } else { 10_000 };
        let rounds = args.scaled_trials(paper_rounds, 100);
        let uni = fig1::uniform_point(n, rounds, seed ^ n as u64, &fleet);
        let uni_pred = analysis::expected_dates_uniform(n, n as u64, n as u64) / n as f64;

        // Paper: 200 DHTs; none at n = 10^5.
        if n <= 10_000 {
            let n_dhts = args.scaled_trials(200, 10) as usize;
            let dht_rounds = args.scaled_trials(if n >= 10_000 { 200 } else { 1_000 }, 50);
            let sweep = fig1::dht_sweep(n, n_dhts, dht_rounds, seed ^ (n as u64) << 8, &fleet);
            t.row(vec![
                n.to_string(),
                table::pm(uni.mean, uni.std_dev, 4),
                format!("{uni_pred:.4}"),
                table::pm(sweep.worst.mean, sweep.worst.std_dev, 4),
                format!("{:.4}", sweep.worst_predicted),
                table::pm(sweep.best.mean, sweep.best.std_dev, 4),
                format!("{:.4}", sweep.best_predicted),
                n_dhts.to_string(),
            ]);
        } else {
            t.row(vec![
                n.to_string(),
                table::pm(uni.mean, uni.std_dev, 4),
                format!("{uni_pred:.4}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "0".into(),
            ]);
        }
    }
    t.print();
    println!("# paper: uniform >0.47, dht worst >0.52, dht best 0.67 (n=10) → ~0.55 (n=10^4)");
}
