//! Lemma 1 / §2-remark experiment: `E[X]/m` vs the analytic predictions.
//!
//! Checks three claims: the measured ratio matches the Poisson prediction
//! (`≈ 0.476` at `m = n` uniform — the paper's text quotes a cruder 0.44
//! estimate but measures >0.47); it always clears the universal `0.064·m`
//! bucket bound; and it *increases with `m/n`* (§2: "the ratio `E[X]/m`
//! is an increasing function of m/n").
//!
//! Usage: `exp_lemma1_expectation [--quick|--full] [--n N] [--seed S] [--threads T]`
//!
//! `--threads T`: worker threads (0 = one per core; sizes the fleet).

use rendez_bench::{table, CliArgs, Table};
use rendez_core::{analysis, Platform, UniformSelector};
use rendez_fleet::Fleet;
use rendez_gossip::{CountWorkspace, DatingService};
use rendez_stats::RunningStats;

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x11);
    let fleet = Fleet::new(args.get_u64("threads", 0) as usize);
    let n = args.get_u64("n", 1000) as usize;
    let rounds = args.scaled_trials(10_000, 200);
    let csv = args.has("csv");
    args.reject_unread();

    println!("# Lemma 1 — expected dates vs m/n (n={n}, {rounds} rounds per point)");
    println!(
        "# universal bucket bound: {:.4}·m (paper rounds to {:.3})",
        analysis::bucket_lower_bound(),
        analysis::BETA_PROVEN
    );
    let mut t = Table::new(
        vec![
            "m/n",
            "measured",
            "poisson_pred",
            "exact_binomial",
            "above_0.064",
        ],
        csv,
    );

    let mut prev = 0.0;
    for mult in [1u32, 2, 4, 8, 16] {
        let platform = Platform::homogeneous(n, mult);
        let selector = UniformSelector::new(n);
        let m = platform.m();
        let fracs = fleet.map(rounds as usize, seed ^ mult as u64, |_, seed| {
            let svc = DatingService::new(&platform, &selector);
            let mut ws = CountWorkspace::new(n);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            use rand::SeedableRng as _;
            svc.count_dates(&mut ws, &mut rng) as f64 / m as f64
        });
        let s = RunningStats::from_iter(fracs).summary();
        let pred = analysis::expected_dates_uniform(n, m, m) / m as f64;
        let exact = analysis::expected_min_binomial(m, m, 1.0 / n as f64) * n as f64 / m as f64;
        assert!(
            s.mean > prev,
            "E[X]/m must increase with m/n: {} after {prev}",
            s.mean
        );
        prev = s.mean;
        t.row(vec![
            mult.to_string(),
            table::pm(s.mean, s.std_dev, 4),
            format!("{pred:.4}"),
            format!("{exact:.4}"),
            (s.mean > analysis::BETA_PROVEN).to_string(),
        ]);
    }
    t.print();
    println!("# all rows must show measured ≈ poisson_pred and above_0.064 = true");
}
