//! Lemma 1 / §2-remark experiment: `E[X]/m` vs the analytic predictions.
//!
//! Checks three claims: the measured ratio matches the Poisson prediction
//! (`≈ 0.476` at `m = n` uniform — the paper's text quotes a cruder 0.44
//! estimate but measures >0.47); it always clears the universal `0.064·m`
//! bucket bound; and it *increases with `m/n`* (§2: "the ratio `E[X]/m`
//! is an increasing function of m/n").
//!
//! Each `m/n` point is one run of the dating service on the runtime
//! (`Scenario`, `RuntimeDating`) for `rounds` cycles; its cycles are
//! independent rounds of Algorithm 1.
//!
//! Usage: `exp_lemma1_expectation [--quick|--full] [--n N] [--seed S] [--csv]`

use rendez_bench::{table, CliArgs, Table};
use rendez_core::{analysis, Platform};
use rendez_runtime::Scenario;
use rendez_stats::RunningStats;

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x11);
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
        let m = platform.m();
        let report = Scenario::new(n)
            .platform(platform)
            .cycles(rounds)
            .run(seed ^ mult as u64)
            .expect("a Lemma 1 scenario validates");
        let out = report.expect_output();
        let dating = out.dating().expect("the dating-service workload");
        let fracs = dating.dates_per_cycle.iter().map(|&d| d as f64 / m as f64);
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
