//! Lemma 2 experiment: concentration of the date count.
//!
//! Lemma 2 (McDiarmid): `Pr[|X − E[X]| ≥ t] ≤ 2·e^{−t²/m}`. We measure
//! the empirical tail over many rounds and print it next to the bound —
//! the bound must dominate at every `t` (it is loose; the empirical tail
//! is far smaller).
//!
//! Usage: `exp_lemma2_concentration [--quick|--full] [--n N] [--seed S] [--threads T]`
//!
//! `--threads T`: worker threads (0 = one per core; sizes the fleet).

use rendez_bench::{CliArgs, Table};
use rendez_core::{analysis, Platform, UniformSelector};
use rendez_fleet::Fleet;
use rendez_gossip::{CountWorkspace, DatingService};
use rendez_stats::RunningStats;

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x12);
    let fleet = Fleet::new(args.get_u64("threads", 0) as usize);
    let n = args.get_u64("n", 10_000) as usize;
    let rounds = args.scaled_trials(20_000, 500) as usize;
    let csv = args.has("csv");
    args.reject_unread();
    let m = n as u64;

    println!("# Lemma 2 — concentration of the date count (n=m={n}, {rounds} rounds)");
    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let counts = fleet.map(rounds, seed, |_, seed| {
        let svc = DatingService::new(&platform, &selector);
        let mut ws = CountWorkspace::new(n);
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        svc.count_dates(&mut ws, &mut rng) as f64
    });
    let stats = RunningStats::from_iter(counts.iter().copied()).summary();
    println!(
        "# mean={:.1} sd={:.2} (Poisson-pred sd-scale √m = {:.1})",
        stats.mean,
        stats.std_dev,
        (m as f64).sqrt()
    );

    let mut t = Table::new(
        vec![
            "t",
            "t/sqrt(m)",
            "empirical_tail",
            "mcdiarmid_bound",
            "bound_holds",
        ],
        csv,
    );
    for scale in [0.5f64, 1.0, 1.5, 2.0, 3.0, 4.0] {
        let tt = scale * (m as f64).sqrt();
        let exceed = counts
            .iter()
            .filter(|&&x| (x - stats.mean).abs() >= tt)
            .count();
        let emp = exceed as f64 / counts.len() as f64;
        let bound = analysis::mcdiarmid_tail(m, tt);
        assert!(
            emp <= bound + 1e-9,
            "empirical tail {emp} exceeds bound {bound} at t={tt}"
        );
        t.row(vec![
            format!("{tt:.0}"),
            format!("{scale:.1}"),
            format!("{emp:.5}"),
            format!("{bound:.5}"),
            (emp <= bound).to_string(),
        ]);
    }
    t.print();
    println!("# Lemma 2 holds iff bound_holds is true on every row");
}
