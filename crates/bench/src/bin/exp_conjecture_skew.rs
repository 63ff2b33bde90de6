//! §2 conjecture experiment: uniform is the worst-case distribution.
//!
//! "We conjecture that the uniform distribution is in fact the worst case
//! for this ratio. That is, if some nodes have higher probability of being
//! chosen, they attract more requests and arrange more dates. Our
//! experiments in Section 4 confirm this." Here we sweep Zipf exponents,
//! hotspot boosts and random DHT rings, printing the measured ratio and
//! the Poisson prediction; every skewed row must beat the uniform row.
//!
//! That holds only for balanced totals (ΣBout = ΣBin), as on this
//! harness's `bin = bout = 1` platform: at ΣBout = 4 000, ΣBin = 1 000 a
//! two-level selector's exact `E[X]` is 929.7818 against uniform's 934.1513
//! (pinned in `rendez_core::analysis`'s tests).
//!
//! Usage: `exp_conjecture_skew [--quick|--full] [--n N] [--seed S] [--threads T]`
//!
//! `--threads T`: worker threads (0 = one per core; sizes the fleet).

use rendez_bench::{table, CliArgs, Table};
use rendez_core::{analysis, AliasSelector, NodeSelector, Platform, UniformSelector};
use rendez_dht::DhtSelector;
use rendez_fleet::Fleet;
use rendez_gossip::{CountWorkspace, DatingService};
use rendez_stats::RunningStats;

fn measure(
    platform: &Platform,
    selector: &dyn NodeSelector,
    rounds: usize,
    seed: u64,
    fleet: &Fleet,
) -> (f64, f64) {
    let n = platform.n();
    let m = platform.m();
    let fracs = fleet.map(rounds, seed, |_, seed| {
        let svc = DatingService::new(platform, selector);
        let mut ws = CountWorkspace::new(n);
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        svc.count_dates(&mut ws, &mut rng) as f64 / m as f64
    });
    let s = RunningStats::from_iter(fracs).summary();
    (s.mean, s.std_dev)
}

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x5E);
    let fleet = Fleet::new(args.get_u64("threads", 0) as usize);
    let n = args.get_u64("n", 1000) as usize;
    let rounds = args.scaled_trials(5_000, 200) as usize;
    let csv = args.has("csv");
    args.reject_unread();
    let platform = Platform::unit(n);

    println!("# §2 conjecture — skewed selectors arrange MORE dates (n=m={n}, {rounds} rounds)");
    let mut t = Table::new(
        vec!["selector", "measured", "predicted", "beats_uniform"],
        csv,
    );

    let selectors: Vec<Box<dyn NodeSelector>> = vec![
        Box::new(UniformSelector::new(n)),
        Box::new(AliasSelector::zipf(n, 0.25)),
        Box::new(AliasSelector::zipf(n, 0.5)),
        Box::new(AliasSelector::zipf(n, 1.0)),
        Box::new(AliasSelector::zipf(n, 1.5)),
        Box::new(AliasSelector::zipf(n, 2.0)),
        Box::new(AliasSelector::hotspot(n, n / 20, 10.0)),
        Box::new(AliasSelector::hotspot(n, 1, (n as f64) / 2.0)),
        Box::new(DhtSelector::random(n, seed ^ 0xD)),
    ];

    let mut uniform_mean = 0.0;
    for (i, sel) in selectors.iter().enumerate() {
        let (mean, sd) = measure(&platform, sel.as_ref(), rounds, seed ^ i as u64, &fleet);
        let predicted =
            analysis::expected_dates_weighted(&sel.weights(), n as u64, n as u64) / n as f64;
        if i == 0 {
            uniform_mean = mean;
        }
        let beats = mean >= uniform_mean - 1e-9;
        assert!(
            beats,
            "{} ratio {mean} fell below uniform {uniform_mean} — conjecture violated",
            sel.name()
        );
        t.row(vec![
            sel.name().to_string(),
            table::pm(mean, sd, 4),
            format!("{predicted:.4}"),
            beats.to_string(),
        ]);
    }
    t.print();
    println!("# conjecture confirmed iff every skewed selector beats the uniform row");
}
