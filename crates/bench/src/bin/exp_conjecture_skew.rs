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
//! Each selector's point is one run of the dating service on the runtime
//! (`Scenario`, `RuntimeDating`) for `rounds` cycles.
//!
//! Usage: `exp_conjecture_skew [--quick|--full] [--n N] [--seed S] [--csv]`

use rendez_bench::{table, CliArgs, Table};
use rendez_core::{analysis, AliasSelector, NodeSelector, UniformSelector};
use rendez_dht::DhtSelector;
use rendez_runtime::Scenario;
use rendez_stats::{RunningStats, Summary};

/// `selector`'s name, its measured date fraction over one `rounds`-cycle
/// run on the unit platform, and its Poisson prediction.
fn measure<S: NodeSelector + Clone>(selector: S, rounds: u64, seed: u64) -> (String, Summary, f64) {
    let n = selector.n();
    let name = selector.name().to_string();
    let predicted =
        analysis::expected_dates_weighted(&selector.weights(), n as u64, n as u64) / n as f64;
    let report = Scenario::new(n)
        .selector(selector)
        .cycles(rounds)
        .run(seed)
        .expect("a conjecture scenario validates");
    let out = report.expect_output();
    let dating = out.dating().expect("the dating-service workload");
    let fracs = dating.dates_per_cycle.iter().map(|&d| d as f64 / n as f64);
    (name, RunningStats::from_iter(fracs).summary(), predicted)
}

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x5E);
    let n = args.get_u64("n", 1000) as usize;
    let rounds = args.scaled_trials(5_000, 200);
    let csv = args.has("csv");
    args.reject_unread();

    println!("# §2 conjecture — skewed selectors arrange MORE dates (n=m={n}, {rounds} rounds)");
    let mut t = Table::new(
        vec!["selector", "measured", "predicted", "beats_uniform"],
        csv,
    );

    let skewed = [
        AliasSelector::zipf(n, 0.25),
        AliasSelector::zipf(n, 0.5),
        AliasSelector::zipf(n, 1.0),
        AliasSelector::zipf(n, 1.5),
        AliasSelector::zipf(n, 2.0),
        AliasSelector::hotspot(n, n / 20, 10.0),
        AliasSelector::hotspot(n, 1, (n as f64) / 2.0),
    ];
    let mut rows = vec![measure(UniformSelector::new(n), rounds, seed)];
    for (sel, i) in skewed.into_iter().zip(1u64..) {
        rows.push(measure(sel, rounds, seed ^ i));
    }
    let dht = DhtSelector::random(n, seed ^ 0xD);
    rows.push(measure(dht, rounds, seed ^ rows.len() as u64));

    let uniform_mean = rows[0].1.mean;
    for (name, s, predicted) in rows {
        let beats = s.mean >= uniform_mean - 1e-9;
        assert!(
            beats,
            "{name} ratio {} fell below uniform {uniform_mean} — conjecture violated",
            s.mean
        );
        t.row(vec![
            name,
            table::pm(s.mean, s.std_dev, 4),
            format!("{predicted:.4}"),
            beats.to_string(),
        ]);
    }
    t.print();
    println!("# conjecture confirmed iff every skewed selector beats the uniform row");
}
