//! Fault-injection experiment: rumor spreading under payload loss.
//!
//! The dating service is oblivious to protocol state (§1), so losing a
//! date's payload costs exactly that date — the process degrades
//! gracefully: at loss rate `p`, each link's per-round success
//! probability scales by `(1−p)`, so rounds grow by roughly
//! `1/log₂(1/(combined failure))`, never stalling.
//!
//! Usage: `exp_loss_resilience [--quick|--full] [--n N] [--seed S] [--threads T]`
//!
//! `--threads T`: worker threads (0 = one per core; sizes the fleet).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_bench::{table, CliArgs, Table};
use rendez_core::{Platform, UniformSelector};
use rendez_fleet::Fleet;
use rendez_gossip::{run_spread, DatingSpread};
use rendez_sim::NodeId;
use rendez_stats::RunningStats;

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x1055);
    let fleet = Fleet::new(args.get_u64("threads", 0) as usize);
    let n = args.get_u64("n", 10_000) as usize;
    let trials = args.scaled_trials(1_000, 40) as usize;
    let csv = args.has("csv");
    args.reject_unread();

    println!("# loss resilience — dating spread under payload loss (n={n}, {trials} trials)");
    let mut t = Table::new(vec!["loss", "rounds", "slowdown", "dropped/trial"], csv);

    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let mut base = 0.0;
    for loss in [0.0f64, 0.1, 0.25, 0.5, 0.75, 0.9] {
        let results = fleet.map(trials, seed ^ (loss * 100.0) as u64, |_, seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut p = DatingSpread::with_loss(&selector, loss);
            let r = run_spread(&mut p, &platform, NodeId(0), &mut rng, 1_000_000);
            assert!(r.completed, "loss={loss} did not complete");
            (r.rounds as f64, p.dropped as f64)
        });
        let rounds = RunningStats::from_iter(results.iter().map(|&(r, _)| r)).summary();
        let dropped = RunningStats::from_iter(results.iter().map(|&(_, d)| d)).summary();
        if loss == 0.0 {
            base = rounds.mean;
        }
        t.row(vec![
            format!("{loss:.2}"),
            table::pm(rounds.mean, rounds.std_dev, 1),
            format!("{:.2}x", rounds.mean / base),
            format!("{:.0}", dropped.mean),
        ]);
    }
    t.print();
    println!("# expected: graceful slowdown, no stalls, even at 90% loss");
}
