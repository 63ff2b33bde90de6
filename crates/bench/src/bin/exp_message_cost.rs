//! Message-cost experiment: total rumor transmissions per algorithm.
//!
//! \[KSSV00\] bounds PUSH&PULL's total communication by `O(n log log n)`
//! messages; the paper's analysis "do\[es\] not bound the communication
//! cost" of dating-service spreading. This harness measures it: total
//! rumor-carrying messages until completion, per algorithm, per `n` —
//! making the trade-off (simplicity + bandwidth-safety vs message count)
//! explicit.
//!
//! Usage: `exp_message_cost [--quick|--full] [--seed S] [--threads T]`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_bench::{table, CliArgs, Table};
use rendez_core::{Platform, UniformSelector};
use rendez_fleet::Fleet;
use rendez_gossip::{
    run_spread, DatingSpread, FairPull, FairPushPull, Pull, Push, PushPull, SpreadProtocol,
};
use rendez_sim::NodeId;
use rendez_stats::RunningStats;

fn measure<P: SpreadProtocol>(
    make: impl Fn() -> P + Sync,
    platform: &Platform,
    trials: usize,
    seed: u64,
    fleet: &Fleet,
) -> (f64, f64) {
    let msgs = fleet.map(trials, seed, |_, seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = make();
        let r = run_spread(&mut p, platform, NodeId(0), &mut rng, 1_000_000);
        assert!(r.completed);
        r.rumor_msgs as f64
    });
    let s = RunningStats::from_iter(msgs).summary();
    (s.mean, s.std_dev)
}

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x3C);
    let fleet = Fleet::new(args.get_u64("threads", 0) as usize);
    let ns = args.get_usize_list("n", &[100, 1_000, 10_000]);
    let trials = args.scaled_trials(1_000, 40) as usize;

    println!("# message cost — rumor-carrying messages until full spread ({trials} trials)");
    let mut t = Table::new(
        vec![
            "n",
            "push",
            "pull",
            "push-pull",
            "fair-pull",
            "push-fair-pull",
            "dating",
            "dating/nlogn",
        ],
        args.has("csv"),
    );

    for &n in &ns {
        let platform = Platform::unit(n);
        let selector = UniformSelector::new(n);
        let cells: Vec<(f64, f64)> = vec![
            measure(Push::new, &platform, trials, seed ^ 1, &fleet),
            measure(Pull::new, &platform, trials, seed ^ 2, &fleet),
            measure(PushPull::new, &platform, trials, seed ^ 3, &fleet),
            measure(|| FairPull::new(n), &platform, trials, seed ^ 4, &fleet),
            measure(|| FairPushPull::new(n), &platform, trials, seed ^ 5, &fleet),
            measure(
                || DatingSpread::new(&selector),
                &platform,
                trials,
                seed ^ 6,
                &fleet,
            ),
        ];
        let nlogn = n as f64 * (n as f64).ln();
        let mut row = vec![n.to_string()];
        for &(m, sd) in &cells {
            row.push(table::pm(m, sd, 0));
        }
        row.push(format!("{:.2}", cells[5].0 / nlogn));
        t.row(row);
    }
    t.print();
    println!("# dating's messages track Θ(n log n): the last column should be ~flat in n");
}
