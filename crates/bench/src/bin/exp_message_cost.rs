//! Message-cost experiment: total rumor transmissions per algorithm.
//!
//! \[KSSV00\] bounds PUSH&PULL's total communication by `O(n log log n)`
//! messages; the paper's analysis "do\[es\] not bound the communication
//! cost" of dating-service spreading. This harness measures it: total
//! rumor-carrying messages until completion, per algorithm, per `n` —
//! making the trade-off (simplicity + bandwidth-safety vs message count)
//! explicit.
//!
//! This harness samples the centralised oracle (`rendez_gossip`'s
//! Figure-2 samplers): rumor-carrying messages are a quantity the
//! runtime does not report (its message counts include requests,
//! answers and empty replies).
//!
//! Usage: `exp_message_cost [--quick|--full] [--seed S] [--threads T] [--csv]`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_bench::experiments::fig2::COLUMNS;
use rendez_bench::{table, CliArgs, Table};
use rendez_core::{Platform, UniformSelector};
use rendez_fleet::Fleet;
use rendez_gossip::{
    run_spread, DatingSpread, FairPull, FairPushPull, Pull, Push, PushPull, SpreadProtocol,
};
use rendez_runtime::Spreader;
use rendez_sim::NodeId;
use rendez_stats::RunningStats;

/// The centralised sampler of a [`COLUMNS`] algorithm, dating over
/// `selector`.
fn legacy_sampler(spreader: Spreader, selector: &UniformSelector) -> Box<dyn SpreadProtocol + '_> {
    match spreader {
        Spreader::Push => Box::new(Push::new()),
        Spreader::Pull => Box::new(Pull::new()),
        Spreader::PushPull => Box::new(PushPull::new()),
        Spreader::FairPull => Box::new(FairPull::new()),
        Spreader::FairPushPull => Box::new(FairPushPull::new()),
        Spreader::Dating => Box::new(DatingSpread::new(selector)),
        other => panic!("{other} is not a Figure 2 algorithm"),
    }
}

fn measure(
    spreader: Spreader,
    platform: &Platform,
    selector: &UniformSelector,
    trials: usize,
    seed: u64,
    fleet: &Fleet,
) -> (f64, f64) {
    let msgs = fleet.map(trials, seed, |_, seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = legacy_sampler(spreader, selector);
        let r = run_spread(&mut *p, platform, NodeId(0), &mut rng, 1_000_000);
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
    let csv = args.has("csv");
    args.reject_unread();

    println!("# message cost — rumor-carrying messages until full spread ({trials} trials)");
    let mut headers = vec!["n"];
    headers.extend(COLUMNS.map(Spreader::name));
    headers.push("dating/nlogn");
    let mut t = Table::new(headers, csv);

    for &n in &ns {
        let platform = Platform::unit(n);
        let selector = UniformSelector::new(n);
        let cells: Vec<(f64, f64)> = COLUMNS
            .into_iter()
            .zip(1..)
            .map(|(s, i)| measure(s, &platform, &selector, trials, seed ^ i, &fleet))
            .collect();
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
