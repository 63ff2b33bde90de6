//! §5 mongering experiment: coded vs uncoded multi-block broadcast.
//!
//! The message is split into k blocks and pushed through dating-service
//! dates. Uncoded forwarding suffers the coupon-collector tail; RLNC over
//! GF(256) removes it ("randomized network coding techniques have proven
//! their efficiency" — the \[DMC06\] claim).
//!
//! Usage: `exp_mongering [--quick|--full] [--n N] [--seed S] [--threads T]`
//!
//! `--threads T`: worker threads (0 = one per core; sizes the fleet).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_bench::{table, CliArgs, Table};
use rendez_coding::{run_mongering, MongeringConfig, TransferMode};
use rendez_core::{Platform, UniformSelector};
use rendez_fleet::Fleet;
use rendez_sim::NodeId;
use rendez_stats::RunningStats;

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0xC0DE);
    let fleet = Fleet::new(args.get_u64("threads", 0) as usize);
    let n = args.get_u64("n", 200) as usize;
    let trials = args.scaled_trials(200, 10) as usize;

    println!("# §5 mongering — k-block broadcast, coded vs uncoded (n={n}, {trials} trials)");
    let mut t = Table::new(
        vec![
            "k",
            "uncoded_rounds",
            "coded_rounds",
            "uncoded_eff",
            "coded_eff",
            "coded_speedup",
        ],
        args.has("csv"),
    );

    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    for k in [4usize, 16, 64] {
        let run_mode = |mode: TransferMode, salt: u64| {
            let results = fleet.map(trials, seed ^ salt ^ k as u64, |_, seed| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let r = run_mongering(
                    &platform,
                    &selector,
                    NodeId(0),
                    mode,
                    MongeringConfig {
                        k,
                        block_len: 16,
                        max_rounds: 100_000,
                    },
                    &mut rng,
                );
                assert!(r.completed && r.decoded_ok);
                (r.rounds as f64, r.efficiency())
            });
            let rounds = RunningStats::from_iter(results.iter().map(|&(r, _)| r)).summary();
            let eff = RunningStats::from_iter(results.iter().map(|&(_, e)| e)).summary();
            (rounds, eff)
        };
        let (ur, ue) = run_mode(TransferMode::Uncoded, 0xA);
        let (cr, ce) = run_mode(TransferMode::Coded, 0xB);
        t.row(vec![
            k.to_string(),
            table::pm(ur.mean, ur.std_dev, 1),
            table::pm(cr.mean, cr.std_dev, 1),
            format!("{:.3}", ue.mean),
            format!("{:.3}", ce.mean),
            format!("{:.2}x", ur.mean / cr.mean),
        ]);
    }
    t.print();
    println!("# expected: coded_rounds < uncoded_rounds, gap growing with k");
}
