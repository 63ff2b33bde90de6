//! §5 storage experiment: replication via dating-service block exchange.
//!
//! Nodes offer free slots and request remote placement for their blocks;
//! each date stores one block. We sweep the replication factor, then
//! crash 10% of the nodes and measure re-replication.
//!
//! Usage: `exp_storage [--quick|--full] [--n N] [--seed S] [--threads T]`
//!
//! `--threads T`: worker threads (0 = one per core; sizes the fleet).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_bench::{table, CliArgs, Table};
use rendez_core::UniformSelector;
use rendez_fleet::Fleet;
use rendez_stats::RunningStats;
use rendez_storage::{crash_and_recover, run_exchange, StorageSystem};

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x5706);
    let fleet = Fleet::new(args.get_u64("threads", 0) as usize);
    let n = args.get_u64("n", 100) as usize;
    let blocks = 3u32;
    let net_bw = 4u32;
    let trials = args.scaled_trials(200, 10) as usize;

    println!(
        "# §5 storage — replication exchange then 10% crash recovery (n={n}, {trials} trials)"
    );
    let mut t = Table::new(
        vec![
            "replication",
            "build_rounds",
            "imbalance",
            "wasted_dates",
            "recovery_rounds",
            "replicas_lost",
        ],
        args.has("csv"),
    );

    for replication in [2u32, 3, 4] {
        let capacity = blocks * replication + 2; // modest supply slack
        let results = fleet.map(trials, seed ^ replication as u64, |_, seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let sel = UniformSelector::new(n);
            let mut sys = StorageSystem::uniform(n, capacity, blocks, replication);
            let build = run_exchange(&mut sys, &sel, net_bw, &mut rng, 100_000);
            assert!(build.completed, "build did not converge");
            let rec = crash_and_recover(&mut sys, &sel, n / 10, net_bw, &mut rng, 100_000);
            assert!(rec.restored, "recovery did not converge");
            (
                build.rounds as f64,
                build.load_imbalance,
                build.wasted_dates as f64,
                rec.recovery_rounds as f64,
                rec.replicas_lost as f64,
            )
        });
        let col = |f: fn(&(f64, f64, f64, f64, f64)) -> f64| {
            RunningStats::from_iter(results.iter().map(f)).summary()
        };
        let build = col(|r| r.0);
        let imb = col(|r| r.1);
        let waste = col(|r| r.2);
        let rec = col(|r| r.3);
        let lost = col(|r| r.4);
        t.row(vec![
            replication.to_string(),
            table::pm(build.mean, build.std_dev, 1),
            format!("{:.3}", imb.mean),
            format!("{:.0}", waste.mean),
            table::pm(rec.mean, rec.std_dev, 1),
            format!("{:.0}", lost.mean),
        ]);
    }
    t.print();
    println!("# expected: build_rounds grows mildly with replication; recovery ≪ build");
}
