//! §2 load-balancing experiment: who does the matchmaking work?
//!
//! "This randomness is a load-balancing factor; as an extreme case,
//! sending all requests to a single node would result in a centralized
//! scheme." We measure per-node matchmaking load (dates arranged per
//! round) across the selector families — uniform spreads it thin, skew
//! concentrates it, and the single-target extreme is fully centralized
//! (with the highest date count, Lemma 1's other end of the trade-off).
//!
//! Usage: `exp_matchmaker_load [--quick|--full] [--n N] [--seed S]`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_bench::{CliArgs, Table};
use rendez_core::{AliasSelector, NodeSelector, Platform, SingleTargetSelector, UniformSelector};
use rendez_gossip::{date_loads, DatingService};
use rendez_sim::NodeId;

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x10AD);
    let n = args.get_u64("n", 2_000) as usize;
    let rounds = args.scaled_trials(1_000, 50);
    let csv = args.has("csv");
    args.reject_unread();

    println!("# §2 load balancing — matchmaking load per selector (n=m={n}, {rounds} rounds)");
    let mut t = Table::new(
        vec![
            "selector",
            "dates/m",
            "busy_frac",
            "max_load",
            "max/mean_load",
        ],
        csv,
    );

    let platform = Platform::unit(n);
    let selectors: Vec<Box<dyn NodeSelector>> = vec![
        Box::new(UniformSelector::new(n)),
        Box::new(AliasSelector::zipf(n, 1.0)),
        Box::new(AliasSelector::hotspot(n, n / 100, 50.0)),
        Box::new(SingleTargetSelector::new(n, NodeId(0))),
    ];
    let mut rng = SmallRng::seed_from_u64(seed);
    for sel in &selectors {
        let svc = DatingService::new(&platform, sel.as_ref());
        let (mut dates, mut busy, mut maxload, mut imb) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for _ in 0..rounds {
            let out = svc.run_round(&mut rng);
            let s = date_loads(n, &out.dates).matchmaker_summary();
            dates += out.date_count() as f64 / platform.m() as f64;
            busy += s.busy_nodes as f64 / n as f64;
            maxload += s.max as f64;
            imb += s.imbalance();
        }
        let r = rounds as f64;
        t.row(vec![
            sel.name().to_string(),
            format!("{:.4}", dates / r),
            format!("{:.4}", busy / r),
            format!("{:.1}", maxload / r),
            format!("{:.1}", imb / r),
        ]);
    }
    t.print();
    println!("# trade-off: skew raises dates/m (Lemma 1 conjecture) but concentrates load");
}
