//! §2 overhead experiment: control traffic is negligible for large payloads.
//!
//! "The dating service will need some overhead communication but these
//! will be only small messages — typically one IP address in each
//! message." We run the *distributed* protocol (real request / answer /
//! payload messages: `RuntimeDating` on the sequential executor) and
//! report measured control bytes per round and the control fraction for
//! unit-, 1 KiB- and 1 MiB-payload regimes.
//!
//! Usage: `exp_overhead [--quick|--full] [--seed S]`

use rendez_bench::{CliArgs, Table};
use rendez_core::distributed::PAYLOAD_BYTES;
use rendez_core::overhead::{control_msgs_per_round, ControlOverhead, ADDRESS_BYTES};
use rendez_core::{Platform, UniformSelector};
use rendez_runtime::{Executor, RunConfig, RuntimeDating, SequentialExecutor};

fn main() {
    let args = CliArgs::parse();
    let seed = args.get_u64("seed", 0x0B);
    let cycles = args.scaled_trials(100, 10);
    let ns = args.get_usize_list("n", &[100, 1_000, 10_000]);

    println!("# §2 overhead — control traffic of the distributed protocol ({cycles} cycles)");
    println!("# control message size: {ADDRESS_BYTES} bytes (one address)");
    let mut t = Table::new(
        vec![
            "n",
            "ctrl_msgs/round",
            "theory",
            "ctrl_bytes/round",
            "ctrl_frac@1B",
            "ctrl_frac@1KiB",
            "ctrl_frac@1MiB",
        ],
        args.has("csv"),
    );

    for &n in &ns {
        let mut proto = RuntimeDating::new(Platform::unit(n), UniformSelector::new(n), cycles);
        let cfg = RunConfig::seeded(seed ^ n as u64).max_rounds(proto.total_rounds());
        let report = SequentialExecutor.run(&mut proto, n, &cfg);
        let stats = report.stats;
        let r = report.expect_output();
        let mean_dates = r.total_dates() as f64 / cycles as f64;
        let ctrl_msgs = (stats.sent - r.payloads_received) as f64 / cycles as f64;
        let theory = control_msgs_per_round(&Platform::unit(n));
        let control_bytes = stats.bytes_sent - r.payloads_received * PAYLOAD_BYTES as u64;
        let ctrl_bytes = control_bytes as f64 / cycles as f64;
        let frac = |payload: u64| {
            let oh = ControlOverhead {
                request_msgs: 2 * n as u64,
                answer_msgs: 2 * n as u64,
                payload_msgs: mean_dates as u64,
                control_bytes: ctrl_bytes as u64,
                payload_bytes: mean_dates as u64 * payload,
            };
            format!("{:.6}", oh.control_fraction())
        };
        t.row(vec![
            n.to_string(),
            format!("{ctrl_msgs:.0}"),
            theory.to_string(),
            format!("{ctrl_bytes:.0}"),
            frac(1),
            frac(1 << 10),
            frac(1 << 20),
        ]);
    }
    t.print();
    println!("# expected: ctrl_frac@1MiB < 1e-4 (the paper's 'movie' regime)");
}
