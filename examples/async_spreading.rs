//! Synchronous vs asynchronous spreading, one table.
//!
//! Every workload with a continuous-time port runs twice from the same
//! builder: once under lockstep rounds (the default `TimeModel::Rounds`,
//! on the default sequential executor; completion measured in
//! legacy-equivalent rounds) and once under continuous time
//! (`TimeModel::Continuous`, per-node exponential wake clocks at rate
//! 1/s on the event-driven executor, completion measured in simulated
//! seconds). The time model changes what a run means; the round
//! executor (`.sequential()` / `.sharded(k)`) only how fast it goes.
//! At one expected wake per node per second the two time units are
//! directly comparable; the async column pays a modest constant factor
//! for giving up the round barrier.
//!
//! Run with: `cargo run --release --example async_spreading [n] [seed]`

use rendezvous::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    println!("# sync rounds vs async simulated seconds, n={n} seed={seed} rate=1.0/s");
    println!(
        "{:>16}  {:>12}  {:>12}  {:>10}  {:>12}",
        "workload", "sync rounds", "async sim_s", "ratio", "async events"
    );
    for spreader in Spreader::ALL {
        if !spreader.supports_continuous() {
            continue;
        }
        let base = Scenario::new(n).protocol(spreader);
        let sync = base.clone().run(seed).expect("sync run");
        assert!(sync.completed);
        let rounds = sync.expect_output().spread().expect("spread").cycles;

        let cont = base
            .time_model(TimeModel::Continuous { rate: 1.0 })
            .run(seed)
            .expect("async run");
        assert!(cont.completed);
        let seconds = cont.time.sim_seconds().expect("continuous time");
        println!(
            "{:>16}  {:>12}  {:>12.2}  {:>10.2}  {:>12}",
            spreader.name(),
            rounds,
            seconds,
            seconds / rounds as f64,
            cont.rounds,
        );
    }
}
