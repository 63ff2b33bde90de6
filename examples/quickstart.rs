//! Quickstart: the dating service on the runtime, inspected.
//!
//! Runs Algorithm 1 as a distributed protocol on the paper's Figure 1
//! workload (`n` nodes, `bin = bout = 1`), prints the dates per cycle
//! against the `E[min(Po(1), Po(1))] ≈ 0.476` prediction, then spreads a
//! rumor over the dates.
//!
//! Run: `cargo run --release --example quickstart`

use rendezvous::core::analysis;
use rendezvous::prelude::*;

fn main() {
    let (n, cycles, seed) = (1_000, 20, 2008);
    println!("dating service on {n} nodes, bin = bout = 1 (m = {n})");
    println!(
        "prediction: E[dates]/m = {:.4} (paper measures 'slightly more than 0.47')\n",
        analysis::expected_dates_uniform(n, n as u64, n as u64) / n as f64
    );

    let out = Scenario::new(n)
        .cycles(cycles)
        .run(seed)
        .unwrap()
        .expect_output();
    let dating = out.dating().expect("dating run");
    for (cycle, &dates) in dating.dates_per_cycle.iter().enumerate().take(3) {
        println!("cycle {:2}: {dates:4} dates", cycle + 1);
    }
    assert!(dating.dates_per_cycle.iter().all(|&d| d <= n as u64));
    println!(
        "\nmean over {cycles} cycles: {:.4} of m — never more than m dates in a cycle",
        dating.total_dates() as f64 / (cycles as usize * n) as f64
    );

    // The same runtime, used to spread a rumor over the dates (§3).
    let out = Scenario::new(n)
        .protocol(Spreader::Dating)
        .run(seed)
        .unwrap()
        .expect_output();
    let rumor = out.spread().expect("spread run");
    println!(
        "rumor spreading: {} of {n} nodes informed in {} rounds (log2 n = {:.1})",
        rumor.final_informed(),
        rumor.cycles,
        (n as f64).log2()
    );
}
