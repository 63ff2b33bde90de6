//! The fleet's headline guarantee, end to end: one 64-cell sweep
//! produces byte-identical `SweepReport` JSON at pool sizes 1, 2 and 8,
//! and identical to the serial baseline — scheduling decides wall-clock
//! time only, never a single output bit. Trial counts around the
//! aggregation-block edge get the same check at pool sizes 1, 2, 3, 8.

use rendez_fleet::{run_serial, Fleet, SweepSpec, TRIALS_PER_JOB};
use rendez_runtime::Spreader;

/// A 64-cell grid (4 × 4 × 2 × 2) with enough trials per cell that
/// every cell folds several blocks, the last one short, exercising the
/// reorder buffer's out-of-order arrivals at larger pool sizes.
fn grid() -> SweepSpec {
    let trials = 2 * TRIALS_PER_JOB + TRIALS_PER_JOB / 2; // 3 blocks/cell
    SweepSpec::new()
        .ns(vec![8, 10, 12, 16])
        .protocols(vec![
            Spreader::Push,
            Spreader::PushPull,
            Spreader::FairPull,
            Spreader::DatingService,
        ])
        .churns(vec![0.0, 0.15])
        .losses(vec![0.0, 0.1])
        .trials(trials)
        .cycles(6)
        .seed(2008)
}

#[test]
fn sweep_report_is_byte_identical_across_pool_sizes_and_engines() {
    let spec = grid();
    assert_eq!(spec.cell_count(), 64);

    let reference = run_serial(&spec).expect("serial sweep").to_json();
    for threads in [1usize, 2, 8] {
        let fleet = Fleet::new(threads);
        let json = fleet.run(&spec).expect("fleet sweep").to_json();
        assert_eq!(
            reference, json,
            "pool size {threads} diverged from the serial baseline"
        );
    }
}

/// The fleet schedules single trials but folds fixed blocks: at trial
/// counts just below, at and just above a block edge (and two blocks
/// plus one), any pool size must reproduce the serial bytes, short last
/// blocks included.
#[test]
fn trials_around_block_edges_are_byte_identical_at_any_pool_size() {
    let fleets: Vec<Fleet> = [1usize, 2, 3, 8].into_iter().map(Fleet::new).collect();
    for trials in [
        1,
        TRIALS_PER_JOB - 1,
        TRIALS_PER_JOB,
        TRIALS_PER_JOB + 1,
        2 * TRIALS_PER_JOB + 1,
    ] {
        let spec = SweepSpec::new()
            .ns(vec![8, 12])
            .protocols(vec![Spreader::PushPull, Spreader::DatingService])
            .churns(vec![0.0, 0.15])
            .trials(trials)
            .cycles(4)
            .seed(2025);
        let reference = run_serial(&spec).expect("serial sweep").to_json();
        for fleet in &fleets {
            assert_eq!(
                reference,
                fleet.run(&spec).expect("fleet sweep").to_json(),
                "trials {trials}, pool size {}",
                fleet.size()
            );
        }
    }
}

#[test]
fn every_cell_is_fully_sampled_and_summarized() {
    let spec = grid();
    let report = run_serial(&spec).expect("serial sweep");
    assert_eq!(report.cells.len(), 64);
    for cell in &report.cells {
        assert_eq!(cell.trials, spec.trials, "cell {}", cell.cell.index);
        assert!(cell.completed > 0, "cell {}", cell.cell.index);
        assert_eq!(cell.value.n, cell.completed);
        assert!(
            cell.value.ci95_lo <= cell.value.mean && cell.value.mean <= cell.value.ci95_hi,
            "cell {}: CI must bracket the mean",
            cell.cell.index
        );
        assert!(cell.value.min <= cell.value.mean && cell.value.mean <= cell.value.max);
    }
}
