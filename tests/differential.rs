//! The determinism gate: a `(scenario, seed)` gives one `RunReport`
//! whatever the executor, shard count or pool.
//!
//! One table-driven grid checks that contract. A cell is a workload
//! (`Spreader::ALL`; the three dating workloads also on a power-law
//! platform with a `bw_in`-weighted alias selector) × latency law × loss
//! × churn × seed, at n = 60 with a mid-range source, capped at 240
//! rounds (12 dating cycles); one n = 700 row per workload and the five
//! asynchronous spreaders on the event executor join it. Last come the
//! runtime's exact pins at n = 300 on `Scenario`'s own defaults (source
//! node 0, 30 cycles, no round cap), each of which must complete: the
//! five uniform-gossip spreaders on an ideal channel and on a faulty one
//! (loss 0.1, latency uniform on 1..=3, intermittent churn 0.05), and
//! their asynchronous ports in continuous time, where the trace holds
//! one digest per event. The last cell is `exp_overhead --quick`'s
//! n = 100 run (the dating service for 10 cycles at seed `0x0B ^ 100`),
//! whose table row CI reads. Every cell runs
//! on `sequential`, `sharded(1/2/3/5)`, `run_pooled` on one shared pool
//! and one node per shard (shards ≥ n), and every report must equal the
//! sequential one whole, `{:?}` for `{:?}` — `time` and `node_bytes`
//! included. A mismatch names the cell, the executor and the first
//! divergent round. Cells that differ only in seed must differ in report.
//!
//! A quick subset (every pair of axes, both seeds, and every n = 300
//! cell) is also pinned: the FNV-1a of each cell's `{:?}` report must
//! match `tests/differential.golden`, the one file that holds the
//! runtime's exact behaviour. On a mismatch the regenerated list is
//! written under `CARGO_TARGET_TMPDIR`; a deliberate re-bless copies it
//! over the golden. The full product is `#[ignore]`d (run it in
//! release) and prints one `cell hash` line per cell, so two builds
//! compare with `diff`:
//!
//! ```text
//! cargo test --release --test differential -- --ignored --nocapture | grep '^cell hash'
//! ```

use rendezvous::prelude::*;
use rendezvous::runtime::{Conditions, LatencyDist, ScenarioReport, WorkerPool};
use std::fmt::Debug;
use std::path::Path;

/// Nodes in a grid cell.
const N: usize = 60;
/// Nodes in the one large row per workload.
const N_LARGE: usize = 700;
const SEEDS: [u64; 2] = [17, 0xBEEF];
/// Nodes and seeds of the gossip and asynchronous rows that run on
/// `Scenario`'s own defaults.
const N_DEFAULTS: usize = 300;
const SEEDS_DEFAULTS: [u64; 2] = [0x1, 0xBEEF];

const LATENCIES: [(&str, LatencyDist); 6] = [
    ("fixed1", LatencyDist::Fixed(1)),
    ("fixed3", LatencyDist::Fixed(3)),
    ("uniform1-2", LatencyDist::Uniform { min: 1, max: 2 }),
    ("uniform1-3", LatencyDist::Uniform { min: 1, max: 3 }),
    ("geometric0.5/4", LatencyDist::Geometric { p: 0.5, cap: 4 }),
    (
        "geometric0.3/16",
        LatencyDist::Geometric { p: 0.3, cap: 16 },
    ),
];

const LOSSES: [f64; 2] = [0.0, 0.1];

fn churns() -> [(&'static str, Churn); 3] {
    [
        ("none", Churn::none()),
        ("intermittent0.05", Churn::intermittent(0.05)),
        ("crash-stop0.2/60", Churn::crash_stop(0.2, 60)),
    ]
}

/// One scenario of the grid, named by `stem` and `seed`.
struct Cell {
    stem: String,
    spreader: Spreader,
    power_law: bool,
    n: usize,
    conditions: Conditions,
    churn: Churn,
    continuous: bool,
    /// `Scenario`'s own source (node 0), cycle budget and round cap
    /// instead of the grid's; the run must complete.
    defaults: bool,
    /// A dating cycle budget of the cell's own, overriding either.
    cycles: Option<u64>,
    seed: u64,
    quick: bool,
}

impl Cell {
    fn key(&self) -> String {
        format!("{} seed={:#x}", self.stem, self.seed)
    }

    /// Every executor's report, sequential first; the one-node-per-shard
    /// layout only if `one_node_shards`.
    fn reports(&self, pool: &WorkerPool, one_node_shards: bool) -> Vec<(String, ScenarioReport)> {
        let mut base = Scenario::new(self.n)
            .protocol(self.spreader)
            .conditions(self.conditions)
            .churn(self.churn);
        if !self.defaults {
            base = base
                .source(NodeId::from_index(self.n / 2))
                .cycles(12)
                .max_rounds(240);
        }
        if let Some(cycles) = self.cycles {
            base = base.cycles(cycles);
        }
        if self.continuous {
            base = base.time_model(TimeModel::Continuous { rate: 1.0 });
        }
        if !self.power_law {
            return on_every_executor(base, self.seed, pool, one_node_shards);
        }
        let platform = Platform::power_law(self.n, 1.1, 4.0, 9);
        let weights: Vec<f64> = platform.iter().map(|(_, c)| c.bw_in as f64).collect();
        let base = base
            .platform(platform)
            .selector(AliasSelector::new(&weights, "bw_in"));
        on_every_executor(base, self.seed, pool, one_node_shards)
    }

    /// Whether another seed must change the report. Not where a fixed
    /// latency above one round meets a lossless, churn-free channel:
    /// no fate is hashed from the seed there, and a workload whose
    /// replies all miss their phase stalls without drawing on it.
    fn seed_shows(&self) -> bool {
        let late = matches!(self.conditions.latency, LatencyDist::Fixed(l) if l > 1);
        !(late && self.conditions.drop_prob == 0.0 && self.churn.is_none())
    }
}

/// `scenario` on `sequential`, `sharded(1/2/3/5)` and pooled
/// `sharded(3)`, then pooled with one node per shard if `one_node_shards`
/// (a thread per shard would cost more than the grid).
fn on_every_executor<S: NodeSelector + Clone>(
    scenario: Scenario<S>,
    seed: u64,
    pool: &WorkerPool,
    one_node_shards: bool,
) -> Vec<(String, ScenarioReport)> {
    let valid = |r: Result<ScenarioReport, ScenarioError>| r.expect("grid cells validate");
    let mut runs = vec![("sequential".to_string(), valid(scenario.run(seed)))];
    for k in [1, 2, 3, 5] {
        let sharded = scenario.clone().sharded(k);
        runs.push((format!("sharded({k})"), valid(sharded.run(seed))));
    }
    let pooled_layouts = if one_node_shards { 2 } else { 1 };
    for k in [3, scenario.n() + 1].into_iter().take(pooled_layouts) {
        let pooled = scenario.clone().sharded(k).run_pooled(pool, seed);
        runs.push((format!("run_pooled sharded({k})"), valid(pooled)));
    }
    runs
}

/// The whole grid, in a fixed order; cells that differ only in seed
/// are adjacent.
fn grid() -> Vec<Cell> {
    // The five gossip spreaders have an asynchronous port; the three
    // dating workloads also run on the power-law platform.
    let (gossip, dating): (Vec<_>, Vec<_>) = Spreader::ALL
        .into_iter()
        .partition(|s| s.supports_continuous());
    let unit = Spreader::ALL.into_iter().map(|s| (s, false));
    let workloads: Vec<_> = unit.chain(dating.into_iter().map(|s| (s, true))).collect();
    let cell = |stem: String, spreader, n, seed| Cell {
        stem,
        spreader,
        power_law: false,
        n,
        conditions: Conditions::ideal(),
        churn: Churn::none(),
        continuous: false,
        defaults: false,
        cycles: None,
        seed,
        quick: true,
    };
    let mut cells = Vec::new();
    for (w, &(spreader, power_law)) in workloads.iter().enumerate() {
        let platform = if power_law { "power-law" } else { "unit" };
        for (l, &(lat_name, latency)) in LATENCIES.iter().enumerate() {
            for (d, &drop_prob) in LOSSES.iter().enumerate() {
                for (c, (churn_name, churn)) in churns().into_iter().enumerate() {
                    let stem = format!(
                        "{spreader}/{platform} n={N} {lat_name} loss={drop_prob} churn={churn_name}"
                    );
                    for seed in SEEDS {
                        cells.push(Cell {
                            power_law,
                            conditions: Conditions { drop_prob, latency },
                            churn,
                            // Half the (workload, latency, churn)
                            // triples, each with one loss: every pair
                            // of axes is covered.
                            quick: (w + l + c) % 2 == 0 && d == (l / 2 + c) % 2,
                            ..cell(stem.clone(), spreader, N, seed)
                        });
                    }
                }
            }
        }
    }
    for spreader in Spreader::ALL {
        let stem = format!("{spreader}/unit n={N_LARGE} ideal");
        cells.push(cell(stem, spreader, N_LARGE, SEEDS[0]));
    }
    for &spreader in &gossip {
        for seed in SEEDS {
            let stem = format!("{spreader}/async n={N}");
            cells.push(Cell {
                continuous: true,
                ..cell(stem, spreader, N, seed)
            });
        }
    }
    // On `Scenario`'s defaults: the gossip spreaders on an ideal and a
    // faulty channel, then their asynchronous ports.
    let faulty = Conditions {
        drop_prob: 0.1,
        latency: LatencyDist::Uniform { min: 1, max: 3 },
    };
    let channels = [
        ("ideal", Conditions::ideal(), Churn::none()),
        (
            "uniform1-3 loss=0.1 churn=intermittent0.05",
            faulty,
            Churn::intermittent(0.05),
        ),
    ];
    for &spreader in &gossip {
        for (channel, conditions, churn) in channels {
            let stem = format!("{spreader}/unit n={N_DEFAULTS} {channel}");
            for seed in SEEDS_DEFAULTS {
                cells.push(Cell {
                    conditions,
                    churn,
                    defaults: true,
                    ..cell(stem.clone(), spreader, N_DEFAULTS, seed)
                });
            }
        }
    }
    for &spreader in &gossip {
        for seed in SEEDS_DEFAULTS {
            let stem = format!("{spreader}/async n={N_DEFAULTS}");
            cells.push(Cell {
                continuous: true,
                defaults: true,
                ..cell(stem, spreader, N_DEFAULTS, seed)
            });
        }
    }
    // `exp_overhead --quick`'s n = 100 row: its cycle count and seed.
    let (n, cycles) = (100, 10);
    let stem = format!("{}/unit n={n} cycles={cycles}", Spreader::DatingService);
    cells.push(Cell {
        defaults: true,
        cycles: Some(cycles),
        ..cell(stem, Spreader::DatingService, n, 0x0B ^ n as u64)
    });
    cells
}

/// FNV-1a over `s`'s bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Where `b` first departs from `a`: the first round whose digest
/// differs, or the report fields that do when the traces agree.
fn divergence(a: &ScenarioReport, b: &ScenarioReport) -> String {
    let common = a.digests.len().min(b.digests.len());
    let round = (0..common).find(|&t| a.digests[t] != b.digests[t]);
    if let Some(t) = round.or((a.digests.len() != b.digests.len()).then_some(common)) {
        return format!("first divergent round {t}");
    }
    let fields: [(&str, &dyn Debug, &dyn Debug); 6] = [
        ("rounds", &a.rounds, &b.rounds),
        ("time", &a.time, &b.time),
        ("completed", &a.completed, &b.completed),
        ("output", &a.output, &b.output),
        ("stats", &a.stats, &b.stats),
        ("node_bytes", &a.node_bytes, &b.node_bytes),
    ];
    let differ: Vec<String> = fields
        .iter()
        .map(|(f, x, y)| (f, format!("{x:?}"), format!("{y:?}")))
        .filter(|(_, x, y)| x != y)
        .map(|(f, x, y)| format!("{f} {x} vs {y}"))
        .collect();
    format!("digest traces agree; {}", differ.join("; "))
}

/// Run `cell` on every executor, assert each report equals the
/// sequential one, and return the hash of that report.
fn run_cell(cell: &Cell, pool: &WorkerPool, one_node_shards: bool) -> u64 {
    let key = cell.key();
    let runs = cell.reports(pool, one_node_shards);
    let (_, reference) = &runs[0];
    let want = format!("{reference:?}");
    for (exec, report) in &runs[1..] {
        if format!("{report:?}") != want {
            let at = divergence(reference, report);
            panic!("{key}: {exec} differs from sequential, {at}");
        }
    }
    if cell.continuous {
        // One digest per event.
        let events = reference.rounds;
        assert_eq!(reference.digests.len() as u64, events, "{key}");
        assert!(
            matches!(reference.time, TimeAxis::SimSeconds { events: e, .. } if e == events),
            "{key}"
        );
    } else {
        assert_eq!(reference.time, TimeAxis::Rounds(reference.rounds), "{key}");
    }
    assert!(
        !cell.defaults || reference.completed,
        "{key}: must complete"
    );
    if cell.conditions.drop_prob > 0.0 {
        assert!(reference.stats.dropped > 0, "{key}: loss must bite");
    }
    if !cell.churn.is_none() {
        assert!(reference.stats.churn_lost > 0, "{key}: churn must bite");
    }
    fnv1a(&want)
}

/// [`run_cell`] over `cells`, in two interleaved halves on a pool of
/// their own (a job must not wait on the pool it runs on); assert that
/// seeds matter and return one `cell hash` line per cell.
fn check(cells: &[&Cell], one_node_shards: impl Fn(&Cell) -> bool + Sync) -> Vec<String> {
    let pool = WorkerPool::new(2);
    let mut halves = [Vec::new(), Vec::new()];
    WorkerPool::new(2).scope(|s| {
        for (half, hashes) in halves.iter_mut().enumerate() {
            let (pool, one_node_shards) = (&pool, &one_node_shards);
            s.spawn(move || {
                for cell in cells.iter().skip(half).step_by(2) {
                    hashes.push(run_cell(cell, pool, one_node_shards(cell)));
                }
            });
        }
    });
    let hashes: Vec<u64> = (0..cells.len()).map(|i| halves[i % 2][i / 2]).collect();
    for (pair, hash) in cells.windows(2).zip(hashes.windows(2)) {
        if pair[0].stem == pair[1].stem && pair[1].seed_shows() {
            let key = pair[1].key();
            assert_ne!(hash[0], hash[1], "{key}: another seed gave the same report");
        }
    }
    let lines = cells.iter().zip(hashes);
    lines
        .map(|(cell, hash)| format!("cell hash {hash:016x} {}", cell.key()))
        .collect()
}

#[test]
fn quick_grid_matches_sequential_and_the_golden_hashes() {
    let cells = grid();
    let quick: Vec<&Cell> = cells.iter().filter(|c| c.quick).collect();
    // A shard per node costs a debug build n² lanes a round: here only
    // one latency spread takes that layout, at one seed.
    let spread = |c: &Cell| c.conditions.latency == LatencyDist::Uniform { min: 1, max: 3 };
    let got = check(&quick, |c| spread(c) && c.seed == SEEDS[0]);
    let want: Vec<&str> = include_str!("differential.golden").lines().collect();
    if got != want {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("differential.golden");
        std::fs::write(&path, got.join("\n") + "\n").expect("write the regenerated list");
        let pairs = got.iter().zip(&want);
        let differ = pairs.clone().filter(|(g, w)| g != w).count();
        let first = pairs.clone().position(|(g, w)| g != w);
        let first = first.unwrap_or(got.len().min(want.len()));
        panic!(
            "{} of {} quick cells differ from tests/differential.golden\n\
             first now: {}\n\
             golden:    {}\n\
             regenerated list: {path}\n\
             a deliberate re-bless: cp {path} tests/differential.golden",
            differ + got.len().abs_diff(want.len()),
            got.len(),
            got.get(first).map_or("(none)", String::as_str),
            want.get(first).unwrap_or(&"(none)"),
            path = path.display(),
        );
    }
}

#[test]
#[ignore = "the full grid; run it in release"]
fn full_grid_matches_sequential() {
    let cells = grid();
    let all: Vec<&Cell> = cells.iter().collect();
    for line in check(&all, |_| true) {
        println!("{line}");
    }
}
