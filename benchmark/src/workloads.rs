//! The six workloads: how each one's inputs are generated from the seed,
//! how the system under test is built from them through its public API,
//! what one complete run is, and what makes that run's output correct.
//!
//! Everything here goes through the front doors a user of the repository
//! would use — [`Scenario`], [`Fleet`], [`SweepSpec`], [`WorkerPool`] —
//! so the end-to-end numbers are the ones such a user would see. The
//! traced twin of each workload (protocol adapters handed to the public
//! executors inside a `Traced` wrapper) is built from the same [`Plan`]
//! in [`crate::layers`].

use rendez_core::{AliasSelector, NodeSelector, Platform};
use rendez_fleet::{run_serial, Fleet, SweepReport, SweepSpec};
use rendez_runtime::{
    Churn, Conditions, LatencyDist, Scenario, ScenarioReport, Spreader, TimeModel, WorkerPool,
};
use rendez_sim::{derive_seed, NodeId, SplitMix64};

/// Seed used when `--seed` is not given; the one `pins.json` describes.
pub const DEFAULT_SEED: u64 = 0x5ca1e;

/// Threads of the two multi-threaded workloads — sized for the 2-vCPU
/// recording host.
pub const PAR_THREADS: usize = 2;

/// Problem-size divisor of `--quick`.
const QUICK_DIVISOR: usize = 10;

/// Dating-service cycles of `hetero-dating-seq`.
const HETERO_CYCLES: u64 = 5;

/// Stream ids for [`derive_seed`], one per independent input.
const STREAM_SOURCE: u64 = 1;
const STREAM_PLATFORM: u64 = 7;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dating-based spreading, ideal channel, sequential executor.
    SpreadIdealSeq,
    /// The same inputs on the sharded executor over a worker pool.
    SpreadIdealSharded,
    /// Dating-based spreading under loss, latency spread and churn.
    SpreadFaultySeq,
    /// The heterogeneous dating service on a power-law platform.
    HeteroDatingSeq,
    /// A 32-cell Monte-Carlo sweep on the fleet engine.
    SweepFleet,
    /// Asynchronous push&pull on the event executor.
    AsyncEvents,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 6] = [
        Workload::SpreadIdealSeq,
        Workload::SpreadIdealSharded,
        Workload::SpreadFaultySeq,
        Workload::HeteroDatingSeq,
        Workload::SweepFleet,
        Workload::AsyncEvents,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpreadIdealSeq => "spread-ideal-seq",
            Workload::SpreadIdealSharded => "spread-ideal-sharded",
            Workload::SpreadFaultySeq => "spread-faulty-seq",
            Workload::HeteroDatingSeq => "hetero-dating-seq",
            Workload::SweepFleet => "sweep-fleet",
            Workload::AsyncEvents => "async-events",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark, in one line (the `why` of
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SpreadIdealSeq => {
                "plain single-threaded baseline: dating-based spreading on an ideal channel, \
                 fate skipped by the fast path, adapters and delivery ordering dominate"
            }
            Workload::SpreadIdealSharded => {
                "identical inputs on the sharded executor over a 2-thread pool: isolates shard \
                 handshakes, barrier wait and coordinator merge; its trace must equal workload 1's"
            }
            Workload::SpreadFaultySeq => {
                "loss, latency spread and churn: per-message fate, latency slot rows, mixed-round \
                 sort fallback and churn masks do the work the ideal fast path bypasses"
            }
            Workload::HeteroDatingSeq => {
                "the paper's title workload: dating service on a power-law platform with \
                 bandwidth-weighted alias selection; alias draws, arena stash and shuffle dominate"
            }
            Workload::SweepFleet => {
                "the runtime as 512 short runs instead of one long one: per-run set-up, job \
                 dispatch, Welford merge and report JSON dominate, round speed barely matters"
            }
            Workload::AsyncEvents => {
                "asynchronous push&pull in continuous time: the only user of the event executor \
                 (heap, message parking, incremental observation retract/merge)"
            }
        }
    }

    /// What one unit of this workload's work count is.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::SweepFleet => "trials",
            Workload::AsyncEvents => "events",
            _ => "msgs sent",
        }
    }

    /// Threads a run of this workload keeps busy.
    pub fn threads(self) -> usize {
        match self {
            Workload::SpreadIdealSharded | Workload::SweepFleet => PAR_THREADS,
            _ => 1,
        }
    }

    /// Node count (largest grid point for the sweep) at full size.
    fn full_n(self) -> usize {
        match self {
            Workload::SpreadIdealSeq | Workload::SpreadIdealSharded => 50_000,
            Workload::SpreadFaultySeq => 2_500,
            Workload::HeteroDatingSeq => 20_000,
            Workload::SweepFleet => 500,
            Workload::AsyncEvents => 25_000,
        }
    }
}

/// Problem size: the documented one, or the `--quick` smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the metrics are defined at.
    Full,
    /// `n ÷ 10`: exercises every code path in well under a second.
    Quick,
}

/// A workload's generated inputs — a pure function of
/// `(workload, scale, seed)`, and everything both the end-to-end path and
/// the traced path need to build the system.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// At which size.
    pub scale: Scale,
    /// Node count (largest grid point for the sweep).
    pub n: usize,
    /// Master seed of the run(s).
    pub seed: u64,
    /// Rumor source (spreading workloads).
    pub source: NodeId,
    /// Channel conditions.
    pub conditions: Conditions,
    /// Node churn (source protection is added by the builder).
    pub churn: Churn,
    /// Round cap handed to both paths, so neither depends on the
    /// builder's private default.
    pub max_rounds: u64,
    /// Seed of the power-law platform (`hetero-dating-seq`).
    pub platform_seed: u64,
}

impl Plan {
    /// Generate the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Plan {
        let n = match scale {
            Scale::Full => workload.full_n(),
            Scale::Quick => workload.full_n() / QUICK_DIVISOR,
        };
        let faulty = workload == Workload::SpreadFaultySeq;
        Plan {
            workload,
            scale,
            n,
            seed,
            source: NodeId::from_index(
                (SplitMix64::mix(derive_seed(seed, STREAM_SOURCE)) % n as u64) as usize,
            ),
            conditions: if faulty {
                Conditions {
                    drop_prob: 0.05,
                    latency: LatencyDist::Uniform { min: 1, max: 2 },
                }
            } else {
                Conditions::ideal()
            },
            churn: if faulty {
                Churn::intermittent(0.05)
            } else {
                Churn::none()
            },
            max_rounds: match workload {
                Workload::HeteroDatingSeq => 3 * HETERO_CYCLES + 1,
                // The builder's documented default for spreaders.
                _ => 3 * (200 + 80 * (n as f64).log2().ceil() as u64),
            },
            platform_seed: derive_seed(seed, STREAM_PLATFORM),
        }
    }

    /// The heterogeneous platform of `hetero-dating-seq`.
    pub fn power_law_platform(&self) -> Platform {
        Platform::power_law(self.n, 1.1, 4.0, self.platform_seed)
    }

    /// The alias selector weighted by incoming bandwidth.
    pub fn alias_selector(&self, platform: &Platform) -> AliasSelector {
        let weights: Vec<f64> = platform.iter().map(|(_, caps)| caps.bw_in as f64).collect();
        AliasSelector::new(&weights, "bw_in")
    }

    /// Dating-service cycles (`hetero-dating-seq`, and the sweep's
    /// setting for any dating-service cell).
    pub fn cycles(&self) -> u64 {
        match self.workload {
            Workload::HeteroDatingSeq => HETERO_CYCLES,
            _ => 30,
        }
    }

    /// The sweep grid of `sweep-fleet`: 2 sizes × 4 protocols × 2 churn
    /// levels × 2 loss levels, 16 trials per cell.
    pub fn sweep_spec(&self) -> SweepSpec {
        SweepSpec::new()
            .ns(vec![self.n / 4, self.n])
            .protocols(vec![
                Spreader::Push,
                Spreader::PushPull,
                Spreader::FairPull,
                Spreader::Dating,
            ])
            .churns(vec![0.0, 0.1])
            .losses(vec![0.0, 0.05])
            .trials(16)
            .cycles(self.cycles())
            .seed(self.seed)
    }

    /// The spreading scenario of workloads 1–3 (sequential; the sharded
    /// workload adds `.sharded(2)`).
    fn spread_scenario(&self) -> Scenario {
        Scenario::new(self.n)
            .protocol(Spreader::Dating)
            .source(self.source)
            .conditions(self.conditions)
            .churn(self.churn)
            .max_rounds(self.max_rounds)
    }
}

/// The system under test, built and ready to run.
pub enum System {
    /// Workloads 1–3 and 6 (the same builder type, rounds or continuous
    /// time); `pool` is `Some` for the sharded one.
    Spread {
        /// The scenario, executor choice included.
        scenario: Scenario,
        /// The persistent worker pool of the sharded workload.
        pool: Option<WorkerPool>,
    },
    /// Workload 4.
    Hetero {
        /// The dating-service scenario.
        scenario: Scenario<AliasSelector>,
        /// Total bandwidth `m` of the platform, for the Ω(m) check.
        m: u64,
    },
    /// Workload 5.
    Sweep {
        /// The grid.
        spec: SweepSpec,
        /// The persistent fleet.
        fleet: Fleet,
    },
}

/// What one complete, checked run produced — exact counts only, so two
/// runs of the same plan compare equal and `pins.json` can pin them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facts {
    /// The workload's work count (see [`Workload::work_unit`]).
    pub work: u64,
    /// Engine rounds (0 for the sweep; wake events for async).
    pub rounds: u64,
    /// Messages sent (per-trial means summed over cells for the sweep).
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages lost to the channel.
    pub dropped: u64,
    /// Messages lost to churned destinations.
    pub churn_lost: u64,
    /// Chained hash of the digest trace (of the report JSON for the
    /// sweep).
    pub trace_hash: u64,
    /// Mean dates per cycle (`hetero-dating-seq` only, else 0).
    pub dates_per_cycle: u64,
    /// Report size in bytes (`sweep-fleet` only, else 0).
    pub report_bytes: u64,
    /// Resident bytes of node state at the end of the run (0 for the
    /// sweep).
    pub node_bytes: u64,
}

/// Order-sensitive fold of a `u64` sequence into one word.
pub fn chain_hash(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0x5ca1e, |h, w| SplitMix64::mix(h ^ SplitMix64::mix(w)))
}

/// Hash of a byte string (length included), for comparing and pinning
/// report JSON.
pub fn bytes_hash(bytes: &[u8]) -> u64 {
    let words = bytes.chunks(8).map(|c| {
        let mut word = [0u8; 8];
        word[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(word)
    });
    chain_hash(words.chain(std::iter::once(bytes.len() as u64)))
}

impl System {
    /// Build the system from `plan` through the public API — the second
    /// half of what `setup_s` times.
    pub fn build(plan: &Plan) -> System {
        match plan.workload {
            Workload::SpreadIdealSeq | Workload::SpreadFaultySeq => System::Spread {
                scenario: plan.spread_scenario(),
                pool: None,
            },
            Workload::SpreadIdealSharded => System::Spread {
                scenario: plan.spread_scenario().sharded(PAR_THREADS),
                pool: Some(WorkerPool::new(PAR_THREADS)),
            },
            Workload::HeteroDatingSeq => {
                let platform = plan.power_law_platform();
                let selector = plan.alias_selector(&platform);
                let m = platform.m();
                System::Hetero {
                    scenario: Scenario::new(plan.n)
                        .protocol(Spreader::DatingService)
                        .platform(platform)
                        .selector(selector)
                        .cycles(plan.cycles())
                        .max_rounds(plan.max_rounds),
                    m,
                }
            }
            Workload::SweepFleet => System::Sweep {
                spec: plan.sweep_spec(),
                fleet: Fleet::new(PAR_THREADS),
            },
            Workload::AsyncEvents => System::Spread {
                scenario: Scenario::new(plan.n)
                    .protocol(Spreader::PushPull)
                    .source(plan.source)
                    .max_rounds(plan.max_rounds)
                    .time_model(TimeModel::Continuous { rate: 1.0 }),
                pool: None,
            },
        }
    }

    /// Run the system until it has finished its first round (first `n`
    /// events; one trial per cell for the sweep) — the last third of
    /// what `setup_s` times.
    pub fn first_round(&self, plan: &Plan) -> Result<(), String> {
        match self {
            System::Spread { scenario, pool } => {
                execute(&scenario.clone().max_rounds(1), pool.as_ref(), plan.seed).map(drop)
            }
            System::Hetero { scenario, .. } => {
                execute(&scenario.clone().max_rounds(1), None, plan.seed).map(drop)
            }
            System::Sweep { spec, fleet } => fleet
                .run(&spec.clone().trials(1))
                .map(drop)
                .map_err(|e| format!("{e:?}")),
        }
    }

    /// One complete run, its output checked; `Err` names the first
    /// failed check.
    pub fn run(&self, plan: &Plan) -> Result<Facts, String> {
        match self {
            System::Spread { scenario, pool } => {
                let report = execute(scenario, pool.as_ref(), plan.seed)?;
                check_spread(&report, plan.n)?;
                Ok(round_facts(&report))
            }
            System::Hetero { scenario, m } => {
                let report = execute(scenario, None, plan.seed)?;
                check_dating(&report, *m, plan.cycles())?;
                Ok(round_facts(&report))
            }
            System::Sweep { spec, fleet } => {
                sweep_facts(&fleet.run(spec).map_err(|e| format!("{e:?}"))?)
            }
        }
    }

    /// The reference every repetition's [`Facts`] must equal, computed
    /// once per invocation on the simplest engine: the sequential
    /// executor for the sharded workload (its digest trace must equal
    /// workload 1's), `run_serial` for the sweep (byte-identical JSON).
    /// `None` where a run is its own reference.
    pub fn reference(&self, plan: &Plan) -> Result<Option<Facts>, String> {
        match self {
            System::Spread {
                scenario,
                pool: Some(_),
            } => {
                let report = execute(&scenario.clone().sequential(), None, plan.seed)?;
                Ok(Some(round_facts(&report)))
            }
            System::Sweep { spec, .. } => {
                sweep_facts(&run_serial(spec).map_err(|e| format!("{e:?}"))?).map(Some)
            }
            _ => Ok(None),
        }
    }
}

/// Run `scenario` with `seed`, on `pool` if there is one.
fn execute<S: NodeSelector + Clone>(
    scenario: &Scenario<S>,
    pool: Option<&WorkerPool>,
    seed: u64,
) -> Result<ScenarioReport, String> {
    match pool {
        Some(pool) => scenario.run_pooled(pool, seed),
        None => scenario.run(seed),
    }
    .map_err(|e| e.to_string())
}

/// Exact counts of a sweep, after checking that its JSON rendering parses
/// back and that every trial completed. Two reports with equal facts are
/// byte-identical (up to a hash collision).
pub fn sweep_facts(report: &SweepReport) -> Result<Facts, String> {
    let json = report.to_json();
    rendez_fleet::json::parse(&json).map_err(|e| format!("report JSON: {e}"))?;
    let failed: u64 = report.cells.iter().map(|c| c.trials - c.completed).sum();
    if failed > 0 {
        return Err(format!("{failed} trials did not complete"));
    }
    Ok(Facts {
        work: report.cells.iter().map(|c| c.trials).sum(),
        rounds: 0,
        sent: report.cells.iter().map(|c| c.sent.mean as u64).sum(),
        delivered: report.cells.iter().map(|c| c.delivered.mean as u64).sum(),
        dropped: 0,
        churn_lost: 0,
        trace_hash: bytes_hash(json.as_bytes()),
        dates_per_cycle: 0,
        report_bytes: json.len() as u64,
        node_bytes: 0,
    })
}

/// Exact counts of a round- or event-based run.
pub fn round_facts(report: &ScenarioReport) -> Facts {
    let dates_per_cycle = report
        .output
        .as_ref()
        .and_then(|o| o.dating())
        .map_or(0, |d| {
            d.total_dates() / d.dates_per_cycle.len().max(1) as u64
        });
    let events = report.time.rounds().is_none();
    Facts {
        work: if events {
            report.rounds
        } else {
            report.stats.sent
        },
        rounds: report.rounds,
        sent: report.stats.sent,
        delivered: report.stats.delivered,
        dropped: report.stats.dropped,
        churn_lost: report.stats.churn_lost,
        trace_hash: chain_hash(report.digests.iter().copied()),
        dates_per_cycle,
        report_bytes: 0,
        node_bytes: report.node_bytes,
    }
}

/// A spreading run — in rounds or in continuous time — is correct when
/// it halted by itself with every node informed.
pub fn check_spread(report: &ScenarioReport, n: usize) -> Result<(), String> {
    if !report.completed {
        return Err("run hit the round cap".to_string());
    }
    let informed = report.output.as_ref().and_then(|o| {
        let sync = o.spread().map(|s| s.final_informed());
        sync.or_else(|| o.async_spread().map(|s| s.final_informed()))
    });
    if informed != Some(n as u64) {
        return Err(format!("informed {informed:?} of {n}"));
    }
    Ok(())
}

/// A dating-service run is correct when it ran all its cycles and every
/// cycle arranged between `m/2` and `m` dates — the paper's Ω(m) claim;
/// bandwidth-weighted selection arranges ≈ 0.84 m here, so the bracket is
/// generous on both sides.
pub fn check_dating(report: &ScenarioReport, m: u64, cycles: u64) -> Result<(), String> {
    if !report.completed {
        return Err("run hit the round cap".to_string());
    }
    let dating = report
        .output
        .as_ref()
        .and_then(|o| o.dating())
        .ok_or("not a dating-service output")?;
    if dating.dates_per_cycle.len() as u64 != cycles {
        return Err(format!(
            "{} cycles instead of {cycles}",
            dating.dates_per_cycle.len()
        ));
    }
    for (cycle, &dates) in dating.dates_per_cycle.iter().enumerate() {
        if dates > m || 2 * dates < m {
            return Err(format!(
                "cycle {cycle}: {dates} dates outside [m/2, m], m = {m}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn plans_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let a = Plan::generate(w, Scale::Quick, 11);
            let b = Plan::generate(w, Scale::Quick, 11);
            let c = Plan::generate(w, Scale::Quick, 12);
            assert_eq!(a.source, b.source);
            assert_eq!(a.platform_seed, b.platform_seed);
            assert_ne!(a.platform_seed, c.platform_seed);
            assert!(a.source.index() < a.n);
        }
    }

    #[test]
    fn every_workload_passes_its_check_at_quick_size_on_two_seeds() {
        for seed in [DEFAULT_SEED, 99] {
            for w in Workload::ALL {
                let plan = Plan::generate(w, Scale::Quick, seed);
                let system = System::build(&plan);
                system.first_round(&plan).expect("first round");
                let facts = system
                    .run(&plan)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(facts.work > 0, "{}", w.name());
                assert_eq!(
                    facts,
                    system.run(&plan).expect("second run"),
                    "{}",
                    w.name()
                );
                if let Some(reference) = system.reference(&plan).expect("reference") {
                    assert_eq!(facts, reference, "{}", w.name());
                }
            }
        }
    }

    #[test]
    fn hashes_are_order_and_length_sensitive() {
        assert_ne!(chain_hash([1, 2]), chain_hash([2, 1]));
        assert_ne!(bytes_hash(b"abc"), bytes_hash(b"abc\0"));
        assert_eq!(bytes_hash(b"abcdefghij"), bytes_hash(b"abcdefghij"));
    }
}
