//! Sweep specification: a cartesian grid over the axes the
//! [`Scenario`] builder exposes.
//!
//! A [`SweepSpec`] names the four grid axes — node count, protocol,
//! churn down-probability, channel loss — plus the trials-per-cell
//! budget and a master seed. [`SweepSpec::cells`] enumerates the grid
//! in a fixed nested order (`n` → protocol → churn → loss), and every
//! trial's seed derives from `(sweep_seed, cell_index, trial_index)`
//! alone, so the whole sweep is reproducible from one `u64` and is
//! entirely independent of how trials are scheduled onto threads.
//!
//! lint: deterministic

use rendez_runtime::{Churn, Conditions, Scenario, ScenarioError, Spreader, TimeModel, MAX_NODES};
use rendez_sim::rng::derive_seed;

/// A parameter sweep: the cartesian product of four axes, each cell
/// sampled `trials` times.
///
/// Built with chained setters; [`validate`](Self::validate) (called by
/// the engines) rejects empty axes, out-of-range probabilities and any
/// cell whose scenario would not validate.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Node-count axis.
    pub ns: Vec<usize>,
    /// Protocol axis (any [`Spreader`] registry entry).
    pub protocols: Vec<Spreader>,
    /// Churn axis: per-round down-probability of
    /// [`Churn::intermittent`]; `0.0` means no churn.
    pub churns: Vec<f64>,
    /// Loss axis: channel drop probability of
    /// [`Conditions::with_loss`]; `0.0` means an ideal channel.
    pub losses: Vec<f64>,
    /// Time-model axis: synchronous rounds and/or continuous time, so
    /// one sweep can compare sync vs async cells. Defaults to the
    /// single point [`TimeModel::Rounds`] — the classic sweep shape,
    /// with byte-identical JSON.
    pub time_models: Vec<TimeModel>,
    /// Monte-Carlo trials per cell.
    pub trials: u64,
    /// Master seed; every trial's seed derives from it (see
    /// [`trial_seed`](Self::trial_seed)).
    pub seed: u64,
    /// Dating-service cycles (ignored by spreading workloads).
    pub cycles: u64,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepSpec {
    /// An empty spec with single-point churn/loss axes (`0.0` each),
    /// 32 trials per cell, seed 0, and the paper's 30 dating cycles.
    /// The `ns` and `protocols` axes start empty and must be set.
    pub fn new() -> Self {
        Self {
            ns: Vec::new(),
            protocols: Vec::new(),
            churns: vec![0.0],
            losses: vec![0.0],
            time_models: vec![TimeModel::Rounds],
            trials: 32,
            seed: 0,
            cycles: 30,
        }
    }

    /// Set the node-count axis.
    pub fn ns(mut self, ns: Vec<usize>) -> Self {
        self.ns = ns;
        self
    }

    /// Set the protocol axis.
    pub fn protocols(mut self, protocols: Vec<Spreader>) -> Self {
        self.protocols = protocols;
        self
    }

    /// Set the churn axis (intermittent down-probabilities; `0.0` = none).
    pub fn churns(mut self, churns: Vec<f64>) -> Self {
        self.churns = churns;
        self
    }

    /// Set the loss axis (channel drop probabilities; `0.0` = ideal).
    pub fn losses(mut self, losses: Vec<f64>) -> Self {
        self.losses = losses;
        self
    }

    /// Set the time-model axis (sync rounds and/or continuous time).
    pub fn time_models(mut self, time_models: Vec<TimeModel>) -> Self {
        self.time_models = time_models;
        self
    }

    /// Set the trials-per-cell budget.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the dating-service cycle count.
    pub fn cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }

    /// Number of grid cells (product of the five axis lengths).
    pub fn cell_count(&self) -> usize {
        self.ns.len()
            * self.protocols.len()
            * self.churns.len()
            * self.losses.len()
            * self.time_models.len()
    }

    /// Enumerate the grid in its canonical nested order:
    /// `n` (outermost) → protocol → churn → loss → time model
    /// (innermost). `cells()[i].index == i` always holds. With the
    /// default single-point time-model axis, the enumeration is exactly
    /// the classic four-axis one.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for &n in &self.ns {
            for &protocol in &self.protocols {
                for &churn in &self.churns {
                    for &loss in &self.losses {
                        for &time_model in &self.time_models {
                            cells.push(Cell {
                                index: cells.len(),
                                n,
                                protocol,
                                churn,
                                loss,
                                time_model,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// The seed for trial `trial` of cell `cell_index` — a pure function
    /// of `(sweep seed, cell, trial)`, independent of scheduling.
    pub fn trial_seed(&self, cell_index: usize, trial: u64) -> u64 {
        derive_seed(derive_seed(self.seed, cell_index as u64), trial)
    }

    /// The runtime scenario for one cell — within-run always
    /// single-threaded (the builder's default sequential rounds, or the
    /// serial event loop for continuous cells): the fleet's parallelism
    /// is across trials, not within a run.
    ///
    /// # Panics
    /// Panics if the cell's churn or loss is outside `[0, 1)`;
    /// [`validate`](Self::validate) rejects such axes with a typed
    /// error first, so the engines never hit this.
    pub fn scenario_for(&self, cell: &Cell) -> Scenario {
        let mut s = Scenario::new(cell.n)
            .protocol(cell.protocol)
            .cycles(self.cycles);
        if cell.churn > 0.0 {
            s = s.churn(Churn::intermittent(cell.churn));
        }
        if cell.loss > 0.0 {
            s = s.conditions(Conditions::with_loss(cell.loss));
        }
        s.time_model(cell.time_model)
    }

    /// Check the whole grid without running anything: non-empty axes,
    /// at least one trial, probabilities in `[0, 1)`, and a valid
    /// scenario for every cell.
    pub fn validate(&self) -> Result<(), SweepError> {
        for (axis, len) in [
            ("ns", self.ns.len()),
            ("protocols", self.protocols.len()),
            ("churns", self.churns.len()),
            ("losses", self.losses.len()),
            ("time_models", self.time_models.len()),
        ] {
            if len == 0 {
                return Err(SweepError::EmptyAxis { axis });
            }
        }
        if self.trials == 0 {
            return Err(SweepError::ZeroTrials);
        }
        // Range-check the probability axes before building scenarios:
        // the runtime's Churn/Conditions constructors panic out of range,
        // and this layer promises typed errors instead.
        for (axis, values) in [("churns", &self.churns), ("losses", &self.losses)] {
            if let Some(&value) = values.iter().find(|v| !(0.0..1.0).contains(*v)) {
                return Err(SweepError::InvalidProbability { axis, value });
            }
        }
        for cell in self.cells() {
            // Checked before the scenario (and its n-node platform) is
            // built, so an absurd size is an error, not an allocation.
            let checked = if cell.n > MAX_NODES {
                Err(ScenarioError::TooManyNodes { n: cell.n })
            } else {
                self.scenario_for(&cell).validate()
            };
            checked.map_err(|source| SweepError::BadCell {
                cell: cell.index,
                source,
            })?;
        }
        Ok(())
    }
}

/// One grid point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Position in the canonical enumeration ([`SweepSpec::cells`]).
    pub index: usize,
    /// Node count.
    pub n: usize,
    /// Workload.
    pub protocol: Spreader,
    /// Intermittent-churn down-probability (`0.0` = none).
    pub churn: f64,
    /// Channel drop probability (`0.0` = ideal).
    pub loss: f64,
    /// Time model of this cell's runs.
    pub time_model: TimeModel,
}

/// What a sweep can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A grid axis has no points.
    EmptyAxis {
        /// Which axis (`"ns"`, `"protocols"`, `"churns"`, `"losses"`,
        /// `"time_models"`).
        axis: &'static str,
    },
    /// `trials == 0`: nothing to aggregate.
    ZeroTrials,
    /// A churn or loss axis value outside `[0, 1)`.
    InvalidProbability {
        /// Which axis (`"churns"` or `"losses"`).
        axis: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A cell's scenario failed validation.
    BadCell {
        /// The offending cell index.
        cell: usize,
        /// The underlying scenario error.
        source: ScenarioError,
    },
    /// A trial panicked; the sweep was cancelled at the first panic.
    TrialPanicked {
        /// The cell whose trial panicked.
        cell: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptyAxis { axis } => write!(f, "sweep axis {axis:?} is empty"),
            SweepError::ZeroTrials => write!(f, "a sweep needs at least one trial per cell"),
            SweepError::InvalidProbability { axis, value } => {
                write!(f, "sweep axis {axis:?} value {value} is outside [0,1)")
            }
            SweepError::BadCell { cell, source } => {
                write!(f, "cell {cell} is not a valid scenario: {source}")
            }
            SweepError::TrialPanicked { cell, message } => {
                write!(f, "a trial of cell {cell} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::BadCell { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepSpec {
        SweepSpec::new()
            .ns(vec![8, 16])
            .protocols(vec![Spreader::Push, Spreader::PushPull])
            .churns(vec![0.0, 0.1])
            .losses(vec![0.0, 0.05])
    }

    #[test]
    fn cells_enumerate_nested_and_indexed() {
        let spec = tiny();
        let cells = spec.cells();
        assert_eq!(cells.len(), 16);
        assert_eq!(spec.cell_count(), 16);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Innermost axis (loss) varies fastest, outermost (n) slowest.
        assert_eq!(cells[0].loss, 0.0);
        assert_eq!(cells[1].loss, 0.05);
        assert_eq!(cells[0].n, 8);
        assert_eq!(cells[8].n, 16);
        assert_eq!(cells[0].protocol, Spreader::Push);
        assert_eq!(cells[4].protocol, Spreader::PushPull);
        assert_eq!(cells[2].churn, 0.1);
    }

    #[test]
    fn time_model_axis_multiplies_the_grid() {
        let spec = tiny().time_models(vec![TimeModel::Rounds, TimeModel::Continuous { rate: 1.0 }]);
        assert_eq!(spec.cell_count(), 32);
        let cells = spec.cells();
        // Time model is the innermost axis: it varies fastest.
        assert_eq!(cells[0].time_model, TimeModel::Rounds);
        assert_eq!(cells[1].time_model, TimeModel::Continuous { rate: 1.0 });
        assert_eq!(cells[0].loss, cells[1].loss);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        assert_eq!(
            spec.time_models(vec![]).validate().unwrap_err(),
            SweepError::EmptyAxis {
                axis: "time_models"
            }
        );
    }

    #[test]
    fn continuous_cells_validate_only_for_ported_ideal_workloads() {
        // Continuous-time cells of a supported spreader at ideal
        // conditions validate; churned / lossy / dating-based cells are
        // rejected through the usual BadCell path.
        let ok = SweepSpec::new()
            .ns(vec![16])
            .protocols(vec![Spreader::PushPull])
            .time_models(vec![TimeModel::Continuous { rate: 1.0 }]);
        assert!(ok.validate().is_ok());
        let churned = ok.clone().churns(vec![0.1]);
        assert!(matches!(
            churned.validate().unwrap_err(),
            SweepError::BadCell {
                source: ScenarioError::ContinuousUnsupported { .. },
                ..
            }
        ));
        let dating = ok.protocols(vec![Spreader::Dating]);
        assert!(matches!(
            dating.validate().unwrap_err(),
            SweepError::BadCell {
                source: ScenarioError::ContinuousUnsupported { .. },
                ..
            }
        ));
    }

    #[test]
    fn scenario_for_continuous_cell_uses_the_event_executor() {
        let spec = SweepSpec::new()
            .ns(vec![16])
            .protocols(vec![Spreader::PushPull]);
        let cell = Cell {
            index: 0,
            n: 16,
            protocol: Spreader::PushPull,
            churn: 0.0,
            loss: 0.0,
            time_model: TimeModel::Continuous { rate: 2.0 },
        };
        let s = spec.scenario_for(&cell);
        assert_eq!(s.executor_name(), "event");
        let report = s.run(7).expect("continuous cell runs");
        assert!(report.completed);
        let out = report.expect_output();
        assert!(out.async_spread().expect("async output").seconds() > 0.0);
    }

    #[test]
    fn no_cell_runs_sharded() {
        let spec = tiny().time_models(vec![TimeModel::Rounds, TimeModel::Continuous { rate: 1.0 }]);
        for cell in spec.cells() {
            let name = spec.scenario_for(&cell).executor_name();
            assert!(
                name == "sequential" || name == "event",
                "cell {}: {name}",
                cell.index
            );
        }
    }

    #[test]
    fn trial_seeds_are_distinct_streams() {
        let spec = tiny().seed(9);
        let mut seen = std::collections::HashSet::new();
        for cell in 0..spec.cell_count() {
            for trial in 0..spec.trials {
                assert!(seen.insert(spec.trial_seed(cell, trial)));
            }
        }
    }

    #[test]
    fn validate_rejects_nonsense() {
        assert_eq!(
            SweepSpec::new().validate().unwrap_err(),
            SweepError::EmptyAxis { axis: "ns" }
        );
        assert_eq!(
            tiny().trials(0).validate().unwrap_err(),
            SweepError::ZeroTrials
        );
        let err = tiny().ns(vec![8, 1]).validate().unwrap_err();
        assert!(matches!(
            err,
            SweepError::BadCell {
                source: ScenarioError::TooFewNodes { n: 1 },
                ..
            }
        ));
        let err = tiny().ns(vec![8, MAX_NODES + 1]).validate().unwrap_err();
        assert!(matches!(
            err,
            SweepError::BadCell {
                source: ScenarioError::TooManyNodes { .. },
                ..
            }
        ));
        let err = tiny().churns(vec![1.5]).validate().unwrap_err();
        assert_eq!(
            err,
            SweepError::InvalidProbability {
                axis: "churns",
                value: 1.5
            }
        );
        let err = tiny().losses(vec![-0.1]).validate().unwrap_err();
        assert_eq!(
            err,
            SweepError::InvalidProbability {
                axis: "losses",
                value: -0.1
            }
        );
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn scenario_for_threads_the_axes_through() {
        let spec = tiny();
        let cell = Cell {
            index: 3,
            n: 8,
            protocol: Spreader::Push,
            churn: 0.1,
            loss: 0.05,
            time_model: TimeModel::Rounds,
        };
        let s = spec.scenario_for(&cell);
        assert_eq!(s.n(), 8);
        assert_eq!(s.spreader(), Spreader::Push);
        assert_eq!(s.executor_name(), "sequential");
        assert!(s.validate().is_ok());
    }

    #[test]
    fn errors_display() {
        let e = SweepError::TrialPanicked {
            cell: 4,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("cell 4"));
        assert!(SweepError::ZeroTrials.to_string().contains("trial"));
    }
}
