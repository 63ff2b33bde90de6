//! The machine-readable sweep report and its canonical JSON form.
//!
//! A [`SweepReport`] contains **only deterministic content** — grid
//! coordinates, trial counts and streamed statistics; no wall-clock
//! times, pool sizes or hostnames — so byte-equality of
//! [`to_json`](SweepReport::to_json) output is a meaningful check that
//! two engines (or two pool sizes) computed the same sweep. Floats are
//! rendered with Rust's shortest-roundtrip formatting and non-finite
//! values as `null`, keeping the bytes a pure function of the values.
//!
//! lint: deterministic

use rendez_runtime::TimeModel;
use rendez_stats::Summary;

use crate::agg::{CellAgg, TRIALS_PER_JOB};
use crate::spec::{Cell, SweepSpec};

/// Render one metric's [`Summary`] as a JSON object, with its
/// normal-approximation 95% CI for the mean as `ci95_lo` / `ci95_hi`.
fn render_summary(s: &Summary, out: &mut String) {
    let (ci95_lo, ci95_hi) = s.ci95();
    out.push_str(&format!(
        "{{\"n\": {}, \"mean\": {}, \"sd\": {}, \"sem\": {}, \"min\": {}, \"max\": {}, \"ci95_lo\": {}, \"ci95_hi\": {}}}",
        s.n,
        fnum(s.mean),
        fnum(s.std_dev),
        fnum(s.sem),
        fnum(s.min),
        fnum(s.max),
        fnum(ci95_lo),
        fnum(ci95_hi),
    ));
}

/// One grid cell's aggregated results.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The cell's grid coordinates.
    pub cell: Cell,
    /// Trials run.
    pub trials: u64,
    /// Trials whose protocol halted by itself; the metric summaries
    /// cover exactly these (`min` / `max` are `±inf` when none did).
    pub completed: u64,
    /// Headline figure: legacy-equivalent spreading rounds, or total
    /// dates for the dating service.
    pub value: Summary,
    /// Engine rounds per trial.
    pub rounds: Summary,
    /// Messages sent per trial.
    pub sent: Summary,
    /// Messages delivered per trial.
    pub delivered: Summary,
}

/// A whole sweep's results: the spec's deterministic identity plus one
/// [`CellReport`] per grid cell, in canonical cell order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Master seed the sweep derived every trial from.
    pub seed: u64,
    /// Trials per cell.
    pub trials_per_cell: u64,
    /// Per-cell results, in [`SweepSpec::cells`] order.
    pub cells: Vec<CellReport>,
}

impl SweepReport {
    /// Assemble the report from the engine's per-cell aggregates.
    pub(crate) fn assemble(spec: &SweepSpec, cells: Vec<Cell>, aggs: Vec<CellAgg>) -> Self {
        let cells = cells
            .into_iter()
            .zip(aggs)
            .map(|(cell, agg)| CellReport {
                cell,
                trials: agg.trials,
                completed: agg.completed,
                value: agg.value.summary(),
                rounds: agg.rounds.summary(),
                sent: agg.sent.summary(),
                delivered: agg.delivered.summary(),
            })
            .collect();
        Self {
            seed: spec.seed,
            trials_per_cell: spec.trials,
            cells,
        }
    }

    /// Canonical JSON rendering (schema `rendez-fleet/sweep-v1`).
    ///
    /// Deterministic content only: two byte-identical renderings mean
    /// two identical sweeps, whatever engine or pool size produced
    /// them.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + 640 * self.cells.len());
        out.push_str("{\n  \"schema\": \"rendez-fleet/sweep-v1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"trials_per_cell\": {},\n",
            self.trials_per_cell
        ));
        out.push_str(&format!("  \"trials_per_job\": {TRIALS_PER_JOB},\n"));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            // The time-model coordinate is emitted only for non-default
            // (continuous) cells, keeping classic rounds-only sweeps
            // byte-identical to the pre-axis schema.
            let time_model = match c.cell.time_model {
                TimeModel::Rounds => String::new(),
                TimeModel::Continuous { rate } => {
                    format!("\"time_model\": \"continuous\", \"rate\": {}, ", fnum(rate))
                }
            };
            out.push_str("    {");
            out.push_str(&format!(
                "\"index\": {}, \"n\": {}, \"protocol\": \"{}\", \"churn\": {}, \"loss\": {}, {}\"trials\": {}, \"completed\": {},\n",
                c.cell.index,
                c.cell.n,
                c.cell.protocol.name(),
                fnum(c.cell.churn),
                fnum(c.cell.loss),
                time_model,
                c.trials,
                c.completed,
            ));
            for (j, (key, m)) in [
                ("value", &c.value),
                ("rounds", &c.rounds),
                ("sent", &c.sent),
                ("delivered", &c.delivered),
            ]
            .into_iter()
            .enumerate()
            {
                out.push_str(&format!("     \"{key}\": "));
                render_summary(m, &mut out);
                out.push_str(if j < 3 { ",\n" } else { "}" });
            }
            out.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Shortest-roundtrip float rendering; non-finite → `null` (min/max of
/// a cell with zero completed trials are ±∞).
fn fnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_serial;
    use rendez_runtime::Spreader;

    #[test]
    fn json_is_valid_and_carries_ci_bounds() {
        let spec = SweepSpec::new()
            .ns(vec![16])
            .protocols(vec![Spreader::Push])
            .trials(8)
            .seed(3);
        let report = run_serial(&spec).expect("runs");
        let json = report.to_json();
        let parsed = crate::json::parse(&json).expect("self-parses");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("rendez-fleet/sweep-v1")
        );
        let cells = parsed
            .get("cells")
            .and_then(|v| v.as_array())
            .expect("cells array");
        assert_eq!(cells.len(), 1);
        let value = cells[0].get("value").expect("value metric");
        let lo = value.get("ci95_lo").and_then(|v| v.as_f64()).expect("lo");
        let hi = value.get("ci95_hi").and_then(|v| v.as_f64()).expect("hi");
        let mean = value.get("mean").and_then(|v| v.as_f64()).expect("mean");
        assert!(lo <= mean && mean <= hi);
        assert_eq!(
            cells[0].get("completed").and_then(|v| v.as_f64()),
            Some(8.0)
        );
    }

    #[test]
    fn time_model_key_appears_only_for_continuous_cells() {
        let spec = SweepSpec::new()
            .ns(vec![24])
            .protocols(vec![Spreader::PushPull])
            .trials(4)
            .seed(11);
        let rounds_json = run_serial(&spec).expect("runs").to_json();
        assert!(
            !rounds_json.contains("time_model"),
            "default rounds-only sweeps must keep the pre-axis schema byte-identical"
        );

        let spec = spec.time_models(vec![
            rendez_runtime::TimeModel::Rounds,
            rendez_runtime::TimeModel::Continuous { rate: 1.0 },
        ]);
        let mixed_json = run_serial(&spec).expect("runs").to_json();
        assert_eq!(
            mixed_json.matches("\"time_model\": \"continuous\"").count(),
            1,
            "exactly the continuous cell carries the coordinate"
        );
        assert!(mixed_json.contains("\"rate\": 1.0"));
        let parsed = crate::json::parse(&mixed_json).expect("self-parses");
        let cells = parsed
            .get("cells")
            .and_then(|v| v.as_array())
            .expect("cells array");
        assert_eq!(cells.len(), 2);
        assert!(cells[0].get("time_model").is_none());
        assert_eq!(
            cells[1].get("time_model").and_then(|v| v.as_str()),
            Some("continuous")
        );
    }

    #[test]
    fn non_finite_stats_render_as_null() {
        let mut s = String::new();
        render_summary(&rendez_stats::RunningStats::new().summary(), &mut s);
        assert!(s.contains("\"min\": null"));
        assert!(s.contains("\"max\": null"));
        assert!(crate::json::parse(&s).is_ok());
    }
}
