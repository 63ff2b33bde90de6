//! Machine-readable benchmark records (`BENCH_runtime.json`).
//!
//! The perf trajectory of the runtime hot path is tracked as a small,
//! dependency-free JSON file with four series:
//!
//! * `records` — one [`BenchRecord`] per `{workload, n, shards}` cell
//!   (wall-clock, ns/round, msgs/sec), emitted by
//!   `exp_runtime_scaling --bench-out PATH`;
//! * `sweep_throughput` — one [`SweepThroughputRecord`] per
//!   `{engine, pool}` sweep run (scenarios/sec over a whole
//!   Monte-Carlo grid), emitted by `exp_sweep --bench-out PATH`;
//! * `scaling` — one [`ScalingRecord`] per `{workload, n, shards}`
//!   point of the millions-of-nodes series (ns/round, msgs/sec **and**
//!   resident bytes/node), emitted by
//!   `exp_runtime_scaling --n-series --bench-out PATH`;
//! * `async_events` — one [`AsyncEventsRecord`] per `{workload, n}`
//!   cell of the event-driven continuous-time executor
//!   (events/sec, ns/event), emitted by
//!   `exp_runtime_scaling --time-model continuous --bench-out PATH`.
//!
//! Each emitter rewrites only its own series: [`load_bench_json`]
//! reads the other series back (via `rendez_fleet`'s JSON reader) so
//! the two binaries can share one file without clobbering each other.
//! CI checks that emission works headless; humans (and future
//! sessions) diff the numbers recorded in `EXPERIMENTS.md`.
//!
//! The writer is hand-rolled — the build environment is fully vendored,
//! so no serde — and emits a stable field order to keep diffs readable.

use rendez_fleet::json::{self, Json};
use std::io::Write;
use std::path::Path;

/// One benchmarked `{workload, n, shards}` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Registry workload name (e.g. `dating`, `push-pull`).
    pub workload: String,
    /// Node count.
    pub n: usize,
    /// Shard count (0 = sequential executor).
    pub shards: usize,
    /// Rounds the run executed.
    pub rounds: u64,
    /// Wall-clock for the whole run, seconds.
    pub wall_s: f64,
    /// Messages queued by protocol code over the run.
    pub msgs_sent: u64,
    /// Messages delivered over the run.
    pub msgs_delivered: u64,
}

impl BenchRecord {
    /// Nanoseconds per executed round.
    pub fn ns_per_round(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.wall_s * 1e9 / self.rounds as f64
    }

    /// Sent messages processed per wall-clock second — the headline
    /// hot-path throughput number.
    pub fn msgs_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.msgs_sent as f64 / self.wall_s
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":{},\"n\":{},\"shards\":{},\"rounds\":{},\
             \"wall_s\":{:.6},\"ns_per_round\":{:.1},\"msgs_sent\":{},\
             \"msgs_delivered\":{},\"msgs_per_sec\":{:.1}}}",
            json_string(&self.workload),
            self.n,
            self.shards,
            self.rounds,
            self.wall_s,
            self.ns_per_round(),
            self.msgs_sent,
            self.msgs_delivered,
            self.msgs_per_sec()
        )
    }
}

/// One benchmarked sweep run: a whole Monte-Carlo grid timed end to
/// end on one engine, the `sweep_throughput` series of
/// `BENCH_runtime.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepThroughputRecord {
    /// `"serial"` or `"fleet"`.
    pub engine: String,
    /// Worker-pool size (0 for the serial engine).
    pub pool: usize,
    /// Grid cells in the sweep.
    pub cells: usize,
    /// Trials per cell.
    pub trials_per_cell: u64,
    /// Total scenario runs (`cells × trials_per_cell`).
    pub trials: u64,
    /// Wall-clock for the whole sweep, seconds.
    pub wall_s: f64,
}

impl SweepThroughputRecord {
    /// Scenario runs per wall-clock second — the sweep-scheduler
    /// headline number.
    pub fn scenarios_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.trials as f64 / self.wall_s
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"engine\":{},\"pool\":{},\"cells\":{},\"trials_per_cell\":{},\
             \"trials\":{},\"wall_s\":{:.6},\"scenarios_per_sec\":{:.1}}}",
            json_string(&self.engine),
            self.pool,
            self.cells,
            self.trials_per_cell,
            self.trials,
            self.wall_s,
            self.scenarios_per_sec()
        )
    }
}

/// One point of the millions-of-nodes `n`-scaling series: a streaming
/// run at a given `{workload, n, shards}` together with its resident
/// node-state footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRecord {
    /// Registry workload name (e.g. `dating-spread`).
    pub workload: String,
    /// Node count.
    pub n: usize,
    /// Shard count (0 = sequential executor).
    pub shards: usize,
    /// Rounds the run executed.
    pub rounds: u64,
    /// Wall-clock for the whole run, seconds.
    pub wall_s: f64,
    /// Messages queued by protocol code over the run.
    pub msgs_sent: u64,
    /// Total resident node-state bytes at end of run
    /// (`RunReport::node_bytes`).
    pub node_bytes: u64,
}

impl ScalingRecord {
    /// Nanoseconds per executed round.
    pub fn ns_per_round(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.wall_s * 1e9 / self.rounds as f64
    }

    /// Sent messages processed per wall-clock second.
    pub fn msgs_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.msgs_sent as f64 / self.wall_s
    }

    /// Resident node-state bytes per node.
    pub fn bytes_per_node(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.node_bytes as f64 / self.n as f64
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":{},\"n\":{},\"shards\":{},\"rounds\":{},\
             \"wall_s\":{:.6},\"ns_per_round\":{:.1},\"msgs_sent\":{},\
             \"msgs_per_sec\":{:.1},\"node_bytes\":{},\"bytes_per_node\":{:.1}}}",
            json_string(&self.workload),
            self.n,
            self.shards,
            self.rounds,
            self.wall_s,
            self.ns_per_round(),
            self.msgs_sent,
            self.msgs_per_sec(),
            self.node_bytes,
            self.bytes_per_node()
        )
    }
}

/// One benchmarked `{workload, n}` cell of the event-driven
/// continuous-time executor ([`rendez_runtime::EventExecutor`]), the
/// `async_events` series of `BENCH_runtime.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncEventsRecord {
    /// Registry workload name (e.g. `push-pull`).
    pub workload: String,
    /// Node count.
    pub n: usize,
    /// Identical runs timed; `wall_s` is their median.
    pub reps: usize,
    /// Events one run processed.
    pub events: u64,
    /// Median wall-clock of one whole run, seconds.
    pub wall_s: f64,
}

impl AsyncEventsRecord {
    /// Nanoseconds per processed event.
    pub fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.wall_s * 1e9 / self.events as f64
    }

    /// Events processed per wall-clock second — the event-loop
    /// headline throughput number.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_s
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":{},\"n\":{},\"reps\":{},\"events\":{},\
             \"wall_s\":{:.6},\"ns_per_event\":{:.1},\"events_per_sec\":{:.1}}}",
            json_string(&self.workload),
            self.n,
            self.reps,
            self.events,
            self.wall_s,
            self.ns_per_event(),
            self.events_per_sec()
        )
    }
}

/// Escape a string for JSON embedding.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Append one series (`"key": [ ... ],`) to the document body.
fn push_series<T>(out: &mut String, key: &str, items: &[T], to_json: impl Fn(&T) -> String) {
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, r) in items.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&to_json(r));
        if i + 1 < items.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]");
}

/// Render the full benchmark document (all four series).
pub fn render_bench_json(
    cores: usize,
    seed: u64,
    records: &[BenchRecord],
    sweeps: &[SweepThroughputRecord],
    scaling: &[ScalingRecord],
    async_events: &[AsyncEventsRecord],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rendez-bench/runtime-v1\",\n");
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"seed\": \"{seed:#x}\",\n"));
    push_series(&mut out, "records", records, BenchRecord::to_json);
    out.push_str(",\n");
    push_series(
        &mut out,
        "sweep_throughput",
        sweeps,
        SweepThroughputRecord::to_json,
    );
    out.push_str(",\n");
    push_series(&mut out, "scaling", scaling, ScalingRecord::to_json);
    out.push_str(",\n");
    push_series(
        &mut out,
        "async_events",
        async_events,
        AsyncEventsRecord::to_json,
    );
    out.push_str("\n}\n");
    out
}

/// Write the document to `path`.
pub fn write_bench_json(
    path: &Path,
    cores: usize,
    seed: u64,
    records: &[BenchRecord],
    sweeps: &[SweepThroughputRecord],
    scaling: &[ScalingRecord],
    async_events: &[AsyncEventsRecord],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_bench_json(cores, seed, records, sweeps, scaling, async_events).as_bytes())
}

/// All four series of a benchmark document, as read back by
/// [`load_bench_json`].
pub type BenchSeries = (
    Vec<BenchRecord>,
    Vec<SweepThroughputRecord>,
    Vec<ScalingRecord>,
    Vec<AsyncEventsRecord>,
);

/// Read every series back from an existing benchmark file, so an
/// emitter can rewrite its own series while preserving the others.
/// Returns empty series when the file is missing or unparseable
/// (emitters then start a fresh document).
pub fn load_bench_json(path: &Path) -> BenchSeries {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    };
    let Ok(doc) = json::parse(&text) else {
        return (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    };
    let records = doc
        .get("records")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(bench_record_from)
        .collect();
    let sweeps = doc
        .get("sweep_throughput")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(sweep_record_from)
        .collect();
    let scaling = doc
        .get("scaling")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(scaling_record_from)
        .collect();
    let async_events = doc
        .get("async_events")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(async_events_record_from)
        .collect();
    (records, sweeps, scaling, async_events)
}

fn field_f64(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

fn bench_record_from(v: &Json) -> Option<BenchRecord> {
    Some(BenchRecord {
        workload: v.get("workload")?.as_str()?.to_string(),
        n: field_f64(v, "n")? as usize,
        shards: field_f64(v, "shards")? as usize,
        rounds: field_f64(v, "rounds")? as u64,
        wall_s: field_f64(v, "wall_s")?,
        msgs_sent: field_f64(v, "msgs_sent")? as u64,
        msgs_delivered: field_f64(v, "msgs_delivered")? as u64,
    })
}

fn sweep_record_from(v: &Json) -> Option<SweepThroughputRecord> {
    Some(SweepThroughputRecord {
        engine: v.get("engine")?.as_str()?.to_string(),
        pool: field_f64(v, "pool")? as usize,
        cells: field_f64(v, "cells")? as usize,
        trials_per_cell: field_f64(v, "trials_per_cell")? as u64,
        trials: field_f64(v, "trials")? as u64,
        wall_s: field_f64(v, "wall_s")?,
    })
}

fn scaling_record_from(v: &Json) -> Option<ScalingRecord> {
    Some(ScalingRecord {
        workload: v.get("workload")?.as_str()?.to_string(),
        n: field_f64(v, "n")? as usize,
        shards: field_f64(v, "shards")? as usize,
        rounds: field_f64(v, "rounds")? as u64,
        wall_s: field_f64(v, "wall_s")?,
        msgs_sent: field_f64(v, "msgs_sent")? as u64,
        node_bytes: field_f64(v, "node_bytes")? as u64,
    })
}

fn async_events_record_from(v: &Json) -> Option<AsyncEventsRecord> {
    Some(AsyncEventsRecord {
        workload: v.get("workload")?.as_str()?.to_string(),
        n: field_f64(v, "n")? as usize,
        reps: field_f64(v, "reps")? as usize,
        events: field_f64(v, "events")? as u64,
        wall_s: field_f64(v, "wall_s")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        BenchRecord {
            workload: "dating".to_string(),
            n: 1000,
            shards: 4,
            rounds: 100,
            wall_s: 0.5,
            msgs_sent: 2_000_000,
            msgs_delivered: 1_900_000,
        }
    }

    #[test]
    fn derived_rates() {
        let r = record();
        assert!((r.ns_per_round() - 5_000_000.0).abs() < 1e-6);
        assert!((r.msgs_per_sec() - 4_000_000.0).abs() < 1e-6);
        let degenerate = BenchRecord {
            rounds: 0,
            wall_s: 0.0,
            ..record()
        };
        assert_eq!(degenerate.ns_per_round(), 0.0);
        assert_eq!(degenerate.msgs_per_sec(), 0.0);
    }

    fn sweep_record() -> SweepThroughputRecord {
        SweepThroughputRecord {
            engine: "fleet".to_string(),
            pool: 4,
            cells: 64,
            trials_per_cell: 32,
            trials: 2048,
            wall_s: 2.0,
        }
    }

    fn scaling_record() -> ScalingRecord {
        ScalingRecord {
            workload: "dating-spread".to_string(),
            n: 1_000_000,
            shards: 0,
            rounds: 66,
            wall_s: 3.3,
            msgs_sent: 66_000_000,
            node_bytes: 40_000_000,
        }
    }

    fn async_record() -> AsyncEventsRecord {
        AsyncEventsRecord {
            workload: "push-pull".to_string(),
            n: 20_000,
            reps: 5,
            events: 500_000,
            wall_s: 0.25,
        }
    }

    #[test]
    fn renders_valid_shape() {
        let doc = render_bench_json(
            4,
            0x5CA1E,
            &[record()],
            &[sweep_record()],
            &[scaling_record()],
            &[async_record()],
        );
        assert!(doc.contains("\"schema\": \"rendez-bench/runtime-v1\""));
        assert!(doc.contains("\"seed\": \"0x5ca1e\""));
        assert!(doc.contains("\"workload\":\"dating\""));
        assert!(doc.contains("\"msgs_per_sec\":4000000.0"));
        assert!(doc.contains("\"sweep_throughput\""));
        assert!(doc.contains("\"scenarios_per_sec\":1024.0"));
        assert!(doc.contains("\"scaling\""));
        assert!(doc.contains("\"bytes_per_node\":40.0"));
        assert!(doc.contains("\"async_events\""));
        assert!(doc.contains("\"events_per_sec\":2000000.0"));
        assert!(doc.contains("\"ns_per_event\":500.0"));
        // The document parses with the same reader the emitters use to
        // merge, so writer and reader cannot drift apart.
        assert!(json::parse(&doc).is_ok());
    }

    #[test]
    fn scaling_rates() {
        let r = scaling_record();
        assert!((r.ns_per_round() - 50_000_000.0).abs() < 1e-3);
        assert!((r.msgs_per_sec() - 20_000_000.0).abs() < 1e-3);
        assert!((r.bytes_per_node() - 40.0).abs() < 1e-9);
        let degenerate = ScalingRecord {
            n: 0,
            rounds: 0,
            wall_s: 0.0,
            ..scaling_record()
        };
        assert_eq!(degenerate.ns_per_round(), 0.0);
        assert_eq!(degenerate.msgs_per_sec(), 0.0);
        assert_eq!(degenerate.bytes_per_node(), 0.0);
    }

    #[test]
    fn async_events_rates() {
        let r = async_record();
        assert!((r.ns_per_event() - 500.0).abs() < 1e-9);
        assert!((r.events_per_sec() - 2_000_000.0).abs() < 1e-9);
        let degenerate = AsyncEventsRecord {
            events: 0,
            wall_s: 0.0,
            ..async_record()
        };
        assert_eq!(degenerate.ns_per_event(), 0.0);
        assert_eq!(degenerate.events_per_sec(), 0.0);
    }

    #[test]
    fn sweep_throughput_rate() {
        assert!((sweep_record().scenarios_per_sec() - 1024.0).abs() < 1e-9);
        let degenerate = SweepThroughputRecord {
            wall_s: 0.0,
            ..sweep_record()
        };
        assert_eq!(degenerate.scenarios_per_sec(), 0.0);
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn round_trips_through_load() {
        let path = std::env::temp_dir().join("rendez_benchjson_test.json");
        write_bench_json(
            &path,
            1,
            7,
            &[record()],
            &[sweep_record()],
            &[scaling_record()],
            &[async_record()],
        )
        .expect("write");
        let (records, sweeps, scaling, async_events) = load_bench_json(&path);
        assert_eq!(records, vec![record()]);
        assert_eq!(sweeps, vec![sweep_record()]);
        assert_eq!(scaling, vec![scaling_record()]);
        assert_eq!(async_events, vec![async_record()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_tolerates_missing_and_legacy_files() {
        let missing = std::path::Path::new("/nonexistent/rendez_bench.json");
        assert_eq!(
            load_bench_json(missing),
            (Vec::new(), Vec::new(), Vec::new(), Vec::new())
        );
        // A pre-sweep document (no sweep_throughput or scaling key)
        // still yields its records.
        let path = std::env::temp_dir().join("rendez_benchjson_legacy.json");
        std::fs::write(
            &path,
            "{\"schema\": \"rendez-bench/runtime-v1\", \"records\": [".to_string()
                + &record().to_json()
                + "]}",
        )
        .expect("write");
        let (records, sweeps, scaling, async_events) = load_bench_json(&path);
        assert_eq!(records.len(), 1);
        assert!(sweeps.is_empty());
        assert!(scaling.is_empty());
        assert!(async_events.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
