//! `pins.json`: the exact counts every workload must reproduce at the
//! default seed and full size — rounds, messages, events, and a hash of
//! the digest trace (of the report JSON for the sweep).
//!
//! The pins are compared on every full-size run at the default seed and
//! skipped at any other seed (where the invariant checks still hold).
//! They change only when the simulated behaviour changes, and are
//! regenerated only by an explicit `bless`.

use crate::workloads::{Facts, Workload};
use rendez_fleet::json::{self, Json};
use std::path::{Path, PathBuf};

/// The checked-in pins, as compiled into this binary.
const PINS: &str = include_str!("../pins.json");

/// Where `bless` writes.
pub fn path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("pins.json")
}

/// The pinned fields of `facts`, in file order. `node_bytes` is left
/// out: it is a memory figure, not simulated behaviour.
fn fields(facts: &Facts) -> [(&'static str, u64); 8] {
    [
        ("work", facts.work),
        ("rounds", facts.rounds),
        ("sent", facts.sent),
        ("delivered", facts.delivered),
        ("dropped", facts.dropped),
        ("churn_lost", facts.churn_lost),
        ("dates_per_cycle", facts.dates_per_cycle),
        ("report_bytes", facts.report_bytes),
    ]
}

/// Compare `facts` with the pin of `workload`.
pub fn check(workload: Workload, facts: &Facts) -> Result<(), String> {
    let doc = json::parse(PINS).map_err(|e| format!("pins.json: {e}"))?;
    let pin = doc
        .get("workloads")
        .and_then(|w| w.get(workload.name()))
        .ok_or_else(|| format!("no pin for {}; run `bless`", workload.name()))?;
    for (key, got) in fields(facts) {
        let want = pin.get(key).and_then(Json::as_f64);
        if want != Some(got as f64) {
            return Err(format!("pin {key}: got {got}, pinned {want:?}"));
        }
    }
    let got = format!("{:#018x}", facts.trace_hash);
    let want = pin.get("trace_hash").and_then(Json::as_str);
    if want != Some(got.as_str()) {
        return Err(format!("pin trace_hash: got {got}, pinned {want:?}"));
    }
    Ok(())
}

/// Render the pins file for `entries` (one per workload, in order).
pub fn render(seed: u64, entries: &[(Workload, Facts)]) -> String {
    let mut out = format!("{{\n  \"seed\": {seed},\n  \"workloads\": {{\n");
    for (i, (workload, facts)) in entries.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{", workload.name()));
        for (key, value) in fields(facts) {
            out.push_str(&format!("\"{key}\": {value}, "));
        }
        out.push_str(&format!(
            "\"trace_hash\": \"{:#018x}\"}}{}\n",
            facts.trace_hash,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::DEFAULT_SEED;

    #[test]
    fn checked_in_pins_parse_and_cover_every_workload() {
        let doc = json::parse(PINS).expect("pins.json parses");
        assert_eq!(
            doc.get("seed").and_then(Json::as_f64),
            Some(DEFAULT_SEED as f64)
        );
        for w in Workload::ALL {
            let pin = doc.get("workloads").and_then(|p| p.get(w.name()));
            assert!(pin.is_some(), "no pin for {}", w.name());
        }
    }

    #[test]
    fn rendered_pins_round_trip_through_check_fields() {
        let facts = Facts {
            work: 5,
            rounds: 4,
            sent: 3,
            delivered: 2,
            dropped: 1,
            churn_lost: 0,
            trace_hash: 0xabc,
            dates_per_cycle: 7,
            report_bytes: 9,
            node_bytes: 11,
        };
        let text = render(1, &[(Workload::AsyncEvents, facts.clone())]);
        let doc = json::parse(&text).expect("rendered pins parse");
        let pin = doc
            .get("workloads")
            .and_then(|w| w.get("async-events"))
            .expect("entry");
        for (key, value) in fields(&facts) {
            assert_eq!(pin.get(key).and_then(Json::as_f64), Some(value as f64));
        }
        assert_eq!(
            pin.get("trace_hash").and_then(Json::as_str),
            Some("0x0000000000000abc")
        );
    }
}
