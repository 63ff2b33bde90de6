//! `agree`: do two sets of runs of the same code tell the same story?
//!
//! Runs every workload twice (set A, set B) in alternating order, each
//! run in a child process of this same binary so that peak memory and
//! warm-up are per run, and prints per workload × end-to-end metric both
//! values, their relative difference and the metric's bound. Exits
//! non-zero if any pair differs by more than its bound.

use crate::stats;
use crate::workloads::Workload;
use crate::{Options, END_TO_END};
use rendez_fleet::json::{self, Json};
use std::process::{Command, ExitCode};

/// One child invocation's end-to-end metrics, in [`END_TO_END`] order.
fn measure(workload: Workload, o: &Options) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(line).map_err(|e| format!("child result line: {e}"))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{} reported an incorrect run: {line}",
            workload.name()
        ));
    }
    END_TO_END
        .iter()
        .map(|d| {
            doc.get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("child did not report {}", d.name))
        })
        .collect()
}

/// Run the two sets and print the table.
pub fn run(o: &Options) -> Result<ExitCode, String> {
    println!(
        "{:<22} {:<18} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "set A", "set B", "rel diff", "bound"
    );
    let mut disagreements = 0;
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        // Alternate which set goes first, so a drift of the host over
        // the session does not favour one of them.
        let first = measure(workload, o)?;
        let second = measure(workload, o)?;
        let (a, b) = if i % 2 == 0 {
            (first, second)
        } else {
            (second, first)
        };
        for ((d, a), b) in END_TO_END.iter().zip(a).zip(b) {
            let diff = stats::rel_diff(a, b);
            let ok = diff <= d.bound;
            disagreements += !ok as u32;
            println!(
                "{:<22} {:<18} {:>16.6} {:>16.6} {:>9.4} {:>6.2}  {}",
                workload.name(),
                d.name,
                a,
                b,
                diff,
                d.bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    if disagreements > 0 {
        println!("{disagreements} pairs differ by more than their bound");
        return Ok(ExitCode::FAILURE);
    }
    println!("every pair agrees within its bound");
    Ok(ExitCode::SUCCESS)
}
