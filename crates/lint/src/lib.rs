//! `rendez_lint` — the workspace determinism-and-unsafety auditor.
//!
//! The whole reproduction rests on one contract: **traces are a pure
//! function of the seed** — bit-identical at any shard count, lane
//! count, or pool size. The runtime's dynamic gates check that after
//! the fact; this crate checks the *sources* before anything runs, in
//! the repo's offline hand-rolled style (a small Rust lexer, no `syn`,
//! no dependencies).
//!
//! Three rule families:
//!
//! 1. **Unsafe ledger** (`safety-comment`, `unsafe-ledger`) — every
//!    `unsafe` block/fn/impl must sit under an adjacent `// SAFETY:`
//!    comment, and the full set of unsafe sites must match the
//!    checked-in [`UNSAFE_LEDGER.toml`](../../../UNSAFE_LEDGER.toml),
//!    so new unsafe code is always a visible, reviewed ledger diff.
//! 2. **Determinism lints** (`det-*`) — in modules declaring
//!    `//! lint: deterministic`, forbid hashed-collection iteration,
//!    wall clocks, OS entropy, order-sensitive float accumulation and
//!    seed/hash truncation; escape hatch:
//!    `// lint: allow(<rule>) — <reason>`.
//! 3. **Drift** (`exec-doc-determinism`) — every executor module's
//!    rustdoc must state its determinism guarantee.
//!
//! The `rendez-lint` binary wires this into CI: `--workspace` must exit
//! 0 on the repo, `--self-test` proves the rules still catch the
//! embedded violation fixtures, and `--fixture-violations` lets CI
//! assert the failure path end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod selftest;
pub mod walk;

use std::fs;
use std::path::Path;

use rules::{Finding, UnsafeSite};

/// Aggregated result of linting the whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceLint {
    /// All findings across all files, in (file, line, rule) order.
    pub findings: Vec<Finding>,
    /// All unsafe sites (covered or not).
    pub sites: Vec<UnsafeSite>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Inline allows that suppressed a finding.
    pub allows_used: usize,
}

/// Lint every `.rs` file under `root` (sorted, `target`/`.git`/
/// `fixtures` skipped). Does *not* run the ledger diff — call
/// [`check_ledger`] after, or [`bless_ledger`] to regenerate.
pub fn run_workspace(root: &Path) -> std::io::Result<WorkspaceLint> {
    let mut out = WorkspaceLint::default();
    for rel in walk::rust_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        let fl = rules::lint_source(&rel, &src);
        out.findings.extend(fl.findings);
        out.sites.extend(fl.sites);
        out.allows_used += fl.allows_used;
        out.files_scanned += 1;
    }
    Ok(out)
}

/// Diff `ws.sites` against `<root>/UNSAFE_LEDGER.toml`, appending
/// `unsafe-ledger` findings for every discrepancy (including a missing
/// or unparseable ledger file).
pub fn check_ledger(root: &Path, ws: &mut WorkspaceLint) {
    let path = root.join("UNSAFE_LEDGER.toml");
    let observed = ledger::aggregate(&ws.sites);
    let entries = match fs::read_to_string(&path) {
        Ok(src) => match ledger::parse(&src) {
            Ok(entries) => entries,
            Err((line, msg)) => {
                ws.findings.push(Finding {
                    file: "UNSAFE_LEDGER.toml".into(),
                    line,
                    rule: "unsafe-ledger",
                    msg: format!("ledger parse error: {msg}"),
                });
                return;
            }
        },
        Err(_) => {
            ws.findings.push(Finding {
                file: "UNSAFE_LEDGER.toml".into(),
                line: 0,
                rule: "unsafe-ledger",
                msg: "UNSAFE_LEDGER.toml is missing; generate it with --bless-ledger".into(),
            });
            return;
        }
    };
    for msg in ledger::diff(&observed, &entries) {
        ws.findings.push(Finding {
            file: "UNSAFE_LEDGER.toml".into(),
            line: 0,
            rule: "unsafe-ledger",
            msg,
        });
    }
}

/// Write the canonical ledger for `ws.sites` to
/// `<root>/UNSAFE_LEDGER.toml`. Refuses to bless uncovered sites —
/// write the SAFETY comment first.
pub fn bless_ledger(root: &Path, ws: &WorkspaceLint) -> Result<String, String> {
    if let Some(bad) = ws.sites.iter().find(|s| s.safety_hash.is_none()) {
        return Err(format!(
            "refusing to bless: {}:{} `{}` has no adjacent SAFETY comment",
            bad.file, bad.line, bad.item
        ));
    }
    let entries = ledger::aggregate(&ws.sites);
    let path = root.join("UNSAFE_LEDGER.toml");
    fs::write(&path, ledger::serialize(&entries))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(format!(
        "blessed {} site(s) into {}",
        entries.len(),
        path.display()
    ))
}
