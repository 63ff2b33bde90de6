//! Self-test: run the full rule engine against embedded fixture files
//! with *known* findings and diff the result against the expectation.
//!
//! This is the lint linting itself: if a lexer or rule regression makes
//! a banned token leak out of a string literal (false positive) or a
//! seeded violation go quiet (false negative), `rendez-lint --self-test`
//! fails and CI goes red — independent of the state of the workspace.

use crate::rules::lint_source;

/// Fixture: clean-but-tricky file. Banned tokens only inside literals
/// and comments; one covered unsafe; one justified allow. Expect zero
/// findings.
pub const CLEAN: (&str, &str) = (
    "crates/runtime/src/fixture_clean.rs",
    include_str!("../fixtures/clean_tricky.rs"),
);

/// Fixture: one seeded violation per rule family. Expect exactly
/// [`VIOLATION_EXPECT`].
pub const VIOLATIONS: (&str, &str) = (
    "crates/runtime/src/fixture_violations.rs",
    include_str!("../fixtures/violations.rs"),
);

/// Fixture: executor module missing its determinism statement.
pub const EXEC_DOC_BAD: (&str, &str) = (
    "crates/runtime/src/exec/fixture_bad.rs",
    include_str!("../fixtures/exec_doc_bad.rs"),
);

/// Expected rule multiset for [`VIOLATIONS`], sorted.
pub const VIOLATION_EXPECT: &[&str] = &[
    "det-cast-truncation",
    "det-clock",
    "det-clock",
    "det-clock",
    "det-clock",
    "det-collection",
    "det-collection",
    "det-entropy",
    "det-float-accum",
    "lint-allow-syntax",
    "lint-allow-unused",
    "safety-comment",
];

/// Run the self-test. `Ok(report)` on success, `Err(failures)` when any
/// fixture produced an unexpected finding set.
pub fn run() -> Result<String, Vec<String>> {
    let mut fails = Vec::new();
    let mut report = String::new();

    let clean = lint_source(CLEAN.0, CLEAN.1);
    // One allow comment suppresses both HashMap tokens on its line.
    if clean.findings.is_empty() && clean.allows_used == 2 && clean.sites.len() == 1 {
        report.push_str(
            "self-test: clean_tricky fixture — 0 findings, 1 covered site, allow honoured ✓\n",
        );
    } else {
        fails.push(format!(
            "clean_tricky fixture: expected 0 findings / 2 allow hits / 1 site, got {:?} (allows {}, sites {})",
            clean.findings, clean.allows_used, clean.sites.len()
        ));
    }

    let bad = lint_source(VIOLATIONS.0, VIOLATIONS.1);
    let mut got: Vec<&str> = bad.findings.iter().map(|f| f.rule).collect();
    got.sort_unstable();
    if got == VIOLATION_EXPECT {
        report.push_str(&format!(
            "self-test: violations fixture — all {} seeded findings reproduced ✓\n",
            got.len()
        ));
    } else {
        fails.push(format!(
            "violations fixture: expected rules {VIOLATION_EXPECT:?}, got {got:?}"
        ));
    }
    if !bad.sites.iter().any(|s| s.safety_hash.is_none()) {
        fails.push("violations fixture: uncovered unsafe site not recorded".into());
    }

    let doc = lint_source(EXEC_DOC_BAD.0, EXEC_DOC_BAD.1);
    let rules: Vec<&str> = doc.findings.iter().map(|f| f.rule).collect();
    if rules == ["exec-doc-determinism"] {
        report.push_str("self-test: exec_doc_bad fixture — doc-drift finding reproduced ✓\n");
    } else {
        fails.push(format!(
            "exec_doc_bad fixture: expected [exec-doc-determinism], got {rules:?}"
        ));
    }

    if fails.is_empty() {
        Ok(report)
    } else {
        Err(fails)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn selftest_passes() {
        match super::run() {
            Ok(report) => assert!(report.lines().count() >= 3),
            Err(fails) => panic!("self-test failed:\n{}", fails.join("\n")),
        }
    }
}
