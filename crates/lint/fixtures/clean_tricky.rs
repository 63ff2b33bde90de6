//! lint: deterministic
//!
//! Self-test fixture: every banned token in this file is hidden inside
//! a string literal, raw string, or comment — `rendez-lint` must report
//! **zero** findings here. It also carries one properly covered
//! `unsafe` block and one justified allow to prove the positive paths.

/* A nested /* block comment */ mentioning HashMap, SystemTime and
   thread_rng() — none of which may fire. */

// Instant::now() in a line comment is prose, not code.

pub fn literals_hide_everything() -> usize {
    let plain = "HashMap::new() unsafe { Instant::now() } thread_rng()";
    let raw = r#"SystemTime::now() .sum::<f64>() "quoted""#;
    let many = r##"r#"nested raw"# with OsRng and seed as u32"##;
    let bytes = b"HashSet iteration .fold(0.0, |a, b| a + b)";
    let ch = '"';
    let _lifetime_not_char: &'static str = "ok";
    plain.len() + raw.len() + many.len() + bytes.len() + ch.len_utf8()
}

/// A covered unsafe block: the adjacency rule must accept this.
pub fn covered_unsafe(p: *const u8) -> u8 {
    // SAFETY: fixture pointer is non-null and valid for reads by
    // construction in the self-test harness.
    unsafe { *p }
}

/// A justified allow: suppressed finding, no lint-allow-unused.
pub fn justified_allow() -> usize {
    // lint: allow(det-collection) — order is irrelevant, only the length is read
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    m.len()
}
