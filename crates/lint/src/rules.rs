//! The rule engine: one combined scan over a file's token stream.
//!
//! Three rule families (see the crate docs for the full catalogue):
//!
//! 1. **Unsafe ledger** — every `unsafe` token must sit under an
//!    adjacent `// SAFETY:` comment (rule `safety-comment`), and the
//!    extracted [`UnsafeSite`]s are later diffed against
//!    `UNSAFE_LEDGER.toml` by the workspace runner (rule
//!    `unsafe-ledger`).
//! 2. **Determinism lints** — active only in files whose module header
//!    carries `//! lint: deterministic`, and only outside `#[cfg(test)]`
//!    scopes: `det-collection`, `det-clock`, `det-entropy`,
//!    `det-float-accum`, `det-cast-truncation`.
//! 3. **Drift** — `exec-doc-determinism` (every executor module's
//!    rustdoc must state its determinism guarantee).
//!
//! ## SAFETY adjacency
//!
//! An `unsafe` token is *covered* when walking **upward** from its line
//! — skipping lines that contain code — the first comment block reached
//! contains `SAFETY:`. A blank line or a non-SAFETY comment terminates
//! the walk uncovered. One SAFETY comment therefore covers a contiguous
//! run of statements below it (`order_deliveries` scatters and then
//! `set_len`s under one argument), but never reaches across a blank
//! line or an unrelated comment.
//!
//! ## The allow escape hatch
//!
//! `// lint: allow(<rule>) — <reason>` on the finding's line or the
//! line directly above suppresses one allowable rule (`det-*`). The
//! reason is mandatory (`lint-allow-syntax`)
//! and the allow must actually match a finding (`lint-allow-unused`).
//! `safety-comment` and the ledger diff are **not** allowable: the only
//! escape is writing the SAFETY comment / amending the ledger.

use crate::lexer::{lex, Comment, LineKind, Tok, TokKind};

/// Rule catalogue: `(id, summary)` for `--help` and docs.
pub const RULES: &[(&str, &str)] = &[
    (
        "safety-comment",
        "every `unsafe` block/fn/impl must sit under an adjacent `// SAFETY:` comment",
    ),
    (
        "unsafe-ledger",
        "the workspace's unsafe sites must exactly match UNSAFE_LEDGER.toml",
    ),
    (
        "det-collection",
        "HashMap/HashSet iteration order is nondeterministic in deterministic modules",
    ),
    (
        "det-clock",
        "Instant/SystemTime read the wall clock; traces must be a pure function of the seed",
    ),
    (
        "det-entropy",
        "thread_rng/OsRng/from_entropy draw OS entropy; derive RNGs from the run seed",
    ),
    (
        "det-float-accum",
        "float reductions (.sum::<f64>(), .fold(0.0, ..)) depend on summation order",
    ),
    (
        "det-cast-truncation",
        "`as` truncation of seed/hash/digest values silently discards entropy",
    ),
    (
        "exec-doc-determinism",
        "every executor module's rustdoc must state its determinism guarantee",
    ),
    (
        "lint-allow-syntax",
        "`lint: allow(rule)` needs a non-empty reason after a separator",
    ),
    (
        "lint-allow-unused",
        "a lint allow that matches no finding is stale",
    ),
];

/// Rules that the inline allow comment may suppress.
const ALLOWABLE: &[&str] = &[
    "det-collection",
    "det-clock",
    "det-entropy",
    "det-float-accum",
    "det-cast-truncation",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 for file-level findings).
    pub line: u32,
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
}

/// One `unsafe` occurrence, as recorded in the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeSite {
    /// Workspace-relative file path.
    pub file: String,
    /// `::`-joined path of enclosing named scopes (fn/impl/mod/…).
    pub item: String,
    /// `block`, `fn`, `impl` or `trait`.
    pub kind: &'static str,
    /// 1-based line of the `unsafe` token.
    pub line: u32,
    /// FNV-1a hash of the covering SAFETY comment's normalized text;
    /// `None` when the site is uncovered (a `safety-comment` finding).
    pub safety_hash: Option<u64>,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Findings, in source order.
    pub findings: Vec<Finding>,
    /// Every unsafe site found (covered or not).
    pub sites: Vec<UnsafeSite>,
    /// Number of inline allows that suppressed a finding.
    pub allows_used: usize,
}

/// FNV-1a 64-bit over `text` with runs of whitespace collapsed — the
/// safety-text hash stored in the ledger.
pub fn safety_hash(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut last_ws = false;
    for b in text.trim().bytes() {
        let b = if b.is_ascii_whitespace() { b' ' } else { b };
        if b == b' ' && last_ws {
            continue;
        }
        last_ws = b == b' ';
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug)]
struct Allow {
    line: u32, // line_end of the allow comment
    rule: String,
    used: bool,
}

struct Scope {
    name: Option<String>,
    test: bool,
}

/// Lint one source file. `rel` is the workspace-relative path used in
/// findings and unsafe sites.
pub fn lint_source(rel: &str, src: &str) -> FileLint {
    let lexed = lex(src);
    let mut out = FileLint::default();

    let deterministic = lexed
        .comments
        .iter()
        .any(|c| c.inner_doc && c.text.trim().starts_with("lint: deterministic"));

    // ---- allows ---------------------------------------------------
    let mut allows: Vec<Allow> = Vec::new();
    for c in &lexed.comments {
        // An allow must be a plain comment *starting* with the marker;
        // rustdoc may quote the grammar in prose without tripping this.
        let text = c.text.trim();
        if c.inner_doc || !text.starts_with("lint: allow(") {
            continue;
        }
        let rest = &text["lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            out.findings.push(Finding {
                file: rel.into(),
                line: c.line_start,
                rule: "lint-allow-syntax",
                msg: "unclosed `lint: allow(` — expected `lint: allow(<rule>) — <reason>`".into(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason: String = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
            .trim()
            .to_string();
        if !ALLOWABLE.contains(&rule.as_str()) {
            out.findings.push(Finding {
                file: rel.into(),
                line: c.line_start,
                rule: "lint-allow-syntax",
                msg: format!("`{rule}` is not an allowable rule (allowable: {ALLOWABLE:?})"),
            });
            continue;
        }
        if reason.len() < 3 {
            out.findings.push(Finding {
                file: rel.into(),
                line: c.line_start,
                rule: "lint-allow-syntax",
                msg: format!("lint: allow({rule}) needs a reason — `lint: allow({rule}) — <why this is sound>`"),
            });
            continue;
        }
        allows.push(Allow {
            line: c.line_end,
            rule,
            used: false,
        });
    }

    // ---- executor-module rustdoc drift ----------------------------
    if rel.starts_with("crates/runtime/src/exec/") {
        let states_determinism = lexed.comments.iter().any(|c| {
            c.inner_doc
                && !c.text.trim().starts_with("lint: deterministic")
                && c.text.to_lowercase().contains("determinis")
        });
        if !states_determinism {
            out.findings.push(Finding {
                file: rel.into(),
                line: 1,
                rule: "exec-doc-determinism",
                msg: "executor module rustdoc must state its determinism guarantee \
                      (what is bit-identical, and under which knobs)"
                    .into(),
            });
        }
    }

    // ---- combined token scan --------------------------------------
    let toks = &lexed.toks;
    let mut stack: Vec<Scope> = Vec::new();
    let mut pending_name: Option<String> = None;
    let mut pending_test = false;
    let mut raw: Vec<(u32, &'static str, String)> = Vec::new(); // pre-allow findings

    let item_path = |stack: &[Scope], extra: Option<&str>| -> String {
        let mut parts: Vec<&str> = stack.iter().filter_map(|s| s.name.as_deref()).collect();
        if let Some(e) = extra {
            parts.push(e);
        }
        if parts.is_empty() {
            "<file>".to_string()
        } else {
            parts.join("::")
        }
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let in_test = pending_test || stack.iter().any(|s| s.test);
        match &t.kind {
            TokKind::Punct('#') if toks.get(i + 1).map(|t| t.kind.is_punct('[')) == Some(true) => {
                // Attribute: scan to the matching `]`; mark the next
                // scope as a test scope on #[cfg(test)] / #[test].
                let mut depth = 0usize;
                let mut j = i + 1;
                let mut saw_cfg = false;
                let mut saw_test = false;
                while let Some(tj) = toks.get(j) {
                    match &tj.kind {
                        TokKind::Punct('[') => depth += 1,
                        TokKind::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        TokKind::Ident(s) if s == "cfg" => saw_cfg = true,
                        TokKind::Ident(s) if s == "test" => saw_test = true,
                        _ => {}
                    }
                    j += 1;
                }
                if saw_test && (saw_cfg || j == i + 3) {
                    // #[cfg(test)] (or any cfg(... test ...)) and bare #[test].
                    pending_test = true;
                }
                i = j + 1;
                continue;
            }
            TokKind::Punct('{') => {
                stack.push(Scope {
                    name: pending_name.take(),
                    test: pending_test,
                });
                pending_test = false;
            }
            TokKind::Punct('}') => {
                stack.pop();
            }
            TokKind::Punct(';') => {
                pending_name = None;
                pending_test = false;
            }
            TokKind::Ident(w) => match w.as_str() {
                "fn" => {
                    if let Some(TokKind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                        pending_name = Some(name.clone());
                    }
                }
                "mod" | "struct" | "enum" | "trait" | "union" => {
                    if let Some(TokKind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                        pending_name = Some(name.clone());
                    }
                }
                "impl" if pending_name.is_none() => {
                    pending_name = Some(impl_target(toks, i + 1));
                }
                "unsafe" => {
                    let (kind, extra) = match toks.get(i + 1).map(|t| &t.kind) {
                        Some(TokKind::Ident(k)) if k == "fn" => (
                            "fn",
                            match toks.get(i + 2).map(|t| &t.kind) {
                                Some(TokKind::Ident(n)) => Some(n.clone()),
                                _ => None,
                            },
                        ),
                        Some(TokKind::Ident(k)) if k == "impl" => {
                            ("impl", Some(impl_target(toks, i + 2)))
                        }
                        Some(TokKind::Ident(k)) if k == "trait" => (
                            "trait",
                            match toks.get(i + 2).map(|t| &t.kind) {
                                Some(TokKind::Ident(n)) => Some(n.clone()),
                                _ => None,
                            },
                        ),
                        _ => ("block", None),
                    };
                    let covering = covering_safety(&lexed.lines, &lexed.comments, t.line);
                    if covering.is_none() {
                        raw.push((
                            t.line,
                            "safety-comment",
                            format!(
                                "`unsafe` {kind} without an adjacent `// SAFETY:` comment \
                                 (walk up from the unsafe line: code lines are skipped, a blank \
                                 line or non-SAFETY comment ends the search)"
                            ),
                        ));
                    }
                    out.sites.push(UnsafeSite {
                        file: rel.into(),
                        item: item_path(&stack, extra.as_deref()),
                        kind,
                        line: t.line,
                        safety_hash: covering.as_deref().map(safety_hash),
                    });
                }
                // --- determinism family -----------------------------
                "HashMap" | "HashSet" if deterministic && !in_test => raw.push((
                    t.line,
                    "det-collection",
                    format!("{w} iteration order is nondeterministic; use BTreeMap/BTreeSet or an index-keyed Vec"),
                )),
                "Instant" | "SystemTime" if deterministic && !in_test => raw.push((
                    t.line,
                    "det-clock",
                    format!("{w} reads the wall clock; simulated time must derive from the seed"),
                )),
                "thread_rng" | "OsRng" | "from_entropy" | "getrandom"
                    if deterministic && !in_test =>
                {
                    raw.push((
                        t.line,
                        "det-entropy",
                        format!("{w} draws OS entropy; derive RNG streams from (seed, node, seq)"),
                    ))
                }
                "as" if deterministic && !in_test => {
                    let narrowing = matches!(
                        toks.get(i + 1).map(|t| &t.kind),
                        Some(TokKind::Ident(ty))
                            if matches!(ty.as_str(), "u8" | "u16" | "u32" | "i8" | "i16" | "i32" | "f32" | "f64")
                    );
                    let src_is_entropy = i > 0
                        && matches!(
                            &toks[i - 1].kind,
                            TokKind::Ident(name) if {
                                let n = name.to_lowercase();
                                n.contains("seed") || n.contains("hash") || n.contains("digest")
                            }
                        );
                    if narrowing && src_is_entropy {
                        raw.push((
                            t.line,
                            "det-cast-truncation",
                            "`as` truncation of a seed/hash/digest value discards entropy; \
                             mix (SplitMix64) before narrowing"
                                .to_string(),
                        ));
                    }
                }
                _ => {}
            },
            _ => {}
        }

        // --- pattern rules anchored on `.` -------------------------
        if t.kind.is_punct('.') && deterministic && !in_test {
            let is = |k: usize, f: &dyn Fn(&TokKind) -> bool| {
                toks.get(i + k).map(|t| &t.kind).map(f) == Some(true)
            };
            // .sum::<f32|f64>
            if is(1, &|k| k.is_ident("sum"))
                && is(2, &|k| k.is_punct(':'))
                && is(3, &|k| k.is_punct(':'))
                && is(4, &|k| k.is_punct('<'))
                && is(5, &|k| k.is_ident("f32") || k.is_ident("f64"))
            {
                raw.push((
                    t.line,
                    "det-float-accum",
                    ".sum::<float>() accumulates in iteration order; \
                     guarantee a canonical order or use Welford merge"
                        .to_string(),
                ));
            }
            // .fold(<float literal>
            if is(1, &|k| k.is_ident("fold"))
                && is(2, &|k| k.is_punct('('))
                && matches!(toks.get(i + 3).map(|t| &t.kind), Some(TokKind::Num(n)) if n.contains('.'))
            {
                raw.push((
                    t.line,
                    "det-float-accum",
                    ".fold(0.0, ..) float accumulation depends on iteration order; \
                     guarantee a canonical order or use Welford merge"
                        .to_string(),
                ));
            }
        }
        i += 1;
    }

    // ---- apply allows ---------------------------------------------
    for (line, rule, msg) in raw {
        let suppressed = allows.iter_mut().any(|a| {
            let hit = a.rule == rule && (a.line == line || a.line + 1 == line);
            if hit {
                a.used = true;
            }
            hit
        });
        if suppressed {
            out.allows_used += 1;
        } else {
            out.findings.push(Finding {
                file: rel.into(),
                line,
                rule,
                msg,
            });
        }
    }
    for a in &allows {
        if !a.used {
            out.findings.push(Finding {
                file: rel.into(),
                line: a.line,
                rule: "lint-allow-unused",
                msg: format!(
                    "lint: allow({}) matches no finding on this or the next line",
                    a.rule
                ),
            });
        }
    }
    out.findings
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Name the implementing type of an `impl` header starting at token
/// `from`: the first identifier at angle-bracket depth 0 after the last
/// top-level `for`, stopping at `{`, `;` or `where`.
fn impl_target(toks: &[Tok], from: usize) -> String {
    let mut angle = 0i32;
    let mut target: Option<&str> = None;
    for t in &toks[from.min(toks.len())..] {
        match &t.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Punct('{') | TokKind::Punct(';') => break,
            TokKind::Ident(s) if s == "where" => break,
            TokKind::Ident(s) if angle == 0 => {
                if s == "for" {
                    target = None; // the type follows
                } else if s != "dyn" && s != "mut" && s != "const" && target.is_none() {
                    target = Some(s);
                }
            }
            _ => {}
        }
    }
    target.unwrap_or("impl").to_string()
}

/// The SAFETY-comment adjacency walk (see the module docs): returns the
/// covering comment block's joined text, or `None` if uncovered.
fn covering_safety(lines: &[LineKind], comments: &[Comment], unsafe_line: u32) -> Option<String> {
    // A trailing comment on the unsafe line itself counts.
    if let Some(text) = block_text_at(comments, unsafe_line) {
        if text.contains("SAFETY:") {
            return Some(text);
        }
    }
    let mut l = unsafe_line.checked_sub(1)?;
    while l >= 1 {
        match lines.get(l as usize - 1)? {
            LineKind::Code => l -= 1,
            LineKind::Blank => return None,
            LineKind::Comment => {
                // Expand the contiguous comment block upward.
                let mut lo = l;
                while lo > 1 && lines.get(lo as usize - 2) == Some(&LineKind::Comment) {
                    lo -= 1;
                }
                let text: Vec<&str> = comments
                    .iter()
                    .filter(|c| c.line_end >= lo && c.line_start <= l)
                    .map(|c| c.text.as_str())
                    .collect();
                let joined = text.join(" ");
                return if joined.contains("SAFETY:") {
                    Some(joined)
                } else {
                    None
                };
            }
        }
    }
    None
}

/// Joined text of comments touching `line`, if any.
fn block_text_at(comments: &[Comment], line: u32) -> Option<String> {
    let texts: Vec<&str> = comments
        .iter()
        .filter(|c| c.line_start <= line && c.line_end >= line)
        .map(|c| c.text.as_str())
        .collect();
    if texts.is_empty() {
        None
    } else {
        Some(texts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DET: &str = "//! lint: deterministic\n";

    fn rules_of(fl: &FileLint) -> Vec<&'static str> {
        fl.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hashmap_in_deterministic_module_fires() {
        let src = format!("{DET}fn f() {{ let m = HashMap::new(); }}\n");
        let fl = lint_source("crates/runtime/src/x.rs", &src);
        assert_eq!(rules_of(&fl), vec!["det-collection"]);
        assert_eq!(fl.findings[0].line, 2);
    }

    #[test]
    fn unmarked_module_is_exempt_from_det_rules() {
        let src = "fn f() { let m = HashMap::new(); let t = Instant::now(); }\n";
        let fl = lint_source("crates/bench/src/x.rs", src);
        assert!(fl.findings.is_empty(), "{:?}", fl.findings);
    }

    #[test]
    fn cfg_test_scopes_are_exempt() {
        let src = format!(
            "{DET}fn f() {{}}\n#[cfg(test)]\nmod tests {{\n  use std::collections::HashSet;\n  fn g() {{ let s = HashSet::new(); let t = Instant::now(); }}\n}}\n"
        );
        let fl = lint_source("crates/runtime/src/x.rs", &src);
        assert!(fl.findings.is_empty(), "{:?}", fl.findings);
    }

    #[test]
    fn clock_entropy_and_float_rules_fire() {
        let src = format!(
            "{DET}fn f(v: &[f64]) -> f64 {{\n let t = Instant::now();\n let r = thread_rng();\n v.iter().sum::<f64>()\n}}\n"
        );
        let fl = lint_source("crates/runtime/src/x.rs", &src);
        assert_eq!(
            rules_of(&fl),
            vec!["det-clock", "det-entropy", "det-float-accum"]
        );
    }

    #[test]
    fn fold_with_float_literal_fires() {
        let src = format!("{DET}fn f(v: &[f64]) -> f64 {{ v.iter().fold(0.0, |a, b| a + b) }}\n");
        let fl = lint_source("crates/runtime/src/x.rs", &src);
        assert_eq!(rules_of(&fl), vec!["det-float-accum"]);
        // Integer fold is fine.
        let src = format!("{DET}fn f(v: &[u64]) -> u64 {{ v.iter().fold(0, |a, b| a + b) }}\n");
        assert!(lint_source("crates/runtime/src/x.rs", &src)
            .findings
            .is_empty());
    }

    #[test]
    fn seed_truncation_fires_but_widening_does_not() {
        let src = format!("{DET}fn f(seed: u64) -> u32 {{ seed as u32 }}\n");
        let fl = lint_source("crates/runtime/src/x.rs", &src);
        assert_eq!(rules_of(&fl), vec!["det-cast-truncation"]);
        let src = format!(
            "{DET}fn f(seed: u32) -> u64 {{ seed as u64 }}\nfn g(i: usize) -> u32 {{ i as u32 }}\n"
        );
        assert!(lint_source("crates/runtime/src/x.rs", &src)
            .findings
            .is_empty());
    }

    #[test]
    fn allow_comment_suppresses_with_reason_only() {
        let src = format!(
            "{DET}fn f() {{\n // lint: allow(det-collection) — ordering handled by sorted drain\n let m = HashMap::new();\n}}\n"
        );
        let fl = lint_source("crates/runtime/src/x.rs", &src);
        assert!(fl.findings.is_empty(), "{:?}", fl.findings);
        assert_eq!(fl.allows_used, 1);

        let src = format!(
            "{DET}fn f() {{\n // lint: allow(det-collection)\n let m = HashMap::new();\n}}\n"
        );
        let fl = lint_source("crates/runtime/src/x.rs", &src);
        assert_eq!(rules_of(&fl), vec!["lint-allow-syntax", "det-collection"]);
    }

    #[test]
    fn unused_and_unknown_allows_are_findings() {
        let src = format!("{DET}// lint: allow(det-clock) — nothing here\nfn f() {{}}\n");
        let fl = lint_source("crates/runtime/src/x.rs", &src);
        assert_eq!(rules_of(&fl), vec!["lint-allow-unused"]);

        let src = format!("{DET}// lint: allow(safety-comment) — nope\nunsafe fn f() {{}}\n");
        let fl = lint_source("crates/runtime/src/x.rs", &src);
        assert!(
            rules_of(&fl).contains(&"lint-allow-syntax"),
            "{:?}",
            fl.findings
        );
        assert!(rules_of(&fl).contains(&"safety-comment"));
    }

    #[test]
    fn unsafe_without_safety_comment_fires_and_site_is_recorded() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let fl = lint_source("crates/runtime/src/x.rs", src);
        assert_eq!(rules_of(&fl), vec!["safety-comment"]);
        assert_eq!(fl.sites.len(), 1);
        assert_eq!(fl.sites[0].item, "f");
        assert_eq!(fl.sites[0].kind, "block");
        assert!(fl.sites[0].safety_hash.is_none());
    }

    #[test]
    fn safety_comment_covers_a_contiguous_statement_run() {
        let src = "\
fn f(p: *mut u8, q: *mut u8) {
    // SAFETY: p and q are disjoint and live for the call.
    let a = unsafe { &mut *p };
    let n = 1 + 1;
    let b = unsafe { &mut *q };

    let c = unsafe { &mut *p }; // blank line above: uncovered
}
";
        let fl = lint_source("crates/runtime/src/x.rs", src);
        assert_eq!(rules_of(&fl), vec!["safety-comment"]);
        assert_eq!(fl.findings[0].line, 7);
        assert_eq!(fl.sites.len(), 3);
        assert_eq!(fl.sites[0].safety_hash, fl.sites[1].safety_hash);
        assert!(fl.sites[0].safety_hash.is_some());
        assert!(fl.sites[2].safety_hash.is_none());
    }

    #[test]
    fn intervening_non_safety_comment_breaks_coverage() {
        let src = "\
fn f(p: *mut u8) {
    // SAFETY: fine here.
    let a = unsafe { &mut *p };
    // an unrelated comment
    let b = unsafe { &mut *p };
}
";
        let fl = lint_source("crates/runtime/src/x.rs", src);
        assert_eq!(rules_of(&fl), vec!["safety-comment"]);
        assert_eq!(fl.findings[0].line, 5);
    }

    #[test]
    fn unsafe_fn_impl_and_item_paths() {
        let src = "\
// SAFETY: documented contract.
unsafe impl<P: Proto> Send for Handle<P> {}

struct S;
impl S {
    // SAFETY: caller upholds the aliasing rules.
    pub unsafe fn get(&self) -> u8 { 0 }
}
";
        let fl = lint_source("crates/runtime/src/x.rs", src);
        assert!(fl.findings.is_empty(), "{:?}", fl.findings);
        assert_eq!(fl.sites.len(), 2);
        assert_eq!(fl.sites[0].kind, "impl");
        assert_eq!(fl.sites[0].item, "Handle");
        assert_eq!(fl.sites[1].kind, "fn");
        assert_eq!(fl.sites[1].item, "S::get");
    }

    #[test]
    fn exec_module_doc_rule_is_path_scoped() {
        let bare = "//! An executor.\npub fn run() {}\n";
        let fl = lint_source("crates/runtime/src/exec/foo.rs", bare);
        assert_eq!(rules_of(&fl), vec!["exec-doc-determinism"]);
        // Same file elsewhere: no finding.
        assert!(lint_source("crates/runtime/src/foo.rs", bare)
            .findings
            .is_empty());
        // The lint marker itself must NOT satisfy the rule.
        let marked = "//! An executor.\n//!\n//! lint: deterministic\npub fn run() {}\n";
        let fl = lint_source("crates/runtime/src/exec/foo.rs", marked);
        assert_eq!(rules_of(&fl), vec!["exec-doc-determinism"]);
        let good = "//! An executor.\n//! Traces are deterministic: bit-identical at any shard count.\npub fn run() {}\n";
        assert!(lint_source("crates/runtime/src/exec/foo.rs", good)
            .findings
            .is_empty());
    }

    #[test]
    fn banned_tokens_inside_literals_and_comments_never_fire() {
        let src = format!(
            "{DET}fn f() {{\n let a = \"HashMap unsafe Instant\";\n let b = r#\"thread_rng() .sum::<f64>()\"#;\n /* HashMap /* unsafe */ SystemTime */\n // Instant::now() in prose\n}}\n"
        );
        let fl = lint_source("crates/runtime/src/x.rs", &src);
        assert!(fl.findings.is_empty(), "{:?}", fl.findings);
        assert!(fl.sites.is_empty());
    }

    #[test]
    fn safety_hash_normalizes_whitespace() {
        assert_eq!(
            safety_hash("SAFETY: a  b\n   c"),
            safety_hash("SAFETY: a b c")
        );
        assert_ne!(safety_hash("SAFETY: a"), safety_hash("SAFETY: b"));
    }
}
