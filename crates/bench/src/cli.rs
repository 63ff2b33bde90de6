//! Dependency-free command-line flags for the experiment harnesses.
//!
//! Syntax: `--name value` pairs and boolean `--flag`s. Values never start
//! with `--`. Every getter records the name it reads; a harness calls
//! [`CliArgs::reject_unread`] once it has read its flags, so a flag it
//! does not read (a typo, a retired flag) fails the run instead of being
//! silently ignored.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed flags.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    values: HashMap<String, String>,
    flags: Vec<String>,
    read: RefCell<BTreeSet<String>>,
}

impl CliArgs {
    /// Parse the process arguments.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parse from an explicit token list (for tests).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let tokens: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(name) = t.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    values.insert(name.to_string(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(name.to_string());
                    i += 1;
                }
            } else {
                i += 1; // stray positional: ignored
            }
        }
        Self {
            values,
            flags,
            read: RefCell::default(),
        }
    }

    /// Record that the harness reads `--name`.
    fn note(&self, name: &str) {
        self.read.borrow_mut().insert(name.to_string());
    }

    /// `--name`'s value, noting the read.
    fn value(&self, name: &str) -> Option<&String> {
        self.note(name);
        self.values.get(name)
    }

    /// The flags given that no getter has read yet, sorted.
    fn unread(&self) -> Vec<String> {
        let read = self.read.borrow();
        let given = self.values.keys().chain(&self.flags);
        let unread: BTreeSet<&String> = given.filter(|f| !read.contains(*f)).collect();
        unread.into_iter().cloned().collect()
    }

    /// Exit with status 2, naming them, if any flag given was never read.
    /// Call once every flag the harness knows has been read.
    pub fn reject_unread(&self) {
        let unread = self.unread();
        if !unread.is_empty() {
            let names: Vec<String> = unread.iter().map(|f| format!("--{f}")).collect();
            eprintln!("error: unrecognised flag(s): {}", names.join(", "));
            std::process::exit(2);
        }
    }

    /// Boolean flag presence (`--quick`, `--csv`, …).
    pub fn has(&self, name: &str) -> bool {
        self.note(name);
        self.flags.iter().any(|f| f == name)
    }

    /// `--name N` as u64.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.value(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} wants an integer, got {v}"))
            })
            .unwrap_or(default)
    }

    /// `--name value` as a string (e.g. an output path).
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.value(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// `--name X` as f64.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.value(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} wants a number, got {v}"))
            })
            .unwrap_or(default)
    }

    /// `--name a,b,c` as a usize list.
    pub fn get_usize_list(&self, name: &str, default: &[usize]) -> Vec<usize> {
        match self.value(name) {
            None => default.to_vec(),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{name} wants integers, got {s}"))
                })
                .collect(),
        }
    }

    /// `--name 0.0,0.1,0.25` as an f64 list.
    pub fn get_f64_list(&self, name: &str, default: &[f64]) -> Vec<f64> {
        match self.value(name) {
            None => default.to_vec(),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{name} wants numbers, got {s}"))
                })
                .collect(),
        }
    }

    /// `--name a,b,c` as a string list.
    pub fn get_str_list(&self, name: &str, default: &[&str]) -> Vec<String> {
        match self.value(name) {
            None => default.iter().map(|s| s.to_string()).collect(),
            Some(v) => v.split(',').map(|s| s.trim().to_string()).collect(),
        }
    }

    /// Shared scale convention: multiply paper-scale trial counts by this.
    /// `--quick` → 1/50 scale (CI), `--full` → 1, default → 1/10.
    pub fn scale(&self) -> f64 {
        let (quick, full) = (self.has("quick"), self.has("full"));
        if quick {
            0.02
        } else if full {
            1.0
        } else {
            0.1
        }
    }

    /// Scale a paper trial count, with a floor.
    pub fn scaled_trials(&self, paper: u64, floor: u64) -> u64 {
        ((paper as f64 * self.scale()) as u64).max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> CliArgs {
        CliArgs::from_iter(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn values_and_flags() {
        let a = args(&["--seed", "42", "--quick", "--n", "10,20"]);
        assert_eq!(a.get_u64("seed", 0), 42);
        assert!(a.has("quick"));
        assert!(!a.has("csv"));
        assert_eq!(a.get_usize_list("n", &[1]), vec![10, 20]);
    }

    #[test]
    fn defaults_apply() {
        let a = args(&[]);
        assert_eq!(a.get_u64("seed", 7), 7);
        assert_eq!(a.get_f64("alpha", 0.5), 0.5);
        assert_eq!(a.get_usize_list("n", &[3, 4]), vec![3, 4]);
        assert_eq!(a.get_str("out", "sweep.json"), "sweep.json");
    }

    #[test]
    fn lists_parse() {
        let a = args(&["--churn", "0.0, 0.1,0.25", "--protocols", "push, dating"]);
        assert_eq!(a.get_f64_list("churn", &[0.5]), vec![0.0, 0.1, 0.25]);
        assert_eq!(a.get_f64_list("loss", &[0.5]), vec![0.5]);
        assert_eq!(a.get_str_list("protocols", &["x"]), vec!["push", "dating"]);
        assert_eq!(a.get_str_list("other", &["x", "y"]), vec!["x", "y"]);
    }

    #[test]
    fn string_values_pass_through() {
        let a = args(&["--out", "out/sweep.json"]);
        assert_eq!(a.get_str("out", "x"), "out/sweep.json");
    }

    #[test]
    fn scale_modes() {
        assert_eq!(args(&["--quick"]).scale(), 0.02);
        assert_eq!(args(&["--full"]).scale(), 1.0);
        assert_eq!(args(&[]).scale(), 0.1);
        assert_eq!(args(&["--quick"]).scaled_trials(10_000, 50), 200);
        assert_eq!(args(&["--quick"]).scaled_trials(100, 50), 50);
    }

    #[test]
    fn flag_followed_by_flag() {
        let a = args(&["--csv", "--seed", "1"]);
        assert!(a.has("csv"));
        assert_eq!(a.get_u64("seed", 0), 1);
    }

    #[test]
    fn unread_flags_are_named() {
        let a = args(&["--quick", "--full", "--n-series", "--seed", "1"]);
        assert_eq!(a.scale(), 0.02); // reads both --quick and --full
        assert_eq!(a.unread(), vec!["n-series", "seed"]);
        let _ = (a.get_u64("seed", 0), a.has("n-series"));
        assert!(a.unread().is_empty());
    }

    #[test]
    #[should_panic(expected = "wants an integer")]
    fn bad_integer_panics() {
        let a = args(&["--seed", "xyz"]);
        let _ = a.get_u64("seed", 0);
    }
}
