#![forbid(unsafe_code)]
//! # rendez-bench — experiment harnesses and benchmarks
//!
//! One binary per paper artifact (see `src/bin/exp_*.rs`) plus Criterion
//! micro-benchmarks (see `benches/`). This library holds the shared
//! machinery: a dependency-free flag parser ([`cli`]), aligned/CSV table
//! printing ([`table`]) and the Figure 1 / Figure 2 kernels
//! ([`experiments`]) that their harnesses call and unit tests check.
//!
//! The harnesses share a flag vocabulary:
//!
//! * `--quick` — CI-scale parameters (seconds, not minutes);
//! * `--full`  — the paper's full trial counts (harnesses that scale one);
//! * `--seed N`, `--threads N` (fleet harnesses), `--csv` —
//!   reproducibility and output.
//!
//! Each harness reads its flags first and then calls
//! [`CliArgs::reject_unread`]: a flag it does not read is an error.
//!
//! A harness prints every number it measures in its tables; `--csv` is
//! the machine-readable form. Performance claims are measured with the
//! stand-alone `benchmark/` package, not with these harnesses.

pub mod cli;
pub mod experiments;
pub mod table;

pub use cli::CliArgs;
pub use table::Table;
