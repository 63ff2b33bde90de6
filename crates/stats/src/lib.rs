#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # rendez-stats — statistics substrate for the `rendezvous` workspace
//!
//! The dating-service paper (Beaumont, Duchon, Korzeniowski; IPDPS 2008)
//! reports every experiment as a mean and a standard deviation over
//! 10³–10⁴ Monte-Carlo trials, approximates binomial request counts with
//! Poisson variables (Lemma 1), and characterizes per-node date counts with
//! hypergeometric distributions (Lemma 3). This crate holds exactly the
//! statistics the analysis and the checks use, implemented from scratch
//! (no statistics crate is in the approved dependency set):
//!
//! * [`summary`] — Welford running moments, mergeable across threads, and
//!   [`Summary`] records with confidence intervals;
//! * [`special`] — `ln Γ` and the regularized incomplete gamma, the
//!   numeric bedrock for every distribution below;
//! * [`dist`] — Poisson and Binomial tails (Lemma 1), the Hypergeometric
//!   pmf (Lemma 3) and Zipf weights (§2 skew conjecture);
//! * [`gof`] — chi-square goodness-of-fit and two-sample
//!   Kolmogorov–Smirnov tests, used to verify Lemma 3 (uniform random
//!   `k`-matchings) and the oracle/distributed protocol equivalence;
//! * [`fit`] — least-squares lines for the `O(log n)` shape checks.
//!
//! Everything is deterministic, and `RunningStats::push` never allocates.

pub mod dist;
pub mod fit;
pub mod gof;
pub mod special;
pub mod summary;

pub use dist::{Binomial, Hypergeometric, Poisson, Zipf};
pub use fit::{fit_line, fit_log2, LineFit};
pub use gof::{chi_square_gof, ks_two_sample, ChiSquareResult, KsResult};
pub use summary::{RunningStats, Summary};
