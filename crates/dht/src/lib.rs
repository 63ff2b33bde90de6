#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # rendez-dht — Chord-style DHT substrate
//!
//! §4 of the dating-service paper proposes Distributed Hash Tables as the
//! practical foundation for the service: "nodes of the network are
//! distributed randomly on (0,1] ring and each node is responsible for the
//! interval from itself to its successor", and requests target "nodes
//! responsible for values chosen uniformly at random from (0,1]". The
//! resulting selection distribution is far from uniform (arcs range from
//! `O(1/n²)` to `Ω(log n / n)`) but is *shared* by all nodes — exactly the
//! regime Lemma 1 covers. Figure 1's second series measures the dating
//! service on 200 such random DHTs.
//!
//! This crate builds that substrate from scratch:
//!
//! * [`ring`] — the `u64` keyspace ring: random node placement, paper-style
//!   arc ownership (node owns `[pos, succ)`), exact arc lengths;
//! * [`chord`] — finger tables, greedy `O(log n)` lookup with hop counts,
//!   node join/leave with exact successors and lazily refreshed fingers;
//! * [`selector`] — [`DhtSelector`]: the paper's
//!   "uniform point → owner" request-targeting rule, implementing
//!   [`rendez_core::NodeSelector`], with exact arc weights exposed for the
//!   analytic predictions of `rendez-core::analysis`;
//! * [`analysis`] — arc-length statistics (`max ≈ ln n / n`,
//!   `min ≈ 1/n²` behavior, as quoted in §4);
//! * [`naor_wieder`] — the continuous–discrete distance-halving network of
//!   Naor & Wieder (cited as \[NW03b\]) as an alternative routing substrate;
//! * [`routed_dating`] — §4's dating over hop-by-hop routed requests,
//!   sequential vs pipelined, as a `rendez_runtime` protocol.

pub mod analysis;
pub mod chord;
pub mod naor_wieder;
pub mod ring;
pub mod routed_dating;
pub mod selector;

pub use analysis::ArcStats;
pub use chord::{ChordNet, RouteResult};
pub use naor_wieder::NaorWiederNet;
pub use ring::Ring;
pub use routed_dating::{run_routed_dating, IssueMode, RoutedDating, RoutedDatingSummary};
pub use selector::DhtSelector;
