//! Adapters hosting the workspace's protocols on the runtime.
//!
//! Each adapter expresses one protocol as a per-node
//! [`RoundProtocol`](crate::RoundProtocol) state machine, so any
//! executor — sequential, sharded, conditioned — can run it, with or
//! without churn. The integration tests pin the adapters statistically
//! to the centralised oracle samplers of `rendez_core` and
//! `rendez_gossip` (same date-count distribution as the oracle, same
//! round-count distribution per spreader).
//!
//! All eight workloads are hosted here: the distributed dating service
//! ([`RuntimeDating`]) and the seven Figure-2 spreaders — dating
//! ([`RtDatingSpread`]), lossy dating ([`RtDatingSpread::with_loss`]),
//! and the five uniform-gossip baselines, one [`RtGossip`] adapter
//! whose const parameters say whether nodes push, pull and answer
//! fairly: PUSH&PULL ([`RtPushPull`]), PUSH ([`RtPush`]), PULL
//! ([`RtPull`]), fair PULL ([`RtFairPull`]) and fair PUSH&PULL
//! ([`RtFairPushPull`]). The five additionally have a
//! **continuous-time port** ([`AsyncSpread`]) for the event-driven
//! executor, with asynchronous PUSH&PULL as the flagship workload.
//! Prefer constructing them through the [`Scenario`](crate::Scenario)
//! builder, which validates sizes up front and picks the executor.
//!
//! lint: deterministic

mod async_spread;
mod dating;
mod gossip;
mod spread;

pub(crate) use spread::check_loss;

pub use async_spread::{AsyncGossipMsg, AsyncSpread, AsyncSpreadNode, AsyncSpreadSummary};
pub use dating::{DatingRunSummary, RuntimeDating};
pub use gossip::{GossipMsg, RtFairPull, RtFairPushPull, RtGossip, RtPull, RtPush, RtPushPull};
pub use spread::{DatingSpreadMsg, RtDatingSpread, SpreadNode, SpreadRunSummary};
