#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # rendez-gossip — the centralised oracle and test reference
//!
//! The runtime (`rendez_runtime`) runs the paper as a distributed
//! protocol; this crate samples the same random processes centrally. It
//! is the reference the tests compare the runtime against and the fast
//! sampler behind the `n = 10⁵` sweeps: [`service`] is Algorithm 1 in one
//! pass ([`DatingService`]), [`capacity`] checks its dates.
//!
//! The paper's application (§3): a single node knows a rumor; per round
//! the dating service arranges dates, and every date whose sender is
//! informed informs its receiver. Crucially, nodes "do not stop asking for
//! messages once they have the message nor do not send messages if they
//! have nothing to say" — the protocol is completely oblivious to rumor
//! state, which is what makes it churn-tolerant and simple. Theorem 4:
//! all `n` nodes are informed in `O(log n)` rounds w.h.p.
//!
//! Figure 2 compares against the classic uniform-gossip family, all
//! implemented here with identical round semantics (decisions read the
//! informed set *at round start*):
//!
//! * **PUSH** — every informed node sends to a uniform node;
//! * **PULL** — every node asks a uniform node; an informed target answers
//!   every request addressed to it;
//! * **PUSH&PULL** — both in the same round;
//! * **fair PULL** — an informed target answers only **one** request per
//!   round (the paper's bandwidth-honest variant);
//! * **fair PUSH&PULL** — PUSH plus fair PULL;
//! * **dating service** — the paper's protocol.
//!
//! Modules: [`informed`] (bitset + informed-bandwidth potential `I_t`),
//! [`protocols`] (two samplers for the seven spreaders: one
//! [`Gossip<PUSH, PULL, FAIR>`](Gossip) for the five uniform-gossip
//! baselines, and [`DatingSpread`] with optional payload loss),
//! [`spread`] (the round loop and result records), [`phases`] (Theorem 4's
//! three-phase decomposition),
//! and [`hetero`] (Theorem 10 / Corollary 11 experiments).

pub mod capacity;
pub mod hetero;
pub mod informed;
pub mod phases;
pub mod protocols;
pub mod service;
pub mod spread;

pub use capacity::{date_loads, verify_dates, CapacityViolation, DateLoads, LoadSummary};
pub use informed::InformedSet;
pub use phases::{phase_breakdown, PhaseBreakdown};
pub use protocols::{
    DatingSpread, FairPull, FairPushPull, Gossip, Pull, Push, PushPull, SpreadProtocol, SpreadState,
};
pub use service::{
    run_round_counts, CountWorkspace, Date, DatingService, RoundOutcome, RoundWorkspace,
};
pub use spread::{run_spread, run_spread_until, SpreadResult};
