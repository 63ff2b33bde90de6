//! Algorithm 1's wire format — the messages of the distributed dating
//! service.
//!
//! The oracle form in [`crate::service`] samples the algorithm's random
//! process centrally; the message-passing form runs on the round runtime
//! (`rendez_runtime::RuntimeDating`) and exchanges these messages:
//!
//! ```text
//! cycle = 3 rounds
//! phase 0: every node sends bout(i) Offer and bin(i) Request messages
//!          to selector-chosen nodes
//! phase 1: matchmakers collect their inboxes; at round end each keeps a
//!          uniform random min(s, r) of each side, matches them uniformly,
//!          and answers every request (partner address or NoDate)
//! phase 2: matched senders receive their partner's address and ship the
//!          unit payload, which lands at phase 0 of the next cycle
//! ```
//!
//! A [`DatingMsg`] is one 8-byte word (pinned at compile time): the
//! variant tag plus, in the two answers, a [`Partner`] — the partner's
//! address in four bytes, `u32::MAX` standing for "no date". The
//! spreader's `DatingSpreadMsg` carries the same partner field.

use rendez_sim::Partner;

/// Payload wire size used by the distributed form (unit message).
pub const PAYLOAD_BYTES: usize = 1024;

/// Messages of the distributed dating protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatingMsg {
    /// "Request for sending": the origin offers one outgoing unit.
    Offer,
    /// "Request for receiving": the origin wants one incoming unit.
    Request,
    /// Answer to an offer: the partner to send to, or none for no date.
    AnswerOffer(Partner),
    /// Answer to a request: the partner that will send, or none.
    AnswerRequest(Partner),
    /// The unit-size payload travelling on an arranged date.
    Payload,
}

const _: () = assert!(std::mem::size_of::<DatingMsg>() == 8);
