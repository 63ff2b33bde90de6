//! Test support shared by the dating integration tests.
//!
//! [`DateCapacity`] wraps any dating protocol on the round runtime and
//! checks, from the answers each node receives, the paper's capacity
//! guarantee and that only live nodes matchmake.

use rand::rngs::SmallRng;
use rendezvous::core::{DatingMsg, Platform};
use rendezvous::runtime::{
    Churn, Executor, Outbox, RoundObs, RoundProtocol, RunConfig, RunReport, Verdict,
};
use rendezvous::sim::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`RoundProtocol`] speaking [`DatingMsg`] on the 3-round cycle,
/// forwarding every hook to `inner` and inspecting every answer a node
/// receives. An answer's sender is the matchmaker; the partner in an
/// `AnswerOffer` is the date's receiver, in an `AnswerRequest` its
/// sender. Answers travel one round, so an answer delivered in round `t`
/// was matchmade in round `t − 1 = 3c + 1` of cycle `c`. Per node and
/// cycle it asserts:
///
/// * `AnswerOffer(Some)` received ≤ `bout(i)`;
/// * `AnswerRequest(Some)` received ≤ `bin(i)`;
/// * every answer's matchmaker was up in round `3c + 1`
///   ([`Churn::alive`]).
///
/// A violation panics inside the callback, which every executor
/// surfaces to the caller verbatim.
pub struct DateCapacity<P> {
    inner: P,
    platform: Platform,
    churn: Churn,
    seed: u64,
    /// Answers naming a partner that passed the checks.
    dates: AtomicU64,
}

/// A node under [`DateCapacity`]: the inner state plus the dates of the
/// latest cycle it was told of, as sender and as receiver.
pub struct Capped<N> {
    inner: N,
    cycle: u64,
    as_sender: u32,
    as_receiver: u32,
}

impl<P> DateCapacity<P> {
    fn check<N>(&self, node: &mut Capped<N>, id: NodeId, from: NodeId, msg: &DatingMsg, t: u64) {
        let (as_sender, partner) = match *msg {
            DatingMsg::AnswerOffer(p) => (true, p.get()),
            DatingMsg::AnswerRequest(p) => (false, p.get()),
            _ => return,
        };
        let matchmaking = t - 1;
        assert_eq!(matchmaking % 3, 1, "{id} got an answer in round {t}");
        let cycle = matchmaking / 3;
        assert!(
            self.churn.alive(self.seed, from, matchmaking),
            "cycle {cycle}: matchmaker {from} was down in round {matchmaking}"
        );
        let Some(_) = partner else { return };
        if node.cycle != cycle {
            (node.cycle, node.as_sender, node.as_receiver) = (cycle, 0, 0);
        }
        let caps = self.platform.caps(id);
        if as_sender {
            node.as_sender += 1;
            assert!(
                node.as_sender <= caps.bw_out,
                "cycle {cycle}: {id} over bout"
            );
        } else {
            node.as_receiver += 1;
            assert!(
                node.as_receiver <= caps.bw_in,
                "cycle {cycle}: {id} over bin"
            );
        }
        self.dates.fetch_add(1, Ordering::Relaxed);
    }
}

impl<P: RoundProtocol<Msg = DatingMsg>> RoundProtocol for DateCapacity<P> {
    type Node = Capped<P::Node>;
    type Msg = DatingMsg;
    type Output = P::Output;

    fn init_node(&self, id: NodeId, rng: &mut SmallRng) -> Self::Node {
        Capped {
            inner: self.inner.init_node(id, rng),
            cycle: u64::MAX,
            as_sender: 0,
            as_receiver: 0,
        }
    }

    fn on_round_start(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingMsg>,
    ) {
        self.inner
            .on_round_start(&mut node.inner, id, round, rng, out);
    }

    fn on_message(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        from: NodeId,
        msg: DatingMsg,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingMsg>,
    ) {
        self.check(node, id, from, &msg, round);
        self.inner
            .on_message(&mut node.inner, id, from, msg, round, rng, out);
    }

    fn on_receive_run(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        srcs: &[NodeId],
        msgs: &[DatingMsg],
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingMsg>,
    ) {
        for (&from, msg) in srcs.iter().zip(msgs) {
            self.check(node, id, from, msg, round);
        }
        self.inner
            .on_receive_run(&mut node.inner, id, srcs, msgs, round, rng, out);
    }

    fn on_round_end(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingMsg>,
    ) {
        self.inner
            .on_round_end(&mut node.inner, id, round, rng, out);
    }

    fn observe_node(&self, node: &Self::Node, id: NodeId, round: u64, obs: &mut RoundObs) {
        self.inner.observe_node(&node.inner, id, round, obs);
    }

    fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<P::Output> {
        self.inner.finalize_obs(obs, round)
    }

    fn digest_obs(&self, obs: &RoundObs, round: u64) -> u64 {
        self.inner.digest_obs(obs, round)
    }

    fn msg_bytes(&self, msg: &DatingMsg) -> usize {
        self.inner.msg_bytes(msg)
    }

    fn node_mem_bytes(&self, node: &Self::Node) -> usize {
        self.inner.node_mem_bytes(&node.inner)
    }
}

/// Run `inner` over `platform`'s nodes on `exec` under the
/// [`DateCapacity`] checks; returns the report and the number of dates
/// the checks saw (answers naming a partner).
pub fn run_checked<P, E>(
    exec: &E,
    inner: P,
    platform: &Platform,
    cfg: &RunConfig,
) -> (RunReport<P::Output>, u64)
where
    P: RoundProtocol<Msg = DatingMsg>,
    E: Executor,
{
    let mut checked = DateCapacity {
        inner,
        platform: platform.clone(),
        churn: cfg.churn,
        seed: cfg.seed,
        dates: AtomicU64::new(0),
    };
    let report = exec.run(&mut checked, platform.n(), cfg);
    (report, checked.dates.into_inner())
}
