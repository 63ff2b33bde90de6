//! Every registry adapter overrides `RoundProtocol::on_receive_run` and
//! says in a comment that the override is observably the per-message
//! `on_message` loop. This is the test behind those comments: the same
//! adapter with the override taken away must produce the same report.

use rand::rngs::SmallRng;
use rendez_core::{Platform, UniformSelector};
use rendez_runtime::adapters::{
    RtDatingSpread, RtFairPull, RtFairPushPull, RtPull, RtPush, RtPushPull, RuntimeDating,
};
use rendez_runtime::{
    Churn, Conditions, Executor, LatencyDist, Outbox, RoundObs, RoundProtocol, RunConfig,
    SequentialExecutor, ShardedExecutor, Verdict,
};
use rendez_sim::NodeId;
use std::fmt::Debug;

/// `P` without its `on_receive_run`: every hook an executor calls is
/// forwarded except that one, so deliveries go through the trait's
/// default — one `on_message` per entry.
struct PerMessage<P>(P);

impl<P: RoundProtocol> RoundProtocol for PerMessage<P> {
    type Node = P::Node;
    type Msg = P::Msg;
    type Output = P::Output;

    fn init_node(&self, id: NodeId, rng: &mut SmallRng) -> P::Node {
        self.0.init_node(id, rng)
    }

    fn on_round_start(
        &self,
        node: &mut P::Node,
        id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, P::Msg>,
    ) {
        self.0.on_round_start(node, id, round, rng, out);
    }

    fn on_message(
        &self,
        node: &mut P::Node,
        id: NodeId,
        from: NodeId,
        msg: P::Msg,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, P::Msg>,
    ) {
        self.0.on_message(node, id, from, msg, round, rng, out);
    }

    fn on_round_end(
        &self,
        node: &mut P::Node,
        id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, P::Msg>,
    ) {
        self.0.on_round_end(node, id, round, rng, out);
    }

    fn observe_node(&self, node: &P::Node, id: NodeId, round: u64, obs: &mut RoundObs) {
        self.0.observe_node(node, id, round, obs);
    }

    fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<P::Output> {
        self.0.finalize_obs(obs, round)
    }

    fn digest_obs(&self, obs: &RoundObs, round: u64) -> u64 {
        self.0.digest_obs(obs, round)
    }

    fn msg_bytes(&self, msg: &P::Msg) -> usize {
        self.0.msg_bytes(msg)
    }

    fn node_mem_bytes(&self, node: &P::Node) -> usize {
        self.0.node_mem_bytes(node)
    }
}

const N: usize = 240;
const SOURCE: NodeId = NodeId(17);

/// Run `mk()` as it is and without its `on_receive_run`, under every
/// condition and layout, and compare the whole reports.
fn check<P>(name: &str, mk: impl Fn() -> P)
where
    P: RoundProtocol,
    P::Output: PartialEq + Debug,
{
    let conditions = [
        ("ideal", Conditions::ideal(), Churn::none()),
        (
            "loss 0.1, latency 1..=3",
            Conditions {
                drop_prob: 0.1,
                latency: LatencyDist::Uniform { min: 1, max: 3 },
            },
            Churn::none(),
        ),
        (
            "churn 0.05",
            Conditions::ideal(),
            Churn::intermittent(0.05).protect(SOURCE),
        ),
    ];
    for (cname, cond, churn) in conditions {
        let cfg = RunConfig::seeded(0xd47e)
            .max_rounds(600)
            .conditions(cond)
            .churn(churn);
        for shards in [1, 3] {
            let what = format!("{name}, {cname}, {shards} shard(s)");
            let (mut run, mut message) = (mk(), PerMessage(mk()));
            let (run, message) = if shards == 1 {
                (
                    SequentialExecutor.run(&mut run, N, &cfg),
                    SequentialExecutor.run(&mut message, N, &cfg),
                )
            } else {
                let sharded = ShardedExecutor::new(shards);
                (
                    sharded.run(&mut run, N, &cfg),
                    sharded.run(&mut message, N, &cfg),
                )
            };
            assert!(run.stats.delivered > 0, "{what}: nothing was delivered");
            assert_eq!(run.digests, message.digests, "{what}");
            assert_eq!(run.stats, message.stats, "{what}");
            assert_eq!(run.rounds, message.rounds, "{what}");
            assert_eq!(run.completed, message.completed, "{what}");
            assert_eq!(run.output, message.output, "{what}");
            assert_eq!(run.node_bytes, message.node_bytes, "{what}");
        }
    }
}

#[test]
fn receive_run_overrides_equal_the_per_message_default() {
    let dating = |loss| {
        let (platform, selector) = (Platform::power_law(N, 1.1, 4.0, 5), UniformSelector::new(N));
        RtDatingSpread::with_loss(platform, selector, SOURCE, loss)
    };
    check("dating-service", || {
        RuntimeDating::new(
            Platform::power_law(N, 1.1, 4.0, 5),
            UniformSelector::new(N),
            8,
        )
    });
    check("dating", || dating(0.0));
    check("dating-lossy", || dating(0.2));
    check("push-pull", || RtPushPull::new(N, SOURCE));
    check("push", || RtPush::new(N, SOURCE));
    check("pull", || RtPull::new(N, SOURCE));
    check("fair-pull", || RtFairPull::new(N, SOURCE));
    check("push-fair-pull", || RtFairPushPull::new(N, SOURCE));
}
