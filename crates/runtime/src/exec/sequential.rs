//! The single-threaded reference executor.
//!
//! Determinism guarantee: the trace is a pure function of
//! `(protocol, n, seed, conditions)` — this executor *defines* the
//! canonical digest trace that every other executor must reproduce
//! bit-for-bit at any shard or pool count.
//!
//! It is the round [`engine`](super::engine) over one shard, run inline
//! on the calling thread — the same `Shard::round` body and coordinator
//! loop the sharded executor uses, so the reference semantics and the
//! parallel hot path cannot drift apart.
//!
//! lint: deterministic

use super::{engine, Executor};
use crate::proto::RoundProtocol;
use crate::report::{RunConfig, RunReport};

/// Runs every node on the calling thread, in id order.
///
/// This is the executable specification of the runtime's semantics: the
/// sharded executor (and anything added later) must reproduce its digest
/// traces bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl Executor for SequentialExecutor {
    fn name(&self) -> String {
        "sequential".to_string()
    }

    fn run<P: RoundProtocol>(
        &self,
        proto: &mut P,
        n: usize,
        cfg: &RunConfig,
    ) -> RunReport<P::Output> {
        engine::drive(proto, n, cfg, 1, None)
    }
}
