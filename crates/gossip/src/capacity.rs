//! Capacity invariants: dates never exceed bandwidth.
//!
//! The headline property of the dating service (§1, abstract) is that it
//! "ensures that communication capabilities of the nodes are not
//! exceeded": a node with `bout(i)` offers can be the sender of at most
//! `bout(i)` dates, and symmetrically for receivers. This module provides
//! checkers used throughout the test suite (including under churn, skewed
//! selectors and the distributed protocol form).

use crate::service::Date;
use rendez_core::Platform;
use rendez_sim::NodeId;

/// A violated capacity bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityViolation {
    /// Node is the sender of more dates than its outgoing bandwidth.
    SenderOverCommitted {
        /// The overloaded node.
        node: NodeId,
        /// Dates it was assigned as sender.
        dates: u32,
        /// Its outgoing bandwidth.
        bw_out: u32,
    },
    /// Node is the receiver of more dates than its incoming bandwidth.
    ReceiverOverCommitted {
        /// The overloaded node.
        node: NodeId,
        /// Dates it was assigned as receiver.
        dates: u32,
        /// Its incoming bandwidth.
        bw_in: u32,
    },
}

impl std::fmt::Display for CapacityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityViolation::SenderOverCommitted {
                node,
                dates,
                bw_out,
            } => {
                write!(f, "{node} is sender of {dates} dates but bout = {bw_out}")
            }
            CapacityViolation::ReceiverOverCommitted { node, dates, bw_in } => {
                write!(f, "{node} is receiver of {dates} dates but bin = {bw_in}")
            }
        }
    }
}

impl std::error::Error for CapacityViolation {}

/// Verify that `dates` respects every node's bandwidth on `platform`.
///
/// Returns the first violation found, or `Ok(())`.
pub fn verify_dates(platform: &Platform, dates: &[Date]) -> Result<(), CapacityViolation> {
    let n = platform.n();
    let mut send_load = vec![0u32; n];
    let mut recv_load = vec![0u32; n];
    for d in dates {
        send_load[d.sender.index()] += 1;
        recv_load[d.receiver.index()] += 1;
    }
    for (v, caps) in platform.iter() {
        let s = send_load[v.index()];
        if s > caps.bw_out {
            return Err(CapacityViolation::SenderOverCommitted {
                node: v,
                dates: s,
                bw_out: caps.bw_out,
            });
        }
        let r = recv_load[v.index()];
        if r > caps.bw_in {
            return Err(CapacityViolation::ReceiverOverCommitted {
                node: v,
                dates: r,
                bw_in: caps.bw_in,
            });
        }
    }
    Ok(())
}

/// Per-node date loads, for load-balance analysis.
#[derive(Debug, Clone)]
pub struct DateLoads {
    /// Dates in which each node is the sender.
    pub send: Vec<u32>,
    /// Dates in which each node is the receiver.
    pub recv: Vec<u32>,
    /// Dates arranged by each node as matchmaker.
    pub matchmade: Vec<u32>,
}

/// Summary of one load vector (e.g. dates matchmade per node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSummary {
    /// Largest per-node load.
    pub max: u32,
    /// Mean load over all nodes.
    pub mean: f64,
    /// Nodes with non-zero load.
    pub busy_nodes: usize,
}

impl LoadSummary {
    /// Summarize a load vector.
    pub fn of(loads: &[u32]) -> Self {
        let max = loads.iter().copied().max().unwrap_or(0);
        let busy_nodes = loads.iter().filter(|&&l| l > 0).count();
        let mean = loads.iter().map(|&l| l as f64).sum::<f64>() / loads.len().max(1) as f64;
        Self {
            max,
            mean,
            busy_nodes,
        }
    }

    /// Max/mean — 1.0 is perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.max as f64 / self.mean
        }
    }
}

impl DateLoads {
    /// Matchmaking load summary — the metric behind §2's remark that the
    /// request randomness "is a load-balancing factor; as an extreme
    /// case, sending all requests to a single node would result in a
    /// centralized scheme".
    pub fn matchmaker_summary(&self) -> LoadSummary {
        LoadSummary::of(&self.matchmade)
    }
}

/// Tally per-node loads from a date list.
pub fn date_loads(n: usize, dates: &[Date]) -> DateLoads {
    let mut send = vec![0u32; n];
    let mut recv = vec![0u32; n];
    let mut matchmade = vec![0u32; n];
    for d in dates {
        send[d.sender.index()] += 1;
        recv[d.receiver.index()] += 1;
        matchmade[d.matchmaker.index()] += 1;
    }
    DateLoads {
        send,
        recv,
        matchmade,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DatingService;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rendez_core::{AliasSelector, NodeCaps, NodeSelector, UniformSelector};

    fn date(s: u32, r: u32, m: u32) -> Date {
        Date {
            sender: NodeId(s),
            receiver: NodeId(r),
            matchmaker: NodeId(m),
        }
    }

    #[test]
    fn valid_dates_pass() {
        let p = Platform::unit(3);
        let dates = [date(0, 1, 2), date(1, 0, 2)];
        assert!(verify_dates(&p, &dates).is_ok());
    }

    #[test]
    fn sender_overload_detected() {
        let p = Platform::unit(3);
        let dates = [date(0, 1, 2), date(0, 2, 1)];
        let err = verify_dates(&p, &dates).unwrap_err();
        assert_eq!(
            err,
            CapacityViolation::SenderOverCommitted {
                node: NodeId(0),
                dates: 2,
                bw_out: 1
            }
        );
        assert!(err.to_string().contains("sender of 2"));
    }

    #[test]
    fn receiver_overload_detected() {
        let p = Platform::unit(3);
        let dates = [date(0, 1, 2), date(2, 1, 0)];
        let err = verify_dates(&p, &dates).unwrap_err();
        assert!(matches!(
            err,
            CapacityViolation::ReceiverOverCommitted {
                node: NodeId(1),
                ..
            }
        ));
    }

    #[test]
    fn service_rounds_always_respect_capacity() {
        // The core guarantee, hammered across platforms and selectors.
        let platforms = vec![
            Platform::unit(50),
            Platform::homogeneous(30, 4),
            Platform::new(
                (0..40)
                    .map(|i| NodeCaps {
                        bw_in: 1 + (i % 5),
                        bw_out: 1 + ((i * 3) % 5),
                    })
                    .collect(),
            ),
            Platform::power_law(60, 1.0, 4.0, 1),
        ];
        let mut rng = SmallRng::seed_from_u64(9);
        for p in &platforms {
            let selectors: Vec<Box<dyn NodeSelector>> = vec![
                Box::new(UniformSelector::new(p.n())),
                Box::new(AliasSelector::zipf(p.n(), 1.0)),
                Box::new(AliasSelector::hotspot(p.n(), 2, 50.0)),
            ];
            for sel in &selectors {
                let svc = DatingService::new(p, sel.as_ref());
                for _ in 0..20 {
                    let out = svc.run_round(&mut rng);
                    verify_dates(p, &out.dates)
                        .unwrap_or_else(|e| panic!("capacity violated with {}: {e}", sel.name()));
                }
            }
        }
    }

    #[test]
    fn loads_tally_matchmakers() {
        let dates = [date(0, 1, 2), date(1, 0, 2), date(2, 0, 1)];
        let loads = date_loads(3, &dates);
        assert_eq!(loads.matchmade, vec![0, 1, 2]);
        assert_eq!(loads.send, vec![1, 1, 1]);
        assert_eq!(loads.recv, vec![2, 1, 0]);
    }

    #[test]
    fn load_summary_basics() {
        let s = LoadSummary::of(&[0, 2, 4, 2]);
        assert_eq!(s.max, 4);
        assert_eq!(s.busy_nodes, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.imbalance() - 2.0).abs() < 1e-12);
        let empty = LoadSummary::of(&[0, 0]);
        assert_eq!(empty.imbalance(), 0.0);
    }

    #[test]
    fn uniform_selection_balances_matchmaking_load() {
        // §2's load-balancing remark: with uniform targeting, matchmaking
        // load spreads (max load O(log n / log log n) at m = n), whereas
        // the single-target extreme centralizes it all.
        let n = 2000;
        let p = Platform::unit(n);
        let mut rng = SmallRng::seed_from_u64(1);

        let sel = UniformSelector::new(n);
        let out = DatingService::new(&p, &sel).run_round(&mut rng);
        let s = date_loads(n, &out.dates).matchmaker_summary();
        assert!(
            s.busy_nodes > n / 5,
            "load concentrated: {} busy",
            s.busy_nodes
        );
        assert!(s.max <= 8, "uniform max matchmaker load {} too high", s.max);

        let central = rendez_core::SingleTargetSelector::new(n, NodeId(9));
        let out = DatingService::new(&p, &central).run_round(&mut rng);
        let s = date_loads(n, &out.dates).matchmaker_summary();
        assert_eq!(s.busy_nodes, 1);
        assert_eq!(s.max as u64, p.m());
    }
}
