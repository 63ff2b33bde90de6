//! The workload registry: every protocol the runtime can host, as an
//! enum and as a string-keyed lookup for CLIs and config files.
//!
//! [`Spreader`] names the eight workloads of the paper — the dating
//! service itself (Algorithm 1) plus the seven Figure-2 rumor spreaders —
//! and is the value the [`Scenario`](crate::Scenario) builder dispatches
//! on. Its string keys are the workspace's one copy of the paper's
//! legend: experiment tables of both the centralized `rendez_gossip`
//! samplers and the runtime head their columns with them.
//!
//! lint: deterministic

/// A workload the runtime can host, selected via
/// [`Scenario::protocol`](crate::Scenario::protocol).
///
/// Knobs that only some workloads use (dating-service cycle count, lossy
/// payload-loss probability) live on the builder
/// ([`Scenario::cycles`](crate::Scenario::cycles),
/// [`Scenario::loss`](crate::Scenario::loss)), keeping this enum a plain
/// copyable key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Spreader {
    /// Algorithm 1 itself: the matchmaking service, measured in dates
    /// per cycle (Figure 1's workload). Not a rumor spreader.
    DatingService,
    /// Simple PUSH: every informed node transmits to a uniform target.
    Push,
    /// Simple (unfair) PULL: informed targets answer every request.
    Pull,
    /// Simple PUSH&PULL: both mechanisms every round.
    PushPull,
    /// Fair PULL: an informed node answers only one request per round.
    FairPull,
    /// PUSH + fair PULL — the paper's bandwidth-honest yardstick.
    FairPushPull,
    /// Rumor spreading over dating-service dates (§3).
    Dating,
    /// Dating spread with i.i.d. payload loss (§5 fault tolerance).
    LossyDating,
}

impl Spreader {
    /// All eight workloads, in the paper's legend order (dating service
    /// first, then Figure 2 fastest → slowest, then the lossy variant).
    pub const ALL: [Spreader; 8] = [
        Spreader::DatingService,
        Spreader::PushPull,
        Spreader::FairPushPull,
        Spreader::Pull,
        Spreader::FairPull,
        Spreader::Push,
        Spreader::Dating,
        Spreader::LossyDating,
    ];

    /// Stable string key, and the column name in experiment tables of
    /// either engine.
    pub fn name(self) -> &'static str {
        match self {
            Spreader::DatingService => "dating-service",
            Spreader::Push => "push",
            Spreader::Pull => "pull",
            Spreader::PushPull => "push-pull",
            Spreader::FairPull => "fair-pull",
            Spreader::FairPushPull => "push-fair-pull",
            Spreader::Dating => "dating",
            Spreader::LossyDating => "dating-lossy",
        }
    }

    /// One-line description for CLI listings.
    pub fn describe(self) -> &'static str {
        match self {
            Spreader::DatingService => "Algorithm 1 matchmaking, dates per cycle (Figure 1)",
            Spreader::Push => "informed nodes push to a uniform target",
            Spreader::Pull => "uninformed nodes pull; targets answer every request",
            Spreader::PushPull => "push and pull combined, unfair answers",
            Spreader::FairPull => "pull with one answer per informed node per round",
            Spreader::FairPushPull => "push plus fair pull (bandwidth-honest yardstick)",
            Spreader::Dating => "rumor rides the dating service's dates (§3)",
            Spreader::LossyDating => "dating spread with i.i.d. payload loss (§5)",
        }
    }

    /// Reverse lookup by string key (the registry half of the API).
    /// Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Spreader> {
        Spreader::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether this workload spreads a rumor (has a source, halts on
    /// full information) as opposed to measuring the dating service.
    pub fn is_spreading(self) -> bool {
        self != Spreader::DatingService
    }

    /// Whether this workload has a continuous-time port
    /// ([`AsyncSpread`](crate::adapters::AsyncSpread)) and can run under
    /// [`TimeModel::Continuous`](crate::scenario::TimeModel). The five
    /// uniform-gossip baselines do; the dating-based workloads do not —
    /// their matchmaking step is a barrier over a whole inbox, which has
    /// no one-node-at-a-time reading.
    pub fn supports_continuous(self) -> bool {
        matches!(
            self,
            Spreader::Push
                | Spreader::Pull
                | Spreader::PushPull
                | Spreader::FairPull
                | Spreader::FairPushPull
        )
    }
}

impl std::fmt::Display for Spreader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in Spreader::ALL {
            assert_eq!(Spreader::from_name(s.name()), Some(s), "{s}");
            assert!(!s.describe().is_empty());
        }
        assert_eq!(Spreader::from_name("no-such-protocol"), None);
    }

    #[test]
    fn registry_covers_all_eight() {
        assert_eq!(Spreader::ALL.len(), 8);
        assert!(!Spreader::DatingService.is_spreading());
        assert_eq!(
            Spreader::ALL.iter().filter(|s| s.is_spreading()).count(),
            7,
            "every workload but the dating service spreads a rumor"
        );
        assert_eq!(
            Spreader::ALL
                .iter()
                .filter(|s| s.supports_continuous())
                .count(),
            5,
            "the five uniform-gossip baselines have async ports"
        );
        assert!(!Spreader::DatingService.supports_continuous());
        assert!(!Spreader::Dating.supports_continuous());
        assert!(!Spreader::LossyDating.supports_continuous());
        let mut names: Vec<_> = Spreader::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "names must be unique");
    }

    #[test]
    fn legacy_legend_names_resolve() {
        // The legend of the paper's Figure 2 plus the lossy variant, as
        // the experiment tables print it.
        for legend in [
            "push",
            "pull",
            "push-pull",
            "fair-pull",
            "push-fair-pull",
            "dating",
            "dating-lossy",
        ] {
            assert!(Spreader::from_name(legend).is_some(), "{legend}");
        }
    }
}
