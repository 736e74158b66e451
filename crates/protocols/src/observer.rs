//! The protocol-observation hook for state-aware churn sources.
//!
//! A [`pov_sim::ChurnSource`] is polled with an engine view carrying
//! one [`StateSummary`] per host; the engine obtains each summary via
//! [`pov_sim::NodeLogic::summary`]. This module defines the protocol
//! side of that contract: [`ProtocolObserver`] is what a node type
//! implements to expose its query state (is it participating? how
//! "tall" is its current partial?), and each implementing node wires
//! its `NodeLogic::summary` through it.
//!
//! The hook deliberately exposes a *summary*, not the partial itself:
//! an adaptive adversary of the §3.2 model sees membership and coarse
//! protocol activity, and the sketch-maxima attack (the ROADMAP's
//! "adversary targeting the sketch") only needs a scalar ordering of
//! hosts by how much of the answer they currently carry.
//!
//! Implemented for [`WildfireNode`](crate::wildfire::WildfireNode),
//! [`SpanningTreeNode`](crate::spanning_tree::SpanningTreeNode) and
//! [`DagNode`](crate::dag::DagNode); ALLREPORT and GOSSIP keep the
//! default opaque summary.

use pov_sim::StateSummary;

/// Expose a host's protocol state to dynamic churn sources.
pub trait ProtocolObserver {
    /// The host's current observable state. Called by the engine on
    /// every churn-source poll; must be cheap and side-effect free.
    fn state_summary(&self) -> StateSummary;
}

/// The shared lowering: an activated host whose partial has sketch
/// weight `w` is active with weight `w`; a host the query has not
/// reached (`None`) is opaque.
pub(crate) fn summary_of(weight: Option<f64>) -> StateSummary {
    StateSummary {
        active: weight.is_some(),
        sketch_weight: weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Aggregate, Partial};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn inactive_hosts_are_opaque() {
        assert_eq!(summary_of(None), StateSummary::default());
    }

    #[test]
    fn active_hosts_expose_their_sketch_weight() {
        let mut rng = SmallRng::seed_from_u64(5);
        let p = Partial::init_sketched(Aggregate::Count, 1, 8, &mut rng);
        let s = summary_of(Some(p.sketch_weight()));
        assert!(s.active);
        assert_eq!(s.sketch_weight, Some(p.sketch_weight()));
    }
}
