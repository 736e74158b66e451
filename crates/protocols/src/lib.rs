//! Aggregation protocols for dynamic networks — the algorithms evaluated
//! in *"The Price of Validity in Dynamic Networks"* (Bawa et al.).
//!
//! | Protocol | Paper | Semantics under failures |
//! |----------|-------|--------------------------|
//! | [`allreport`]   | Fig 2, §4.1 | Single-Site Validity (naive, expensive) |
//! | [`allreport::AllReportNode::randomized_query_host`] | §4.3 | Approximate Single-Site Validity |
//! | [`spanning_tree`] | §4.4 | best-effort; arbitrarily bad (Thm 4.4) |
//! | [`dag`] | §4.4 | best-effort with `k`-parent redundancy |
//! | [`wildfire`] | §5 | Single-Site Validity (min/max exact; count/sum/avg within FM factor) |
//! | [`gossip`] | §2.2 | eventual consistency (push-sum baseline) |
//! | [`mux`] | §4.4 × N | best-effort per query; many queries share one substrate |
//!
//! All protocols implement [`pov_sim::NodeLogic`] and are driven by the
//! shared runner in [`runner`], which wires a topology, per-host values,
//! a churn plan and a query into one deterministic simulation and
//! returns an [`Outcome`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allreport;
mod common;
pub mod dag;
pub mod gossip;
pub mod mux;
pub mod runner;
pub mod spanning_tree;
pub mod wildfire;

pub use common::{Aggregate, ExactPartial, Operator, Partial, QuerySpec};
pub use mux::{run_mux, MuxOutcome, MuxPlan, MuxQuery, QueryId};
pub use pov_overlay::OverlayConfig;
pub use runner::{AdversarySpec, ContinuousSpec, Outcome, ProtocolKind, RunPlan};

#[cfg(test)]
mod smoke {
    use super::*;
    use crate::wildfire::WildfireOpts;
    use pov_topology::generators::special;

    #[test]
    fn crate_root_smoke() {
        // A 10-host WILDFIRE max round over a cycle, no churn: the exact
        // maximum must come back (Theorem 5.1).
        let g = special::cycle(10);
        let values: Vec<u64> = (1..=10).collect();
        let plan = RunPlan::query(Aggregate::Max).d_hat(5).seed(42);
        let outcome = runner::run(
            ProtocolKind::Wildfire(WildfireOpts::default()),
            &g,
            &values,
            &plan,
        );
        assert_eq!(outcome.value, Some(10.0));
        assert!(outcome.metrics.messages_sent > 0);
    }
}
