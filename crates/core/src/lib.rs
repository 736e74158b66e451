//! # The Price of Validity in Dynamic Networks
//!
//! A faithful, laptop-scale reproduction of Bawa, Gionis, Garcia-Molina &
//! Motwani, *"The Price of Validity in Dynamic Networks"* (SIGMOD 2004 /
//! JCSS 73 (2007) 245–264): Single-Site-Validity semantics for aggregate
//! queries over networks whose hosts fail mid-query, the WILDFIRE
//! protocol that guarantees them, the best-effort baselines it is judged
//! against, and every experiment of the paper's evaluation section.
//!
//! ## Quick start
//!
//! ```
//! use pov_core::prelude::*;
//!
//! // A 500-host Gnutella-like overlay where 40 hosts fail mid-query.
//! let net = Network::build(TopologyKind::Gnutella, 500, 42);
//! let answer = net
//!     .query(Aggregate::Max)
//!     .churn(40)
//!     .run(ProtocolKind::Wildfire(WildfireOpts::default()));
//!
//! // The oracle judges the declared value against the Single-Site-
//! // Validity bounds (Theorem 5.1: WILDFIRE max is exactly valid).
//! assert!(answer.verdict.is_valid());
//! ```
//!
//! ## Layout
//!
//! * [`Network`] / [`QueryBuilder`] — the high-level façade used above;
//! * [`workload`] — Zipf attribute values on `[10, 500]` (§6.1);
//! * [`experiments`] — one driver per figure of §6, and the registry
//!   `repro` runs them from (its module docs carry the per-experiment
//!   index; `docs/ARCHITECTURE.md` maps the crates underneath);
//! * [`judged`] — the shared execution layer: run one protocol and
//!   judge it, or execute a whole `RunPlan` (N protocols × continuous
//!   windows, one churn realization) for the façade and the
//!   `pov_scenario` batch runner;
//! * [`continuous`] — sliding-window Continuous Single-Site Validity
//!   (§4.2);
//! * [`capture_recapture`] — the Jolly–Seber network-size estimator
//!   (§5.4);
//! * [`ring_estimator`] — the DHT-ring segment-length estimator (§5.4);
//! * re-exported substrates: [`pov_topology`], [`pov_sim`],
//!   [`pov_sketch`], [`pov_protocols`], [`pov_oracle`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture_recapture;
pub mod continuous;
pub mod experiments;
mod facade;
pub mod judged;
pub mod mux;
pub mod report;
pub mod ring_estimator;
pub mod workload;

pub use facade::{Network, QueryBuilder};

// Substrate re-exports so downstream users need only one dependency.
pub use pov_oracle;
pub use pov_protocols;
pub use pov_sim;
pub use pov_sketch;
pub use pov_topology;

/// One-line imports for examples and tests.
pub mod prelude {
    pub use crate::facade::{Network, QueryBuilder};
    pub use crate::judged::{judged_plan, judged_run, JudgedOutcome, ProtocolJudged, WindowJudged};
    pub use crate::workload;
    pub use pov_oracle::{host_sets, Verdict};
    pub use pov_protocols::wildfire::WildfireOpts;
    pub use pov_protocols::{Aggregate, ContinuousSpec, ProtocolKind, RunPlan};
    pub use pov_sim::{ChurnPlan, DelayModel, Medium, Time};
    pub use pov_topology::generators::TopologyKind;
    pub use pov_topology::{Graph, HostId};
}

#[cfg(test)]
mod smoke {
    use crate::prelude::*;

    #[test]
    fn crate_root_smoke() {
        // The crate-level quick start at reduced scale: 100-host overlay,
        // 10 failures mid-query, WILDFIRE max stays exactly valid.
        let net = Network::build(TopologyKind::Random, 100, 42);
        let answer = net
            .query(Aggregate::Max)
            .churn(10)
            .run(ProtocolKind::Wildfire(WildfireOpts::default()));
        assert!(answer.verdict.is_valid());
    }
}
