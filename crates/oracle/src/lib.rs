//! The ORACLE of §6.2: an omniscient observer that replays the
//! simulator's membership trace and computes the Single-Site-Validity
//! bounds against which every protocol is judged.
//!
//! *"As a frame of reference, an ORACLE was devised that observes all
//! events in G. The ORACLE detects reachability of each host from `hq`,
//! and using this information it computes `HC` and `HU` as the lower and
//! upper bounds of Single-Site Validity. Clearly, such an ORACLE is not
//! feasible in practice."*
//!
//! * [`HostSets`] — `HC` (hosts with a stable path to `hq` over the
//!   whole query interval) and `HU` (hosts alive at some instant of it);
//! * [`Verdict`] — whether a declared value `v` equals `q(H)` for some
//!   `HC ⊆ H ⊆ HU` (§4.1), with interval bounds per aggregate;
//! * [`semantics`] — the §4 hierarchy as checkable predicates
//!   (Snapshot, Interval and Single-Site Validity).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
pub mod semantics;
mod verdict;

pub use bounds::{host_sets, HostSets};
pub use semantics::{interval_bounds, interval_sets, interval_valid, snapshot_valid};
pub use verdict::{aggregate_bounds, ssv_deviation, Verdict};

#[cfg(test)]
mod smoke {
    use super::*;
    use pov_sim::{ChurnPlan, Ctx, NodeLogic, SimBuilder, Time};
    use pov_topology::{generators::special, HostId};

    struct Idle;
    impl NodeLogic for Idle {
        type Msg = ();
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {}
    }

    #[test]
    fn crate_root_smoke() {
        let g = special::chain(4);
        let mut sim = SimBuilder::new(g.clone())
            .churn(ChurnPlan::none().with_failure(Time(1), HostId(1)))
            .build(|_| Idle);
        sim.run_until(Time(10));
        let sets = host_sets(&g, sim.trace(), HostId(0), Time(0), Time(10));
        // Host 1 died mid-interval: hosts 2 and 3 lose their stable path.
        assert_eq!(sets.hc_len(), 1);
        assert_eq!(sets.hu_len(), 4);
    }
}
