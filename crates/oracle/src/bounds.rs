//! Computing `HC` and `HU` from a ground-truth trace.

use pov_sim::{Time, Trace};
use pov_topology::{analysis::Sweep, Graph, HostId};

/// The Single-Site-Validity host sets for a query interval `[start, end]`
/// observed from `hq`.
#[derive(Clone, Debug)]
pub struct HostSets {
    /// `HC`: hosts with at least one *stable path* to `hq` — a path whose
    /// every host (and hence every edge) stayed alive during the whole
    /// interval (§4.1). Contains `hq` itself iff `hq` survived.
    pub hc: Vec<bool>,
    /// `HU`: hosts alive at some instant of the interval.
    pub hu: Vec<bool>,
}

impl HostSets {
    /// Hosts in `HC`, ascending.
    pub fn hc_hosts(&self) -> Vec<HostId> {
        collect(&self.hc)
    }

    /// `|HC|`.
    pub fn hc_len(&self) -> usize {
        self.hc.iter().filter(|&&b| b).count()
    }

    /// `|HU|`.
    pub fn hu_len(&self) -> usize {
        self.hu.iter().filter(|&&b| b).count()
    }

    /// Attribute values of the `HC` hosts.
    pub fn hc_values(&self, values: &[u64]) -> Vec<u64> {
        self.hc
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| values[i])
            .collect()
    }

    /// Attribute values of the `HU` hosts.
    pub fn hu_values(&self, values: &[u64]) -> Vec<u64> {
        self.hu
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| values[i])
            .collect()
    }
}

fn collect(flags: &[bool]) -> Vec<HostId> {
    flags
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b)
        .map(|(i, _)| HostId(i as u32))
        .collect()
}

/// Compute `HC` and `HU` for the interval `[start, end]`.
///
/// `HC` is found by one reach-only [`Sweep`] from `hq` over the subgraph
/// induced by hosts alive *throughout* the interval: a path in that
/// subgraph is exactly a stable path. The invariant `HC ⊆ HU` always
/// holds (stable hosts are in particular alive at some instant).
pub fn host_sets(graph: &Graph, trace: &Trace, hq: HostId, start: Time, end: Time) -> HostSets {
    let throughout = trace.alive_throughout(start, end);
    let hu = trace.alive_sometime(start, end);
    let mut hc = vec![false; graph.num_hosts()];
    let mut sweep = Sweep::new(graph.num_hosts());
    sweep.reset(|h| throughout[h.index()]);
    sweep.search(graph, hq, |_, level| {
        for &h in level {
            hc[h.index()] = true;
        }
    });
    HostSets { hc, hu }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_sim::{ChurnPlan, Medium, NodeLogic, SimBuilder};
    use pov_topology::generators::special;

    /// Minimal do-nothing logic so we can run churn through the engine
    /// and harvest its trace.
    struct Idle;
    impl NodeLogic for Idle {
        type Msg = ();
        fn on_message(&mut self, _: &mut pov_sim::Ctx<'_, ()>, _: HostId, _: ()) {}
    }

    fn trace_for(graph: &pov_topology::Graph, churn: ChurnPlan, end: Time) -> Trace {
        let mut sim = SimBuilder::new(graph.clone())
            .medium(Medium::PointToPoint)
            .churn(churn)
            .build(|_| Idle);
        sim.run_until(end);
        sim.trace().clone()
    }

    #[test]
    fn no_churn_everything_in_both_sets() {
        let g = special::cycle(6);
        let trace = trace_for(&g, ChurnPlan::none(), Time(10));
        let sets = host_sets(&g, &trace, HostId(0), Time(0), Time(10));
        assert_eq!(sets.hc_len(), 6);
        assert_eq!(sets.hu_len(), 6);
    }

    #[test]
    fn failed_host_leaves_hc_but_stays_in_hu() {
        let g = special::cycle(6);
        let churn = ChurnPlan::none().with_failure(Time(5), HostId(3));
        let trace = trace_for(&g, churn, Time(10));
        let sets = host_sets(&g, &trace, HostId(0), Time(0), Time(10));
        assert!(!sets.hc[3]);
        assert!(sets.hu[3]);
        // On a cycle the others remain connected around the gap.
        assert_eq!(sets.hc_len(), 5);
        assert_eq!(sets.hu_len(), 6);
    }

    #[test]
    fn cut_vertex_failure_strands_downstream_hosts() {
        // Chain 0-1-2-3: host 1 dies; hosts 2,3 are alive but have no
        // stable path to hq = 0.
        let g = special::chain(4);
        let churn = ChurnPlan::none().with_failure(Time(2), HostId(1));
        let trace = trace_for(&g, churn, Time(10));
        let sets = host_sets(&g, &trace, HostId(0), Time(0), Time(10));
        assert_eq!(sets.hc_hosts(), vec![HostId(0)]);
        assert_eq!(sets.hu_len(), 4);
    }

    #[test]
    fn hq_failure_empties_hc() {
        let g = special::cycle(4);
        let churn = ChurnPlan::none().with_failure(Time(1), HostId(0));
        let trace = trace_for(&g, churn, Time(10));
        let sets = host_sets(&g, &trace, HostId(0), Time(0), Time(10));
        assert_eq!(sets.hc_len(), 0);
        assert_eq!(sets.hu_len(), 4);
    }

    #[test]
    fn join_mid_interval_in_hu_not_hc() {
        let g = special::cycle(4);
        let churn = ChurnPlan::none().with_join(Time(5), HostId(2));
        let trace = trace_for(&g, churn, Time(10));
        let sets = host_sets(&g, &trace, HostId(0), Time(0), Time(10));
        assert!(!sets.hc[2], "late joiner has no stable path over [0,10]");
        assert!(sets.hu[2]);
        // But over a window after the join it is stable.
        let sets = host_sets(&g, &trace, HostId(0), Time(6), Time(10));
        assert!(sets.hc[2]);
    }

    #[test]
    fn hc_subset_of_hu_under_heavy_churn() {
        let g = pov_topology::generators::random_average_degree(200, 4.0, 9);
        let churn = ChurnPlan::uniform_failures(200, 60, Time(0), Time(20), HostId(0), 3);
        let trace = trace_for(&g, churn, Time(30));
        let sets = host_sets(&g, &trace, HostId(0), Time(0), Time(30));
        for i in 0..200 {
            assert!(!sets.hc[i] || sets.hu[i], "HC ⊄ HU at host {i}");
        }
        assert!(sets.hc_len() <= 140);
        assert_eq!(sets.hu_len(), 200);
    }

    #[test]
    fn values_projection() {
        let g = special::chain(3);
        let churn = ChurnPlan::none().with_failure(Time(1), HostId(1));
        let trace = trace_for(&g, churn, Time(5));
        let sets = host_sets(&g, &trace, HostId(0), Time(0), Time(5));
        let values = [10u64, 20, 30];
        assert_eq!(sets.hc_values(&values), vec![10]);
        assert_eq!(sets.hu_values(&values), vec![10, 20, 30]);
    }
}
