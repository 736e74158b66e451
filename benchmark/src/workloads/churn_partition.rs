//! `churn_partition` — WILDFIRE, SPANNINGTREE and DAG(k=2) on 4000
//! hosts while 10% of them fail at a uniform rate and a BFS cut that
//! severs the 30% farthest from `hq` is active for the first half of
//! the query. The same engine as `wildfire_static` used differently: the
//! churn-source, alive-set and partition-check path instead of the
//! static fast path, and a long membership trace that makes the oracle's
//! `host_sets` expensive. A static-path win that costs the dynamic path
//! shows here.

use super::{judged_plan_traced, stream, sub_seed, tally_plans, Net, Size, Workload};
use crate::probes::{self, Layers};
use crate::span::Tracer;
use crate::tally::{Gate, Tally};
use pov_core::judged::{judged_plan, ProtocolJudged};
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::{Aggregate, ProtocolKind, RunPlan};
use pov_core::pov_sim::{ChurnPlan, PartitionPlan, Time};
use pov_core::pov_topology::HostId;

/// Generated inputs.
pub struct ChurnPartition {
    net: Net,
    /// One fully materialised plan per seed; each is one unit of an
    /// iteration.
    plans: Vec<RunPlan>,
}

impl Workload for ChurnPartition {
    type Output = Vec<ProtocolJudged>;

    fn setup(seed: u64, size: Size, t: &mut Tracer) -> Self {
        let net = Net::random(size.pick(4_000, 300), size.pick(16, 12), seed, t);
        let n = net.graph.num_hosts();
        let hq = HostId(0);
        let base = RunPlan::query(Aggregate::Count)
            .d_hat(net.d_hat)
            .from_host(hq)
            .protocols([
                ProtocolKind::Wildfire(WildfireOpts::default()),
                ProtocolKind::SpanningTree,
                ProtocolKind::Dag { k: 2 },
            ]);
        let deadline = base.deadline();
        let plans = (0..size.pick(5, 2))
            .map(|i| {
                let churn = t.span("sim.plan_churn", |_| {
                    ChurnPlan::uniform_failures(
                        n,
                        n / 10,
                        Time(0),
                        Time(deadline),
                        hq,
                        sub_seed(seed, stream::RUN + 2 * i + 1),
                    )
                });
                let cut = t.span("sim.plan_partition", |_| {
                    // Cut off the 30% farthest from hq, from the first tick.
                    // hq's side is then a BFS ball around hq: connected,
                    // and 70% of the hosts on every topology. A ball around
                    // a far pivot leaves hq's side in fragments on some
                    // topologies, and a cut that closes a few ticks in
                    // either catches the broadcast outside or lets it
                    // slip in; both make the work per iteration a coin
                    // flip of the seed.
                    PartitionPlan::split_bfs(&net.graph, hq, 0.7)
                        .window(Time(0), Time(deadline / 2))
                });
                base.clone()
                    .seed(sub_seed(seed, stream::RUN + 2 * i))
                    .churn(churn)
                    .partition(cut)
            })
            .collect();
        ChurnPartition { net, plans }
    }

    fn units(&self) -> usize {
        self.plans.len()
    }

    fn run_unit(&self, unit: usize, t: &mut Tracer) -> Self::Output {
        let Net { graph, values, .. } = &self.net;
        if t.enabled() {
            judged_plan_traced(graph, values, &self.plans[unit], t)
        } else {
            judged_plan(graph, values, &self.plans[unit])
        }
    }

    fn tally(&self, out: &[Self::Output]) -> Tally {
        tally_plans(out)
    }

    fn verify(&self, out: &[Self::Output], gate: &mut Gate) {
        // Paired comparison: every protocol of one plan is judged on the
        // same realization, so all see the same |HU| whenever they
        // declare at the same instant.
        for judged in out {
            let hu = |p: &ProtocolJudged| (p.one().declared_at, p.one().hu_size);
            let same_end: Vec<_> = judged
                .iter()
                .filter(|p| hu(p).0 == hu(&judged[0]).0)
                .collect();
            gate.check(same_end.iter().all(|p| hu(p) == hu(&judged[0])), || {
                "protocols sharing a declaration instant disagree on |HU|".into()
            });
        }
    }

    fn probes(&self, size: Size, t: &mut Tracer, layers: &mut Layers) {
        let Net { graph, values, .. } = &self.net;
        probes::topology(graph, layers);
        probes::engine(graph, t, layers);
        probes::engine_under_churn(graph, &self.plans[0], t, layers);
        probes::sketches(self.plans[0].seed, size, layers);
        probes::telemetry(
            ProtocolKind::SpanningTree,
            graph,
            values,
            &self.plans[0],
            t,
            layers,
        );
    }
}
