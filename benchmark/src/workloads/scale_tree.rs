//! `scale_tree` — one exact SPANNINGTREE COUNT on a static random graph
//! of 400 000 hosts. Memory-bound: CSR locality, the per-host
//! structure-of-arrays and queue bucket growth decide the time, and it
//! is the only workload where set-up time and peak RSS are first-order.
//! Sharded delivery or a host relabelling must move this one.

use super::{judged_run_traced, stream, sub_seed, tally_judged, Net, Size, Workload};
use crate::probes::{self, Layers};
use crate::span::Tracer;
use crate::tally::{Gate, Tally};
use pov_core::judged::{judged_run, JudgedOutcome};
use pov_core::pov_protocols::{Aggregate, ProtocolKind, RunPlan};
use pov_core::pov_topology::HostId;

const KIND: ProtocolKind = ProtocolKind::SpanningTree;

/// Generated inputs.
pub struct ScaleTree {
    net: Net,
    plan: RunPlan,
}

impl Workload for ScaleTree {
    type Output = JudgedOutcome;

    fn setup(seed: u64, size: Size, t: &mut Tracer) -> Self {
        let net = Net::random(size.pick(400_000, 2_000), size.pick(20, 14), seed, t);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(net.d_hat)
            .from_host(HostId(0))
            .seed(sub_seed(seed, stream::RUN));
        ScaleTree { net, plan }
    }

    fn units(&self) -> usize {
        1
    }

    fn run_unit(&self, _: usize, t: &mut Tracer) -> Self::Output {
        let Net { graph, values, .. } = &self.net;
        if t.enabled() {
            judged_run_traced(KIND, graph, values, &self.plan, t)
        } else {
            judged_run(KIND, graph, values, &self.plan)
        }
    }

    fn tally(&self, out: &[Self::Output]) -> Tally {
        let mut tally = Tally::default();
        out.iter().for_each(|j| tally_judged(&mut tally, j));
        tally
    }

    fn verify(&self, out: &[Self::Output], gate: &mut Gate) {
        // An exact protocol on a static connected graph returns the
        // true aggregate, and that answer is valid.
        let n = self.net.graph.num_hosts();
        let out = &out[0];
        gate.check(
            out.value == Some(n as f64) && out.verdict.is_valid(),
            || format!("exact COUNT declared {:?} on {n} static hosts", out.value),
        );
    }

    fn probes(&self, _: Size, t: &mut Tracer, layers: &mut Layers) {
        let graph = &self.net.graph;
        probes::topology(graph, layers);
        probes::engine(graph, t, layers);
        probes::shard2(graph, t, layers);
    }
}
