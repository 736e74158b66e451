//! `wildfire_static` — WILDFIRE COUNT over FM sketches on a static
//! random graph. The event queue, dispatch, the protocol handler and
//! sketch merging do nearly all the work; churn, partition and the
//! oracle do almost none, so an engine-hot-path change shows here first.

use super::{judged_run_traced, stream, sub_seed, tally_judged, Net, Size, Workload};
use crate::probes::{self, Layers};
use crate::span::Tracer;
use crate::tally::{Gate, Tally};
use pov_core::judged::{judged_run, JudgedOutcome};
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::{Aggregate, ProtocolKind, RunPlan};
use pov_core::pov_topology::HostId;

const KIND: ProtocolKind = ProtocolKind::Wildfire(WildfireOpts {
    early_deadline: true,
    piggyback: true,
});

/// Generated inputs.
pub struct WildfireStatic {
    net: Net,
    /// One plan per engine seed; each is one unit of an iteration.
    plans: Vec<RunPlan>,
    seed: u64,
}

impl Workload for WildfireStatic {
    type Output = JudgedOutcome;

    fn setup(seed: u64, size: Size, t: &mut Tracer) -> Self {
        let net = Net::random(size.pick(6_000, 300), size.pick(16, 12), seed, t);
        let plans = (0..size.pick(5, 2))
            .map(|i| {
                RunPlan::query(Aggregate::Count)
                    .d_hat(net.d_hat)
                    .from_host(HostId(0))
                    .seed(sub_seed(seed, stream::RUN + 2 * i))
            })
            .collect();
        WildfireStatic { net, plans, seed }
    }

    fn units(&self) -> usize {
        self.plans.len()
    }

    fn run_unit(&self, unit: usize, t: &mut Tracer) -> Self::Output {
        let Net { graph, values, .. } = &self.net;
        if t.enabled() {
            judged_run_traced(KIND, graph, values, &self.plans[unit], t)
        } else {
            judged_run(KIND, graph, values, &self.plans[unit])
        }
    }

    fn tally(&self, out: &[Self::Output]) -> Tally {
        let mut tally = Tally::default();
        out.iter().for_each(|j| tally_judged(&mut tally, j));
        tally
    }

    fn verify(&self, out: &[Self::Output], gate: &mut Gate) {
        // Nobody fails and nothing is cut: the oracle must see every
        // host on both sides of the envelope, and hq must declare.
        let n = self.net.graph.num_hosts();
        for j in out {
            gate.check(
                j.value.is_some() && (j.hc_size, j.hu_size) == (n, n),
                || {
                    format!(
                        "static run judged over |HC|={} |HU|={} (n={n}), value {:?}",
                        j.hc_size, j.hu_size, j.value
                    )
                },
            );
        }
    }

    fn probes(&self, size: Size, t: &mut Tracer, layers: &mut Layers) {
        let Net { graph, values, .. } = &self.net;
        probes::topology(graph, layers);
        probes::engine(graph, t, layers);
        probes::sketches(sub_seed(self.seed, stream::SCHEDULE), size, layers);
        probes::telemetry(KIND, graph, values, &self.plans[0], t, layers);
    }
}
