//! `continuous_lifecycle` — WILDFIRE and SPANNINGTREE re-issued over
//! 600 continuous windows while 300 hosts live through
//! `PhaseSchedule::lifecycle` (grow, plateau, shrink, partition, heal).
//! Thousands of tiny per-window simulations: window slicing, per-window
//! `SimBuilder::build` and per-window oracle replay dominate — the path
//! ROADMAP 3(b) wants to replace with one absolute timeline.

use super::{judged_plan_traced, stream, sub_seed, tally_plans, Net, Size, Workload};
use crate::probes::{self, Layers};
use crate::span::Tracer;
use crate::tally::{Gate, Tally};
use pov_core::judged::{judged_plan, window_starts, ProtocolJudged};
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::{Aggregate, ProtocolKind, RunPlan};
use pov_core::pov_sim::PhaseSchedule;

/// Generated inputs.
pub struct ContinuousLifecycle {
    net: Net,
    plan: RunPlan,
}

impl Workload for ContinuousLifecycle {
    type Output = Vec<ProtocolJudged>;

    fn setup(seed: u64, size: Size, t: &mut Tracer) -> Self {
        let net = Net::random(300, 12, seed, t);
        // Query from the best-connected host. The lifecycle starts with
        // 30% of the hosts down and sheds more; a sparsely connected hq
        // can sit alone among the living for most of the arc, and the
        // whole iteration shrinks to a ninth of the usual work (seen on
        // one seed in ten with hq = host 0).
        let hq = net
            .graph
            .hosts()
            .max_by_key(|&h| (net.graph.degree(h), std::cmp::Reverse(h.0)))
            .expect("non-empty graph");
        let base = RunPlan::query(Aggregate::Count)
            .d_hat(net.d_hat)
            .from_host(hq)
            .protocols([
                ProtocolKind::Wildfire(WildfireOpts::default()),
                ProtocolKind::SpanningTree,
            ]);
        // Back-to-back deadline-sized windows across the whole arc.
        let window = base.deadline();
        let windows = size.pick(600, 8);
        let lowered = t.span("sim.plan_phases", |_| {
            PhaseSchedule::lifecycle(window * windows as u64).lower(
                &net.graph,
                hq,
                sub_seed(seed, stream::SCHEDULE),
            )
        });
        let mut plan = base
            .churn(lowered.churn)
            .continuous(window, windows)
            .seed(sub_seed(seed, stream::RUN));
        if let Some(cut) = lowered.partition {
            plan = plan.partition(cut);
        }
        ContinuousLifecycle { net, plan }
    }

    fn units(&self) -> usize {
        1
    }

    fn run_unit(&self, _: usize, t: &mut Tracer) -> Self::Output {
        let Net { graph, values, .. } = &self.net;
        if t.enabled() {
            judged_plan_traced(graph, values, &self.plan, t)
        } else {
            judged_plan(graph, values, &self.plan)
        }
    }

    fn tally(&self, out: &[Self::Output]) -> Tally {
        tally_plans(out)
    }

    fn verify(&self, out: &[Self::Output], gate: &mut Gate) {
        // The lifecycle spares hq, so no series stops early and every
        // window starts where the plan says it does.
        let starts = window_starts(&self.plan);
        for judged in &out[0] {
            let got: Vec<_> = judged.windows.iter().map(|w| w.start).collect();
            gate.check(got == starts, || {
                format!(
                    "{}: judged {} of {} planned windows",
                    judged.kind.name(),
                    got.len(),
                    starts.len()
                )
            });
        }
    }

    fn probes(&self, size: Size, t: &mut Tracer, layers: &mut Layers) {
        let graph = &self.net.graph;
        probes::topology(graph, layers);
        probes::engine(graph, t, layers);
        probes::engine_under_churn(graph, &self.plan, t, layers);
        probes::sketches(self.plan.seed, size, layers);
    }
}
