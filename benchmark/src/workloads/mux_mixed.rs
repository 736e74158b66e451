//! `mux_mixed` — 200 mixed COUNT/SUM/MIN/MAX/AVG queries multiplexed
//! over one simulation of 4000 hosts under 5% churn (the `repro mux
//! --quick` preset, seeded). The second engine surface: `run_mux`,
//! `MuxPartial` and the per-host partial caches; it bypasses `runner`,
//! sketches and `RunPlan` entirely.

use super::{stream, sub_seed, Net, Size, Workload};
use crate::probes::{self, Layers};
use crate::span::Tracer;
use crate::tally::{Gate, Tally};
use pov_core::mux::{judge_workload, judged_mux, solo_twin, MuxJudged, WorkloadSpec};
use pov_core::pov_protocols::{run_mux, Aggregate, MuxOutcome, MuxPlan, MuxQuery, RunPlan};
use pov_core::pov_sim::{ChurnPlan, Time};
use pov_core::pov_topology::HostId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How many non-joined queries the gate replays as solo twins.
const TWINS: usize = 16;

/// Generated inputs.
pub struct MuxMixed {
    net: Net,
    queries: Vec<MuxQuery>,
    plan: MuxPlan,
    seed: u64,
}

impl Workload for MuxMixed {
    type Output = (Vec<MuxJudged>, MuxOutcome);

    fn setup(seed: u64, size: Size, t: &mut Tracer) -> Self {
        let net = Net::random(size.pick(4_000, 300), size.pick(16, 12), seed, t);
        let n = net.graph.num_hosts();
        let spec = WorkloadSpec {
            queries: size.pick(200, 24),
            span: 2 * u64::from(net.d_hat),
            d_hat: net.d_hat,
            window: None,
            seed: sub_seed(seed, stream::SCHEDULE),
        };
        let queries = t.span("core.mux_generate", |_| spec.generate(n));
        let horizon = queries.iter().map(MuxQuery::deadline).max().unwrap_or(0) + 2;
        let churn = t.span("sim.plan_churn", |_| {
            ChurnPlan::uniform_failures(
                n,
                n / 20,
                Time(1),
                Time(horizon),
                HostId(0),
                sub_seed(seed, stream::RUN + 1),
            )
        });
        let plan = MuxPlan {
            churn,
            partition: None,
            seed: sub_seed(seed, stream::RUN),
        };
        MuxMixed {
            net,
            queries,
            plan,
            seed,
        }
    }

    fn units(&self) -> usize {
        1
    }

    fn run_unit(&self, _: usize, t: &mut Tracer) -> Self::Output {
        let Net { graph, values, .. } = &self.net;
        if !t.enabled() {
            return judged_mux(graph, values, &self.queries, &self.plan);
        }
        let out = t.span("protocols.run_mux", |_| {
            run_mux(graph, values, &self.queries, &self.plan)
        });
        t.count("protocols.mux_raw_messages", out.raw_messages);
        t.count("protocols.mux_payload_items", out.payload_items);
        t.count("protocols.mux_cache_joins", out.cache_joins);
        t.count("protocols.events", out.metrics.events_dispatched);
        t.count("oracle.trace_events", out.trace.events.len() as u64);
        let judged = t.span("core.judge_workload", |_| {
            judge_workload(graph, values, &self.queries, &out)
        });
        (judged, out)
    }

    fn tally(&self, out: &[Self::Output]) -> Tally {
        let (judged, out) = &out[0];
        let mut tally = Tally::default();
        for j in judged {
            tally.answer(
                j.value,
                j.declared_at.map(Time::ticks),
                j.payload_msgs,
                j.is_valid(),
            );
            tally.sets(j.hc_size, j.hu_size, j.bounds);
        }
        // The price of an answer is what the shared substrate actually
        // sent, not the payload items each query was charged.
        tally.messages = out.raw_messages;
        tally
    }

    fn verify(&self, out: &[Self::Output], gate: &mut Gate) {
        let (judged, _) = &out[0];
        // A non-joined query's multiplexed trajectory is independent of
        // its co-residents: its solo twin must agree bit for bit.
        let Net { graph, values, .. } = &self.net;
        let mut sample: Vec<&MuxJudged> = judged.iter().filter(|j| !j.joined).collect();
        let mut rng = SmallRng::seed_from_u64(sub_seed(self.seed, stream::SCHEDULE + 1));
        sample.shuffle(&mut rng);
        for j in sample.into_iter().take(TWINS) {
            let twin = solo_twin(graph, values, &j.query, &self.plan);
            gate.check(
                (j.value, j.declared_at, j.is_valid())
                    == (twin.value, twin.declared_at, twin.is_valid()),
                || {
                    format!(
                        "query {}: mux declared {:?} at {:?}, solo twin {:?} at {:?}",
                        j.query.id.0, j.value, j.declared_at, twin.value, twin.declared_at
                    )
                },
            );
        }
    }

    fn probes(&self, _: Size, t: &mut Tracer, layers: &mut Layers) {
        let graph = &self.net.graph;
        probes::topology(graph, layers);
        probes::engine(graph, t, layers);
        // The flood-under-churn probe takes a RunPlan's environment half.
        let env = RunPlan::query(Aggregate::Count)
            .churn(self.plan.churn.clone())
            .seed(self.plan.seed);
        probes::engine_under_churn(graph, &env, t, layers);
    }
}
