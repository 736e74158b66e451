//! The six workloads and what they share: seed derivation, the
//! `judged_run` / `judged_plan` re-compositions the traced run uses to
//! put a span at every layer boundary, and the answer tally.

pub mod churn_partition;
pub mod continuous_lifecycle;
pub mod mux_mixed;
pub mod scale_tree;
pub mod scn_pipeline;
pub mod wildfire_static;

use crate::probes::Layers;
use crate::span::Tracer;
use crate::tally::{Gate, Tally};
use pov_core::judged::{window_local_plans, JudgedOutcome, ProtocolJudged, WindowJudged};
use pov_core::pov_oracle::{aggregate_bounds, host_sets, Verdict};
use pov_core::pov_protocols::{runner, ProtocolKind, RunPlan};
use pov_core::pov_sim::Time;
use pov_core::pov_topology::generators::TopologyKind;
use pov_core::pov_topology::{analysis, Graph};
use pov_core::workload::paper_values;

/// Input scale: the measured sizes, or a tiny version for `cargo test`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark reports.
    Full,
    /// Seconds-for-everything sizes (`--smoke`, unit tests).
    Smoke,
}

impl Size {
    /// `full` or `smoke`, whichever this is.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// One benchmark workload: inputs generated from a seed, one iteration
/// of the user-visible work, and the checks and layer probes around it.
///
/// An iteration is a fixed sequence of *units*, each one call into the
/// crates' public entry points (one scenario through the pipeline, one
/// seed's `judged_run`, …); the harness runs them in order and times
/// the iteration as a whole.
pub trait Workload: Sized {
    /// What one unit returns (kept for the tally and the gate).
    type Output;

    /// Generate every input from `seed` — this is what `setup_s` times.
    /// The crates under test never see `seed`, only what it generated.
    fn setup(seed: u64, size: Size, t: &mut Tracer) -> Self;

    /// Units per iteration.
    fn units(&self) -> usize;

    /// Run unit `unit`. With a disabled tracer this is the user's own
    /// call path; with an enabled one, the same work re-composed from
    /// the same public calls with a span around each.
    fn run_unit(&self, unit: usize, t: &mut Tracer) -> Self::Output;

    /// Reduce an iteration's outputs (one per unit, in unit order) to
    /// the reported numbers.
    fn tally(&self, out: &[Self::Output]) -> Tally;

    /// Workload-specific correctness checks, outside any timed region.
    fn verify(&self, out: &[Self::Output], gate: &mut Gate);

    /// Per-layer probes on this workload's own inputs (traced run only).
    fn probes(&self, size: Size, t: &mut Tracer, layers: &mut Layers);
}

/// An independent input seed for purpose `stream`, derived from the
/// benchmark seed (SplitMix64 finalizer over the pair).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed streams shared by the graph workloads.
pub mod stream {
    /// Topology generator.
    pub const TOPOLOGY: u64 = 1;
    /// Per-host attribute values.
    pub const VALUES: u64 = 2;
    /// Diameter probe start hosts.
    pub const DIAMETER: u64 = 3;
    /// Mux arrival process / phase lowering.
    pub const SCHEDULE: u64 = 4;
    /// First of the per-run streams: run `i` draws engine seed
    /// `RUN + 2·i` and churn seed `RUN + 2·i + 1`.
    pub const RUN: u64 = 16;
}

/// The graph inputs every simulation workload starts from.
pub struct Net {
    /// The topology.
    pub graph: Graph,
    /// One attribute value per host.
    pub values: Vec<u64>,
    /// `D̂`, the stable-diameter overestimate queries are issued with.
    pub d_hat: u32,
}

impl Net {
    /// A random (average degree 5) topology of `n` hosts with paper-Zipf
    /// values, every random choice drawn from `seed`'s streams.
    ///
    /// `D̂` is the workload's declared overestimate `d_hat`, raised to the
    /// repo-wide "probed diameter + 2" should a topology ever need it.
    /// The probe alone moves by ±1 from seed to seed, and every deadline
    /// — hence every workload's message and event count — scales with
    /// `D̂`; pinning it keeps the work per iteration the same size across
    /// seeds, so timings of different seeds stay comparable.
    pub fn random(n: usize, d_hat: u32, seed: u64, t: &mut Tracer) -> Net {
        let graph = t.span("topology.build", |_| {
            TopologyKind::Random.build(n, sub_seed(seed, stream::TOPOLOGY))
        });
        let values = paper_values(graph.num_hosts(), sub_seed(seed, stream::VALUES));
        let probed = t.span("topology.diameter", |_| {
            analysis::diameter_estimate(&graph, 4, sub_seed(seed, stream::DIAMETER))
        });
        let d_hat = d_hat.max(probed + 2);
        Net {
            graph,
            values,
            d_hat,
        }
    }
}

fn run_span(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::Wildfire(_) => "protocols.run.wildfire",
        ProtocolKind::SpanningTree => "protocols.run.spanning_tree",
        ProtocolKind::Dag { .. } => "protocols.run.dag",
        other => panic!("no span name for {}", other.name()),
    }
}

/// `judged_run`, re-composed from the public calls it makes so each
/// layer gets its own span under a `core.judged` parent.
pub fn judged_run_traced(
    kind: ProtocolKind,
    graph: &Graph,
    values: &[u64],
    plan: &RunPlan,
    t: &mut Tracer,
) -> JudgedOutcome {
    t.span("core.judged", |t| {
        let outcome = t.span(run_span(kind), |_| runner::run(kind, graph, values, plan));
        t.count("protocols.events", outcome.metrics.events_dispatched);
        t.count("protocols.messages", outcome.metrics.messages_sent);
        t.count("oracle.trace_events", outcome.trace.events.len() as u64);
        let end = outcome.declared_at.unwrap_or(Time(plan.deadline()));
        let sets = t.span("oracle.host_sets", |_| {
            host_sets(graph, &outcome.trace, plan.hq, Time::ZERO, end)
        });
        let verdict = t.span("oracle.judge", |_| {
            Verdict::judge(
                plan.aggregate,
                &sets,
                values,
                outcome.value.unwrap_or(f64::NAN),
            )
        });
        JudgedOutcome {
            value: outcome.value,
            declared_at: outcome.declared_at,
            verdict,
            hc_size: sets.hc_len(),
            hu_size: sets.hu_len(),
            bounds: aggregate_bounds(plan.aggregate, &sets, values),
            metrics: outcome.metrics,
        }
    })
}

/// `judged_plan`, re-composed the same way: window slicing under
/// `core.window_plans` (continuous plans only), then one traced
/// [`judged_run_traced`] per protocol per window.
pub fn judged_plan_traced(
    graph: &Graph,
    values: &[u64],
    plan: &RunPlan,
    t: &mut Tracer,
) -> Vec<ProtocolJudged> {
    let locals = if plan.continuous.is_some() {
        t.span("core.window_plans", |_| window_local_plans(graph, plan))
    } else {
        vec![(Time::ZERO, plan.clone())]
    };
    plan.protocols
        .iter()
        .map(|&kind| ProtocolJudged {
            kind,
            windows: locals
                .iter()
                .map(|(start, local)| WindowJudged {
                    start: *start,
                    judged: judged_run_traced(kind, graph, values, local, t),
                })
                .collect(),
        })
        .collect()
}

/// Fold one judged outcome into `tally`.
pub fn tally_judged(tally: &mut Tally, j: &JudgedOutcome) {
    tally.answer(
        j.value,
        j.time_cost(),
        j.metrics.messages_sent,
        j.verdict.is_valid(),
    );
    tally.sets(j.hc_size, j.hu_size, j.bounds);
}

/// Fold `judged_plan` results into a tally, plan by plan, protocol-major.
pub fn tally_plans(runs: &[Vec<ProtocolJudged>]) -> Tally {
    let mut tally = Tally::default();
    for judged in runs.iter().flatten() {
        for w in &judged.windows {
            tally_judged(&mut tally, &w.judged);
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_core::judged::{judged_plan, judged_run};
    use pov_core::pov_protocols::wildfire::WildfireOpts;
    use pov_core::pov_protocols::Aggregate;
    use pov_core::pov_sim::ChurnPlan;
    use pov_core::pov_topology::HostId;

    #[test]
    fn sub_seeds_differ_by_seed_and_stream() {
        assert_eq!(sub_seed(7, 1), sub_seed(7, 1));
        assert_ne!(sub_seed(7, 1), sub_seed(8, 1));
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
    }

    #[test]
    fn traced_recomposition_matches_the_public_entry_points() {
        let mut t = Tracer::new(true);
        let net = Net::random(200, 10, 5, &mut t);
        let n = net.graph.num_hosts();
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(net.d_hat)
            .churn(ChurnPlan::uniform_failures(
                n,
                20,
                Time(0),
                Time(2 * u64::from(net.d_hat)),
                HostId(0),
                3,
            ))
            .seed(11)
            .protocols([
                ProtocolKind::Wildfire(WildfireOpts::default()),
                ProtocolKind::SpanningTree,
            ]);
        let direct = judged_run(ProtocolKind::SpanningTree, &net.graph, &net.values, &plan);
        let traced = judged_run_traced(
            ProtocolKind::SpanningTree,
            &net.graph,
            &net.values,
            &plan,
            &mut t,
        );
        let (mut a, mut b) = (Tally::default(), Tally::default());
        tally_judged(&mut a, &direct);
        tally_judged(&mut b, &traced);
        assert_eq!(a, b);

        let continuous = plan.continuous(2 * u64::from(net.d_hat), 3);
        let direct = judged_plan(&net.graph, &net.values, &continuous);
        let traced = judged_plan_traced(&net.graph, &net.values, &continuous, &mut t);
        assert_eq!(tally_plans(&[direct]), tally_plans(&[traced]));
        assert!(t.spans().iter().any(|s| s.name == "core.window_plans"));
        assert!(t.spans().iter().any(|s| s.name == "oracle.host_sets"));
    }
}
