//! Per-layer probes: each times one layer's public entry points in
//! isolation, on the calling workload's own inputs, from outside the
//! crates. They run in the traced run only.

use crate::decl::PER_LAYER;
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::Size;
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::{runner, Aggregate, OverlayConfig, Partial, ProtocolKind, RunPlan};
use pov_core::pov_sim::{ChurnPlan, Ctx, NodeLogic, SimBuilder, Simulation, Time};
use pov_core::pov_sketch::{FmSketch, KmvSketch};
use pov_core::pov_topology::{analysis, Graph, HostId};
use pov_telemetry::{export, CellTrace, TickRecorder, TraceDoc};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The per-layer metric table of one traced run: every declared name,
/// `0` until a span, counter or probe sets it.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// All declared per-layer metrics, zeroed.
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Record `value` under a declared `name`.
    ///
    /// # Panics
    /// Panics on an undeclared name (a harness bug).
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared")) = value;
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// Median wall seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Probe repetitions: fewer on graphs where one flood takes a good
/// fraction of a second.
fn reps_for(graph: &Graph) -> usize {
    if graph.num_hosts() > 100_000 {
        3
    } else {
        7
    }
}

/// `topology.edges` and the two neighbour-sweep locality probes: walk
/// every host's `Graph::neighbors` slice and touch one word of per-host
/// state per neighbour — the access pattern of message delivery — with
/// the hosts visited in id order and in BFS order from host 0.
pub fn topology(graph: &Graph, layers: &mut Layers) {
    layers.set("topology.edges", graph.num_edges() as f64);
    let n = graph.num_hosts();
    let id_order: Vec<HostId> = graph.hosts().collect();
    let bfs_order = bfs_order(graph);
    let state: Vec<u32> = (0..n as u32).collect();
    let visits: usize = id_order.iter().map(|&h| graph.degree(h)).sum();
    // Small graphs sweep in microseconds: repeat to a few million visits.
    let rounds = (4_000_000 / visits.max(1)).max(1);
    let sweep = |order: &[HostId]| {
        let secs = median_secs(5, || {
            let mut acc = 0u64;
            for _ in 0..rounds {
                for &h in order {
                    for &nb in graph.neighbors(h) {
                        acc += u64::from(state[nb.index()]);
                    }
                }
            }
            black_box(acc);
        });
        secs * 1e9 / (rounds * visits.max(1)) as f64
    };
    layers.set("topology.neighbors_ns_idorder", sweep(&id_order));
    layers.set("topology.neighbors_ns_bfsorder", sweep(&bfs_order));
}

/// Hosts by BFS level from host 0 (id order within a level; hosts host 0
/// cannot reach sort last).
fn bfs_order(graph: &Graph) -> Vec<HostId> {
    let level = analysis::bfs_distances(graph, HostId(0));
    let mut order: Vec<HostId> = graph.hosts().collect();
    order.sort_by_key(|h| level[h.index()]);
    order
}

/// The engine's cheapest possible protocol: flood one token from host 0.
/// Everything it costs is queue push/pop, dispatch and delivery checks.
struct Flood {
    root: bool,
    seen: bool,
}

impl NodeLogic for Flood {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        if self.root && !self.seen {
            self.seen = true;
            ctx.broadcast(());
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, from: HostId, _: ()) {
        if !self.seen {
            self.seen = true;
            ctx.broadcast_except(Some(from), ());
        }
    }
}

fn flood_sim<'g>(builder: SimBuilder<'g>) -> Simulation<'g, Flood> {
    builder.build(|h| Flood {
        root: h == HostId(0),
        seen: false,
    })
}

/// Median seconds and the event count of flooding to quiescence over
/// simulations made by `make` (built outside the timed region).
fn time_flood<'g>(reps: usize, make: impl Fn() -> Simulation<'g, Flood>) -> (f64, u64) {
    let mut events = 0;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut sim = make();
        let start = Instant::now();
        sim.run_to_quiescence(u64::MAX);
        samples.push(start.elapsed().as_secs_f64());
        events = sim.metrics().events_dispatched;
    }
    (median(&samples), events)
}

/// `sim.build_*` and `sim.flood_*`: `SimBuilder::build` and the event
/// loop alone, under the flood logic, on the static graph.
pub fn engine(graph: &Graph, t: &mut Tracer, layers: &mut Layers) {
    let reps = reps_for(graph);
    let build = t.span("sim.build", |_| {
        median_secs(reps, || drop(black_box(flood_sim(SimBuilder::over(graph)))))
    });
    layers.set("sim.build_s", build);
    layers.set(
        "sim.build_ns_per_host",
        build * 1e9 / graph.num_hosts() as f64,
    );
    let (secs, events) = t.span("sim.flood_loop", |_| {
        time_flood(reps, || flood_sim(SimBuilder::over(graph)))
    });
    layers.set("sim.flood_loop_s", secs);
    layers.set("sim.flood_events", events as f64);
    layers.set("sim.flood_ns_per_event", secs * 1e9 / events.max(1) as f64);
}

/// `sim.flood_churn_ns_per_event`: the same flood with the workload's
/// churn schedule and cut installed, so every delivery pays the
/// alive-set and partition checks.
pub fn engine_under_churn(graph: &Graph, plan: &RunPlan, t: &mut Tracer, layers: &mut Layers) {
    let (secs, events) = t.span("sim.flood_churn", |_| {
        time_flood(reps_for(graph), || {
            let mut b = SimBuilder::over(graph)
                .churn(plan.churn.clone())
                .seed(plan.seed);
            if let Some(p) = &plan.partition {
                b = b.partition(p.clone());
            }
            flood_sim(b)
        })
    });
    layers.set(
        "sim.flood_churn_ns_per_event",
        secs * 1e9 / events.max(1) as f64,
    );
}

/// `sim.shard2_ratio`: the flood loop with two-way sharded delivery over
/// the same loop without it.
pub fn shard2(graph: &Graph, t: &mut Tracer, layers: &mut Layers) {
    let reps = reps_for(graph);
    let (off, events_off) = t.span("sim.flood_loop", |_| {
        time_flood(reps, || flood_sim(SimBuilder::over(graph)))
    });
    let (on, events_on) = t.span("sim.flood_shard2", |_| {
        time_flood(reps, || {
            let mut sim = flood_sim(SimBuilder::over(graph));
            sim.enable_sharded_delivery(2);
            sim
        })
    });
    assert_eq!(events_off, events_on, "sharding changed the flood");
    layers.set("sim.shard2_ratio", on / off);
}

/// `sketch.*` and `protocols.partial_combine_ns`: the sketch primitives
/// WILDFIRE and DAG merge on every message, at the default `c = 8`.
pub fn sketches(seed: u64, size: Size, layers: &mut Layers) {
    const C: usize = 8;
    const POOL: usize = 256;
    let ops = size.pick(200_000, 2_000);
    let mut rng = SmallRng::seed_from_u64(seed);
    let per_op = |secs: f64| secs * 1e9 / ops as f64;

    let insert = median_secs(5, || {
        let mut s = FmSketch::new(C);
        for _ in 0..ops {
            s.insert_one(&mut rng);
        }
        black_box(s);
    });
    layers.set("sketch.fm_insert_ns", per_op(insert));

    let fms: Vec<FmSketch> = (0..POOL)
        .map(|_| {
            let mut s = FmSketch::new(C);
            s.insert_elements(64, &mut rng);
            s
        })
        .collect();
    let merge = median_secs(5, || {
        let mut acc = FmSketch::new(C);
        for i in 0..ops {
            acc.merge(&fms[i % POOL]);
        }
        black_box(acc);
    });
    layers.set("sketch.fm_merge_ns", per_op(merge));
    let estimate = median_secs(5, || {
        let mut acc = 0.0;
        for i in 0..ops {
            acc += fms[i % POOL].estimate();
        }
        black_box(acc);
    });
    layers.set("sketch.fm_estimate_ns", per_op(estimate));

    let kmvs: Vec<KmvSketch> = (0..POOL)
        .map(|_| {
            let mut s = KmvSketch::new(64);
            s.insert_elements(200, &mut rng);
            s
        })
        .collect();
    let kmv_merge = median_secs(5, || {
        let mut acc = KmvSketch::new(64);
        for i in 0..ops {
            acc.merge(&kmvs[i % POOL]);
        }
        black_box(acc);
    });
    layers.set("sketch.kmv_merge_ns", per_op(kmv_merge));

    // `combine_check` is WILDFIRE's per-message combine (merge and
    // report whether anything changed).
    let partials: Vec<Partial> = (0..POOL)
        .map(|_| Partial::init_sketched(Aggregate::Count, 1, C, &mut rng))
        .collect();
    let combine = median_secs(5, || {
        let mut acc = partials[0].clone();
        let mut changed = 0u32;
        for i in 0..ops {
            changed += u32::from(acc.combine_check(&partials[i % POOL]));
        }
        black_box((acc, changed));
    });
    layers.set("protocols.partial_combine_ns", per_op(combine));
}

/// `telemetry.*`: one run with a `TickRecorder` attached against the
/// same run without — telemetry is off in every workload, so this is
/// the standing guard that "off" and "on" stay close — and the cost of
/// exporting what was recorded.
pub fn telemetry(
    kind: ProtocolKind,
    graph: &Graph,
    values: &[u64],
    plan: &RunPlan,
    t: &mut Tracer,
    layers: &mut Layers,
) {
    let reps = reps_for(graph);
    let mut series = None;
    let (off, on) = t.span("telemetry.sink_pair", |_| {
        let off = median_secs(reps, || {
            black_box(runner::run(kind, graph, values, plan));
        });
        let on = median_secs(reps, || {
            let mut rec = TickRecorder::new();
            black_box(runner::run_with(kind, graph, values, plan, Some(&mut rec)));
            series = Some(rec.finish());
        });
        (off, on)
    });
    layers.set("telemetry.sink_overhead_frac", on / off - 1.0);
    let doc = TraceDoc {
        name: "benchmark".into(),
        phases: Vec::new(),
        cells: vec![CellTrace {
            protocol: kind.name().into(),
            series: series.expect("at least one recorded run"),
            ..CellTrace::default()
        }],
    };
    let export_s = t.span("telemetry.export", |_| {
        median_secs(reps, || {
            black_box(export::jsonl(&doc));
            black_box(export::chrome(&doc));
        })
    });
    layers.set("telemetry.export_s", export_s);
}

/// `overlay.*`: WILDFIRE under oscillating membership with overlay
/// maintenance on, over the same run with it off — the regime of the
/// pipeline's overlay-churn scenario.
pub fn overlay(
    graph: &Graph,
    values: &[u64],
    d_hat: u32,
    seed: u64,
    t: &mut Tracer,
    layers: &mut Layers,
) {
    let n = graph.num_hosts();
    let base = RunPlan::query(Aggregate::Count).d_hat(d_hat).seed(seed);
    let deadline = base.deadline();
    let plain = base.churn(ChurnPlan::oscillating(
        n,
        n / 5,
        Time(0),
        Time(deadline),
        (deadline / 3).max(2),
        (deadline / 8).max(1),
        HostId(0),
        seed ^ 0x0511,
    ));
    let maintained = plain.clone().overlay(OverlayConfig {
        seed,
        ..OverlayConfig::default()
    });
    let kind = ProtocolKind::Wildfire(WildfireOpts::default());
    let mut maintenance_msgs = 0;
    let (off, on) = t.span("overlay.run_pair", |_| {
        let off = median_secs(7, || {
            black_box(runner::run(kind, graph, values, &plain));
        });
        let on = median_secs(7, || {
            let out = runner::run(kind, graph, values, &maintained);
            maintenance_msgs = out.overlay.map_or(0, |s| s.maintenance_msgs);
        });
        (off, on)
    });
    layers.set("overlay.run_ratio", on / off);
    layers.set("overlay.maintenance_msgs", maintenance_msgs as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_core::pov_topology::generators::special;

    #[test]
    fn bfs_order_is_level_order() {
        let g = special::chain(5);
        let order: Vec<u32> = bfs_order(&g).iter().map(|h| h.0).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
        let g = special::cycle(6);
        let order: Vec<u32> = bfs_order(&g).iter().map(|h| h.0).collect();
        assert_eq!(order, [0, 1, 5, 2, 4, 3], "level by level, antipode last");
    }

    #[test]
    fn flood_reaches_every_host_and_probes_fill_their_metrics() {
        let g = special::cycle(64);
        let mut sim = flood_sim(SimBuilder::over(&g));
        sim.run_to_quiescence(10_000);
        assert!((0..64).all(|h| sim.logic(HostId(h)).seen));

        let mut layers = Layers::new();
        let mut t = Tracer::new(true);
        topology(&g, &mut layers);
        engine(&g, &mut t, &mut layers);
        shard2(&g, &mut t, &mut layers);
        assert_eq!(layers.get("topology.edges"), 64.0);
        assert!(layers.get("topology.neighbors_ns_idorder") > 0.0);
        assert!(layers.get("sim.flood_events") >= 64.0);
        assert!(layers.get("sim.flood_ns_per_event") > 0.0);
        assert!(layers.get("sim.shard2_ratio") > 0.0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_layer_metric_is_rejected() {
        Layers::new().set("sim.made_up", 1.0);
    }
}
