//! Robustness tests: the protocols' guarantees must survive bounded
//! delay jitter (the relaxed asynchronous model allows any per-hop delay
//! up to δ, §3.1) and the radio medium.

use pov_protocols::spanning_tree::SpanningTreeNode;
use pov_protocols::wildfire::{WildfireNode, WildfireOpts};
use pov_protocols::{Aggregate, QuerySpec};
use pov_sim::{ChurnPlan, DelayModel, Medium, SimBuilder, Time};
use pov_telemetry::TickRecorder;
use pov_topology::generators::{grid_square, random_average_degree};
use pov_topology::{analysis, HostId};

/// Under jitter, WILDFIRE must run with `D̂` scaled by the delay bound:
/// a hop can take up to `max_delay` ticks, so the deadline needs
/// `2·D̂·δ` with `δ = max_delay`.
fn jitter_spec(graph: &pov_topology::Graph, aggregate: Aggregate, max_delay: u64) -> QuerySpec {
    let d = analysis::diameter_estimate(graph, 4, 3).max(1);
    QuerySpec {
        aggregate,
        d_hat: (d + 2) * max_delay as u32,
        c: 8,
    }
}

#[test]
fn wildfire_max_exact_under_jitter() {
    let g = random_average_degree(300, 5.0, 8);
    let values: Vec<u64> = (0..300u64).map(|i| 10 + (i * 13) % 490).collect();
    let truth = *values.iter().max().unwrap() as f64;
    for max_delay in [1u64, 2, 3] {
        let spec = jitter_spec(&g, Aggregate::Max, max_delay);
        let vals = values.clone();
        let mut sim = SimBuilder::new(g.clone())
            .delay(DelayModel::Uniform {
                min: 1,
                max: max_delay,
            })
            .seed(max_delay)
            .build(move |h| {
                if h == HostId(0) {
                    WildfireNode::query_host(vals[h.index()], spec, WildfireOpts::default())
                } else {
                    WildfireNode::host(vals[h.index()], WildfireOpts::default())
                }
            });
        sim.run_until(Time(spec.deadline() + 1));
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, truth, "max under jitter δ={max_delay}");
    }
}

#[test]
fn wildfire_max_exact_under_jitter_with_churn() {
    let g = random_average_degree(200, 6.0, 9);
    let values: Vec<u64> = (0..200u64).map(|i| 10 + (i * 7) % 490).collect();
    let spec = jitter_spec(&g, Aggregate::Max, 2);
    let churn =
        ChurnPlan::uniform_failures(200, 30, Time::ZERO, Time(spec.deadline()), HostId(0), 4);
    let vals = values.clone();
    let mut sim = SimBuilder::new(g.clone())
        .delay(DelayModel::Uniform { min: 1, max: 2 })
        .churn(churn.clone())
        .seed(5)
        .build(move |h| {
            if h == HostId(0) {
                WildfireNode::query_host(vals[h.index()], spec, WildfireOpts::default())
            } else {
                WildfireNode::host(vals[h.index()], WildfireOpts::default())
            }
        });
    sim.run_until(Time(spec.deadline() + 1));
    let (v, _) = sim.logic(HostId(0)).result().expect("declared");
    // SSV check: v must be a value of some HU host and at least the max
    // over hosts that never failed (all stable paths exist among alive
    // hosts? not guaranteed on a random graph — but every alive host
    // with a stable path counts; use the weaker universal bound: v must
    // be at least hq's own value and at most the global max).
    assert!(v >= values[0] as f64);
    assert!(v <= *values.iter().max().unwrap() as f64);
    assert!(values.iter().any(|&w| w as f64 == v), "witnessed value");
}

#[test]
fn spanning_tree_exact_under_jitter() {
    // The echo discipline does not depend on synchronous hops.
    let g = random_average_degree(250, 5.0, 11);
    let values = vec![1u64; 250];
    let spec = jitter_spec(&g, Aggregate::Count, 3);
    let mut sim = SimBuilder::new(g)
        .delay(DelayModel::Uniform { min: 1, max: 3 })
        .seed(12)
        .build(move |h| {
            if h == HostId(0) {
                SpanningTreeNode::query_host(1, spec)
            } else {
                SpanningTreeNode::host(1)
            }
        });
    sim.run_until(Time(spec.deadline() + 2));
    let (v, _) = sim.logic(HostId(0)).result().expect("declared");
    assert_eq!(v, values.len() as f64);
}

#[test]
fn wildfire_count_on_radio_grid_cheaper_than_p2p() {
    let g = grid_square(15);
    let spec = QuerySpec {
        aggregate: Aggregate::Count,
        d_hat: 16,
        c: 8,
    };
    let run = |medium: Medium| {
        let mut sim = SimBuilder::new(g.clone())
            .medium(medium)
            .seed(6)
            .build(move |h| {
                if h == HostId(0) {
                    WildfireNode::query_host(1, spec, WildfireOpts::default())
                } else {
                    WildfireNode::host(1, WildfireOpts::default())
                }
            });
        sim.run_until(Time(spec.deadline() + 1));
        (
            sim.logic(HostId(0)).result().expect("declared").0,
            sim.metrics().messages_sent,
        )
    };
    let (v_radio, m_radio) = run(Medium::Radio);
    let (v_p2p, m_p2p) = run(Medium::PointToPoint);
    assert!(m_radio < m_p2p / 3, "radio {m_radio} vs p2p {m_p2p}");
    // Both count ~225 hosts within FM error.
    for v in [v_radio, v_p2p] {
        assert!((60.0..900.0).contains(&v), "estimate {v}");
    }
}

#[test]
fn wildfire_quiesces_under_jitter() {
    // Quiescence holds under jitter too, just stretched by δ.
    let g = random_average_degree(200, 5.0, 13);
    let spec = jitter_spec(&g, Aggregate::Count, 2);
    let mut rec = TickRecorder::new();
    let mut sim = SimBuilder::new(g)
        .delay(DelayModel::Uniform { min: 1, max: 2 })
        .seed(14)
        .telemetry(&mut rec)
        .build(move |h| {
            if h == HostId(0) {
                WildfireNode::query_host(1, spec, WildfireOpts::default())
            } else {
                WildfireNode::host(1, WildfireOpts::default())
            }
        });
    sim.run_until(Time(spec.deadline() + 1));
    drop(sim);
    let last = rec.series().ticks.iter().rev().find(|s| s.sent > 0);
    let last = last.expect("some traffic").tick;
    assert!(
        last < spec.deadline(),
        "traffic at {last} should die before the deadline {}",
        spec.deadline()
    );
}
