//! Property-based tests for the protocols — most importantly the
//! Theorem 5.1 invariant: WILDFIRE min/max satisfies Single-Site
//! Validity on *arbitrary* connected topologies under *arbitrary* churn.

use pov_protocols::wildfire::WildfireOpts;
use pov_protocols::{runner, Aggregate, ProtocolKind, RunPlan};
use pov_sim::{ChurnPlan, DelayModel, Medium, Time};
use pov_topology::generators::{grid_square, random_average_degree, special};
use pov_topology::{analysis, Graph, GraphBuilder, HostId};
use proptest::prelude::*;

/// Arbitrary connected graph + per-host values + churn plan.
#[derive(Debug, Clone)]
struct Scenario {
    graph: Graph,
    values: Vec<u64>,
    churn: ChurnPlan,
    d_hat: u32,
}

fn scenario(max_n: u32) -> impl Strategy<Value = Scenario> {
    (3..max_n)
        .prop_flat_map(move |n| {
            (
                Just(n),
                prop::collection::vec((0..n, 0..n), 1..(3 * n as usize)),
                prop::collection::vec(10u64..500, n as usize),
                prop::collection::vec((1u32..max_n, 0u64..30), 0..(n as usize / 2)),
            )
        })
        .prop_map(|(n, es, values, fails)| {
            let mut b = GraphBuilder::with_hosts(n as usize);
            b.add_edge(HostId(0), HostId(1));
            for (a, bb) in es {
                b.add_edge(HostId(a), HostId(bb));
            }
            let (graph, _) = analysis::connect_components(&b.build());
            let d = analysis::diameter_exact(&graph).max(1);
            let mut churn = ChurnPlan::none();
            for (h, t) in fails {
                let h = HostId(h % n);
                if h != HostId(0) {
                    churn = churn.with_failure(Time(t), h);
                }
            }
            Scenario {
                graph,
                values,
                churn,
                d_hat: d + 1,
            }
        })
}

/// A connected graph of one of three shapes: random (joined into one
/// component), a grid, or the Theorem 4.4 cycle with a spur.
fn tree_graph() -> impl Strategy<Value = Graph> {
    (0u8..3, 2usize..8, 0u64..1000).prop_map(|(shape, size, seed)| match shape {
        0 => analysis::connect_components(&random_average_degree(4 * size, 3.0, seed)).0,
        1 => grid_square(size),
        _ => special::cycle_with_spur(size).0,
    })
}

fn config(sc: &Scenario, aggregate: Aggregate, seed: u64) -> RunPlan {
    RunPlan::query(aggregate)
        .d_hat(sc.d_hat)
        .churn(sc.churn.clone())
        .seed(seed)
}

/// Single-Site-Validity check for min/max per §4.1: `v = q(H)` for some
/// `HC ⊆ H ⊆ HU` means `v` is an `HU` host's value, at most/least the
/// `HC` extremum.
fn min_max_valid(sc: &Scenario, aggregate: Aggregate, v: f64) -> bool {
    let deadline = Time(2 * sc.d_hat as u64);
    // Replay the churn to recover HC/HU exactly as the oracle would.
    // (Failures are the only events; the trace equals the plan.)
    let mut throughout = vec![true; sc.graph.num_hosts()];
    let sometime = vec![true; sc.graph.num_hosts()];
    for &(t, h) in &sc.churn.failures {
        if t <= deadline {
            throughout[h.index()] = false;
        }
        let _ = sometime[h.index()]; // failures keep HU membership
    }
    let dist = analysis::bfs_distances_filtered(&sc.graph, HostId(0), |h| throughout[h.index()]);
    let hc: Vec<u64> = (0..sc.graph.num_hosts())
        .filter(|&i| dist[i] != analysis::UNREACHABLE)
        .map(|i| sc.values[i])
        .collect();
    let hu: Vec<u64> = (0..sc.graph.num_hosts())
        .filter(|&i| sometime[i])
        .map(|i| sc.values[i])
        .collect();
    let witnessed = hu.iter().any(|&w| (w as f64 - v).abs() < 1e-9);
    match aggregate {
        Aggregate::Min => {
            let hc_min = hc.iter().min().copied().map(|m| m as f64);
            witnessed && hc_min.is_none_or(|m| v <= m + 1e-9)
        }
        Aggregate::Max => {
            let hc_max = hc.iter().max().copied().map(|m| m as f64);
            witnessed && hc_max.is_none_or(|m| v >= m - 1e-9)
        }
        _ => unreachable!("min/max only"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn theorem_5_1_wildfire_min_max_valid(sc in scenario(16), seed in 0u64..100) {
        for aggregate in [Aggregate::Min, Aggregate::Max] {
            let out = runner::run(
                ProtocolKind::Wildfire(WildfireOpts::default()),
                &sc.graph,
                &sc.values,
                &config(&sc, aggregate, seed),
            );
            let v = out.value.expect("hq never fails in these scenarios");
            prop_assert!(
                min_max_valid(&sc, aggregate, v),
                "{aggregate:?} = {v} violates SSV on {:?} with churn {:?}",
                sc.graph,
                sc.churn.failures
            );
        }
    }

    #[test]
    fn theorem_4_3_allreport_valid(sc in scenario(14), seed in 0u64..100) {
        // ALLREPORT (direct) achieves SSV for min/max too.
        for aggregate in [Aggregate::Min, Aggregate::Max] {
            let out = runner::run(
                ProtocolKind::AllReport,
                &sc.graph,
                &sc.values,
                &config(&sc, aggregate, seed),
            );
            let v = out.value.expect("declared");
            prop_assert!(
                min_max_valid(&sc, aggregate, v),
                "{aggregate:?} = {v} violates SSV"
            );
        }
    }

    #[test]
    fn exact_protocols_agree_without_churn(sc in scenario(14), seed in 0u64..100) {
        let mut sc = sc;
        sc.churn = ChurnPlan::none();
        for aggregate in [Aggregate::Count, Aggregate::Sum, Aggregate::Min, Aggregate::Max] {
            let truth = aggregate.ground_truth(&sc.values).unwrap();
            for kind in [
                ProtocolKind::AllReport,
                ProtocolKind::SpanningTree,
            ] {
                let out = runner::run(kind, &sc.graph, &sc.values, &config(&sc, aggregate, seed));
                prop_assert_eq!(
                    out.value,
                    Some(truth),
                    "{:?} under {:?}",
                    aggregate,
                    kind
                );
            }
        }
    }

    #[test]
    fn tree_protocols_are_exact_without_failures(graph in tree_graph(), seed in 0u64..100) {
        // With no failures nothing is lost: SPANNINGTREE is exact for all
        // five aggregates, and DAG for min/max, on either medium and
        // with or without jitter. Under radio a child's onward flood
        // also reaches its parent, which must not take it for a sign
        // that the child's subtree is done.
        let n = graph.num_hosts();
        let values: Vec<u64> = (0..n as u64).map(|i| 10 + (i * 37 + seed) % 490).collect();
        // A hop takes up to 3 ticks and the tree may be up to n deep:
        // D̂ = 4n leaves every fallback well behind the echo.
        let d_hat = 4 * n as u32;
        let runs = [
            (ProtocolKind::SpanningTree, &[
                Aggregate::Count,
                Aggregate::Sum,
                Aggregate::Average,
                Aggregate::Min,
                Aggregate::Max,
            ][..]),
            (ProtocolKind::Dag { k: 2 }, &[Aggregate::Min, Aggregate::Max][..]),
        ];
        for (kind, aggregates) in runs {
            for &aggregate in aggregates {
                let truth = aggregate.ground_truth(&values);
                for medium in [Medium::PointToPoint, Medium::Radio] {
                    for delay in [DelayModel::Fixed(1), DelayModel::Uniform { min: 1, max: 3 }] {
                        let plan = RunPlan::query(aggregate)
                            .d_hat(d_hat)
                            .medium(medium)
                            .delay(delay)
                            .seed(seed);
                        let out = runner::run(kind, &graph, &values, &plan);
                        prop_assert_eq!(
                            out.value,
                            truth,
                            "{:?} {:?} under {:?}, {:?}",
                            kind,
                            aggregate,
                            medium,
                            delay
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spanning_tree_count_never_exceeds_population(
        sc in scenario(16),
        seed in 0u64..100,
    ) {
        // Exact tree aggregation can lose hosts but never double-counts.
        let out = runner::run(
            ProtocolKind::SpanningTree,
            &sc.graph,
            &sc.values,
            &config(&sc, Aggregate::Count, seed),
        );
        let v = out.value.expect("declared");
        prop_assert!(v >= 1.0, "root always counts itself");
        prop_assert!(v <= sc.graph.num_hosts() as f64);
    }

    #[test]
    fn dag_min_max_at_least_as_good_as_tree(sc in scenario(14), seed in 0u64..50) {
        // With identical churn, every host reachable to the DAG root via
        // surviving report chains includes the tree paths... we assert
        // the weaker, always-true shape: both declare, and DAG's max ≥
        // its own HC requirement is checked by min_max_valid-style logic
        // only for WILDFIRE; here: DAG max ≥ ST max never *strictly*
        // holds per-instance (timing differs), so assert bounds only.
        let cfgx = config(&sc, Aggregate::Max, seed);
        let dag = runner::run(ProtocolKind::Dag { k: 2 }, &sc.graph, &sc.values, &cfgx);
        let st = runner::run(ProtocolKind::SpanningTree, &sc.graph, &sc.values, &cfgx);
        let max_all = *sc.values.iter().max().unwrap() as f64;
        for v in [dag.value.unwrap(), st.value.unwrap()] {
            prop_assert!(v <= max_all);
            prop_assert!(v >= sc.values[0] as f64); // hq's own value always in
        }
    }

    #[test]
    fn wildfire_outcome_deterministic(sc in scenario(12), seed in 0u64..50) {
        let cfgx = config(&sc, Aggregate::Count, seed);
        let a = runner::run(
            ProtocolKind::Wildfire(WildfireOpts::default()),
            &sc.graph,
            &sc.values,
            &cfgx,
        );
        let b = runner::run(
            ProtocolKind::Wildfire(WildfireOpts::default()),
            &sc.graph,
            &sc.values,
            &cfgx,
        );
        prop_assert_eq!(a.value, b.value);
        prop_assert_eq!(a.metrics.messages_sent, b.metrics.messages_sent);
    }

    #[test]
    fn wildfire_opts_do_not_change_min_result(sc in scenario(12), seed in 0u64..50) {
        // The §5.3 optimizations are cost optimizations; for min/max the
        // declared value must be identical with or without them, under
        // identical failure-free conditions.
        let mut sc = sc;
        sc.churn = ChurnPlan::none();
        let cfgx = config(&sc, Aggregate::Min, seed);
        let variants = [
            WildfireOpts { early_deadline: false, piggyback: false },
            WildfireOpts { early_deadline: true, piggyback: false },
            WildfireOpts { early_deadline: false, piggyback: true },
            WildfireOpts { early_deadline: true, piggyback: true },
        ];
        let truth = *sc.values.iter().min().unwrap() as f64;
        for opts in variants {
            let out = runner::run(
                ProtocolKind::Wildfire(opts),
                &sc.graph,
                &sc.values,
                &cfgx,
            );
            prop_assert_eq!(out.value, Some(truth), "{:?}", opts);
        }
    }
}
