//! The multiplexed engine's equivalence witness, end to end: every
//! query executed concurrently with hundreds of co-residents must
//! declare exactly what it declares when run *alone* over the same
//! graph, values and churn realization — `(value, declared_at)` and
//! ORACLE verdict both. This is what makes `repro mux`'s speedup a
//! like-for-like comparison rather than a different computation that
//! happens to be faster.

use pov_core::mux::{judged_mux, solo_twin, WindowSpec, WorkloadSpec};
use pov_core::pov_protocols::{run_mux, runner, MuxPlan, ProtocolKind, RunPlan};
use pov_core::pov_sim::{ChurnPlan, Time};
use pov_core::pov_topology::generators::{special, TopologyKind};
use pov_core::pov_topology::{analysis, HostId};
use pov_core::workload::paper_values;
use pov_core::Network;

/// Uniform churn across the whole workload horizon: the plan `repro mux`
/// benches, at test scale.
fn churned_plan(n: usize, failures: usize, horizon: u64, seed: u64) -> MuxPlan {
    MuxPlan {
        churn: ChurnPlan::uniform_failures(
            n,
            failures,
            Time(1),
            Time(horizon),
            HostId(0),
            seed ^ 0xc4,
        ),
        partition: None,
        seed: seed ^ 0x51b,
    }
}

/// Solo-vs-multiplexed answer equivalence per query: a mixed workload
/// under mid-run churn, every non-joined query re-run alone against
/// the identical realization.
#[test]
fn every_query_matches_its_solo_twin_under_churn() {
    // The network `repro mux` benches, at test scale.
    let net = Network::build(TopologyKind::Random, 250, 42);
    let (graph, values, d_hat) = (net.graph(), net.values(), net.d_hat());
    let n = graph.num_hosts();
    let spec = WorkloadSpec {
        queries: 30,
        span: 2 * d_hat as u64,
        d_hat,
        window: None,
        seed: 42,
    };
    let queries = spec.generate(n);
    let horizon = queries.iter().map(|q| q.deadline()).max().unwrap() + 2;
    let plan = churned_plan(n, n / 10, horizon, 42);
    let (judged, _) = judged_mux(graph, values, &queries, &plan);
    assert_eq!(judged.len(), queries.len());

    // The churn window spans the whole horizon and arrivals are spread
    // over two deadlines, so queries genuinely arrive mid-churn: hosts
    // have already failed before they launch, and more fail while they
    // run. Make sure the regime is actually exercised.
    let first_kill = plan.churn.failures.iter().map(|&(t, _)| t).min().unwrap();
    let mid_churn = judged
        .iter()
        .filter(|j| Time(j.query.arrival) > first_kill)
        .count();
    assert!(
        mid_churn >= judged.len() / 2,
        "only {mid_churn} of {} queries arrived after churn began",
        judged.len()
    );

    let mut checked = 0;
    for j in judged.iter().filter(|j| !j.joined) {
        let twin = solo_twin(graph, values, &j.query, &plan);
        assert_eq!(
            (j.value, j.declared_at),
            (twin.value, twin.declared_at),
            "query {:?} ({:?} root {:?}) diverged from its solo twin",
            j.query.id,
            j.query.aggregate,
            j.query.root
        );
        assert_eq!(
            j.is_valid(),
            twin.is_valid(),
            "query {:?}: multiplexing changed the ORACLE verdict",
            j.query.id
        );
        assert_eq!((j.hc_size, j.hu_size), (twin.hc_size, twin.hu_size));
        checked += 1;
    }
    assert!(checked >= 25, "only {checked} twins checked");
}

/// The same witness through the sliding-window expansion: instances of
/// a windowed base query arrive mid-churn by construction (successive
/// arrivals are `slide` ticks apart), and each must carry its solo
/// twin's verdict over its own `[end − W, end]` slice.
#[test]
fn windowed_instances_match_their_solo_twins() {
    let net = Network::build(TopologyKind::Random, 150, 9);
    let (graph, values, d_hat) = (net.graph(), net.values(), net.d_hat());
    let n = graph.num_hosts();
    let deadline = 2 * d_hat as u64;
    let spec = WorkloadSpec {
        queries: 8,
        span: deadline,
        d_hat,
        window: Some(WindowSpec {
            window: (deadline * 4) / 5,
            slide: deadline / 3,
            instances: 3,
        }),
        seed: 9,
    };
    let queries = spec.generate(n);
    assert_eq!(queries.len(), 24, "8 base queries × 3 instances");
    let horizon = queries.iter().map(|q| q.deadline()).max().unwrap() + 2;
    let plan = churned_plan(n, n / 8, horizon, 9);
    let (judged, _) = judged_mux(graph, values, &queries, &plan);
    for j in judged.iter().filter(|j| !j.joined) {
        let twin = solo_twin(graph, values, &j.query, &plan);
        assert_eq!(
            (j.value, j.declared_at),
            (twin.value, twin.declared_at),
            "windowed instance {:?} diverged from its solo twin",
            j.query.id
        );
        assert_eq!(j.is_valid(), twin.is_valid(), "instance {:?}", j.query.id);
    }
    // Later instances of a live root join the earlier instance's wave
    // through the partial cache — the aliasing path stays exercised.
    assert!(
        judged.iter().any(|j| j.joined),
        "no instance joined a live wave; the cache path went dark"
    );
}

/// The multiplexed run itself is a pure function of its inputs: a
/// second execution reproduces every declaration bit for bit.
#[test]
fn multiplexed_run_is_deterministic() {
    let net = Network::build(TopologyKind::Random, 200, 7);
    let (graph, values, d_hat) = (net.graph(), net.values(), net.d_hat());
    let n = graph.num_hosts();
    let spec = WorkloadSpec {
        queries: 20,
        span: 2 * d_hat as u64,
        d_hat,
        window: None,
        seed: 7,
    };
    let queries = spec.generate(n);
    let horizon = queries.iter().map(|q| q.deadline()).max().unwrap() + 2;
    let plan = churned_plan(n, n / 10, horizon, 7);
    let (a, out_a) = judged_mux(graph, values, &queries, &plan);
    let (b, out_b) = judged_mux(graph, values, &queries, &plan);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.value, x.declared_at), (y.value, y.declared_at));
        assert_eq!(x.payload_msgs, y.payload_msgs);
    }
    assert_eq!(out_a.raw_messages, out_b.raw_messages);
    assert_eq!(out_a.results, out_b.results);
}

/// The mux engine against the single-query engine it multiplexes:
/// without failures, every query that launched its own wave declares
/// the very f64 SPANNINGTREE declares from the same root with the same
/// D̂ — on a chain, a cycle and a random graph, for all five
/// aggregates, roots and arrivals drawn by the workload generator.
#[test]
fn every_launched_query_declares_what_spanning_tree_declares() {
    let random = TopologyKind::Random.build(200, 5);
    let graphs = [
        ("chain", special::chain(40)),
        ("cycle", special::cycle(45)),
        ("random", random),
    ];
    let mut checked = 0;
    let mut aggregates = Vec::new();
    for (seed, (name, graph)) in graphs.iter().enumerate() {
        let n = graph.num_hosts();
        let values = paper_values(n, seed as u64 ^ 0x5eed);
        let diameter = analysis::diameter_exact(graph);
        for d_hat in [diameter, diameter + 3] {
            let spec = WorkloadSpec {
                queries: 25,
                span: 2 * u64::from(d_hat),
                d_hat,
                window: None,
                seed: seed as u64 * 31 + u64::from(d_hat),
            };
            let queries = spec.generate(n);
            let out = run_mux(graph, &values, &queries, &MuxPlan::default());
            for q in queries.iter().filter(|q| !out.aliased.contains(&q.id.0)) {
                let plan = RunPlan::query(q.aggregate).d_hat(d_hat).from_host(q.root);
                let tree = runner::run(ProtocolKind::SpanningTree, graph, &values, &plan);
                let mux = out.results.get(&q.id.0).map(|&(v, _)| v.to_bits());
                assert_eq!(
                    mux,
                    tree.value.map(f64::to_bits),
                    "{name}, D̂ = {d_hat}: query {:?} ({:?} from {:?})",
                    q.id,
                    q.aggregate,
                    q.root
                );
                checked += 1;
                if !aggregates.contains(&q.aggregate) {
                    aggregates.push(q.aggregate);
                }
            }
        }
    }
    assert!(checked >= 120, "only {checked} queries compared");
    assert_eq!(aggregates.len(), 5, "compared only {aggregates:?}");
}
