//! Cross-crate validity semantics: every §4 definition exercised through
//! the full stack (topology → sim → protocol → oracle).

use pov_core::pov_protocols::{runner, ProtocolKind};
use pov_core::pov_sketch::stats;
use pov_core::prelude::*;

/// WILDFIRE min/max is Single-Site Valid across topologies and churn
/// levels (Theorem 5.1 at integration scale).
#[test]
fn wildfire_min_max_valid_across_topologies() {
    for kind in [
        TopologyKind::Gnutella,
        TopologyKind::Random,
        TopologyKind::PowerLaw,
        TopologyKind::Grid,
    ] {
        let net = Network::build(kind, 300, 21);
        for (aggregate, churn) in [
            (Aggregate::Min, 0),
            (Aggregate::Max, 0),
            (Aggregate::Min, 30),
            (Aggregate::Max, 60),
        ] {
            let answer = net
                .query(aggregate)
                .churn(churn)
                .run(ProtocolKind::Wildfire(WildfireOpts::default()));
            assert!(
                answer.verdict.is_valid(),
                "{} {} churn={churn}: {:?}",
                kind.name(),
                aggregate.name(),
                answer.verdict
            );
        }
    }
}

/// WILDFIRE count/sum satisfies Approximate Single-Site Validity with a
/// modest factor (far below the Theorem 5.3 guarantee of c).
#[test]
fn wildfire_count_sum_approximately_valid() {
    let net = Network::build(TopologyKind::Random, 400, 33);
    for aggregate in [Aggregate::Count, Aggregate::Sum, Aggregate::Average] {
        for churn in [0usize, 40] {
            let answer = net
                .query(aggregate)
                .churn(churn)
                .repetitions(16)
                .run(ProtocolKind::Wildfire(WildfireOpts::default()));
            assert!(
                answer.verdict.is_approx_valid(3.0),
                "{} churn={churn}: factor {:?}",
                aggregate.name(),
                answer.verdict.approx_factor
            );
        }
    }
}

/// Best-effort protocols violate validity under churn while WILDFIRE
/// does not — the paper's central comparison, via the public facade.
#[test]
fn best_effort_loses_validity_where_wildfire_keeps_it() {
    let net = Network::build(TopologyKind::Grid, 400, 44);
    let churn = 60; // 15% of hosts
    let mut st_deviations = Vec::new();
    let mut wf_deviations = Vec::new();
    for seed in 0..5 {
        let st = net
            .query(Aggregate::Count)
            .churn(churn)
            .seed(seed)
            .run(ProtocolKind::SpanningTree);
        let wf = net
            .query(Aggregate::Count)
            .churn(churn)
            .seed(seed)
            .repetitions(16)
            .run(ProtocolKind::Wildfire(WildfireOpts::default()));
        st_deviations.push(st.verdict.approx_factor.unwrap_or(f64::INFINITY));
        wf_deviations.push(wf.verdict.approx_factor.unwrap_or(f64::INFINITY));
    }
    let st_mean = stats::mean(&st_deviations);
    let wf_mean = stats::mean(&wf_deviations);
    assert!(
        st_mean > wf_mean,
        "ST deviation {st_mean:.2}x should exceed WILDFIRE's {wf_mean:.2}x"
    );
    assert!(wf_mean < 2.0, "WILDFIRE deviation {wf_mean:.2}x too large");
}

/// DAG sits between SPANNINGTREE and WILDFIRE: redundancy helps, but the
/// guarantee is still best-effort.
#[test]
fn dag_improves_over_tree_under_churn() {
    let net = Network::build(TopologyKind::Gnutella, 500, 55);
    let churn = 75;
    let mut st_count = 0.0;
    let mut dag_count = 0.0;
    let trials = 5;
    for seed in 0..trials {
        let st = net
            .query(Aggregate::Count)
            .churn(churn)
            .seed(seed)
            .run(ProtocolKind::SpanningTree);
        let dag = net
            .query(Aggregate::Count)
            .churn(churn)
            .seed(seed)
            .repetitions(16)
            .run(ProtocolKind::Dag { k: 3 });
        st_count += st.value.unwrap();
        dag_count += dag.value.unwrap();
    }
    assert!(
        dag_count > st_count * 0.9,
        "DAG(3) mean count {:.0} should not trail ST {:.0} meaningfully",
        dag_count / trials as f64,
        st_count / trials as f64
    );
}

/// The oracle's interval bounds respond to the churn level: HC shrinks
/// monotonically (statistically) with R while HU stays fixed when no
/// hosts join.
#[test]
fn oracle_bounds_track_churn_level() {
    let net = Network::build(TopologyKind::Random, 400, 66);
    let mut last_hc = usize::MAX;
    for churn in [0usize, 40, 120] {
        let answer = net
            .query(Aggregate::Count)
            .churn(churn)
            .run(ProtocolKind::SpanningTree);
        assert_eq!(answer.hu_size, 400, "no joins: HU = everyone");
        assert!(
            answer.hc_size <= last_hc,
            "HC must shrink with churn: {} -> {}",
            last_hc,
            answer.hc_size
        );
        assert!(answer.hc_size <= 400 - churn + 1);
        last_hc = answer.hc_size;
    }
}

/// RANDOMIZEDREPORT achieves Approximate SSV at reduced cost (§4.3).
#[test]
fn randomized_report_cheaper_and_approximately_valid() {
    let net = Network::build(TopologyKind::Random, 500, 77);
    let full = runner::run(
        ProtocolKind::AllReport,
        net.graph(),
        net.values(),
        &RunPlan::query(Aggregate::Count).d_hat(net.d_hat()).seed(1),
    );
    let sampled = runner::run(
        ProtocolKind::RandomizedReport { p: 0.3 },
        net.graph(),
        net.values(),
        &RunPlan::query(Aggregate::Count).d_hat(net.d_hat()).seed(1),
    );
    assert_eq!(full.value, Some(500.0));
    let est = sampled.value.unwrap();
    assert!(
        (350.0..650.0).contains(&est),
        "sampled estimate {est} too far from 500"
    );
    assert!(
        sampled.metrics.messages_sent < full.metrics.messages_sent,
        "sampling must save messages: {} vs {}",
        sampled.metrics.messages_sent,
        full.metrics.messages_sent
    );
}

/// Gossip is the eventual-consistency foil: accurate when static, but
/// its mass-loss under churn has no validity envelope at all.
#[test]
fn gossip_baseline_contrast() {
    let net = Network::build(TopologyKind::Random, 200, 88);
    let cfg = RunPlan::query(Aggregate::Average)
        .d_hat(net.d_hat())
        .seed(3);
    let out = runner::run(
        ProtocolKind::Gossip { rounds: 120 },
        net.graph(),
        net.values(),
        &cfg,
    );
    let truth = Aggregate::Average.ground_truth(net.values()).unwrap();
    let v = out.value.expect("declared");
    assert!(
        (v - truth).abs() / truth < 0.15,
        "static gossip should converge: {v} vs {truth}"
    );
}
