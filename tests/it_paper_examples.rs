//! The paper's worked examples and theorem constructions, reproduced
//! end-to-end across crates.

use pov_core::pov_oracle::{host_sets, Verdict};
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::{runner, Aggregate, ProtocolKind, RunPlan};
use pov_core::pov_sim::{ChurnPlan, Time};
use pov_core::pov_topology::generators::special;
use pov_core::pov_topology::{analysis, HostId};
use pov_integration_tests::{example_1_1_graph, example_5_1_graph, example_5_1_values};

fn cfg(aggregate: Aggregate, d_hat: u32, churn: ChurnPlan) -> RunPlan {
    RunPlan::query(aggregate)
        .d_hat(d_hat)
        .repetitions(16)
        .churn(churn)
        .seed(5)
}

/// Example 1.1: counting 16 sensors. Failure-free, SPANNINGTREE returns
/// exactly 16; a single well-placed failure after broadcast silently
/// loses a subtree.
#[test]
fn example_1_1_spanning_tree_count() {
    let g = example_1_1_graph();
    let values = vec![1u64; 16];

    let out = runner::run(
        ProtocolKind::SpanningTree,
        &g,
        &values,
        &cfg(Aggregate::Count, 5, ChurnPlan::none()),
    );
    assert_eq!(out.value, Some(16.0), "failure-free count is 16");

    // Fail an interior host (the grid's (1,1) = host 5, a depth-1 hub)
    // right after it forwarded the query but before its children report.
    let churn = ChurnPlan::none().with_failure(Time(2), HostId(5));
    let out = runner::run(
        ProtocolKind::SpanningTree,
        &g,
        &values,
        &cfg(Aggregate::Count, 5, churn),
    );
    let v = out.value.expect("declared");
    assert!(
        v < 16.0,
        "a single failure must lose hosts ({v} reported) — the Example 1.1 anomaly"
    );
}

/// Example 1.1's punchline, quantified by the oracle: the lost hosts
/// were alive and reachable the whole time, so the result is invalid.
#[test]
fn example_1_1_oracle_flags_invalidity() {
    let g = example_1_1_graph();
    let values = vec![1u64; 16];
    let churn = ChurnPlan::none().with_failure(Time(2), HostId(5));
    let out = runner::run(
        ProtocolKind::SpanningTree,
        &g,
        &values,
        &cfg(Aggregate::Count, 5, churn),
    );
    let sets = host_sets(&g, &out.trace, HostId(0), Time::ZERO, Time(10));
    // The 4x4 Moore grid stays connected without host 5: HC = 15.
    assert_eq!(sets.hc_len(), 15);
    assert_eq!(sets.hu_len(), 16);
    let verdict = Verdict::judge(Aggregate::Count, &sets, &values, out.value.unwrap());
    assert!(
        !verdict.within_bounds,
        "the oracle must reject {} ∉ [15, 16]",
        out.value.unwrap()
    );
}

/// Example 5.1 (Fig 5): WILDFIRE max on the diamond declares 25 at
/// `t = 2·D̂·δ = 6` with exactly the walk-through's 10 messages.
#[test]
fn example_5_1_full_walkthrough() {
    let g = example_5_1_graph();
    let values = example_5_1_values();
    let out = runner::run(
        ProtocolKind::Wildfire(WildfireOpts::default()),
        &g,
        &values,
        &RunPlan::query(Aggregate::Max).d_hat(3),
    );
    assert_eq!(out.value, Some(25.0));
    assert_eq!(out.declared_at, Some(Time(6)));
    assert_eq!(out.metrics.messages_sent, 10);
}

/// Example 5.1's failure discussion: "if either x or y had failed, w
/// would still obtain z's value. If both x and y had failed, w would
/// output v = 5, but this is acceptable as HC = {w}."
#[test]
fn example_5_1_failure_cases_with_oracle() {
    let g = example_5_1_graph();
    let values = example_5_1_values();

    // One path fails.
    let churn = ChurnPlan::none().with_failure(Time(1), HostId(1));
    let out = runner::run(
        ProtocolKind::Wildfire(WildfireOpts::default()),
        &g,
        &values,
        &cfg(Aggregate::Max, 3, churn),
    );
    assert_eq!(out.value, Some(25.0));

    // Both paths fail.
    let churn = ChurnPlan::none()
        .with_failure(Time(1), HostId(1))
        .with_failure(Time(1), HostId(2));
    let out = runner::run(
        ProtocolKind::Wildfire(WildfireOpts::default()),
        &g,
        &values,
        &cfg(Aggregate::Max, 3, churn.clone()),
    );
    assert_eq!(out.value, Some(5.0));
    let sets = host_sets(&g, &out.trace, HostId(0), Time::ZERO, Time(6));
    assert_eq!(sets.hc_hosts(), vec![HostId(0)], "HC = {{w}}");
    let verdict = Verdict::judge(Aggregate::Max, &sets, &values, 5.0);
    assert!(verdict.is_valid(), "5 is a valid max when HC = {{w}}");
}

/// Theorem 4.1's construction: a chain where hosts join just before any
/// chosen snapshot instant can never have its values reflected in time —
/// we verify the *mechanism* (late joiners stay invisible to the query)
/// rather than the impossibility itself.
#[test]
fn theorem_4_1_chain_join_mechanism() {
    let k = 6;
    let g = special::chain(k + 1);
    let values = vec![1u64; k + 1];
    // Hosts 4..6 start dead and join at t = 5 — the flood front reaches
    // host 4's position at t = 4, finds it absent, and dies there.
    let churn = ChurnPlan::none()
        .with_join(Time(5), HostId(4))
        .with_join(Time(5), HostId(5))
        .with_join(Time(5), HostId(6));
    let out = runner::run(
        ProtocolKind::AllReport,
        &g,
        &values,
        &cfg(Aggregate::Count, k as u32, churn),
    );
    let v = out.value.expect("declared");
    assert!(
        v < (k + 1) as f64,
        "late joiners cannot contribute ({v} counted)"
    );
    // They are nevertheless in HU — exactly the gap between Snapshot and
    // Single-Site Validity.
    let sets = host_sets(&g, &out.trace, HostId(0), Time::ZERO, Time(2 * k as u64));
    assert_eq!(sets.hu_len(), k + 1);
}

/// Theorem 4.2's construction: a cut vertex fails before the query
/// passes, stranding an alive host. Single-Site Validity (unlike
/// Interval Validity) tolerates this: the stranded host leaves HC.
#[test]
fn theorem_4_2_cut_vertex() {
    let (g, hq, cut, stranded) = special::one_connected(4);
    let values = vec![1u64; g.num_hosts()];
    let churn = ChurnPlan::none().with_failure(Time(1), cut);
    let out = runner::run(
        ProtocolKind::Wildfire(WildfireOpts::default()),
        &g,
        &values,
        &cfg(Aggregate::Count, 4, churn),
    );
    let sets = host_sets(&g, &out.trace, hq, Time::ZERO, Time(8));
    assert!(!sets.hc[stranded.index()], "stranded host leaves HC");
    assert!(sets.hu[stranded.index()], "but remains in HU");
    let verdict = Verdict::judge(Aggregate::Count, &sets, &values, out.value.unwrap());
    assert!(
        verdict.is_approx_valid(2.0),
        "WILDFIRE stays (approximately) valid: {:?}",
        verdict
    );
}

/// Theorem 4.4: on the cycle-with-spur instance, SPANNINGTREE can return
/// `v = q(H)` with `|H| ≤ |HC|/2` after a single failure — while
/// WILDFIRE, on the same run, does not lose the far arc.
#[test]
fn theorem_4_4_spanning_tree_arbitrarily_bad() {
    let n = 8;
    let (g, hq, victim) = special::cycle_with_spur(n);
    let total = g.num_hosts(); // 2n + 3
    let values = vec![1u64; total];
    let d = analysis::diameter_exact(&g);
    let churn = ChurnPlan::none().with_failure(Time(3), victim);

    let st = runner::run(
        ProtocolKind::SpanningTree,
        &g,
        &values,
        &cfg(Aggregate::Count, d + 2, churn.clone()),
    );
    let wf = runner::run(
        ProtocolKind::Wildfire(WildfireOpts::default()),
        &g,
        &values,
        &cfg(Aggregate::Count, d + 2, churn.clone()),
    );

    let sets = host_sets(&g, &st.trace, hq, Time::ZERO, Time(2 * (d as u64 + 2)));
    let hc = sets.hc_len() as f64;
    assert_eq!(hc as usize, total - 1, "only the victim leaves HC");

    let st_v = st.value.expect("declared");
    assert!(
        st_v <= hc / 2.0 + 1.0,
        "Theorem 4.4: ST loses ~half of HC (returned {st_v} of {hc})"
    );
    let wf_v = wf.value.expect("declared");
    assert!(
        wf_v > st_v,
        "WILDFIRE ({wf_v}) must beat ST ({st_v}) on the Thm 4.4 instance"
    );
}

/// §4.1's ALLREPORT validity argument on Example 1.1's grid, where
/// most hosts lie several hops from `hq` on the broadcast tree.
#[test]
fn allreport_reverse_tree_on_grid() {
    let g = example_1_1_graph();
    let values = vec![1u64; 16];
    let out = runner::run(
        ProtocolKind::AllReport,
        &g,
        &values,
        &cfg(Aggregate::Count, 5, ChurnPlan::none()),
    );
    assert_eq!(out.value, Some(16.0));
    // Direct-delivery's hotspot: the root processes every report.
    let processed_at_root = out.metrics.processed_per_host[0];
    assert!(
        processed_at_root >= 15,
        "hq must process all 15 reports, saw {processed_at_root}"
    );
}
