//! End-to-end runs of every experiment driver at smoke scale, plus the
//! continuous-query and size-estimation machinery.

use pov_core::capture_recapture::{JollySeber, PopulationModel};
use pov_core::experiments::{ablation, fig06, fig10, fig11, fig12, fig13, price, validity};
use pov_core::prelude::*;
use pov_core::ring_estimator::RingEstimator;

#[test]
fn fig06_driver_end_to_end() {
    let rows = fig06::run(&fig06::Config::smoke());
    assert!(!rows.is_empty());
    let rendered = fig06::table(&rows).to_string();
    assert!(rendered.contains("Fig 6"));
    assert!(rendered.contains("count"));
    assert!(rendered.contains("sum"));
}

#[test]
fn validity_driver_end_to_end() {
    let cfg = validity::Config::smoke(TopologyKind::Random, Aggregate::Count, 300);
    let rows = validity::run(&cfg);
    let rendered = validity::table(&cfg, &rows).to_string();
    assert!(rendered.contains("WILDFIRE"));
    assert!(rendered.contains("ORACLE"));
    // Every row carries all four protocols.
    for row in &rows {
        assert_eq!(row.protocols.len(), 4);
    }
}

#[test]
fn fig10_fig11_drivers_end_to_end() {
    let rows10 = fig10::run(&fig10::Config::smoke());
    assert!(fig10::table(&rows10).to_string().contains("Fig 10"));
    assert!(!fig10::price_ratios(&rows10).is_empty());

    let rows11 = fig11::run(&fig11::Config::smoke());
    assert!(fig11::table(&rows11).to_string().contains("Fig 11"));
}

#[test]
fn fig12_fig13_drivers_end_to_end() {
    let rows12 = fig12::run(&fig12::Config::smoke());
    assert!(fig12::table(&rows12).to_string().contains("Fig 12"));
    assert_eq!(fig12::max_ratios(&rows12).len(), 2);

    let cfg13 = fig13::Config::smoke();
    let time_rows = fig13::run_time_cost(&cfg13);
    let profiles = fig13::run_profile(&cfg13);
    assert!(fig13::time_table(&time_rows)
        .to_string()
        .contains("Fig 13a"));
    assert!(fig13::profile_table(&profiles)
        .to_string()
        .contains("Fig 13b"));
}

#[test]
fn price_and_ablation_drivers_end_to_end() {
    let rows = price::run(&price::Config::smoke());
    assert!(price::table(&rows)
        .to_string()
        .contains("price of validity"));

    let rows = ablation::run(&ablation::Config::smoke());
    assert_eq!(rows.len(), 4);
    assert!(ablation::table(&rows).to_string().contains("Ablation"));
}

#[test]
fn continuous_query_over_long_churn() {
    let net = Network::build(TopologyKind::Random, 250, 3);
    let d_hat = net.d_hat();
    let window = 2 * d_hat as u64 + 4;
    let churn = ChurnPlan::uniform_failures(250, 50, Time(0), Time(window * 4), HostId(0), 9);
    let plan = RunPlan::query(Aggregate::Max)
        .d_hat(d_hat)
        .seed(1)
        .churn(churn)
        .continuous(window, 4)
        .protocol(ProtocolKind::Wildfire(WildfireOpts::default()));
    let windows = &judged_plan(net.graph(), net.values(), &plan)[0].windows;
    assert_eq!(windows.len(), 4);
    for w in windows {
        assert!(
            w.judged.verdict.is_valid(),
            "window {:?}: max must stay valid, got {:?}",
            w.start,
            w.judged.verdict
        );
    }
}

#[test]
fn capture_recapture_tracks_churning_population() {
    let mut pop = PopulationModel::new(5_000, 0.02, 60.0, 7);
    let mut js = JollySeber::new(400, 2_500);
    let mut ok = 0;
    let mut total = 0;
    for t in 0..20 {
        pop.step();
        let est = js.observe(&mut pop);
        if t >= 3 {
            total += 1;
            if let Some(e) = est.estimate {
                let truth = pop.size() as f64;
                if e > 0.3 * truth && e < 3.0 * truth {
                    ok += 1;
                }
            }
        }
    }
    assert!(
        ok * 10 >= total * 7,
        "only {ok}/{total} estimates within 3x of truth"
    );
}

#[test]
fn ring_estimator_continuous_validity() {
    let mut est = RingEstimator::new(3_000, 200, 5);
    for step in 0..10 {
        est.churn_step(0.03, 40);
        let truth = est.true_size() as f64;
        let e = est.estimate_mean(20).expect("ring non-empty");
        assert!(
            e > truth / 3.0 && e < truth * 3.0,
            "step {step}: estimate {e} vs truth {truth}"
        );
    }
}

#[test]
fn facade_round_trip_all_aggregates() {
    let net = Network::build(TopologyKind::Gnutella, 300, 12);
    for aggregate in [
        Aggregate::Min,
        Aggregate::Max,
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Average,
    ] {
        let answer = net
            .query(aggregate)
            .repetitions(16)
            .run(ProtocolKind::Wildfire(WildfireOpts::default()));
        let v = answer.value.expect("declared");
        assert!(v.is_finite() && v >= 0.0, "{}: {v}", aggregate.name());
        assert!(answer.metrics.messages_sent > 0);
    }
}

#[test]
fn radio_medium_through_facade() {
    let net = Network::build(TopologyKind::Grid, 225, 8);
    let p2p = net
        .query(Aggregate::Count)
        .run(ProtocolKind::Wildfire(WildfireOpts::default()));
    let radio = net
        .query(Aggregate::Count)
        .medium(Medium::Radio)
        .run(ProtocolKind::Wildfire(WildfireOpts::default()));
    assert!(
        radio.metrics.messages_sent < p2p.metrics.messages_sent,
        "radio broadcast must be cheaper: {} vs {}",
        radio.metrics.messages_sent,
        p2p.metrics.messages_sent
    );
}
