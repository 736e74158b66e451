//! Sensor-network scenario (Example 1.1 at scale): count the active
//! sensors in a grid over a radio medium while sensors die mid-query.
//!
//! Shows the full §6 comparison on one instance: the three protocols'
//! answers against the ORACLE's Single-Site-Validity bounds, plus the
//! communication price WILDFIRE pays — and how min queries escape it.
//!
//! ```sh
//! cargo run --release --example sensor_grid
//! ```

use pov_core::prelude::*;

fn main() {
    let side = 40; // 1,600 sensors
    let net = Network::build(TopologyKind::Grid, side * side, 11);
    let failures = side * side / 10;
    println!(
        "sensor grid {side}×{side} = {} hosts, radio medium, {failures} failures mid-query\n",
        net.graph().num_hosts()
    );

    let wildfire = ProtocolKind::Wildfire(WildfireOpts::default());
    println!("-- count query --");
    let mut wf_msgs = 0;
    let mut st_msgs = 0;
    for protocol in [
        ProtocolKind::SpanningTree,
        ProtocolKind::Dag { k: 2 },
        wildfire,
    ] {
        let answer = net
            .query(Aggregate::Count)
            .medium(Medium::Radio)
            .churn(failures)
            .repetitions(16)
            .run(protocol);
        let (lo, hi) = answer.verdict.bounds.expect("bounded");
        println!(
            "{:<14} v = {:>8.1}   oracle [{:>6.0}, {:>6.0}]   within: {:<5}   radio msgs: {}",
            protocol.label(),
            answer.value.unwrap(),
            lo,
            hi,
            answer.verdict.within_bounds,
            answer.metrics.messages_sent,
        );
        match protocol {
            ProtocolKind::Wildfire(_) => wf_msgs = answer.metrics.messages_sent,
            ProtocolKind::SpanningTree => st_msgs = answer.metrics.messages_sent,
            _ => {}
        }
    }
    println!(
        "price of validity (count): {:.1}x SPANNINGTREE messages\n",
        wf_msgs as f64 / st_msgs as f64
    );

    println!("-- min query (early aggregation pays for itself, §6.6) --");
    let wf_min = net
        .query(Aggregate::Min)
        .medium(Medium::Radio)
        .churn(failures)
        .run(wildfire);
    let st_min = net
        .query(Aggregate::Min)
        .medium(Medium::Radio)
        .churn(failures)
        .run(ProtocolKind::SpanningTree);
    println!(
        "WILDFIRE min = {:?} valid={} ({} msgs); SPANNINGTREE min = {:?} ({} msgs)",
        wf_min.value,
        wf_min.verdict.is_valid(),
        wf_min.metrics.messages_sent,
        st_min.value,
        st_min.metrics.messages_sent,
    );
    println!(
        "min-query ratio: {:.2}x — validity is nearly free for duplicate-insensitive aggregates",
        wf_min.metrics.messages_sent as f64 / st_min.metrics.messages_sent as f64
    );
}
