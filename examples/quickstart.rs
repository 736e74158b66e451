//! Quickstart: issue one aggregate query over a churning P2P overlay and
//! let the oracle judge the answer.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pov_core::prelude::*;

fn main() {
    // A 2,000-host Gnutella-like overlay with Zipf attribute values.
    let net = Network::build(TopologyKind::Gnutella, 2_000, 42);
    println!(
        "network: {} hosts, {} edges, D̂ = {}",
        net.graph().num_hosts(),
        net.graph().num_edges(),
        net.d_hat()
    );

    let wildfire = ProtocolKind::Wildfire(WildfireOpts::default());
    // 200 hosts (10%) will fail while the query runs.
    for protocol in [
        ProtocolKind::SpanningTree,
        ProtocolKind::Dag { k: 2 },
        wildfire,
    ] {
        let answer = net
            .query(Aggregate::Count)
            .churn(200)
            .repetitions(16)
            .run(protocol);
        let v = answer.value.expect("hq survives in this demo");
        let (lo, hi) = answer.verdict.bounds.expect("count always bounded");
        println!(
            "{:<14} count = {:>7.1}   valid range [{:.0}, {:.0}]   within: {:<5}   messages: {}",
            protocol.label(),
            v,
            lo,
            hi,
            answer.verdict.within_bounds,
            answer.metrics.messages_sent,
        );
    }

    // Min/max are exactly Single-Site Valid under WILDFIRE (Thm 5.1).
    let answer = net.query(Aggregate::Max).churn(200).run(wildfire);
    println!(
        "WILDFIRE max = {:?}, strictly valid: {}",
        answer.value,
        answer.verdict.is_valid()
    );
}
