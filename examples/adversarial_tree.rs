//! Theorem 4.4, live: the cycle-with-spur instance on which a single
//! failure makes SPANNINGTREE's answer arbitrarily bad while WILDFIRE
//! holds the line.
//!
//! ```sh
//! cargo run --release --example adversarial_tree
//! ```

use pov_core::pov_oracle::host_sets;
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::{runner, ProtocolKind};
use pov_core::pov_topology::analysis;
use pov_core::pov_topology::generators::special;
use pov_core::prelude::*;

fn main() {
    println!("Theorem 4.4: for each e ≥ 2 there are instances where best-effort");
    println!("protocols return q(H) with |H| ≤ |HC|/e after ONE failure.\n");

    for n in [8usize, 32, 128] {
        let (graph, hq, victim) = special::cycle_with_spur(n);
        let total = graph.num_hosts();
        let values = vec![1u64; total];
        let d = analysis::diameter_exact(&graph);
        let churn = ChurnPlan::none().with_failure(Time(3), victim);
        let cfg = RunPlan::query(Aggregate::Count)
            .d_hat(d + 2)
            .repetitions(16)
            .churn(churn)
            .seed(1)
            .from_host(hq);

        let st = runner::run(ProtocolKind::SpanningTree, &graph, &values, &cfg);
        let dag = runner::run(ProtocolKind::Dag { k: 2 }, &graph, &values, &cfg);
        let wf = runner::run(
            ProtocolKind::Wildfire(WildfireOpts::default()),
            &graph,
            &values,
            &cfg,
        );
        let sets = host_sets(&graph, &st.trace, hq, Time::ZERO, Time(2 * (d as u64 + 2)));

        println!(
            "cycle of {} + spur (|H| = {total}), victim h1 fails at t=3:",
            2 * n + 2
        );
        println!(
            "  |HC| = {} (everyone but the victim stays reachable)",
            sets.hc_len()
        );
        println!(
            "  SPANNINGTREE : {:>7.1}  <- lost the long arc",
            st.value.unwrap()
        );
        println!("  DAG(k=2)     : {:>7.1}", dag.value.unwrap());
        println!(
            "  WILDFIRE     : {:>7.1}  (FM estimate of {} hosts)\n",
            wf.value.unwrap(),
            sets.hc_len()
        );
    }
}
