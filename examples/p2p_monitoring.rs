//! P2P network monitoring (§1, §2: "aggregate queries can be used to
//! deduce usage trends in P2P networks — e.g. average load on hosts").
//!
//! A continuous average-load query runs window after window over an
//! overlay that keeps losing hosts (Continuous Single-Site Validity,
//! §4.2), while a capture–recapture estimator (§5.4) tracks the
//! shrinking population size in parallel.
//!
//! ```sh
//! cargo run --release --example p2p_monitoring
//! ```

use pov_core::capture_recapture::{JollySeber, PopulationModel};
use pov_core::continuous::hc_decay;
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::prelude::*;

fn main() {
    let n = 1_500;
    let net = Network::build(TopologyKind::Gnutella, n, 7);
    let d_hat = net.d_hat();
    let window = 2 * d_hat as u64 + 5;
    let windows = 6;

    // 20% of the overlay churns away over the monitoring horizon.
    let churn = ChurnPlan::uniform_failures(
        n,
        n / 5,
        Time(0),
        Time(window * windows as u64),
        HostId(0),
        99,
    );

    println!("== continuous avg-load query (window = {window} ticks) ==");
    let plan = RunPlan::query(Aggregate::Average)
        .d_hat(d_hat)
        .repetitions(16)
        .seed(3)
        .churn(churn)
        .continuous(window, windows)
        .protocol(ProtocolKind::Wildfire(WildfireOpts::default()));
    for w in &judged_plan(net.graph(), net.values(), &plan)[0].windows {
        let r = &w.judged;
        println!(
            "t={:<5} avg ≈ {:>7.2}   window HC = {:<5} HU = {:<5} factor {:>5.2}   msgs {}",
            w.start,
            r.value.unwrap_or(f64::NAN),
            r.hc_size,
            r.hu_size,
            r.verdict.approx_factor.unwrap_or(f64::INFINITY),
            r.metrics.messages_sent,
        );
    }

    println!("\n== why validity is judged per window (§4.2) ==");
    // Under *turnover* — a third of the overlay rotates out while fresh
    // hosts rotate in — the naive whole-interval HC empties while the
    // windowed one keeps tracking the live population. (A uniform random
    // overlay keeps the rotated population connected; preferential-
    // attachment graphs would also lose connectivity when the early hubs
    // leave, a separate effect.)
    let turnover_graph = pov_core::pov_topology::generators::random_average_degree(n, 8.0, 99);
    let horizon = window * windows as u64;
    let third = n as u32 / 3;
    let mut turnover = ChurnPlan::none();
    for i in 1..third {
        turnover = turnover.with_failure(Time(i as u64 * horizon / third as u64), HostId(i));
    }
    for i in third..2 * third {
        let j = i - third;
        turnover = turnover.with_join(Time(j as u64 * horizon / third as u64), HostId(i));
    }
    println!("window   |HC| over [t-W, t]   |HC| over [0, t] (naive)");
    for (w, (windowed, cumulative)) in
        hc_decay(&turnover_graph, &turnover, HostId(0), window, windows)
            .into_iter()
            .enumerate()
    {
        println!("{w:>6}   {windowed:>18}   {cumulative:>24}");
    }

    println!("\n== capture–recapture size estimation (Jolly–Seber, §5.4) ==");
    let mut pop = PopulationModel::new(n, 0.03, 10.0, 5);
    let mut js = JollySeber::new(150, 800);
    for period in 0..10 {
        pop.step();
        let est = js.observe(&mut pop);
        match est.estimate {
            Some(e) => println!(
                "period {period:>2}: Ĥ = {e:>8.0}   (truth {:>5}, marked {:>4}, recaptured {:>3})",
                pop.size(),
                est.marked,
                est.recaptured,
            ),
            None => println!(
                "period {period:>2}: marking... (truth {:>5}, marked {:>4})",
                pop.size(),
                est.marked
            ),
        }
    }
    println!("probe/sample messages spent: {}", js.messages);
}
