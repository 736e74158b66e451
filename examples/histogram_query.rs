//! §7 "future work", implemented: complex aggregates over WILDFIRE via
//! duplicate-insensitive extension operators — a full value histogram
//! (bucket counts, quantiles, average) and a KMV distinct count, each
//! from a single convergecast, each surviving churn the way WILDFIRE
//! count does.
//!
//! ```sh
//! cargo run --release --example histogram_query
//! ```

use pov_core::pov_protocols::runner::run_wildfire_operator;
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::Operator;
use pov_core::prelude::*;
use pov_core::workload;

fn main() {
    let n = 2_000;
    let net = Network::build(TopologyKind::Gnutella, n, 23);
    let truth = net.values();
    println!(
        "{} hosts; true avg = {:.1}, true max = {}",
        n,
        truth.iter().sum::<u64>() as f64 / n as f64,
        truth.iter().max().unwrap()
    );

    let cfg = RunPlan::query(Aggregate::Count)
        .d_hat(net.d_hat())
        .repetitions(16)
        .churn(ChurnPlan::uniform_failures(
            n,
            n / 10,
            Time::ZERO,
            Time(2 * net.d_hat() as u64),
            HostId(0),
            5,
        ))
        .seed(9);

    println!("\n== value histogram over WILDFIRE (10% churn) ==");
    let (out, partial) = run_wildfire_operator(
        Operator::ValueHistogram {
            min: workload::PAPER_MIN,
            max: workload::PAPER_MAX,
            buckets: 10,
        },
        WildfireOpts::default(),
        net.graph(),
        net.values(),
        &cfg,
    );
    let partial = partial.expect("hq survived");
    let hist = partial.as_histogram().expect("histogram partial");
    for (i, est) in hist.bucket_estimates().iter().enumerate() {
        let (lo, hi) = hist.buckets().range_of(i);
        let true_count = truth.iter().filter(|&&v| v >= lo && v <= hi).count();
        println!(
            "  [{lo:>3}, {hi:>3}]  est {est:>8.1}   true {true_count:>5}  {}",
            "#".repeat((est / 25.0).min(60.0) as usize)
        );
    }
    println!(
        "  est avg = {:.1}   est median = {:.1}   est p90 = {:.1}   ({} messages)",
        hist.average().unwrap(),
        hist.quantile(0.5).unwrap(),
        hist.quantile(0.9).unwrap(),
        out.metrics.messages_sent,
    );

    println!("\n== KMV distinct count vs FM count (same churn) ==");
    let (kmv, _) = run_wildfire_operator(
        Operator::KmvCount { k: 128 },
        WildfireOpts::default(),
        net.graph(),
        net.values(),
        &cfg,
    );
    let (fm, _) = run_wildfire_operator(
        Operator::Standard,
        WildfireOpts::default(),
        net.graph(),
        net.values(),
        &cfg,
    );
    println!(
        "  KMV(k=128): {:>8.1}   FM(c=16): {:>8.1}   (population {} minus churn)",
        kmv.value.unwrap(),
        fm.value.unwrap(),
        n
    );
}
