//! Pinned counts of the quick `repro mux` run, the shared-substrate
//! workload against the same queries run one at a time: both raw
//! message totals, the cache joins and the number of answers judged
//! valid. The run is deterministic, so each count holds exactly.
//!
//! The run takes seconds on an optimised build and minutes on a debug
//! one, so the test runs only in release:
//! `cargo test --release -p pov_bench --test mux_quick`.

use pov_bench::engine_bench::BenchMode;
use pov_bench::mux;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the quick mux workload: release builds only"
)]
fn quick_mux_counts_are_pinned() {
    let r = mux::run(BenchMode::Quick);
    assert!(r.answers_agree(), "mismatches: {:?}", r.mismatches);
    assert_eq!(r.raw_messages, 632_351, "shared-substrate messages");
    assert_eq!(r.sequential_raw_messages, 3_926_349, "sequential messages");
    assert_eq!(r.cache_joins, 0);
    assert_eq!(r.queries, 200);
    assert_eq!(r.valid_fraction, 125.0 / 200.0, "125 valid answers");
}
