//! The quick `repro mux` run, driven once through the real binary: the
//! shared-substrate workload against the same queries run one at a
//! time. Its `--json` document carries the pinned counts (both raw
//! message totals, the cache joins and the number of answers judged
//! valid) and the fields a reader of `MUX_engine.json` relies on; its
//! stdout carries the fixed-key RSS line printed once every gate held.
//! The run is deterministic, so each count holds exactly.
//!
//! The run takes seconds on an optimised build and minutes on a debug
//! one, so the test runs only in release:
//! `cargo test --release -p pov_bench --test mux_quick`.

use pov_scenario::Json;
use std::process::Command;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the quick mux workload: release builds only"
)]
fn quick_mux_counts_are_pinned() {
    let dir = std::env::temp_dir().join(format!("pov_mux_quick_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["mux", "--quick", "--json", "MUX_engine.json"])
        .current_dir(&dir)
        .output()
        .expect("repro binary runs");
    let text = std::fs::read_to_string(dir.join("MUX_engine.json"));
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "{out:?}");
    let doc = Json::parse(&text.expect("document written")).expect("document parses");

    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("mux-quick"));
    let mux = doc.get("mux").expect("mux block");
    let int = |key| mux.get(key).and_then(Json::as_i64);
    assert_eq!(
        int("raw_messages"),
        Some(632_351),
        "shared-substrate messages"
    );
    assert_eq!(
        int("sequential_raw_messages"),
        Some(3_926_349),
        "sequential messages"
    );
    assert_eq!(int("cache_joins"), Some(0));
    assert_eq!(int("queries"), Some(200));
    let valid = mux.get("valid_fraction").and_then(Json::as_f64);
    assert_eq!(valid, Some(125.0 / 200.0), "125 valid answers");
    assert_eq!(mux.get("answers_agree"), Some(&Json::Bool(true)));
    assert!(mux.get("queries_per_sec").and_then(Json::as_f64).is_some());
    let rss = int("peak_rss_kb").expect("peak RSS measured");

    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find_map(|l| l.strip_prefix("mux_rss_kb: "));
    let (seen, ceiling) = line
        .and_then(|l| l.split_once(" <= "))
        .expect("mux_rss_kb line");
    assert_eq!(seen.parse::<i64>(), Ok(rss), "stdout and document agree");
    assert!(ceiling.parse::<u64>().is_ok(), "{ceiling}");
}
