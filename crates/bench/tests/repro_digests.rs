//! Pinned digests of the quick `repro` run: the stdout of every
//! experiment in `repro list` and its `--json` document, as the
//! `repro/` lines of `tests/golden/outputs.txt` (`name length fnv1a64`,
//! the format `tests/it_output_digests.rs` uses for the scenario reports
//! and traces).
//!
//! The run takes seconds on an optimised build and minutes on a debug
//! one, so the test runs only in release:
//! `cargo test --release -p pov_bench --test repro_digests`. To
//! re-capture after an *intended* output change, run it with
//! `POV_BLESS=1`; that rewrites the `repro/` lines and leaves every
//! other line of the file as it is.

use pov_integration_tests::{check_golden_lines, digest_line};
use std::process::Command;

/// The prefix of the lines this test owns in the golden file.
const PREFIX: &str = "repro/";

fn line(name: &str, bytes: &[u8]) -> String {
    digest_line(&format!("{PREFIX}{name}"), bytes)
}

/// Run every experiment at quick scale and digest what it prints and
/// what `--json` writes.
fn quick_run_lines() -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("pov_repro_digests_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--json", "quick.json"])
        .current_dir(&dir)
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read(dir.join("quick.json")).expect("--json document written");
    std::fs::remove_dir_all(&dir).ok();
    vec![line("quick.stdout", &out.stdout), line("quick.json", &json)]
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs every quick experiment: release builds only"
)]
fn quick_repro_output_is_byte_identical() {
    check_golden_lines(PREFIX, &quick_run_lines(), "the quick `repro` output moved");
}
