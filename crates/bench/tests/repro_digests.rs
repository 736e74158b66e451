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

use std::path::{Path, PathBuf};
use std::process::Command;

/// The prefix of the lines this test owns in the golden file.
const PREFIX: &str = "repro/";

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/outputs.txt")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(name: &str, bytes: &[u8]) -> String {
    format!("{PREFIX}{name} {} {:016x}", bytes.len(), fnv1a(bytes))
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
    let lines = quick_run_lines();
    let golden = std::fs::read_to_string(golden_path()).expect("tests/golden/outputs.txt exists");
    if std::env::var_os("POV_BLESS").is_some_and(|v| v == "1") {
        let mut text: String = golden
            .lines()
            .filter(|l| !l.starts_with(PREFIX))
            .map(|l| format!("{l}\n"))
            .collect();
        for l in &lines {
            text.push_str(l);
            text.push('\n');
        }
        std::fs::write(golden_path(), text).expect("write the golden file");
        return;
    }
    let pinned: Vec<&str> = golden.lines().filter(|l| l.starts_with(PREFIX)).collect();
    assert_eq!(
        pinned, lines,
        "the quick `repro` output moved (pinned left, now right)"
    );
}
