//! Pinned digests of the stdout of every example under `examples/`, as
//! the `examples/` lines of `tests/golden/outputs.txt` (`name length
//! fnv1a64`, the format `tests/it_output_digests.rs` uses). A change to
//! the façade the examples call must leave every line as it is.
//!
//! The test runs the example binaries that `cargo test` builds beside
//! its own, in `target/<profile>/examples/`; a run that selects only
//! this test (`--test it_example_digests`) must build them first
//! (`cargo build --release --examples`), and fails on a binary older
//! than a source it was built from. The six take seconds on a
//! debug build, so the test runs only in release:
//! `cargo test --release --test it_example_digests`. To re-capture
//! after an *intended* output change, run it with `POV_BLESS=1`; that
//! rewrites the `examples/` lines and leaves every other line as it is.

use pov_integration_tests::{check_golden_lines, digest_line};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The prefix of the lines this test owns in the golden file.
const PREFIX: &str = "examples/";

/// The examples' names, sorted: the `.rs` files under `examples/`.
fn example_names() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("examples/ exists")
        .filter_map(|entry| entry.expect("dir entry").file_name().into_string().ok())
        .filter_map(|file| file.strip_suffix(".rs").map(str::to_string))
        .collect();
    names.sort();
    names
}

/// `target/<profile>/examples/`: this test binary runs from
/// `target/<profile>/deps/`.
fn example_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    exe.parent()
        .and_then(Path::parent)
        .expect("test binary sits in target/<profile>/deps")
        .join("examples")
}

/// Panic when `bin` is older than any source it was built from, as
/// listed in the dep-info file cargo writes beside it (`<bin>.d`): a
/// bare `--test` run rebuilds this test after a library edit but not the
/// examples, and would otherwise digest the old code's output.
fn assert_fresh(bin: &Path) {
    let modified = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let built = modified(bin);
    let dep_info = std::fs::read_to_string(bin.with_extension("d")).unwrap_or_default();
    let (_, sources) = dep_info.split_once(": ").unwrap_or_default();
    for source in sources.split_whitespace() {
        let fresh = matches!((modified(Path::new(source)), built), (Some(s), Some(b)) if s <= b);
        assert!(
            fresh,
            "stale example binary: run `cargo build --release --examples` ({} predates {source})",
            bin.display()
        );
    }
}

/// Run every example and digest what it prints.
fn example_lines() -> Vec<String> {
    let dir = example_dir();
    example_names()
        .iter()
        .map(|name| {
            let bin = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
            assert_fresh(&bin);
            let out = Command::new(&bin).output().unwrap_or_else(|e| {
                panic!(
                    "cannot run {}: {e} (build the examples first: \
                     `cargo build --release --examples`)",
                    bin.display()
                )
            });
            assert!(out.status.success(), "example {name}: {out:?}");
            digest_line(&format!("{PREFIX}{name}.stdout"), &out.stdout)
        })
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs all six examples: release builds only"
)]
fn every_example_prints_what_it_printed() {
    check_golden_lines(PREFIX, &example_lines(), "an example's stdout moved");
}
