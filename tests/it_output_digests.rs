//! Pinned digests of the program's user-visible artefacts: the report
//! of every shipped `.scn` file and the `repro trace` files of `smoke`
//! and `soak_lifecycle` in all three formats. An engine or protocol
//! change that claims to move no output must leave every line of
//! `tests/golden/outputs.txt` as it is; this test recomputes each line
//! and names every artefact whose bytes moved.
//!
//! Each line is `name length fnv1a64`, the hash the benchmark's
//! fingerprint uses (FNV-1a over the artefact's bytes). To re-capture
//! after an *intended* output change, run this test with `POV_BLESS=1`
//! and commit the rewritten file with the change that moved it.
//!
//! The `repro/` lines pin the quick `repro` experiments' stdout and
//! `--json` document, the `examples/` lines the six examples' stdout.
//! Running those takes a release build, so
//! `crates/bench/tests/repro_digests.rs` and `tests/it_example_digests.rs`
//! check and re-capture them; this test leaves them alone.

use pov_integration_tests::{digest_line, fnv1a, golden_path};
use pov_scenario::{run_batch, trace_batch, Scenario};
use pov_telemetry::export;
use std::path::Path;

/// The scenarios whose traces are pinned: the CI smoke file and the
/// phased lifecycle arc (per-window records with phase labels).
const TRACED: [&str; 2] = ["smoke.scn", "soak_lifecycle.scn"];

/// The prefixes of the lines that release-only tests own.
const RELEASE_PREFIXES: [&str; 2] = ["repro/", "examples/"];

fn release_only(line: &str) -> bool {
    RELEASE_PREFIXES.iter().any(|p| line.starts_with(p))
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn load(file: &str) -> Scenario {
    let path = root().join("scenarios").join(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        .parse()
        .unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// Every pinned artefact as `(name, bytes)`, in a fixed order. Each
/// scenario runs on two threads: reports and traces are byte-identical
/// across thread counts (`it_scenarios`, `it_telemetry`).
fn artefacts() -> Vec<(String, String)> {
    let mut files: Vec<String> = std::fs::read_dir(root().join("scenarios"))
        .expect("scenarios/ exists")
        .map(|entry| entry.expect("dir entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.ends_with(".scn"))
        .collect();
    files.sort();
    let mut out: Vec<(String, String)> = files
        .iter()
        .map(|file| {
            (
                format!("report/{file}"),
                run_batch(&load(file), 2).to_json().render(),
            )
        })
        .collect();
    for file in TRACED {
        let doc = trace_batch(&load(file), 2);
        out.push((format!("trace/{file}.jsonl"), export::jsonl(&doc)));
        out.push((format!("trace/{file}.chrome"), export::chrome(&doc)));
        out.push((format!("trace/{file}.summary"), export::summary(&doc)));
    }
    out
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn every_pinned_artefact_is_byte_identical() {
    let lines: Vec<String> = artefacts()
        .iter()
        .map(|(name, bytes)| digest_line(name, bytes.as_bytes()))
        .collect();
    let golden = std::fs::read_to_string(golden_path()).expect("tests/golden/outputs.txt exists");
    if std::env::var_os("POV_BLESS").is_some_and(|v| v == "1") {
        let mut text = String::from(
            "# name byte-length fnv1a64 — see tests/it_output_digests.rs; \
             re-capture only with POV_BLESS=1\n",
        );
        for l in lines
            .iter()
            .map(String::as_str)
            .chain(golden.lines().filter(|l| release_only(l)))
        {
            text.push_str(l);
            text.push('\n');
        }
        std::fs::write(golden_path(), text).expect("write the golden file");
        return;
    }
    let pinned: Vec<&str> = golden
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !release_only(l))
        .collect();
    let name_of = |l: &str| l.split(' ').next().unwrap_or_default().to_string();
    let mut moved = Vec::new();
    for l in &lines {
        match pinned.iter().find(|p| name_of(p) == name_of(l)) {
            Some(p) if p == l => {}
            Some(p) => moved.push(format!("{}: pinned `{p}`, now `{l}`", name_of(l))),
            None => moved.push(format!("{}: not pinned, now `{l}`", name_of(l))),
        }
    }
    for p in &pinned {
        if !lines.iter().any(|l| name_of(l) == name_of(p)) {
            moved.push(format!("{}: pinned but no longer produced", name_of(p)));
        }
    }
    assert!(
        moved.is_empty(),
        "{} artefact(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
