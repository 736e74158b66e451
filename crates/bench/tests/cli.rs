//! The `repro` flag contract, driven through the real binary: which
//! options and subcommands exist, and what a `repro bench` run may
//! leave on disk.

use std::path::Path;
use std::process::{Command, Output};

fn repro(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("repro binary runs")
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("temp dir readable")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn bench_rejects_the_retired_flags() {
    for (args, complaint) in [
        (&["bench", "--check", "x"][..], "unknown option"),
        (&["bench", "--overhead"][..], "unknown option"),
        (&["bench", "--counters"][..], "unknown option"),
        (&["bench", "--scale"][..], "unknown option"),
        (&["bench", "--threads", "2"][..], "does not apply"),
    ] {
        let out = repro(args, Path::new("."));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.contains(args[1]) && first.contains(complaint),
            "{args:?}: expected '{complaint}' naming {}, got: {first}",
            args[1]
        );
    }
}

#[test]
fn bench_writes_only_what_json_names() {
    let dir = std::env::temp_dir().join(format!("pov_cli_bench_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");

    let out = repro(&["bench", "--quick"], &dir);
    assert!(out.status.success(), "{out:?}");
    assert!(entries(&dir).is_empty(), "a bare run writes nothing");

    let out = repro(&["bench", "--quick", "--json", "out.json"], &dir);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(entries(&dir), ["out.json"]);
    let doc = std::fs::read_to_string(dir.join("out.json")).expect("document readable");
    assert!(doc.contains("\"scale_10k\""), "{doc}");
    // This run only: no trajectory, no recorded baseline, no ratio to it.
    for retired in ["\"history\"", "\"baseline\"", "\"speedup", "\"sha\""] {
        assert!(!doc.contains(retired), "{retired} in:\n{doc}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_mentions_no_retired_flag() {
    let out = repro(&["--help"], Path::new("."));
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for retired in ["--check", "--overhead", "--counters", "--scale"] {
        assert!(!help.contains(retired), "{retired} still in --help");
    }
    assert!(
        help.contains("\n    repro bench [--quick] [--json PATH]\n"),
        "bench usage line lists exactly its two flags:\n{help}"
    );
    assert!(!help.contains("repro soak"), "soak usage line in:\n{help}");
}

#[test]
fn soak_is_no_longer_a_subcommand() {
    let out = repro(&["soak"], Path::new("."));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.contains("unknown experiment 'soak'"),
        "expected the unknown-experiment rejection, got: {first}"
    );
}

/// Run `args` in a fresh directory and expect exit 2 with `complaint`
/// on the first stderr line and nothing written.
fn rejected(args: &[&str], complaint: &str) {
    let dir = std::env::temp_dir().join(format!(
        "pov_cli_rejected_{}_{}",
        std::process::id(),
        args.join("_").replace(['/', '.'], "")
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = repro(args, &dir);
    let written = entries(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.contains(complaint),
        "{args:?}: expected '{complaint}', got: {first}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert!(written.is_empty(), "{args:?} wrote {written:?}");
}

#[test]
fn list_stands_alone() {
    let out = repro(&["list"], Path::new("."));
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("experiments: fig6 "));
    for args in [
        &["fig6", "list"][..],
        &["list", "extra"][..],
        &["list", "--paper"][..],
        &["list", "--json", "out.json"][..],
    ] {
        rejected(args, "`repro list` stands alone");
    }
}

#[test]
fn an_experiment_named_twice_is_rejected() {
    rejected(
        &["--json", "d.json", "fig6", "fig6"],
        "'fig6' is named twice",
    );
}

#[test]
fn flag_rejections_name_the_right_subcommands() {
    rejected(&["--out", "traces", "fig6"], "not `repro`");
    for sub in ["scenario", "trace"] {
        rejected(
            &[sub, "scenarios/smoke.scn", "--quick"],
            "'--quick' applies to `repro bench` and `repro mux`",
        );
    }
    rejected(
        &["--quick"],
        "'--quick' applies to `repro bench` and `repro mux`",
    );
}
