//! `--all`: every workload in a child process of its own, one summary
//! table, one machine-readable results file, and the repeat check.

use crate::decl::{self, END_TO_END, WORKLOADS};
use crate::{header, result_path, Args, DEFAULT_SEED, OUT_DIR};
use pov_scenario::Json;
use std::path::Path;
use std::process::{Command, ExitCode};

/// The simulated statistics and the fingerprint: a same-seed rerun must
/// reproduce them exactly.
const EXACT_INFO: [&str; 4] = [
    "valid_fraction",
    "msgs_per_query",
    "failed_fraction",
    "fingerprint",
];

/// Run one workload in a child process and return the document it left.
fn child(workload: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.unwrap_or(DEFAULT_SEED).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    // The child shares this process's stdout: its block scrolls by as
    // progress. `status` waits for it to end.
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    let path = result_path(workload, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if !status.success() {
        return Err(format!("{workload} failed its correctness gate ({status})"));
    }
    Ok(doc)
}

fn metric(doc: &Json, name: &str) -> Option<f64> {
    doc.get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Every way two same-seed sets disagree beyond what the benchmark
/// allows: an end-to-end metric apart by more than its bound (as a share
/// of the first set's value), or an exact statistic that differs at all.
fn disagreements(first: &[Json], second: &[Json]) -> Vec<String> {
    let mut out = Vec::new();
    for ((w, a), b) in WORKLOADS.iter().zip(first).zip(second) {
        for m in &END_TO_END {
            match (metric(a, m.name), metric(b, m.name)) {
                (Some(x), Some(y)) if ((y - x) / x).abs() <= m.bound => {}
                (x, y) => out.push(format!(
                    "{}: {} read {x:?} then {y:?} (bound {:.0}%)",
                    w.name,
                    m.name,
                    m.bound * 100.0
                )),
            }
        }
        for key in EXACT_INFO {
            let read = |doc: &Json| doc.get("info").and_then(|i| i.get(key)).cloned();
            if read(a) != read(b) || read(a).is_none() {
                out.push(format!("{}: {key} does not repeat exactly", w.name));
            }
        }
    }
    out
}

fn print_summary(set: &[Json]) {
    print!("{:<22}", "workload");
    for m in &END_TO_END {
        print!(" {:>16}", format!("{} [{}]", m.name, m.unit));
    }
    println!(
        " {:>10} {:>8} {:>20}",
        "valid_frac", "failed", "fingerprint"
    );
    for (w, doc) in WORKLOADS.iter().zip(set) {
        print!("{:<22}", w.name);
        for m in &END_TO_END {
            print!(" {:>16.5}", metric(doc, m.name).unwrap_or(f64::NAN));
        }
        let info = |key: &str| doc.get("info").and_then(|i| i.get(key));
        println!(
            " {:>10.4} {:>8.4} {:>20}",
            info("valid_fraction")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            info("failed_fraction")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            info("fingerprint").and_then(Json::as_str).unwrap_or("?"),
        );
    }
}

/// The `--all` entry point.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let sets = if args.repeat_check { 2 } else { 1 };
    let mut end_to_end: Vec<Vec<Json>> = Vec::new();
    let mut layers: Vec<Json> = Vec::new();
    for set in 0..sets {
        let mut docs = Vec::new();
        for w in &WORKLOADS {
            docs.push(child(w.name, args, false)?);
            if args.trace && set == 0 {
                layers.push(child(w.name, args, true)?);
            }
        }
        end_to_end.push(docs);
    }

    println!();
    for (i, set) in end_to_end.iter().enumerate() {
        println!("== end-to-end, set {} ==", i + 1);
        print_summary(set);
    }
    let failures = if args.repeat_check {
        disagreements(&end_to_end[0], &end_to_end[1])
    } else {
        Vec::new()
    };
    for f in &failures {
        println!("REPEAT-CHECK {f}");
    }
    if args.repeat_check && failures.is_empty() {
        println!("repeat check: two sets agree within every bound");
    }

    let doc = Json::obj()
        .with("header", header())
        .with("seed", args.seed.unwrap_or(DEFAULT_SEED))
        .with("declaration", decl::benchmark_json())
        .with(
            "end_to_end_sets",
            Json::Arr(end_to_end.into_iter().map(Json::Arr).collect()),
        )
        .with("per_layer", Json::Arr(layers))
        .with("repeat_check_failures", failures.clone());
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(iter_s: f64, fingerprint: &str) -> Json {
        let mut metrics = Json::obj();
        for m in &END_TO_END {
            let value = if m.name == "iter_s_p50" { iter_s } else { 1.0 };
            metrics = metrics.with(m.name, Json::obj().with("value", value));
        }
        let mut info = Json::obj();
        for key in EXACT_INFO {
            info = if key == "fingerprint" {
                info.with(key, fingerprint)
            } else {
                info.with(key, 0.5)
            };
        }
        Json::obj()
            .with("result", Json::obj().with("metrics", metrics))
            .with("info", info)
    }

    #[test]
    fn repeat_check_allows_the_bound_and_nothing_inexact() {
        let set = |iter_s, fp: &str| vec![doc(iter_s, fp); WORKLOADS.len()];
        assert!(disagreements(&set(1.0, "0x1"), &set(1.2, "0x1")).is_empty());
        let slow = disagreements(&set(1.0, "0x1"), &set(1.3, "0x1"));
        assert_eq!(slow.len(), WORKLOADS.len());
        assert!(slow[0].contains("iter_s_p50"), "{slow:?}");
        let drift = disagreements(&set(1.0, "0x1"), &set(1.0, "0x2"));
        assert_eq!(drift.len(), WORKLOADS.len());
        assert!(drift[0].contains("fingerprint"), "{drift:?}");
    }
}
