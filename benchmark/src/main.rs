//! `pov-benchmark` — the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! pov-benchmark --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! pov-benchmark --all [--seed S] [--seconds T] [--trace] [--repeat-check]
//! pov-benchmark --declaration
//! ```
//!
//! `--workload` runs one workload in this process and ends its standard
//! output with the one-line result object of the benchmark contract.
//! `--all` runs every workload in a child process of its own (peak RSS
//! is process-monotone), prints one summary table and writes
//! `benchmark/out/results.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod all;
mod decl;
mod harness;
mod probes;
mod reference;
mod span;
mod stats;
mod tally;
mod workloads;

use harness::{Opts, RunResult};
use pov_scenario::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Size;

/// Where runs leave their artefacts (git-ignored).
const OUT_DIR: &str = "benchmark/out";

/// The default benchmark seed.
const DEFAULT_SEED: u64 = 2004;

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    all: bool,
    declaration: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    repeat_check: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a u64"))?);
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(0.0..=60.0).contains(&secs) {
                    return Err(format!("--seconds {v}: outside 0..=60"));
                }
                args.seconds = Some(secs);
            }
            // `--trace 0|1` (the driver's spelling) or bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--all" => args.all = true,
            "--repeat-check" => args.repeat_check = true,
            "--smoke" => args.smoke = true,
            "--declaration" => args.declaration = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (args.workload.is_some(), args.all, args.declaration) {
        (true, false, false) | (false, true, false) | (false, false, true) => Ok(args),
        _ => Err("give exactly one of --workload NAME, --all, --declaration".into()),
    }
}

/// Facts about the build and the box, recorded with every result.
fn header() -> Json {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    Json::obj()
        .with("git_sha", tool("git", &["rev-parse", "HEAD"]))
        .with("rustc", tool("rustc", &["-V"]))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("threads", 1u64)
}

/// One line, no indentation: `render` pretty-prints, and nothing the
/// harness emits has a line break inside a string.
fn one_line(json: &Json) -> String {
    json.render().lines().map(str::trim_start).collect()
}

fn run_workload(name: &str, opts: &Opts) -> Option<RunResult> {
    use workloads::{
        churn_partition::ChurnPartition, continuous_lifecycle::ContinuousLifecycle,
        mux_mixed::MuxMixed, scale_tree::ScaleTree, scn_pipeline::ScnPipeline,
        wildfire_static::WildfireStatic,
    };
    Some(match name {
        "scn_pipeline" => harness::run::<ScnPipeline>(opts),
        "wildfire_static" => harness::run::<WildfireStatic>(opts),
        "churn_partition" => harness::run::<ChurnPartition>(opts),
        "scale_tree" => harness::run::<ScaleTree>(opts),
        "mux_mixed" => harness::run::<MuxMixed>(opts),
        "continuous_lifecycle" => harness::run::<ContinuousLifecycle>(opts),
        _ => return None,
    })
}

/// The file a single run leaves for `--all` to collect.
fn result_path(workload: &str, trace: bool) -> PathBuf {
    let kind = if trace { "layers" } else { "end_to_end" };
    Path::new(OUT_DIR).join(format!("{kind}_{workload}.json"))
}

fn single(name: &str, args: &Args) -> Result<ExitCode, String> {
    let opts = Opts {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(decl::RUN_SECONDS as f64),
        trace: args.trace,
        size: if args.smoke { Size::Smoke } else { Size::Full },
    };
    let header = header();
    println!(
        "# pov-benchmark workload={name} seed={} seconds={} trace={} size={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if args.smoke { "smoke" } else { "full" },
    );
    println!("# {}", one_line(&header));
    let result = run_workload(name, &opts).ok_or_else(|| {
        let names: Vec<&str> = decl::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;

    println!(
        "iterations: {} timed (median {:.4} s, IQR {:.4} s at machine factor 1; \
         wall median {:.4} s at factor {:.3}), warm-up {:.4} s wall, {} set-ups",
        result.iter_samples.len(),
        result.iter_p50_s,
        result.iter_iqr_s,
        stats::median(&result.iter_wall),
        result.machine_factor,
        result.cold_iter_s,
        result.setups
    );
    let row = |samples: &[f64]| {
        let cells: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
        cells.join(" ")
    };
    println!("iteration seconds: {}", row(&result.iter_samples));
    println!("iteration wall seconds: {}", row(&result.iter_wall));
    for &(metric, value) in &result.metrics {
        println!("{metric:<34} {value:>16.6} {}", decl::unit_of(metric));
    }
    let info = Json::obj()
        .with("valid_fraction", result.tally.valid_fraction())
        .with("msgs_per_query", result.tally.msgs_per_query())
        .with("failed_fraction", result.gate.failed_fraction())
        .with(
            "fingerprint",
            format!("{:#018x}", result.tally.fingerprint()),
        )
        .with("judged_answers_per_iteration", result.tally.answers);
    println!("info {}", one_line(&info));
    for reason in &result.gate.reasons {
        println!("FAILED {reason}");
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if let Some(tracer) = &result.tracer {
        println!("self time by span (s):");
        for row in tracer.self_time_table() {
            println!(
                "  {:<30} n={:<7} total {:>10.5}  self {:>10.5}",
                row.name,
                row.count,
                row.total_ns as f64 / 1e9,
                row.self_ns as f64 / 1e9
            );
        }
        let path = Path::new(OUT_DIR).join(format!("trace_{name}.json"));
        std::fs::write(&path, tracer.chrome_trace(name).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let contract = result.contract_json();
    let doc = Json::obj()
        .with("workload", name)
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("trace", opts.trace)
        .with("header", header)
        .with(
            "iterations",
            Json::obj()
                .with("timed", result.iter_samples.len())
                .with("p50_s", result.iter_p50_s)
                .with("iqr_s", result.iter_iqr_s)
                .with("wall_p50_s", stats::median(&result.iter_wall))
                .with("machine_factor", result.machine_factor)
                .with("warmup_s", result.cold_iter_s)
                .with("setups", result.setups),
        )
        .with("info", info)
        .with("result", contract.clone());
    let path = result_path(name, opts.trace);
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;

    println!("{}", one_line(&contract));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if args.declaration {
            print!("{}", decl::benchmark_json().render());
            Ok(ExitCode::SUCCESS)
        } else if let Some(name) = &args.workload {
            single(name, &args)
        } else {
            all::run(&args)
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("pov-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_spelling_parses() {
        let a = parse_args(&argv(
            "--workload scale_tree --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("scale_tree"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), true));
        let a = parse_args(&argv("--workload scale_tree --trace 0 --seed 3")).unwrap();
        assert_eq!((a.trace, a.seed), (false, Some(3)));
    }

    #[test]
    fn bare_trace_flag_and_all_mode_parse() {
        let a = parse_args(&argv("--all --trace --repeat-check")).unwrap();
        assert!(a.all && a.trace && a.repeat_check);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--all --workload x",
            "--workload",
            "--all --seed minus",
            "--all --seconds 999",
            "--all --frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn one_line_is_one_line_and_still_json() {
        let doc = Json::obj()
            .with("a", vec![1u64, 2])
            .with("b", Json::obj().with("c", "d e"));
        let line = one_line(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn unknown_workload_is_none() {
        let opts = Opts {
            seed: 1,
            seconds: 0.0,
            trace: false,
            size: Size::Smoke,
        };
        assert!(run_workload("nope", &opts).is_none());
    }
}
