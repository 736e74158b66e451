//! `repro` — regenerate every table and figure of the paper's §6, and
//! run declarative scenario batches.
//!
//! ```sh
//! repro                      # all experiments at quick scale
//! repro --paper              # all experiments at the paper's full sizes
//! repro EXPERIMENT...        # a subset, by the names `repro list` prints
//! repro --json out.json      # also emit every experiment's rows as JSON
//! repro list                 # what exists
//!
//! repro scenario scenarios/smoke.scn             # one scenario batch
//! repro scenario a.scn b.scn --threads 8         # parallel batch runner
//! repro scenario a.scn --json report.json        # machine-readable report
//!
//! repro bench --quick --json bench.json          # host-count ladder, RSS gate
//!
//! repro trace scenarios/smoke.scn                # deterministic telemetry traces
//! repro trace a.scn --out traces --format chrome # Perfetto-loadable trace only
//! ```

use pov_bench::engine_bench::{self, BenchMode};
use pov_bench::mux;
use pov_core::experiments::{Scale, REGISTRY};
use pov_core::report::Table;
use pov_scenario::{run_batch, table_to_json, trace_batch, Json, Scenario};
use pov_telemetry::export;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "\
repro — regenerate the tables and figures of the paper's §6

USAGE:
    repro [--paper] [--json PATH] [EXPERIMENT]...
    repro scenario FILE... [--threads N] [--json PATH]
    repro trace FILE... [--threads N] [--out DIR] [--format jsonl|chrome|summary]
    repro bench [--quick] [--json PATH]
    repro mux [--quick] [--json PATH]

SUBCOMMANDS:
    (none)         run the paper's §6 experiments (EXPERIMENT subset, or all)
    list           print the experiment names
    scenario       run declarative .scn scenario batches and print reports
    trace          re-run scenario batches with deterministic telemetry traces
    bench          host-count ladder: one SPANNINGTREE query at 10⁴, 10⁵ and —
                   without '--quick' — 10⁶ hosts; exits non-zero when a rung
                   breaches the 0.11 KiB/host RSS ceiling (see docs/SCALING.md)
    mux            multiplexed-query driver: one shared-substrate workload vs
                   the same queries run sequentially (answers must agree and
                   the shared run must send fewer messages)
    overlay        one experiment by name: maintained-overlay vs frozen-graph
                   validity/cost comparison (`repro overlay`)
    adversary      one experiment by name: adaptive sketch-targeting attacker
                   vs oblivious churn at equal budget (`repro adversary`)
                   — any name from `repro list` runs the same way

    bench and mux print wall-clock figures for information only; they exit
    non-zero on counts and RSS, never on time. Wall-clock claims go
    through benchmark/run.sh (see docs/BENCHMARKING.md).

    Unknown subcommands are treated as experiment names and rejected with
    a non-zero exit and a pointer to `repro list`.

OPTIONS:
    --paper        run experiments at the paper's full §6 sizes (default: quick scale)
    --threads N    worker threads for the scenario batch runner or the trace
                   runner (default: 1)
    --json PATH    write results as JSON to PATH (experiment rows, scenario reports,
                   or this run's bench / mux document).
                   Without it nothing is written, and no earlier file is ever read
    --out DIR      `repro trace` only: directory for trace files (default: .)
    --format F     `repro trace` only: emit one exporter's file — jsonl,
                   chrome (trace-event JSON; open in Perfetto), or summary
                   (default: all three)
    --quick        run `repro bench` / `repro mux` at CI scale instead of full
    -h, --help     print this help

ARGUMENTS:
    EXPERIMENT     subset to run (default: all); `repro list` prints them
    FILE           scenario spec (.scn) — see the README's \"Scenario files\" section";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Split `args` into flag values and positional arguments.
struct Opts {
    paper: bool,
    quick: bool,
    threads: Option<usize>,
    json: Option<String>,
    out: Option<String>,
    format: Option<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        paper: false,
        quick: false,
        threads: None,
        json: None,
        out: None,
        format: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--paper" => opts.paper = true,
            "--quick" => opts.quick = true,
            "--threads" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("'--threads' expects a value (e.g. --threads 8)"));
                opts.threads = Some(parse_threads(v));
            }
            "--json" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("'--json' expects a file path (e.g. --json out.json)"));
                opts.json = Some(v.clone());
            }
            "--out" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("'--out' expects a directory (e.g. --out traces)"));
                opts.out = Some(v.clone());
            }
            "--format" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("'--format' expects one of: jsonl, chrome, summary"));
                if !matches!(v.as_str(), "jsonl" | "chrome" | "summary") {
                    fail(&format!(
                        "unknown trace format '{v}' (expected jsonl, chrome, or summary)"
                    ));
                }
                opts.format = Some(v.clone());
            }
            other if other.starts_with('-') => {
                fail(&format!("unknown option '{other}'"));
            }
            other => opts.positional.push(other.to_string()),
        }
    }
    opts
}

fn parse_threads(v: &str) -> usize {
    match v.parse::<usize>() {
        Ok(0) => fail("'--threads 0' makes no progress; use at least 1"),
        Ok(n) if n > 512 => fail(&format!(
            "'--threads {n}' is past any plausible core count; use 1..=512"
        )),
        Ok(n) => n,
        Err(_) => fail(&format!(
            "'--threads' expects a positive integer, got '{v}'"
        )),
    }
}

fn write_json(path: &str, doc: &Json) {
    if let Err(e) = std::fs::write(path, doc.render()) {
        eprintln!("cannot write '{path}': {e}");
        std::process::exit(1);
    }
    eprintln!("[wrote {path}]");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    match args.first().map(String::as_str) {
        Some("list") => list_main(&args[1..]),
        Some("scenario") => scenario_main(&args[1..]),
        Some("trace") => trace_main(&args[1..]),
        Some("bench") => bench_main(&args[1..]),
        Some("mux") => mux_main(&args[1..]),
        _ => experiments_main(&args),
    }
}

/// Reject `repro trace`-only flags in another subcommand's argument list.
fn reject_trace_flags(opts: &Opts, subcommand: &str) {
    if opts.out.is_some() {
        fail(&format!(
            "'--out' applies to `repro trace`, not `{subcommand}`"
        ));
    }
    if opts.format.is_some() {
        fail(&format!(
            "'--format' applies to `repro trace`, not `{subcommand}`"
        ));
    }
}

/// Parse the arguments of one of the smoke drivers (`bench`, `mux`).
/// They share one contract: `--quick` and `--json PATH`, no positional
/// arguments, single-threaded.
fn driver_opts(args: &[String], subcommand: &str) -> (Opts, BenchMode) {
    let opts = parse_opts(args);
    if opts.paper {
        fail(&format!(
            "'--paper' applies to the figure experiments, not `{subcommand}`"
        ));
    }
    if opts.threads.is_some() {
        fail(&format!(
            "'--threads' does not apply to `{subcommand}`: it runs single-threaded"
        ));
    }
    reject_trace_flags(&opts, subcommand);
    if let Some(arg) = opts.positional.first() {
        fail(&format!(
            "`{subcommand}` takes no workload arguments (got '{arg}')"
        ));
    }
    let mode = if opts.quick {
        BenchMode::Quick
    } else {
        BenchMode::Full
    };
    (opts, mode)
}

// -------------------------------------------------------------------- bench

/// `repro bench`: the host-count ladder. A rung breaching the
/// 0.11 KiB/host RSS ceiling exits non-zero — the memory gate behind the
/// million-host claim in docs/SCALING.md.
fn bench_main(args: &[String]) {
    let (opts, mode) = driver_opts(args, "repro bench");
    eprintln!(
        "# engine scale ladder ({} scale, single thread)",
        mode.label()
    );
    let results = engine_bench::run_scale(mode);
    println!(
        "{:<12} {:>9} {:>12} {:>10} {:>12} {:>10} {:>9}",
        "rung", "n", "events", "wall_ms", "events/s", "rss_kb", "kB/host"
    );
    for r in &results {
        println!(
            "{:<12} {:>9} {:>12} {:>10.1} {:>12.0} {:>10} {:>9}",
            r.name,
            r.n,
            r.events,
            r.wall_ms,
            r.events_per_sec,
            r.peak_rss_kb.map_or("-".to_string(), |k| k.to_string()),
            r.peak_rss_kb
                .map_or("-".to_string(), |k| format!("{:.2}", k as f64 / r.n as f64)),
        );
    }
    if let Some(path) = &opts.json {
        let label = format!("scale-{}", mode.label());
        write_json(path, &engine_bench::to_json(&label, &results));
    }
    // Greppable mid-rung line for CI logs: the 10⁵ rung's throughput
    // next to its RSS, one line, fixed keys.
    if let Some(r) = results.iter().find(|r| r.name == "scale_100k") {
        println!(
            "scale_mid_rung: n {} events_per_sec {:.0} rss_kb {}",
            r.n,
            r.events_per_sec,
            r.peak_rss_kb.map_or("-".to_string(), |k| k.to_string()),
        );
    }
    let failures = engine_bench::scale_failures(&results);
    if failures.is_empty() {
        eprintln!(
            "[scale ladder passed: RSS ceiling {} KiB/host + {} kB base]",
            engine_bench::SCALE_RSS_PER_HOST_KB,
            engine_bench::SCALE_RSS_ALLOWANCE_KB
        );
    } else {
        for f in &failures {
            eprintln!("SCALE FAILURE: {f}");
        }
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------- mux

/// `repro mux`: the multiplexed-query driver. One shared-substrate run
/// of the preset workload versus the same queries executed one at a
/// time over the same environment. Exits non-zero when a non-joined
/// query diverges from its solo twin, when sharing saved no messages, or
/// when peak RSS breaches the per-(host × query) ceiling; the
/// wall-clock figures are information only.
fn mux_main(args: &[String]) {
    let (opts, mode) = driver_opts(args, "repro mux");
    eprintln!("# multiplexed query bench ({} scale)", mode.label());
    let r = mux::run(mode);
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "n", "queries", "mux_ms", "seq_ms", "mux_msgs", "seq_msgs", "joins", "valid%"
    );
    println!(
        "{:<10} {:>8} {:>12.1} {:>12.1} {:>12} {:>12} {:>8} {:>7.0}%",
        r.n,
        r.queries,
        r.mux_wall_ms,
        r.sequential_wall_ms,
        r.raw_messages,
        r.sequential_raw_messages,
        r.cache_joins,
        r.valid_fraction * 100.0,
    );
    println!("queries_per_sec: {:.1}", r.queries_per_sec);
    println!("speedup: {:.2}", r.speedup);
    if let Some(path) = &opts.json {
        let label = format!("mux-{}", mode.label());
        let doc = Json::obj()
            .with("schema", "bench_engine/v2")
            .with("mode", label.as_str())
            .with("mux", r.to_json());
        write_json(path, &doc);
    }
    if !r.answers_agree() {
        for m in &r.mismatches {
            eprintln!("MUX MISMATCH: {m}");
        }
        eprintln!(
            "[mux failed: {} of {} non-joined queries diverged from their solo twins]",
            r.mismatches.len(),
            r.queries
        );
        std::process::exit(1);
    }
    if !r.shares_messages() {
        eprintln!(
            "MUX FAILURE: the shared run sent {} raw messages, the sequential runs {} — \
             multiplexing saved nothing",
            r.raw_messages, r.sequential_raw_messages
        );
        std::process::exit(1);
    }
    if let Some(f) = mux::rss_failure(&r) {
        eprintln!("MUX FAILURE: {f}");
        std::process::exit(1);
    }
    // Fixed-key lines, printed only once the gates hold: CI greps
    // `mux_rss_kb:`, and the mux_quick test pins the message counts.
    println!(
        "shared_messages: {} < {}",
        r.raw_messages, r.sequential_raw_messages
    );
    if let Some(rss) = r.peak_rss_kb {
        println!("mux_rss_kb: {rss} <= {}", r.rss_ceiling_kb());
    }
    eprintln!(
        "[mux passed: per-query answers equal their solo twins, fewer messages sent, \
         RSS within {} B per host × query + {} kB base]",
        mux::MUX_RSS_PER_PAIR_B,
        mux::MUX_RSS_ALLOWANCE_KB
    );
}

// ---------------------------------------------------------------- scenarios

/// Read and parse one `.scn` file, exiting 1 on an I/O or parse error.
fn load_scenario(path: &str) -> Scenario {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read '{path}': {e}"))
        .and_then(|text| text.parse().map_err(|e| format!("{path}: {e}")));
    parsed.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(1);
    })
}

fn scenario_main(args: &[String]) {
    let opts = parse_opts(args);
    if opts.paper {
        fail("'--paper' applies to the figure experiments, not `repro scenario`");
    }
    if opts.quick {
        fail(
            "'--quick' applies to `repro bench` and `repro mux`; scenario scale lives in the \
             .scn file",
        );
    }
    reject_trace_flags(&opts, "repro scenario");
    if opts.positional.is_empty() {
        fail("`repro scenario` needs at least one .scn file");
    }
    let threads = opts.threads.unwrap_or(1);
    let mut reports = Vec::new();
    for path in &opts.positional {
        let scn = load_scenario(path);
        let start = Instant::now();
        let report = run_batch(&scn, threads);
        for t in summary_tables(&report) {
            println!("{t}");
        }
        eprintln!(
            "[{} done: {} runs x {} protocol(s) on {} thread(s) in {:.1?}]\n",
            report.scenario,
            report.runs,
            report.protocols.len(),
            threads,
            start.elapsed()
        );
        reports.push(report);
    }
    if let Some(path) = &opts.json {
        let doc = Json::Arr(reports.iter().map(|r| r.to_json()).collect());
        write_json(path, &doc);
    }
}

// ------------------------------------------------------------------- traces

/// `repro trace FILE...` — re-execute each scenario's batch matrix with
/// a telemetry recorder attached to every cell and write the exporters'
/// files. The trace never touches the scenario's *report*: `repro
/// scenario` output stays byte-identical whether or not a trace was
/// ever taken.
fn trace_main(args: &[String]) {
    let opts = parse_opts(args);
    if opts.paper {
        fail("'--paper' applies to the figure experiments, not `repro trace`");
    }
    if opts.quick {
        fail(
            "'--quick' applies to `repro bench` and `repro mux`; trace scale lives in the \
             .scn file",
        );
    }
    if opts.json.is_some() {
        fail("`repro trace` writes per-format files; use '--out DIR' and '--format'");
    }
    if opts.positional.is_empty() {
        fail("`repro trace` needs at least one .scn file");
    }
    let threads = opts.threads.unwrap_or(1);
    let formats: Vec<&str> = match &opts.format {
        None => vec!["jsonl", "chrome", "summary"],
        Some(f) => vec![f.as_str()],
    };
    let out_dir = PathBuf::from(opts.out.as_deref().unwrap_or("."));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create '{}': {e}", out_dir.display());
        std::process::exit(1);
    }
    for path in &opts.positional {
        let scn = load_scenario(path);
        let start = Instant::now();
        let doc = trace_batch(&scn, threads);
        for fmt in &formats {
            let (ext, rendered) = match *fmt {
                "jsonl" => ("jsonl", export::jsonl(&doc)),
                "chrome" => ("chrome.json", export::chrome(&doc)),
                _ => ("summary.txt", export::summary(&doc)),
            };
            let file = out_dir.join(format!("TRACE_{}.{ext}", doc.name));
            if let Err(e) = std::fs::write(&file, rendered) {
                eprintln!("cannot write '{}': {e}", file.display());
                std::process::exit(1);
            }
            eprintln!("[wrote {}]", file.display());
        }
        print!("{}", export::summary(&doc));
        eprintln!(
            "[{} traced: {} cells on {} thread(s) in {:.1?}]\n",
            doc.name,
            doc.cells.len(),
            threads,
            start.elapsed()
        );
    }
}

/// One table per protocol section — a multi-protocol scenario prints
/// its paired contenders back to back, followed by one paired-difference
/// table per contender (`contender − baseline`, mean ± 95% CI per cell;
/// `|mean| > ci95` reads as a significant protocol effect).
fn summary_tables(report: &pov_scenario::Report) -> Vec<Table> {
    let mut tables: Vec<Table> = report
        .protocols
        .iter()
        .map(|section| {
            let windows = if report.windows > 1 {
                format!(", {} windows", report.windows)
            } else {
                String::new()
            };
            let title = format!(
                "scenario '{}' — {} on {} (n = {}, D̂ = {}, regime = {}{}): {} runs, {:.0}% declared, {:.0}% valid",
                report.scenario,
                section.protocol,
                report.topology,
                report.n,
                report.d_hat,
                report.churn_model,
                windows,
                report.runs,
                section.declared_fraction * 100.0,
                section.valid_fraction * 100.0,
            );
            let mut t = Table::new(title, &["metric", "mean", "stddev", "min", "max", "count"]);
            for &(name, agg) in &section.metrics {
                t.push(vec![
                    name.to_string(),
                    format!("{:.2}", agg.mean),
                    format!("{:.2}", agg.stddev),
                    format!("{:.2}", agg.min),
                    format!("{:.2}", agg.max),
                    agg.count.to_string(),
                ]);
            }
            t
        })
        .collect();
    if let Some(w) = &report.workload {
        let title = format!(
            "scenario '{}' — [workload]: {} queries/cell multiplexed over one substrate: \
             {:.0}% declared, {:.0}% valid",
            report.scenario,
            w.queries_per_cell,
            w.declared_fraction * 100.0,
            w.valid_fraction * 100.0,
        );
        let mut t = Table::new(title, &["metric", "total"]);
        t.push(vec![
            "raw_messages".to_string(),
            w.stats.raw_messages.to_string(),
        ]);
        t.push(vec![
            "payload_items".to_string(),
            w.stats.payload_items.to_string(),
        ]);
        t.push(vec![
            "cache_joins".to_string(),
            w.stats.cache_joins.to_string(),
        ]);
        t.push(vec!["queries".to_string(), w.records.len().to_string()]);
        tables.push(t);
    }
    for paired in &report.paired {
        let title = format!(
            "scenario '{}' — paired difference {} − {} per (seed, rep, window) cell",
            report.scenario, paired.protocol, paired.baseline,
        );
        let mut t = Table::new(title, &["metric", "mean", "ci95", "significant", "count"]);
        for d in &paired.diffs {
            t.push(vec![
                d.metric.to_string(),
                format!("{:.2}", d.mean),
                format!("±{:.2}", d.ci95),
                // A single cell has no variance estimate (ci95
                // degenerates to 0); refuse to call that significant.
                if d.count < 2 {
                    "-".to_string()
                } else {
                    (d.mean.abs() > d.ci95).to_string()
                },
                d.count.to_string(),
            ]);
        }
        tables.push(t);
    }
    tables
}

// -------------------------------------------------------------- experiments

/// `repro list`: print the experiment names.
fn list_main(args: &[String]) {
    if let Some(arg) = args.first() {
        fail(&format!(
            "`repro list` stands alone: it takes no flags and no experiment names (got '{arg}')"
        ));
    }
    let names: Vec<&str> = REGISTRY.iter().map(|&(name, _)| name).collect();
    println!("experiments: {}", names.join(" "));
}

fn experiments_main(args: &[String]) {
    let opts = parse_opts(args);
    if opts.threads.is_some() {
        fail("'--threads' only applies to `repro scenario` (experiments run one trial at a time)");
    }
    if opts.quick {
        fail(
            "'--quick' applies to `repro bench` and `repro mux`; experiments default to quick \
             scale already",
        );
    }
    reject_trace_flags(&opts, "repro");
    let scale = if opts.paper {
        Scale::Paper
    } else {
        Scale::Quick
    };
    // Reject typos and repeats before any experiment spends work.
    let mut wanted = Vec::new();
    for (i, w) in opts.positional.iter().enumerate() {
        if w == "list" {
            fail("`repro list` stands alone: it takes no flags and no experiment names");
        }
        if opts.positional[..i].contains(w) {
            fail(&format!("experiment '{w}' is named twice"));
        }
        match REGISTRY.iter().find(|&&(name, _)| name == w) {
            Some(row) => wanted.push(*row),
            None => fail(&format!("unknown experiment '{w}' (try: repro list)")),
        }
    }
    if wanted.is_empty() {
        wanted = REGISTRY.to_vec();
    }

    println!(
        "# The Price of Validity — reproduction harness ({:?} scale)\n",
        scale
    );
    let mut emitted = Vec::new();
    for (name, experiment) in wanted {
        let start = Instant::now();
        let out = experiment(scale);
        print!("{out}");
        emitted.push((name, out));
        eprintln!("[{name} done in {:.1?}]\n", start.elapsed());
    }
    if let Some(path) = &opts.json {
        let doc = Json::obj().with("scale", format!("{scale:?}")).with(
            "experiments",
            Json::Arr(
                emitted
                    .iter()
                    .map(|(name, out)| {
                        Json::obj().with("experiment", *name).with(
                            "tables",
                            Json::Arr(out.tables.iter().map(table_to_json).collect()),
                        )
                    })
                    .collect(),
            ),
        );
        write_json(path, &doc);
    }
}
