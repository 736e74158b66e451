//! One benchmark run of one workload: set-up (several times), a
//! discarded warm-up iteration, the timed closed loop on one thread with
//! the reference kernel sampled around every timed region, the
//! correctness gate, and — in a traced run — the span-derived and probed
//! per-layer metrics.

use crate::decl::{unit_of, END_TO_END, PER_LAYER};
use crate::probes::Layers;
use crate::reference::Reference;
use crate::span::Tracer;
use crate::stats::{iqr_rel, median, quartiles};
use crate::tally::{Gate, Tally};
use crate::workloads::{Size, Workload};
use pov_scenario::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Benchmark seed: every input is generated from it.
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Input scale.
    pub size: Size,
}

/// What one run measured.
pub struct RunResult {
    /// Checks attempted and failed, with reasons.
    pub gate: Gate,
    /// Every declared metric of this run's kind, in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Set-up repetitions.
    pub setups: usize,
    /// The discarded first iteration, seconds.
    pub cold_iter_s: f64,
    /// Median of the timed iterations, seconds at machine factor 1.
    pub iter_p50_s: f64,
    /// Inter-quartile range of the timed iterations, same seconds.
    pub iter_iqr_s: f64,
    /// Every timed (untraced) iteration in run order: wall seconds
    /// divided by the machine factor around it.
    pub iter_samples: Vec<f64>,
    /// The same iterations in wall seconds.
    pub iter_wall: Vec<f64>,
    /// Median machine factor over the run's timed regions.
    pub machine_factor: f64,
    /// The reduction of one iteration (they are all identical).
    pub tally: Tally,
    /// The traced run's spans (`None` for an untraced run).
    pub tracer: Option<Tracer>,
}

impl RunResult {
    /// No check failed.
    pub fn correct(&self) -> bool {
        self.gate.failed == 0
    }

    /// The one-line result object of the benchmark contract.
    pub fn contract_json(&self) -> Json {
        let mut metrics = Json::obj();
        for &(name, value) in &self.metrics {
            metrics = metrics.with(
                name,
                Json::obj().with("value", value).with("unit", unit_of(name)),
            );
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.gate.attempted)
            .with("failed", self.gate.failed)
            .with("metrics", metrics)
    }
}

/// Set-up is sampled in slots — one before the warm-up, one after every
/// timed iteration — so that its samples see the same stretch of machine
/// time the iterations do: a slot repeats set-up until this much time
/// has passed…
const SETUP_SLOT: Duration = Duration::from_millis(30);
/// …but at most this many times (cheap set-ups would otherwise bury the
/// trace in spans).
const SETUP_SLOT_MAX_REPS: usize = 50;
/// Fewest timed iterations of a full-size run, however long they take.
const MIN_ITERATIONS: usize = 7;
/// The same for a traced run, which times this many untraced and this
/// many traced iterations.
const MIN_ITERATIONS_TRACED: usize = 3;

/// Peak resident set size of this process in MB (`VmHWM`); NaN where
/// `/proc/self/status` does not exist.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run one iteration: every unit, in order.
fn iterate<W: Workload>(w: &W, t: &mut Tracer) -> Vec<W::Output> {
    (0..w.units())
        .map(|unit| black_box(w.run_unit(unit, t)))
        .collect()
}

/// A set-up repetition shorter than this — the reference sample's own
/// nominal length — runs out of the core's own caches: it does not feel
/// the machine state the kernel measures, and dividing by the factor
/// would add the kernel's swing to it instead of taking the set-up's out
/// (measured, README "The machine factor").
const SHORT_SETUP_S: f64 = 0.02;

/// Every set-up repetition of a run.
#[derive(Default)]
struct SetupTimes {
    /// Wall seconds.
    wall: Vec<f64>,
    /// Wall seconds divided by the machine factor of the repetition's
    /// slot.
    scaled: Vec<f64>,
}

impl SetupTimes {
    /// What `setup_s` reports: for short repetitions the first quartile
    /// of the wall seconds (they are cheap enough to find the moments the
    /// box leaves them alone), for long ones the median at machine
    /// factor 1, as for iterations.
    fn seconds(&self) -> f64 {
        if median(&self.wall) < SHORT_SETUP_S {
            quartiles(&self.wall).0
        } else {
            median(&self.scaled)
        }
    }
}

/// One slot of set-up repetitions between two reference samples, each
/// repetition's wall seconds, raw and divided by the slot's machine
/// factor, into `times`; returns the last instance built. Earlier ones
/// are dropped before the next is built, so a slot never holds two of
/// its own.
fn setup_slot<W: Workload>(
    opts: &Opts,
    t: &mut Tracer,
    machine: &mut Reference,
    times: &mut SetupTimes,
) -> W {
    let first = times.wall.len();
    let (w, _, factor) = machine.timed(|| {
        let slot_started = Instant::now();
        let mut reps = 0;
        loop {
            t.set_iteration(times.wall.len() as u32);
            let start = Instant::now();
            let w = t.span("bench.setup", |t| W::setup(opts.seed, opts.size, t));
            times.wall.push(start.elapsed().as_secs_f64());
            reps += 1;
            if slot_started.elapsed() >= SETUP_SLOT || reps == SETUP_SLOT_MAX_REPS {
                break w;
            }
        }
    });
    let scaled: Vec<f64> = times.wall[first..].iter().map(|s| s / factor).collect();
    times.scaled.extend(scaled);
    w
}

/// Run workload `W` once under `opts`.
pub fn run<W: Workload>(opts: &Opts) -> RunResult {
    let smoke = opts.size == Size::Smoke;
    let mut gate = Gate::default();
    let mut tracer = Tracer::new(opts.trace);
    let mut untraced = Tracer::new(false);

    let mut machine = Reference::new();
    let mut setup_times = SetupTimes::default();
    let workload = setup_slot::<W>(opts, &mut tracer, &mut machine, &mut setup_times);

    // Warm-up: arenas, pools and page faults are paid here, and the
    // first tally is the reference every later iteration must equal.
    let (warm_up, cold_iter_s, _) = machine.timed(|| iterate(&workload, &mut untraced));
    let reference = workload.tally(&warm_up);
    drop(warm_up);

    // The timed closed loop. A traced run alternates untraced and traced
    // iterations so both see the same machine states.
    let min_iterations = match (smoke, opts.trace) {
        (true, _) => 2,
        (false, true) => MIN_ITERATIONS_TRACED,
        (false, false) => MIN_ITERATIONS,
    };
    let mut plain = Vec::new();
    let mut plain_wall = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    let loop_started = Instant::now();
    while plain.len() < min_iterations
        || (opts.trace && traced.len() < plain.len())
        || loop_started.elapsed().as_secs_f64() < opts.seconds
    {
        let trace_this = opts.trace && traced.len() < plain.len();
        // The reference samples sit outside the iteration's span.
        let out = if trace_this {
            tracer.set_iteration(traced.len() as u32);
            let (out, wall, factor) =
                machine.timed(|| tracer.span("bench.iteration", |t| iterate(&workload, t)));
            traced.push(wall / factor);
            out
        } else {
            let (out, wall, factor) = machine.timed(|| iterate(&workload, &mut untraced));
            plain.push(wall / factor);
            plain_wall.push(wall);
            out
        };
        let tally = workload.tally(&out);
        gate.check(tally == reference, || {
            format!(
                "iteration fingerprint {:#018x} differs from the warm-up's {:#018x}{}",
                tally.fingerprint(),
                reference.fingerprint(),
                if trace_this {
                    " (traced re-composition)"
                } else {
                    ""
                }
            )
        });
        last = Some(out);
        drop(setup_slot::<W>(
            opts,
            &mut tracer,
            &mut machine,
            &mut setup_times,
        ));
    }
    let rss_mb = peak_rss_mb();

    // The gate, outside every timed region.
    let iterations = (plain.len() + traced.len()) as u64;
    gate.checks(
        reference.answers * iterations,
        reference.malformed * iterations,
        || "verdict with |HC| > |HU| or lower > upper".into(),
    );
    workload.verify(&last.expect("at least one timed iteration"), &mut gate);

    let (q1, q3) = quartiles(&plain);
    let mut result = RunResult {
        gate,
        metrics: Vec::new(),
        setups: setup_times.wall.len(),
        cold_iter_s,
        iter_p50_s: median(&plain),
        iter_iqr_s: q3 - q1,
        iter_samples: plain,
        iter_wall: plain_wall,
        machine_factor: median(machine.factors()),
        tally: reference,
        tracer: None,
    };
    if !opts.trace {
        let value = |name: &str| match name {
            "setup_s" => setup_times.seconds(),
            "iter_s_p50" => result.iter_p50_s,
            // Over the median iteration, not the total timed wall: one
            // stalled iteration would otherwise move the whole figure.
            "queries_per_s" => result.tally.answers as f64 / result.iter_p50_s,
            "peak_rss_mb" => rss_mb,
            "msgs_per_query" => result.tally.msgs_per_query(),
            other => panic!("end-to-end metric {other} has no measurement"),
        };
        result.metrics = END_TO_END.iter().map(|m| (m.name, value(m.name))).collect();
        return result;
    }

    let mut layers = Layers::new();
    tracer.set_iteration(0);
    tracer.span("bench.probes", |t| {
        workload.probes(opts.size, t, &mut layers)
    });
    span_metrics(&tracer, &mut layers);
    layers.set("bench.cold_iter_s", cold_iter_s);
    layers.set("bench.iter_iqr_rel", iqr_rel(&result.iter_samples));
    layers.set("bench.iter_wall_s_p50", median(&result.iter_wall));
    layers.set("bench.machine_factor", result.machine_factor);
    layers.set(
        "bench.trace_overhead_frac",
        median(&traced) / result.iter_p50_s - 1.0,
    );
    layers.set("bench.failed_fraction", result.gate.failed_fraction());
    layers.set("oracle.valid_fraction", result.tally.valid_fraction());
    layers.set("core.judged_answers", result.tally.answers as f64);
    result.metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name)))
        .collect();
    result.tracer = Some(tracer);
    result
}

/// Per-layer metrics that are medians over iterations (or set-up
/// repetitions) of a span's summed seconds or a counter.
fn span_metrics(t: &Tracer, layers: &mut Layers) {
    const SECONDS: [(&str, &str); 17] = [
        ("topology.build_s", "topology.build"),
        ("topology.diameter_s", "topology.diameter"),
        ("sim.plan_churn_s", "sim.plan_churn"),
        ("sim.plan_partition_s", "sim.plan_partition"),
        ("sim.plan_phases_s", "sim.plan_phases"),
        ("core.mux_generate_s", "core.mux_generate"),
        ("protocols.run_s.wildfire", "protocols.run.wildfire"),
        (
            "protocols.run_s.spanning_tree",
            "protocols.run.spanning_tree",
        ),
        ("protocols.run_s.dag", "protocols.run.dag"),
        ("protocols.mux_run_s", "protocols.run_mux"),
        ("oracle.host_sets_s", "oracle.host_sets"),
        ("oracle.judge_s", "oracle.judge"),
        ("core.window_plans_s", "core.window_plans"),
        ("core.mux_judge_s", "core.judge_workload"),
        ("scenario.parse_s", "scenario.parse"),
        ("scenario.run_batch_s", "scenario.run_batch"),
        ("scenario.render_s", "scenario.render"),
    ];
    const COUNTS: [&str; 7] = [
        "protocols.events",
        "protocols.messages",
        "protocols.mux_raw_messages",
        "protocols.mux_payload_items",
        "protocols.mux_cache_joins",
        "oracle.trace_events",
        "scenario.report_bytes",
    ];
    let median_or_zero = |xs: Vec<f64>| if xs.is_empty() { 0.0 } else { median(&xs) };
    for (metric, span) in SECONDS {
        layers.set(metric, median_or_zero(t.seconds_by_iteration(span)));
    }
    for name in COUNTS {
        layers.set(name, median_or_zero(t.counts_by_iteration(name)));
    }
    layers.set(
        "core.judged_self_s",
        median_or_zero(t.self_seconds_by_iteration("core.judged")),
    );
    let run_s: f64 = ["wildfire", "spanning_tree", "dag"]
        .iter()
        .map(|p| layers.get(&format!("protocols.run_s.{p}")))
        .sum::<f64>()
        + layers.get("protocols.mux_run_s");
    let events = layers.get("protocols.events");
    if events > 0.0 {
        layers.set("protocols.ns_per_event", run_s * 1e9 / events);
    }
    let raw = layers.get("protocols.mux_raw_messages");
    if raw > 0.0 {
        layers.set(
            "protocols.mux_share_ratio",
            layers.get("protocols.mux_payload_items") / raw,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::churn_partition::ChurnPartition;
    use crate::workloads::continuous_lifecycle::ContinuousLifecycle;
    use crate::workloads::mux_mixed::MuxMixed;
    use crate::workloads::scale_tree::ScaleTree;
    use crate::workloads::scn_pipeline::ScnPipeline;
    use crate::workloads::wildfire_static::WildfireStatic;

    fn smoke(trace: bool, seed: u64) -> Opts {
        Opts {
            seed,
            seconds: 0.0,
            trace,
            size: Size::Smoke,
        }
    }

    /// The emitted object has exactly the contract's keys and exactly
    /// the declared metrics of the run's kind, each with its unit.
    fn assert_contract_shape(r: &RunResult, declared: &[crate::decl::MetricDecl]) {
        let Json::Obj(pairs) = r.contract_json() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &pairs[3].1 else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), declared.len());
        for ((name, value), decl) in metrics.iter().zip(declared) {
            assert_eq!(name, decl.name);
            assert_eq!(value.get("unit").and_then(Json::as_str), Some(decl.unit));
            assert!(value.get("value").is_some());
        }
        assert!(r.gate.attempted >= 1);
    }

    /// Both kinds of run at smoke size; returns the traced one.
    fn assert_both_kinds<W: Workload>(name: &str) -> RunResult {
        let plain = run::<W>(&smoke(false, 2004));
        assert!(plain.correct(), "{name}: {:?}", plain.gate.reasons);
        assert_contract_shape(&plain, &END_TO_END);
        for &(metric, value) in &plain.metrics {
            assert!(value > 0.0, "{name}: {metric} = {value}");
        }
        let traced = run::<W>(&smoke(true, 2004));
        assert!(traced.correct(), "{name}: {:?}", traced.gate.reasons);
        assert_contract_shape(&traced, &PER_LAYER);
        // Same seed, same simulated statistics, traced or not.
        assert_eq!(plain.tally, traced.tally, "{name}");
        // Another seed, other inputs.
        let other = W::setup(2005, Size::Smoke, &mut Tracer::new(false));
        let fingerprint = other
            .tally(&iterate(&other, &mut Tracer::new(false)))
            .fingerprint();
        assert_ne!(plain.tally.fingerprint(), fingerprint, "{name}");
        traced
    }

    fn layer(r: &RunResult, name: &str) -> f64 {
        r.metrics.iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn setup_seconds_is_raw_for_short_repetitions_and_scaled_for_long_ones() {
        let short = SetupTimes {
            wall: vec![1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4, 7e-4],
            scaled: vec![9.0; 7],
        };
        assert_eq!(short.seconds(), 2e-4);
        let long = SetupTimes {
            wall: vec![0.3, 0.4, 0.5],
            scaled: vec![0.25, 0.35, 0.3],
        };
        assert_eq!(long.seconds(), 0.3);
    }

    #[test]
    fn scn_pipeline_smoke() {
        let traced = assert_both_kinds::<ScnPipeline>("scn_pipeline");
        assert!(layer(&traced, "scenario.run_batch_s") > 0.0);
        assert!(layer(&traced, "scenario.report_bytes") > 0.0);
        assert_eq!(layer(&traced, "protocols.run_s.wildfire"), 0.0);
    }

    #[test]
    fn wildfire_static_smoke() {
        let traced = assert_both_kinds::<WildfireStatic>("wildfire_static");
        assert!(layer(&traced, "protocols.run_s.wildfire") > 0.0);
        assert_eq!(layer(&traced, "protocols.run_s.dag"), 0.0);
        assert_eq!(layer(&traced, "core.window_plans_s"), 0.0);
        assert_eq!(layer(&traced, "oracle.trace_events"), 0.0);
        let spans = traced.tracer.as_ref().unwrap().spans();
        assert!(spans.iter().any(|s| s.name == "bench.iteration"));
    }

    #[test]
    fn churn_partition_smoke() {
        let traced = assert_both_kinds::<ChurnPartition>("churn_partition");
        assert!(layer(&traced, "protocols.run_s.dag") > 0.0);
        assert!(layer(&traced, "oracle.trace_events") > 0.0);
        assert!(layer(&traced, "sim.flood_churn_ns_per_event") > 0.0);
    }

    #[test]
    fn scale_tree_smoke() {
        let traced = assert_both_kinds::<ScaleTree>("scale_tree");
        assert!(layer(&traced, "sim.shard2_ratio") > 0.0);
        assert_eq!(layer(&traced, "oracle.valid_fraction"), 1.0);
    }

    #[test]
    fn mux_mixed_smoke() {
        let traced = assert_both_kinds::<MuxMixed>("mux_mixed");
        assert!(layer(&traced, "protocols.mux_share_ratio") > 1.0);
        assert_eq!(layer(&traced, "protocols.run_s.spanning_tree"), 0.0);
    }

    #[test]
    fn continuous_lifecycle_smoke() {
        let traced = assert_both_kinds::<ContinuousLifecycle>("continuous_lifecycle");
        assert!(layer(&traced, "core.window_plans_s") > 0.0);
        assert!(layer(&traced, "oracle.trace_events") > 0.0);
    }
}
