//! `scn_pipeline` — the user's real path: `.scn` text in, JSON report
//! out, for 13 benchmark-owned scenarios (`benchmark/workloads/`, one
//! per grammar regime). Many *small* simulations, so parse and
//! lowering, plan materialisation, `SimBuilder::build`, the oracle and
//! report aggregation dominate and the event loop does not.

use super::{stream, sub_seed, Net, Size, Workload};
use crate::probes::{self, Layers};
use crate::span::Tracer;
use crate::tally::{Gate, Tally};
use pov_scenario::{run_batch, Report, Scenario};

/// The scenario templates: `@TOPOLOGY_SEED@` and `@SEEDS@` are filled
/// in from the benchmark seed at set-up.
const TEMPLATES: [(&str, &str); 13] = [
    ("static", include_str!("../../workloads/static.scn")),
    (
        "uniform_churn",
        include_str!("../../workloads/uniform_churn.scn"),
    ),
    (
        "churn_partition_paired",
        include_str!("../../workloads/churn_partition_paired.scn"),
    ),
    (
        "cascading_partitions",
        include_str!("../../workloads/cascading_partitions.scn"),
    ),
    (
        "partition_heal",
        include_str!("../../workloads/partition_heal.scn"),
    ),
    (
        "correlated_failure",
        include_str!("../../workloads/correlated_failure.scn"),
    ),
    (
        "flash_crowd",
        include_str!("../../workloads/flash_crowd.scn"),
    ),
    (
        "oscillating",
        include_str!("../../workloads/oscillating.scn"),
    ),
    (
        "adversarial_root",
        include_str!("../../workloads/adversarial_root.scn"),
    ),
    (
        "adversarial_sketch",
        include_str!("../../workloads/adversarial_sketch.scn"),
    ),
    (
        "overlay_churn",
        include_str!("../../workloads/overlay_churn.scn"),
    ),
    (
        "phases_continuous",
        include_str!("../../workloads/phases_continuous.scn"),
    ),
    (
        "mux_workload",
        include_str!("../../workloads/mux_workload.scn"),
    ),
];

/// Index of the failure-free scenario in [`TEMPLATES`].
const STATIC: usize = 0;

/// Generated inputs: the scenario texts, as a user would have them on
/// disk.
pub struct ScnPipeline {
    texts: Vec<String>,
    seed: u64,
}

/// One scenario's way through the pipeline.
pub struct Rendered {
    report: Report,
    json: String,
}

/// Fill one template in. The smoke size also shrinks every topology so
/// the whole library runs in a debug-build unit test.
fn instantiate(template: &str, index: usize, seed: u64, size: Size) -> String {
    let scenario_seed = sub_seed(seed, stream::RUN + index as u64);
    let seeds: Vec<String> = (0..size.pick(3, 1))
        .map(|k| (sub_seed(scenario_seed, k) % 1_000_000).to_string())
        .collect();
    let text = template
        .replace(
            "@TOPOLOGY_SEED@",
            &(sub_seed(scenario_seed, stream::TOPOLOGY) % 1_000_000).to_string(),
        )
        .replace("@SEEDS@", &seeds.join(", "));
    match size {
        Size::Full => text,
        Size::Smoke => text
            .lines()
            .map(|line| {
                if line.starts_with("n = ") {
                    "n = 120"
                } else {
                    line
                }
            })
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

fn parse(text: &str) -> Scenario {
    text.parse()
        .unwrap_or_else(|e| panic!("benchmark scenario does not parse: {e}"))
}

impl Workload for ScnPipeline {
    type Output = Rendered;

    fn setup(seed: u64, size: Size, t: &mut Tracer) -> Self {
        let texts: Vec<String> = t.span("scenario.text", |_| {
            TEMPLATES
                .iter()
                .enumerate()
                .map(|(i, (_, template))| instantiate(template, i, seed, size))
                .collect()
        });
        // No operation may fail once timing starts: reject a text that
        // does not parse here, in set-up.
        t.span("scenario.validate", |_| {
            texts.iter().for_each(|text| drop(parse(text)));
        });
        ScnPipeline { texts, seed }
    }

    fn units(&self) -> usize {
        self.texts.len()
    }

    fn run_unit(&self, unit: usize, t: &mut Tracer) -> Self::Output {
        let scn = t.span("scenario.parse", |_| parse(&self.texts[unit]));
        let report = t.span("scenario.run_batch", |_| run_batch(&scn, 1));
        let json = t.span("scenario.render", |_| report.to_json().render());
        t.count("scenario.report_bytes", json.len() as u64);
        Rendered { report, json }
    }

    fn tally(&self, out: &[Self::Output]) -> Tally {
        let mut tally = Tally::default();
        for r in out {
            for rec in r.report.protocols.iter().flat_map(|s| &s.records) {
                tally.answer(rec.value, rec.time_cost, rec.messages, rec.valid);
                tally.sets(rec.hc, rec.hu, None);
            }
            for rec in r.report.workload.iter().flat_map(|w| &w.records) {
                tally.answer(rec.value, rec.declared_at, rec.payload_msgs, rec.valid);
                tally.sets(rec.hc, rec.hu, None);
            }
        }
        tally
    }

    fn verify(&self, out: &[Self::Output], gate: &mut Gate) {
        // Exact protocol, static graph: the true aggregate, every cell.
        let exact = out[STATIC]
            .report
            .section("SPANNINGTREE")
            .expect("the static scenario pairs SPANNINGTREE");
        let n = out[STATIC].report.n as f64;
        for rec in &exact.records {
            gate.check(rec.value == Some(n) && rec.valid, || {
                format!(
                    "static SPANNINGTREE COUNT declared {:?}, n = {n}",
                    rec.value
                )
            });
        }
        // One report, chosen by the seed, must render byte-identically
        // from a two-thread batch.
        let pick = (self.seed % TEMPLATES.len() as u64) as usize;
        let two = run_batch(&parse(&self.texts[pick]), 2).to_json().render();
        gate.check(two == out[pick].json, || {
            format!(
                "{}: report differs between threads 1 and 2",
                TEMPLATES[pick].0
            )
        });
    }

    fn probes(&self, size: Size, t: &mut Tracer, layers: &mut Layers) {
        // Batch fan-out: the whole library on two worker threads over
        // the same on one (this box has two cores).
        let scenarios: Vec<Scenario> = self.texts.iter().map(|s| parse(s)).collect();
        let mut wall = [0.0; 2];
        for (threads, wall) in [1, 2].into_iter().zip(&mut wall) {
            let start = std::time::Instant::now();
            t.span("scenario.batch_threads", |_| {
                for scn in &scenarios {
                    std::hint::black_box(run_batch(scn, threads));
                }
            });
            *wall = start.elapsed().as_secs_f64();
        }
        layers.set("scenario.batch_t2_ratio", wall[1] / wall[0]);

        // The overlay-churn scenario's regime, with and without the
        // maintenance plane, on a graph of that scenario's size.
        let seed = sub_seed(self.seed, stream::SCHEDULE);
        let net = Net::random(size.pick(500, 120), 12, seed, &mut Tracer::new(false));
        probes::overlay(&net.graph, &net.values, net.d_hat, seed, t, layers);
        probes::sketches(seed, size, layers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_template_parses_at_both_sizes() {
        for size in [Size::Full, Size::Smoke] {
            for (i, (name, template)) in TEMPLATES.iter().enumerate() {
                let text = instantiate(template, i, 2004, size);
                assert!(!text.contains('@'), "{name}: unfilled placeholder");
                let scn: Scenario = text.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(scn.name.starts_with("bench-"), "{name}");
            }
        }
    }

    #[test]
    fn texts_are_a_function_of_the_seed() {
        let texts = |seed| ScnPipeline::setup(seed, Size::Full, &mut Tracer::new(false)).texts;
        assert_eq!(texts(7), texts(7));
        let (a, b) = (texts(7), texts(8));
        for ((name, _), (x, y)) in TEMPLATES.iter().zip(a.iter().zip(&b)) {
            assert_ne!(x, y, "{name} ignores the seed");
        }
    }
}
