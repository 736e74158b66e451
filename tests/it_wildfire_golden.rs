//! Golden equivalence for WILDFIRE's receive/flush path and the tree
//! protocols' neighbour classification.
//!
//! The WILDFIRE rows pin the register-row layout: each host keeps its
//! own partial and what every contact is known to hold as rows of `u64`
//! words in one allocation. The first 50 were captured before the
//! knowledge table moved from copy-on-write `Rc<Partial>` entries to
//! by-value ones; the `max`, odd-width (`c = 1`, `c = 31`) and KMV
//! `k = 2` rows were added while it still held one `Partial` per
//! contact, before the rows replaced it. Any rewrite of that path must
//! reproduce every row bit for bit. The overlay arm matters most: rows
//! are keyed by `HostId` precisely because neighbour sets grow and
//! reorder mid-run there. The SPANNINGTREE and DAG rows were captured
//! while both kept their classified neighbours in a `HashSet`, before it
//! became a sorted `Vec` (SPANNINGTREE's later a count). Their six radio
//! rows were re-captured once, when the radio rule stopped a host from
//! taking its own child's onward flood for a classification: each now
//! equals its point-to-point twin in value and declare tick. The four
//! `adversary` rows (an FM-maxima attacker, the regime `repro bench`'s
//! retired `adversarial_sketch` workload ran) were captured before that
//! workload was deleted.
//!
//! To re-capture after an *intended* behaviour change, empty the table,
//! run the test, and paste the rows the failure message prints.

use pov_core::pov_protocols::runner::{run, run_wildfire_operator};
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::{AdversarySpec, Operator, OverlayConfig};
use pov_core::pov_sim::{Metrics, PartitionPlan};
use pov_core::prelude::*;

const N: usize = 500;
const D_HAT: u32 = 12;
const SEED: u64 = 2004;

/// `(value.to_bits(), declared_at, messages_sent, events_dispatched,
/// computation_cost)` of one run.
type Row = (u64, u64, u64, u64, u64);

fn row(value: Option<f64>, declared_at: Option<Time>, metrics: &Metrics) -> Row {
    (
        value.expect("hq is spared, so it declares").to_bits(),
        declared_at.expect("declared").ticks(),
        metrics.messages_sent,
        metrics.events_dispatched,
        metrics.computation_cost(),
    )
}

/// The four environments, by name: static; 10 % uniform failures plus a
/// BFS cut around the far end of the id space; maintained overlay under
/// oscillating churn; an adversary killing the hosts that hold FM
/// sketch maxima, four per wave, over the first three quarters of the
/// deadline.
fn environments(graph: &Graph) -> Vec<(&'static str, RunPlan)> {
    let base = || RunPlan::query(Aggregate::Count).d_hat(D_HAT).seed(SEED);
    let deadline = Time(2 * u64::from(D_HAT));
    vec![
        ("static", base()),
        (
            "churn+cut",
            base()
                .churn(ChurnPlan::uniform_failures(
                    N,
                    N / 10,
                    Time(0),
                    deadline,
                    HostId(0),
                    SEED,
                ))
                .partition(
                    PartitionPlan::split_bfs(graph, HostId(N as u32 - 1), 0.3)
                        .window(Time(3), Time(9)),
                ),
        ),
        (
            "overlay+osc",
            base()
                .churn(ChurnPlan::oscillating(
                    N,
                    N / 10,
                    Time(0),
                    deadline,
                    8,
                    3,
                    HostId(0),
                    SEED,
                ))
                .overlay(OverlayConfig {
                    shuffle_every: 4,
                    probe_every: 2,
                    seed: SEED,
                    ..OverlayConfig::default()
                }),
        ),
        (
            "adversary",
            base().adversary(AdversarySpec::fm_maxima(
                4,
                N / 20,
                Time(1),
                Time(deadline.ticks() * 3 / 4),
            )),
        ),
    ]
}

fn actual() -> Vec<(String, Row)> {
    let graph = TopologyKind::Random.build(N, SEED);
    let values = workload::paper_values(N, SEED);
    let mut rows = Vec::new();
    let environments = environments(&graph);
    for (env, plan) in &environments[..3] {
        for aggregate in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Average,
            Aggregate::Min,
            Aggregate::Max,
        ] {
            for medium in [Medium::PointToPoint, Medium::Radio] {
                for on in [true, false] {
                    let opts = WildfireOpts {
                        early_deadline: on,
                        piggyback: on,
                    };
                    let mut plan = plan.clone().medium(medium);
                    plan.aggregate = aggregate;
                    let out = run(ProtocolKind::Wildfire(opts), &graph, &values, &plan);
                    rows.push((
                        format!("{env} {} {medium:?} opts={on}", aggregate.name()),
                        row(out.value, out.declared_at, &out.metrics),
                    ));
                }
            }
        }
    }
    // Odd register-row widths: one word per sketch, and 31 (62 for avg).
    for (env, plan) in &environments[..2] {
        for c in [1, 31] {
            for aggregate in [Aggregate::Count, Aggregate::Average] {
                for medium in [Medium::PointToPoint, Medium::Radio] {
                    let mut plan = plan.clone().medium(medium).repetitions(c);
                    plan.aggregate = aggregate;
                    let kind = ProtocolKind::Wildfire(WildfireOpts::default());
                    let out = run(kind, &graph, &values, &plan);
                    rows.push((
                        format!("{env} {} c={c} {medium:?}", aggregate.name()),
                        row(out.value, out.declared_at, &out.metrics),
                    ));
                }
            }
        }
    }
    let (_, churned) = &environments[1];
    for (name, operator) in [
        ("kmv", Operator::KmvCount { k: 32 }),
        ("kmv k=2", Operator::KmvCount { k: 2 }),
        (
            "histogram",
            Operator::ValueHistogram {
                min: 10,
                max: 500,
                buckets: 8,
            },
        ),
    ] {
        let (out, _) =
            run_wildfire_operator(operator, WildfireOpts::default(), &graph, &values, churned);
        rows.push((
            format!("operator {name}"),
            row(out.value, out.declared_at, &out.metrics),
        ));
    }
    for (env, plan) in &environments[..3] {
        for (name, kind) in [
            ("spanning-tree", ProtocolKind::SpanningTree),
            ("dag k=2", ProtocolKind::Dag { k: 2 }),
        ] {
            for medium in [Medium::PointToPoint, Medium::Radio] {
                let out = run(kind, &graph, &values, &plan.clone().medium(medium));
                rows.push((
                    format!("{env} {name} {medium:?}"),
                    row(out.value, out.declared_at, &out.metrics),
                ));
            }
        }
    }
    let (env, adversary) = &environments[3];
    for aggregate in [Aggregate::Count, Aggregate::Sum] {
        for medium in [Medium::PointToPoint, Medium::Radio] {
            let mut plan = adversary.clone().medium(medium);
            plan.aggregate = aggregate;
            let kind = ProtocolKind::Wildfire(WildfireOpts::default());
            let out = run(kind, &graph, &values, &plan);
            rows.push((
                format!("{env} {} {medium:?}", aggregate.name()),
                row(out.value, out.declared_at, &out.metrics),
            ));
        }
    }
    rows
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("static count PointToPoint opts=true", (4648505855648819575, 24, 16940, 20677, 80)),
    ("static count PointToPoint opts=false", (4648505855648819575, 24, 18067, 21804, 84)),
    ("static count Radio opts=true", (4648505855648819575, 24, 3406, 22285, 94)),
    ("static count Radio opts=false", (4648505855648819575, 24, 3655, 23566, 101)),
    ("static sum PointToPoint opts=true", (4671503059631949876, 24, 15874, 19504, 78)),
    ("static sum PointToPoint opts=false", (4671503059631949876, 24, 17028, 20658, 82)),
    ("static sum Radio opts=true", (4671503059631949876, 24, 3252, 21348, 91)),
    ("static sum Radio opts=false", (4671503059631949876, 24, 3504, 22660, 98)),
    ("static avg PointToPoint opts=true", (4629700416936869888, 24, 17559, 21445, 84)),
    ("static avg PointToPoint opts=false", (4629700416936869888, 24, 18683, 22569, 93)),
    ("static avg Radio opts=true", (4629700416936869888, 24, 3531, 23112, 98)),
    ("static avg Radio opts=false", (4629700416936869888, 24, 3782, 24394, 105)),
    ("static min PointToPoint opts=true", (4621819117588971520, 24, 2816, 4022, 19)),
    ("static min PointToPoint opts=false", (4621819117588971520, 24, 4670, 5777, 31)),
    ("static min Radio opts=true", (4621819117588971520, 24, 682, 4981, 20)),
    ("static min Radio opts=false", (4621819117588971520, 24, 1129, 7427, 32)),
    ("static max PointToPoint opts=true", (4647204642051063808, 24, 7999, 10669, 47)),
    ("static max PointToPoint opts=false", (4647204642051063808, 24, 9377, 12030, 57)),
    ("static max Radio opts=true", (4647204642051063808, 24, 1947, 13599, 55)),
    ("static max Radio opts=false", (4647204642051063808, 24, 2266, 15312, 63)),
    ("churn+cut count PointToPoint opts=true", (4648505855648819575, 24, 18830, 23460, 72)),
    ("churn+cut count PointToPoint opts=false", (4648505855648819575, 24, 20056, 24686, 73)),
    ("churn+cut count Radio opts=true", (4648505855648819575, 24, 3998, 26507, 93)),
    ("churn+cut count Radio opts=false", (4648505855648819575, 24, 4276, 27941, 96)),
    ("churn+cut sum PointToPoint opts=true", (4671503059631949876, 24, 16069, 19788, 69)),
    ("churn+cut sum PointToPoint opts=false", (4671503059631949876, 24, 17323, 21042, 73)),
    ("churn+cut sum Radio opts=true", (4671503059631949876, 24, 3339, 21810, 82)),
    ("churn+cut sum Radio opts=false", (4671503059631949876, 24, 3619, 23265, 85)),
    ("churn+cut avg PointToPoint opts=true", (4633456455444046983, 24, 18995, 23323, 77)),
    ("churn+cut avg PointToPoint opts=false", (4633456455444046983, 24, 20220, 24548, 78)),
    ("churn+cut avg Radio opts=true", (4633456455444046983, 24, 3884, 25419, 93)),
    ("churn+cut avg Radio opts=false", (4633456455444046983, 24, 4160, 26849, 96)),
    ("churn+cut min PointToPoint opts=true", (4621819117588971520, 24, 2734, 3801, 12)),
    ("churn+cut min PointToPoint opts=false", (4621819117588971520, 24, 4638, 5637, 17)),
    ("churn+cut min Radio opts=true", (4621819117588971520, 24, 650, 4724, 18)),
    ("churn+cut min Radio opts=false", (4621819117588971520, 24, 1100, 7162, 26)),
    ("churn+cut max PointToPoint opts=true", (4647204642051063808, 24, 7870, 10554, 32)),
    ("churn+cut max PointToPoint opts=false", (4647204642051063808, 24, 9368, 12033, 38)),
    ("churn+cut max Radio opts=true", (4647204642051063808, 24, 1873, 13261, 45)),
    ("churn+cut max Radio opts=false", (4647204642051063808, 24, 2218, 15112, 55)),
    ("overlay+osc count PointToPoint opts=true", (4648505855648819575, 24, 19339, 23364, 72)),
    ("overlay+osc count PointToPoint opts=false", (4648505855648819575, 24, 20601, 24654, 78)),
    ("overlay+osc count Radio opts=true", (4648505855648819575, 24, 3652, 29458, 99)),
    ("overlay+osc count Radio opts=false", (4648505855648819575, 24, 3948, 31967, 105)),
    ("overlay+osc sum PointToPoint opts=true", (4671503059631949876, 24, 17860, 21699, 68)),
    ("overlay+osc sum PointToPoint opts=false", (4671503059631949876, 24, 19139, 23006, 74)),
    ("overlay+osc sum Radio opts=true", (4671503059631949876, 24, 3390, 27607, 96)),
    ("overlay+osc sum Radio opts=false", (4671503059631949876, 24, 3690, 30166, 102)),
    ("overlay+osc avg PointToPoint opts=true", (4631037263444584999, 24, 19288, 23321, 73)),
    ("overlay+osc avg PointToPoint opts=false", (4631037263444584999, 24, 20519, 24565, 79)),
    ("overlay+osc avg Radio opts=true", (4631037263444584999, 24, 3579, 29017, 101)),
    ("overlay+osc avg Radio opts=false", (4631037263444584999, 24, 3875, 31526, 107)),
    ("overlay+osc min PointToPoint opts=true", (4621819117588971520, 24, 4098, 5995, 23)),
    ("overlay+osc min PointToPoint opts=false", (4621819117588971520, 24, 6331, 8316, 34)),
    ("overlay+osc min Radio opts=true", (4621819117588971520, 24, 1272, 13141, 40)),
    ("overlay+osc min Radio opts=false", (4621819117588971520, 24, 1768, 16941, 51)),
    ("overlay+osc max PointToPoint opts=true", (4647204642051063808, 24, 9567, 12660, 44)),
    ("overlay+osc max PointToPoint opts=false", (4647204642051063808, 24, 11369, 14572, 53)),
    ("overlay+osc max Radio opts=true", (4647204642051063808, 24, 2351, 20750, 67)),
    ("overlay+osc max Radio opts=false", (4647204642051063808, 24, 2730, 23750, 78)),
    ("static count c=1 PointToPoint", (4644481461867726900, 24, 9571, 12584, 45)),
    ("static count c=1 Radio", (4644481461867726900, 24, 2267, 15604, 65)),
    ("static avg c=1 PointToPoint", (4629700416936869888, 24, 12111, 15112, 57)),
    ("static avg c=1 Radio", (4629700416936869888, 24, 2602, 17279, 75)),
    ("static count c=31 PointToPoint", (4647932600283197901, 24, 18690, 22690, 92)),
    ("static count c=31 Radio", (4647932600283197901, 24, 3661, 23876, 103)),
    ("static avg c=31 PointToPoint", (4634850611602045607, 24, 19767, 24067, 93)),
    ("static avg c=31 Radio", (4634850611602045607, 24, 3904, 25628, 110)),
    ("churn+cut count c=1 PointToPoint", (4644481461867726900, 24, 8955, 11807, 30)),
    ("churn+cut count c=1 Radio", (4644481461867726900, 24, 2112, 14565, 52)),
    ("churn+cut avg c=1 PointToPoint", (4629700416936869888, 24, 12196, 15505, 45)),
    ("churn+cut avg c=1 Radio", (4629700416936869888, 24, 2738, 18240, 66)),
    ("churn+cut count c=31 PointToPoint", (4647932600283197901, 24, 21610, 26524, 95)),
    ("churn+cut count c=31 Radio", (4647932600283197901, 24, 4337, 28464, 106)),
    ("churn+cut avg c=31 PointToPoint", (4632728718431665056, 24, 22115, 27061, 96)),
    ("churn+cut avg c=31 Radio", (4632728718431665056, 24, 4385, 28755, 111)),
    ("operator kmv", (4647137962280656936, 24, 20138, 24595, 78)),
    ("operator kmv k=2", (4640161383615149810, 24, 12223, 15752, 49)),
    ("operator histogram", (4648743753925957107, 24, 21130, 25860, 88)),
    ("static spanning-tree PointToPoint", (4647503709213818880, 12, 2618, 3118, 13)),
    ("static spanning-tree Radio", (4647503709213818880, 12, 999, 3617, 20)),
    ("static dag k=2 PointToPoint", (4648505855648819575, 12, 3034, 3688, 19)),
    ("static dag k=2 Radio", (4648505855648819575, 12, 1153, 4187, 26)),
    ("churn+cut spanning-tree PointToPoint", (4645480607818711040, 24, 2504, 3034, 10)),
    ("churn+cut spanning-tree Radio", (4645480607818711040, 24, 932, 3513, 18)),
    ("churn+cut dag k=2 PointToPoint", (4646873067053823409, 24, 2643, 3181, 12)),
    ("churn+cut dag k=2 Radio", (4646873067053823409, 24, 940, 3660, 18)),
    ("overlay+osc spanning-tree PointToPoint", (4639165013028765696, 24, 3038, 3777, 13)),
    ("overlay+osc spanning-tree Radio", (4639165013028765696, 24, 978, 4267, 20)),
    ("overlay+osc dag k=2 PointToPoint", (4643562822322885001, 24, 3408, 4206, 17)),
    ("overlay+osc dag k=2 Radio", (4643562822322885001, 24, 1083, 4696, 24)),
    ("adversary count PointToPoint", (4648505855648819575, 24, 17031, 20820, 80)),
    ("adversary count Radio", (4648505855648819575, 24, 3447, 22444, 95)),
    ("adversary sum PointToPoint", (4671503059631949876, 24, 15780, 19354, 77)),
    ("adversary sum Radio", (4671503059631949876, 24, 3232, 21065, 82)),
];

#[test]
fn wildfire_outcomes_match_the_pre_rewrite_capture() {
    let actual = actual();
    let differs = |i: usize, (name, row): &(String, Row)| {
        GOLDEN
            .get(i)
            .is_none_or(|(gname, grow)| name != gname || row != grow)
    };
    let moved =
        actual.len() != GOLDEN.len() || actual.iter().enumerate().any(|(i, e)| differs(i, e));
    if moved {
        let mut table = String::new();
        for (i, entry) in actual.iter().enumerate() {
            let mark = if differs(i, entry) {
                " // <- differs"
            } else {
                ""
            };
            table.push_str(&format!("    ({:?}, {:?}),{mark}\n", entry.0, entry.1));
        }
        panic!("golden outcomes moved; actual rows:\n{table}");
    }
}
