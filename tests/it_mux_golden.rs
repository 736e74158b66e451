//! Golden outcomes of the multiplexed engine.
//!
//! `it_mux.rs` compares every multiplexed query against its solo twin,
//! but both sides run the same engine, so a regression they share would
//! pass unseen. These rows pin the engine's absolute output instead:
//! per query `(value, declared_at, payload_msgs, valid)`, and per run
//! `(raw_messages, cache_joins, events_dispatched, payload_items)`.
//!
//! The cases cover static chains and cycles, uniform churn with
//! rejoins, a partition, sliding windows (cache joins), an isolated
//! root, a `D̂` small enough that fallbacks fire past due, sparse query
//! ids and a hub of degree above 128. The rows were captured while each
//! host still kept a slab of per-query states with its classified
//! neighbours in a bitmask (a vector past degree 128) and every message
//! was a `Vec` of `(QueryId, item)` pairs. Any rewrite of the engine must
//! reproduce every row bit for bit.
//!
//! To re-capture after an *intended* behaviour change, empty the table,
//! run the test, and paste the rows the failure message prints.

use pov_core::mux::{judged_mux, WindowSpec, WorkloadSpec};
use pov_core::pov_protocols::{MuxPlan, MuxQuery, QueryId};
use pov_core::pov_sim::PartitionPlan;
use pov_core::pov_topology::generators::special;
use pov_core::pov_topology::GraphBuilder;
use pov_core::prelude::*;

/// Per query: `(value.to_bits(), declared_at, payload_msgs, valid)`,
/// `u64::MAX` for a query that never declared. Per run: `(raw_messages,
/// cache_joins, events_dispatched, payload_items)`.
type Row = (u64, u64, u64, u64);

fn rows_of(
    name: &str,
    graph: &Graph,
    values: &[u64],
    queries: &[MuxQuery],
    plan: &MuxPlan,
) -> Vec<(String, Row)> {
    let (judged, out) = judged_mux(graph, values, queries, plan);
    let mut rows: Vec<(String, Row)> = judged
        .iter()
        .map(|j| {
            (
                format!("{name} q{}", j.query.id.0),
                (
                    j.value.map_or(u64::MAX, f64::to_bits),
                    j.declared_at.map_or(u64::MAX, Time::ticks),
                    j.payload_msgs,
                    u64::from(j.is_valid()),
                ),
            )
        })
        .collect();
    rows.push((
        format!("{name} run"),
        (
            out.raw_messages,
            out.cache_joins,
            out.metrics.events_dispatched,
            out.payload_items,
        ),
    ));
    rows
}

fn workload(queries: usize, span: u64, d_hat: u32, seed: u64, n: usize) -> Vec<MuxQuery> {
    WorkloadSpec {
        queries,
        span,
        d_hat,
        window: None,
        seed,
    }
    .generate(n)
}

fn query(id: u32, aggregate: Aggregate, root: u32, arrival: u64, d_hat: u32) -> MuxQuery {
    MuxQuery {
        id: QueryId(id),
        aggregate,
        root: HostId(root),
        arrival,
        d_hat,
        window: None,
    }
}

fn actual() -> Vec<(String, Row)> {
    let mut rows = Vec::new();

    // Static chain and cycle: every query echo-completes.
    let chain = special::chain(40);
    let values = workload::paper_values(40, 11);
    let queries = workload(10, 20, 40, 11, 40);
    rows.extend(rows_of(
        "chain",
        &chain,
        &values,
        &queries,
        &MuxPlan::default(),
    ));
    let cycle = special::cycle(30);
    let values = workload::paper_values(30, 12);
    let queries = workload(12, 16, 16, 12, 30);
    rows.extend(rows_of(
        "cycle",
        &cycle,
        &values,
        &queries,
        &MuxPlan::default(),
    ));

    // A random graph under uniform churn, a few hosts failing and
    // rejoining mid-run.
    let net = Network::build(TopologyKind::Random, 250, 42);
    let (graph, values, d_hat) = (net.graph(), net.values(), net.d_hat());
    let n = graph.num_hosts();
    let queries = workload(20, 2 * u64::from(d_hat), d_hat, 42, n);
    let horizon = queries.iter().map(MuxQuery::deadline).max().unwrap() + 2;
    let mut churn = ChurnPlan::uniform_failures(n, n / 10, Time(1), Time(horizon), HostId(0), 42);
    for h in [3, 77, 150] {
        churn = churn
            .with_failure(Time(4), HostId(h))
            .with_join(Time(9), HostId(h));
    }
    let plan = MuxPlan {
        churn,
        partition: None,
        seed: 42 ^ 0x51b,
    };
    rows.extend(rows_of("churn", graph, values, &queries, &plan));

    // A BFS cut around the far end of the id space, open mid-run.
    let plan = MuxPlan {
        partition: Some(
            PartitionPlan::split_bfs(graph, HostId(n as u32 - 1), 0.3).window(Time(3), Time(9)),
        ),
        seed: 5,
        ..MuxPlan::default()
    };
    rows.extend(rows_of("partition", graph, values, &queries, &plan));

    // Sliding windows: later instances join the live wave.
    let net = Network::build(TopologyKind::Random, 150, 9);
    let (graph, values, d_hat) = (net.graph(), net.values(), net.d_hat());
    let n = graph.num_hosts();
    let deadline = 2 * u64::from(d_hat);
    let queries = WorkloadSpec {
        queries: 8,
        span: deadline,
        d_hat,
        window: Some(WindowSpec {
            window: (deadline * 4) / 5,
            slide: deadline / 3,
            instances: 3,
        }),
        seed: 9,
    }
    .generate(n);
    let horizon = queries.iter().map(MuxQuery::deadline).max().unwrap() + 2;
    let plan = MuxPlan {
        churn: ChurnPlan::uniform_failures(n, n / 8, Time(1), Time(horizon), HostId(0), 9 ^ 0xc4),
        partition: None,
        seed: 9 ^ 0x51b,
    };
    rows.extend(rows_of("windows", graph, values, &queries, &plan));

    // D̂ far below the diameter: deep hosts hear a query after their
    // fallback tick, so their forced reports fire past due.
    let net = Network::build(TopologyKind::Random, 250, 31);
    let (graph, values) = (net.graph(), net.values());
    let n = graph.num_hosts();
    let queries = workload(15, 6, 2, 31, n);
    let plan = MuxPlan {
        churn: ChurnPlan::uniform_failures(n, n / 20, Time(1), Time(12), HostId(0), 31),
        partition: None,
        seed: 31,
    };
    rows.extend(rows_of("past-due", graph, values, &queries, &plan));

    // An isolated root beside a chain, with sparse query ids.
    let mut b = GraphBuilder::with_hosts(11);
    for h in 0..9 {
        b.add_edge(HostId(h), HostId(h + 1));
    }
    let graph = b.build();
    let values: Vec<u64> = (1..=11).collect();
    let queries = [
        query(5, Aggregate::Sum, 10, 1, 6),
        query(17, Aggregate::Count, 0, 1, 6),
        query(1000, Aggregate::Average, 10, 3, 6),
        query(40, Aggregate::Max, 4, 2, 6),
        query(41, Aggregate::Max, 4, 3, 6),
        query(2, Aggregate::Min, 9, 2, 6),
    ];
    rows.extend(rows_of(
        "isolated",
        &graph,
        &values,
        &queries,
        &MuxPlan::default(),
    ));

    // A hub of degree 200 over a ring of leaves, leaves failing and
    // rejoining around it.
    let leaves = 200u32;
    let mut b = GraphBuilder::with_hosts(leaves as usize + 1);
    for l in 1..=leaves {
        b.add_edge(HostId(0), HostId(l));
        b.add_edge(HostId(l), HostId(l % leaves + 1));
    }
    let graph = b.build();
    let values = workload::paper_values(leaves as usize + 1, 200);
    let mut queries = workload(12, 8, 4, 200, leaves as usize + 1);
    queries.push(query(12, Aggregate::Count, 0, 2, 4));
    queries.push(query(13, Aggregate::Sum, 0, 2, 60));
    let mut churn = ChurnPlan::none();
    for l in [7, 50, 120, 121, 199] {
        churn = churn
            .with_failure(Time(3), HostId(l))
            .with_join(Time(6), HostId(l));
    }
    let plan = MuxPlan {
        churn,
        partition: None,
        seed: 200,
    };
    rows.extend(rows_of("hub", &graph, &values, &queries, &plan));
    rows
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("chain q0", (4659442206468210688, 75, 78, 1)),
    ("chain q1", (4630826316843712512, 78, 78, 1)),
    ("chain q2", (4659442206468210688, 48, 78, 1)),
    ("chain q3", (4659442206468210688, 58, 78, 1)),
    ("chain q4", (4630826316843712512, 67, 78, 1)),
    ("chain q5", (4645656529679155200, 67, 78, 1)),
    ("chain q6", (4635479450052460544, 83, 78, 1)),
    ("chain q7", (4645656529679155200, 67, 78, 1)),
    ("chain q8", (4621819117588971520, 55, 78, 1)),
    ("chain q9", (4659442206468210688, 95, 78, 1)),
    ("chain run", (638, 0, 1552, 780)),
    ("cycle q0", (4621819117588971520, 39, 60, 1)),
    ("cycle q1", (4621819117588971520, 35, 60, 1)),
    ("cycle q2", (4646606507725553664, 39, 60, 1)),
    ("cycle q3", (4657331144142880768, 35, 60, 1)),
    ("cycle q4", (4621819117588971520, 31, 60, 1)),
    ("cycle q5", (4629137466983448576, 46, 60, 1)),
    ("cycle q6", (4657331144142880768, 41, 60, 1)),
    ("cycle q7", (4621819117588971520, 46, 60, 1)),
    ("cycle q8", (4621819117588971520, 42, 60, 1)),
    ("cycle q9", (4629137466983448576, 37, 60, 1)),
    ("cycle q10", (4635153994610638848, 42, 60, 1)),
    ("cycle q11", (4621819117588971520, 35, 0, 1)),
    ("cycle run", (545, 1, 1290, 660)),
    ("churn q0", (4640150175447252992, 32, 1159, 0)),
    ("churn q1", (4671306761565634560, 20, 1178, 0)),
    ("churn q2", (4647450932655685632, 35, 1145, 1)),
    ("churn q3", (4621819117588971520, 27, 1175, 1)),
    ("churn q4", (4647450932655685632, 22, 1182, 1)),
    ("churn q5", (4647450932655685632, 28, 1170, 1)),
    ("churn q6", (4671157777740070912, 23, 1182, 0)),
    ("churn q7", (4647450932655685632, 29, 1166, 1)),
    ("churn q8", (4671090157774962688, 21, 1179, 0)),
    ("churn q9", (18446744073709551615, 18446744073709551615, 1177, 0)),
    ("churn q10", (4641592734702895104, 25, 1176, 0)),
    ("churn q11", (4647450932655685632, 33, 1153, 1)),
    ("churn q12", (4635678034787867805, 27, 1175, 0)),
    ("churn q13", (4621819117588971520, 35, 1153, 1)),
    ("churn q14", (4635850586044599253, 22, 1184, 1)),
    ("churn q15", (4635891356365616387, 36, 1146, 1)),
    ("churn q16", (4635838300830502148, 28, 1176, 1)),
    ("churn q17", (4642331606516760576, 30, 1164, 1)),
    ("churn q18", (4636271371595050016, 22, 1184, 0)),
    ("churn q19", (4635807290875440805, 28, 1170, 1)),
    ("churn run", (15907, 0, 23864, 23394)),
    ("partition q0", (4643000109586448384, 24, 1214, 1)),
    ("partition q1", (4670012911257649152, 20, 1209, 0)),
    ("partition q2", (4647450932655685632, 29, 1214, 1)),
    ("partition q3", (4621819117588971520, 21, 1214, 1)),
    ("partition q4", (4647450932655685632, 22, 1214, 1)),
    ("partition q5", (4647450932655685632, 22, 1214, 1)),
    ("partition q6", (4671659704798150656, 23, 1214, 1)),
    ("partition q7", (4647450932655685632, 23, 1214, 1)),
    ("partition q8", (4671659704798150656, 21, 1214, 1)),
    ("partition q9", (4621819117588971520, 20, 1214, 1)),
    ("partition q10", (4643000109586448384, 18, 1214, 1)),
    ("partition q11", (4647450932655685632, 27, 1214, 1)),
    ("partition q12", (4635773239559402291, 20, 1214, 1)),
    ("partition q13", (4621819117588971520, 27, 1214, 1)),
    ("partition q14", (4635773239559402291, 22, 1214, 1)),
    ("partition q15", (4635773239559402291, 28, 1214, 1)),
    ("partition q16", (4635773239559402291, 20, 1214, 1)),
    ("partition q17", (4643000109586448384, 24, 1214, 1)),
    ("partition q18", (4635773239559402291, 22, 1214, 1)),
    ("partition q19", (4635773239559402291, 22, 1214, 1)),
    ("partition run", (15042, 0, 22739, 24275)),
    ("windows q0", (4635223838214934589, 39, 660, 0)),
    ("windows q1", (4635223838214934589, 39, 0, 0)),
    ("windows q2", (4635223838214934589, 39, 0, 0)),
    ("windows q3", (4647028720190619648, 35, 665, 1)),
    ("windows q4", (4647028720190619648, 35, 0, 1)),
    ("windows q5", (4647028720190619648, 35, 0, 1)),
    ("windows q6", (4666866108978954240, 40, 661, 0)),
    ("windows q7", (4666866108978954240, 40, 0, 0)),
    ("windows q8", (4666866108978954240, 40, 0, 0)),
    ("windows q9", (4621819117588971520, 32, 666, 1)),
    ("windows q10", (4621819117588971520, 32, 0, 1)),
    ("windows q11", (4621819117588971520, 32, 0, 1)),
    ("windows q12", (18446744073709551615, 18446744073709551615, 682, 0)),
    ("windows q13", (18446744073709551615, 18446744073709551615, 0, 0)),
    ("windows q14", (18446744073709551615, 18446744073709551615, 0, 0)),
    ("windows q15", (4666866658734768128, 21, 686, 0)),
    ("windows q16", (4666866658734768128, 21, 0, 0)),
    ("windows q17", (4666866658734768128, 21, 0, 0)),
    ("windows q18", (4647028720190619648, 37, 661, 1)),
    ("windows q19", (4647028720190619648, 37, 0, 1)),
    ("windows q20", (4647028720190619648, 37, 0, 1)),
    ("windows q21", (4638883538052055040, 37, 665, 0)),
    ("windows q22", (4638883538052055040, 37, 0, 0)),
    ("windows q23", (4638883538052055040, 37, 0, 0)),
    ("windows run", (4690, 16, 7912, 5346)),
    ("past-due q0", (4618441417868443648, 8, 1154, 0)),
    ("past-due q1", (4633265766641871531, 6, 1166, 0)),
    ("past-due q2", (4653441072003809280, 5, 1173, 0)),
    ("past-due q3", (4621819117588971520, 6, 1165, 1)),
    ("past-due q4", (4642824187726004224, 5, 1166, 0)),
    ("past-due q5", (4646694468655775744, 10, 1142, 0)),
    ("past-due q6", (4640326097307697152, 8, 1163, 0)),
    ("past-due q7", (4621819117588971520, 10, 1136, 1)),
    ("past-due q8", (18446744073709551615, 18446744073709551615, 0, 0)),
    ("past-due q9", (4632608991696213333, 7, 1163, 0)),
    ("past-due q10", (4618441417868443648, 6, 1165, 0)),
    ("past-due q11", (4648972656748527616, 8, 1156, 0)),
    ("past-due q12", (4630263366890291200, 5, 1167, 0)),
    ("past-due q13", (4624070917402656768, 9, 1138, 0)),
    ("past-due q14", (4642190869028405248, 7, 1163, 0)),
    ("past-due run", (9586, 0, 13239, 16217)),
    ("isolated q5", (4622382067542392832, 1, 0, 1)),
    ("isolated q17", (4618441417868443648, 13, 18, 0)),
    ("isolated q1000", (4622382067542392832, 3, 0, 1)),
    ("isolated q40", (4621819117588971520, 12, 18, 1)),
    ("isolated q41", (4621819117588971520, 12, 0, 1)),
    ("isolated q2", (4617315517961601024, 14, 18, 0)),
    ("isolated run", (54, 1, 139, 54)),
    ("hub q0", (4670723745525006336, 11, 800, 1)),
    ("hub q1", (4647486117027774464, 13, 800, 1)),
    ("hub q2", (4670723745525006336, 13, 800, 1)),
    ("hub q3", (4621819117588971520, 11, 800, 1)),
    ("hub q4", (4647486117027774464, 13, 800, 1)),
    ("hub q5", (4621819117588971520, 10, 785, 1)),
    ("hub q6", (4641276075354095616, 9, 800, 1)),
    ("hub q7", (4636128745327181490, 9, 785, 1)),
    ("hub q8", (4647486117027774464, 11, 800, 1)),
    ("hub q9", (4647486117027774464, 12, 800, 1)),
    ("hub q10", (4641276075354095616, 12, 800, 1)),
    ("hub q11", (4636061611373228868, 12, 800, 1)),
    ("hub q12", (4641100153493651456, 10, 785, 1)),
    ("hub q13", (4670650902879666176, 122, 785, 1)),
    ("hub run", (5813, 0, 9241, 11140)),
];

#[test]
fn mux_outcomes_match_the_pre_rewrite_capture() {
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
