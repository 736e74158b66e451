//! Multiplexed query workloads and their per-query ORACLE verdicts.
//!
//! The protocol layer ([`pov_protocols::mux`]) executes many concurrent
//! queries over one simulation; this module supplies the two pieces the
//! paper-level evaluation needs on top:
//!
//! * [`WorkloadSpec`] — a *deterministic arrival process*: mixed
//!   aggregates (COUNT/SUM/MIN/MAX/AVG), uniform-random roots, arrivals
//!   spread over a span, and optional **sliding windows** (§4.2): a
//!   windowed base query expands into `instances` instances arriving
//!   `slide` ticks apart (`slide < window`), each judged over its own
//!   `[end − W, end]` interval. Successive instances share an
//!   `(aggregate, root)` pair, which is exactly what the engine's
//!   partial cache exploits.
//! * [`judge_workload`] — the per-query ORACLE: each query is judged
//!   over *its own* interval of the shared membership trace, yielding a
//!   [`MuxJudged`] verdict identical in shape to the single-query
//!   [`JudgedOutcome`](crate::judged::JudgedOutcome).
//!
//! [`solo_twin`] runs one query alone over the same environment — the
//! sequential baseline `repro mux` compares against, and the
//! equivalence witness `tests/it_mux.rs` checks per query.

use pov_oracle::{aggregate_bounds, host_sets, Verdict};
use pov_protocols::mux::{run_mux, MuxOutcome, MuxPlan, MuxQuery, QueryId};
use pov_protocols::Aggregate;
use pov_sim::Time;
use pov_topology::{Graph, HostId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sliding-window shape of a workload's queries (§4.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSpec {
    /// Window width `W` in ticks.
    pub window: u64,
    /// Ticks between successive instances; must satisfy
    /// `1 ≤ slide < window` (overlapping windows).
    pub slide: u64,
    /// Instances each base query expands into.
    pub instances: usize,
}

/// A deterministic multiplexed-workload arrival process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Number of base queries.
    pub queries: usize,
    /// Arrivals are drawn uniformly from `[1, span]`.
    pub span: u64,
    /// Per-query diameter estimate (deadline = `arrival + 2·D̂`).
    pub d_hat: u32,
    /// Optional sliding-window expansion.
    pub window: Option<WindowSpec>,
    /// Workload seed: same seed, same workload, byte for byte.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Materialize the workload over an `n`-host network.
    ///
    /// One RNG stream drawn in query order: aggregate, root, arrival —
    /// so the realization is a function of `(spec, n)` alone. Windowed
    /// base queries expand into their instances inline (ids stay
    /// contiguous and ascending with arrival within a base query).
    ///
    /// # Panics
    /// Panics on an empty spec, `span == 0`, out-of-range window shape
    /// (`slide == 0`, `slide ≥ window`, `instances == 0`), or `n == 0`.
    pub fn generate(&self, n: usize) -> Vec<MuxQuery> {
        assert!(self.queries >= 1, "workload needs at least one query");
        assert!(self.span >= 1, "arrival span must be at least one tick");
        assert!(n >= 1, "workload needs at least one host");
        if let Some(w) = &self.window {
            assert!(w.instances >= 1, "window needs at least one instance");
            assert!(
                w.slide >= 1 && w.slide < w.window,
                "sliding windows require 1 <= slide < window (got slide {} window {})",
                w.slide,
                w.window
            );
        }
        const AGGS: [Aggregate; 5] = [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Average,
        ];
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x6d75_785f_7365_6564);
        let mut queries = Vec::new();
        let mut next_id = 0u32;
        for _ in 0..self.queries {
            let aggregate = AGGS[(rng.gen::<u64>() % AGGS.len() as u64) as usize];
            let root = HostId((rng.gen::<u64>() % n as u64) as u32);
            let arrival = 1 + rng.gen::<u64>() % self.span;
            let (instances, slide, window) = match &self.window {
                Some(w) => (w.instances, w.slide, Some(w.window)),
                None => (1, 0, None),
            };
            for k in 0..instances {
                queries.push(MuxQuery {
                    id: QueryId(next_id),
                    aggregate,
                    root,
                    arrival: arrival + k as u64 * slide,
                    d_hat: self.d_hat,
                    window,
                });
                next_id += 1;
            }
        }
        queries
    }
}

/// One query's declared value, ORACLE verdict and accounted cost inside
/// a multiplexed run.
#[derive(Clone, Debug)]
pub struct MuxJudged {
    /// The query as materialized by the workload.
    pub query: MuxQuery,
    /// The value its root declared (`None` if the root died first).
    pub value: Option<f64>,
    /// When it was declared.
    pub declared_at: Option<Time>,
    /// Single-Site-Validity judgement over the query's own interval.
    pub verdict: Verdict,
    /// `|HC|` over that interval.
    pub hc_size: usize,
    /// `|HU|` over that interval.
    pub hu_size: usize,
    /// The valid envelope `[q(HC), q(HU)]` (interval aggregates only).
    pub bounds: Option<(f64, f64)>,
    /// Payload items charged to this query across all hosts.
    pub payload_msgs: u64,
    /// Whether the query joined a live wave via the partial cache.
    pub joined: bool,
}

impl MuxJudged {
    /// Whether the declared value was judged Single-Site Valid.
    pub fn is_valid(&self) -> bool {
        self.verdict.is_valid()
    }
}

/// Judge every query of a finished multiplexed run against the shared
/// membership trace, each over its own interval: `[arrival, end]` for
/// one-shot queries, the sliding `[end − W, end]` for windowed ones,
/// with `end` the declaration instant (or the deadline when the root
/// never declared).
pub fn judge_workload(
    graph: &Graph,
    values: &[u64],
    queries: &[MuxQuery],
    out: &MuxOutcome,
) -> Vec<MuxJudged> {
    queries
        .iter()
        .map(|q| {
            let qid = q.id.0;
            let declared = out.results.get(&qid).copied();
            let (value, declared_at) = match declared {
                Some((v, at)) => (Some(v), Some(at)),
                None => (None, None),
            };
            let end = declared_at.unwrap_or(Time(q.deadline()));
            let start = match q.window {
                Some(w) => Time(end.ticks().saturating_sub(w)),
                None => Time(q.arrival),
            };
            let sets = host_sets(graph, &out.trace, q.root, start, end);
            let verdict = Verdict::judge(q.aggregate, &sets, values, value.unwrap_or(f64::NAN));
            MuxJudged {
                query: *q,
                value,
                declared_at,
                verdict,
                hc_size: sets.hc_len(),
                hu_size: sets.hu_len(),
                bounds: aggregate_bounds(q.aggregate, &sets, values),
                payload_msgs: out.per_query_payload.get(&qid).copied().unwrap_or(0),
                joined: out.aliased.binary_search(&qid).is_ok(),
            }
        })
        .collect()
}

/// Execute a workload multiplexed and judge every query: the one-call
/// entry the scenario runner and `repro mux` both use.
pub fn judged_mux(
    graph: &Graph,
    values: &[u64],
    queries: &[MuxQuery],
    plan: &MuxPlan,
) -> (Vec<MuxJudged>, MuxOutcome) {
    let out = run_mux(graph, values, queries, plan);
    let judged = judge_workload(graph, values, queries, &out);
    (judged, out)
}

/// Run one query *alone* over the same environment (same graph, values,
/// churn realization and engine seed) — the sequential baseline. The
/// synchronous-round engine makes a non-aliased query's multiplexed
/// trajectory independent of its co-residents, so its solo twin
/// declares the byte-identical `(value, time)`.
///
/// The twin's run ends at *its own* deadline + 2, a multiplexed run at
/// the latest deadline + 2. A query's flood can outlive its deadline
/// (hosts deeper than `D̂` keep forwarding it), so when a later query
/// keeps the shared run going, an earlier query's `payload_msgs` counts
/// traffic its twin's shorter run never reaches. Its declaration is
/// unaffected, and so is the payload of a query that ends last.
pub fn solo_twin(graph: &Graph, values: &[u64], query: &MuxQuery, plan: &MuxPlan) -> MuxJudged {
    let (mut judged, _) = judged_mux(graph, values, std::slice::from_ref(query), plan);
    judged.pop().expect("one query in, one verdict out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_sim::ChurnPlan;
    use pov_topology::generators::special;

    fn spec(queries: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            queries,
            span: 6,
            d_hat: 4,
            window: None,
            seed,
        }
    }

    #[test]
    fn workload_is_deterministic_and_mixed() {
        let a = spec(40, 7).generate(30);
        let b = spec(40, 7).generate(30);
        assert_eq!(a, b, "same seed, same workload");
        let c = spec(40, 8).generate(30);
        assert_ne!(a, c, "different seed, different workload");
        // All five aggregates appear in a 40-query draw.
        for agg in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Average,
        ] {
            assert!(
                a.iter().any(|q| q.aggregate == agg),
                "aggregate {agg:?} missing from the mix"
            );
        }
        for q in &a {
            assert!(q.arrival >= 1 && q.arrival <= 6);
            assert!((q.root.0 as usize) < 30);
        }
    }

    #[test]
    fn sliding_windows_expand_into_instances() {
        let mut s = spec(3, 5);
        s.window = Some(WindowSpec {
            window: 8,
            slide: 3,
            instances: 4,
        });
        let qs = s.generate(20);
        assert_eq!(qs.len(), 12, "3 base queries × 4 instances");
        // Instances of one base query: same (aggregate, root), arrivals
        // `slide` apart, contiguous ascending ids.
        for base in 0..3 {
            let inst = &qs[base * 4..(base + 1) * 4];
            for (k, q) in inst.iter().enumerate() {
                assert_eq!(q.id.0 as usize, base * 4 + k);
                assert_eq!(q.aggregate, inst[0].aggregate);
                assert_eq!(q.root, inst[0].root);
                assert_eq!(q.arrival, inst[0].arrival + k as u64 * 3);
                assert_eq!(q.window, Some(8));
            }
        }
    }

    #[test]
    #[should_panic(expected = "slide < window")]
    fn rejects_slide_ge_window() {
        let mut s = spec(1, 1);
        s.window = Some(WindowSpec {
            window: 4,
            slide: 4,
            instances: 2,
        });
        s.generate(10);
    }

    #[test]
    fn judged_static_network_all_valid() {
        let g = special::cycle(12);
        let values: Vec<u64> = (1..=12).collect();
        // D̂ must cover the cycle's diameter (6) or deadlines truncate
        // the echo and the partial answers are *correctly* invalid.
        let mut s = spec(10, 3);
        s.d_hat = 6;
        let queries = s.generate(12);
        let (judged, out) = judged_mux(&g, &values, &queries, &MuxPlan::default());
        assert_eq!(judged.len(), 10);
        for j in &judged {
            assert!(j.value.is_some(), "static network: every root declares");
            assert!(j.is_valid(), "static network: every answer valid");
            assert_eq!(j.hu_size, 12);
        }
        // Payload accounting covers every non-aliased query.
        for j in &judged {
            assert!(j.joined || j.payload_msgs > 0, "{:?}", j.query.id);
        }
        assert!(out.raw_messages > 0);
    }

    #[test]
    fn solo_twin_matches_multiplexed_declaration() {
        let g = special::cycle(16);
        let values: Vec<u64> = (0..16).collect();
        let queries = spec(8, 11).generate(16);
        let plan = MuxPlan {
            churn: ChurnPlan::none().with_failure(Time(4), HostId(5)),
            seed: 3,
            ..MuxPlan::default()
        };
        let (judged, _) = judged_mux(&g, &values, &queries, &plan);
        for j in judged.iter().filter(|j| !j.joined) {
            let twin = solo_twin(&g, &values, &j.query, &plan);
            assert_eq!(
                (j.value, j.declared_at),
                (twin.value, twin.declared_at),
                "query {:?} must match its solo twin",
                j.query.id
            );
            assert_eq!(j.is_valid(), twin.is_valid(), "query {:?}", j.query.id);
        }
    }

    #[test]
    fn past_due_fallback_is_not_stranded_by_a_co_resident_query() {
        // With D̂ = 2 the hosts past depth 4 of a chain first hear a
        // query after its raw fallback tick (deadline − depth); their
        // report is clamped to the next tick. A co-resident query's
        // earlier fallback firing must not strand that report: the
        // later query's trajectory, payload included, is its solo one.
        let g = special::chain(10);
        let values: Vec<u64> = (1..=10).collect();
        let count = MuxQuery {
            id: QueryId(0),
            aggregate: Aggregate::Count,
            root: HostId(0),
            arrival: 1,
            d_hat: 2,
            window: None,
        };
        let sum = MuxQuery {
            id: QueryId(1),
            aggregate: Aggregate::Sum,
            arrival: 3,
            ..count
        };
        for churn in [
            ChurnPlan::none(),
            ChurnPlan::none().with_failure(Time(1), HostId(6)),
        ] {
            let plan = MuxPlan {
                churn,
                ..MuxPlan::default()
            };
            let (judged, _) = judged_mux(&g, &values, &[count, sum], &plan);
            // Only the later query is comparable (see `solo_twin`).
            let (mux, twin) = (&judged[1], solo_twin(&g, &values, &sum, &plan));
            assert_eq!(
                (mux.value, mux.declared_at, mux.payload_msgs),
                (twin.value, twin.declared_at, twin.payload_msgs)
            );
        }
    }

    #[test]
    fn windowed_instances_are_judged_over_their_own_slices() {
        // A failure between two instances' windows: the earlier
        // instance still counts the victim in HU, the later one may
        // not — the §4.2 slicing at work.
        let g = special::cycle(10);
        let values = vec![1u64; 10];
        let mut s = spec(1, 2);
        s.span = 1;
        s.d_hat = 3;
        s.window = Some(WindowSpec {
            window: 6,
            slide: 5,
            instances: 3,
        });
        let queries = s.generate(10);
        assert_eq!(queries.len(), 3);
        let victim = HostId((queries[0].root.0 + 5) % 10);
        let plan = MuxPlan {
            churn: ChurnPlan::none().with_failure(Time(2), victim),
            ..MuxPlan::default()
        };
        let (judged, _) = judged_mux(&g, &values, &queries, &plan);
        // All instances share a root that stays alive, so all declare.
        for j in &judged {
            assert!(j.value.is_some());
        }
        // The first window covers the failure instant (victim in HU);
        // the last window starts after it (victim absent from HU).
        assert_eq!(judged[0].hu_size, 10);
        assert_eq!(judged[2].hu_size, 9);
    }
}
