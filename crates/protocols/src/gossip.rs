//! Push-sum gossip — the eventual-consistency baseline of §2.2.
//!
//! Epidemic aggregation (Kempe–Dobra–Gehrke \[19\], Astrolabe \[37\]) runs in
//! rounds: every host halves its (sum, weight) mass and pushes one half
//! to a uniformly random neighbour; `sum/weight` converges to the true
//! aggregate at *every* host — eventually, and only if the network holds
//! still. Under churn the mass held by failed hosts simply vanishes,
//! which is exactly the weak semantics the paper contrasts with
//! Single-Site Validity: there is no bound relating the answer to any
//! well-defined host set at any point in time.
//!
//! Unlike the query-driven protocols, gossip assumes the query is known
//! to all hosts at time 0 (the standard model for epidemic aggregation).

use crate::common::Aggregate;
use pov_sim::{Ctx, NodeLogic, Time};
use pov_topology::HostId;
use rand::Rng;

/// Timer key for the per-round tick.
const TIMER_ROUND: u32 = 2;

/// Gossip messages.
#[derive(Clone, Debug)]
pub enum GossipMsg {
    /// Half of the sender's push-sum mass.
    PushSum {
        /// Sum share.
        s: f64,
        /// Weight share.
        w: f64,
    },
    /// Extremum dissemination for min/max.
    Extreme {
        /// Current best value known to the sender.
        v: u64,
    },
}

/// Per-host push-sum gossip state.
#[derive(Debug)]
pub struct GossipNode {
    aggregate: Aggregate,
    rounds: u32,
    rounds_done: u32,
    /// Push-sum mass.
    s: f64,
    w: f64,
    /// Extremum for min/max queries.
    extreme: u64,
    is_query_host: bool,
    result: Option<(f64, Time)>,
    /// `hq`-only: estimate after each round (convergence tracking).
    history: Vec<f64>,
}

impl GossipNode {
    /// Create a host. For `Count`/`Sum` the protocol needs exactly one
    /// host (by convention `hq`) holding weight 1; for `Average` every
    /// host has weight 1.
    pub fn new(value: u64, aggregate: Aggregate, rounds: u32, is_query_host: bool) -> Self {
        let (s, w) = match aggregate {
            Aggregate::Count => (1.0, if is_query_host { 1.0 } else { 0.0 }),
            Aggregate::Sum => (value as f64, if is_query_host { 1.0 } else { 0.0 }),
            Aggregate::Average => (value as f64, 1.0),
            Aggregate::Min | Aggregate::Max => (0.0, 0.0),
        };
        GossipNode {
            aggregate,
            rounds,
            rounds_done: 0,
            s,
            w,
            extreme: value,
            is_query_host,
            result: None,
            history: Vec::new(),
        }
    }

    /// The result at `hq` after the final round.
    pub fn result(&self) -> Option<(f64, Time)> {
        self.result
    }

    /// Per-round estimates at `hq` (empty elsewhere).
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    fn estimate(&self) -> f64 {
        match self.aggregate {
            Aggregate::Min | Aggregate::Max => self.extreme as f64,
            _ => {
                if self.w.abs() < f64::EPSILON {
                    0.0
                } else {
                    self.s / self.w
                }
            }
        }
    }
}

impl NodeLogic for GossipNode {
    type Msg = GossipMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, GossipMsg>) {
        if self.rounds > 0 {
            ctx.set_timer(1, TIMER_ROUND);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, GossipMsg>, _from: HostId, msg: GossipMsg) {
        match msg {
            GossipMsg::PushSum { s, w } => {
                self.s += s;
                self.w += w;
            }
            GossipMsg::Extreme { v } => {
                self.extreme = match self.aggregate {
                    Aggregate::Min => self.extreme.min(v),
                    _ => self.extreme.max(v),
                };
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GossipMsg>, key: u32) {
        if key != TIMER_ROUND {
            return;
        }
        let neighbors = ctx.neighbors();
        if !neighbors.is_empty() {
            let target = neighbors[ctx.rng().gen_range(0..neighbors.len())];
            match self.aggregate {
                Aggregate::Min | Aggregate::Max => {
                    ctx.send(target, GossipMsg::Extreme { v: self.extreme });
                }
                _ => {
                    self.s /= 2.0;
                    self.w /= 2.0;
                    ctx.send(
                        target,
                        GossipMsg::PushSum {
                            s: self.s,
                            w: self.w,
                        },
                    );
                }
            }
        }
        self.rounds_done += 1;
        if self.is_query_host {
            self.history.push(self.estimate());
        }
        if self.rounds_done < self.rounds {
            ctx.set_timer(1, TIMER_ROUND);
        } else if self.is_query_host {
            self.result = Some((self.estimate(), ctx.now()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_sim::{ChurnPlan, SimBuilder, Simulation};
    use pov_topology::generators::{random_average_degree, special};
    use pov_topology::Graph;

    fn run(
        graph: Graph,
        values: &[u64],
        aggregate: Aggregate,
        rounds: u32,
        churn: ChurnPlan,
    ) -> Simulation<'static, GossipNode> {
        let values = values.to_vec();
        let mut sim = SimBuilder::new(graph)
            .churn(churn)
            .seed(17)
            .build(move |h| GossipNode::new(values[h.index()], aggregate, rounds, h == HostId(0)));
        sim.run_until(Time(rounds as u64 + 2));
        sim
    }

    #[test]
    fn average_converges_failure_free() {
        let g = random_average_degree(100, 6.0, 3);
        let values: Vec<u64> = (0..100).map(|i| 10 + (i % 50)).collect();
        let truth = Aggregate::Average.ground_truth(&values).unwrap();
        let sim = run(g, &values, Aggregate::Average, 60, ChurnPlan::none());
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert!(
            (v - truth).abs() / truth < 0.1,
            "avg {v} should be near {truth}"
        );
    }

    #[test]
    fn count_converges_failure_free() {
        let n = 64;
        let g = random_average_degree(n, 6.0, 4);
        let sim = run(g, &vec![1; n], Aggregate::Count, 80, ChurnPlan::none());
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert!(
            (n as f64 * 0.8..n as f64 * 1.2).contains(&v),
            "count {v} vs {n}"
        );
    }

    #[test]
    fn max_spreads() {
        let n = 50;
        let g = random_average_degree(n, 6.0, 5);
        let mut values = vec![5u64; n];
        values[n - 1] = 999;
        let sim = run(g, &values, Aggregate::Max, 100, ChurnPlan::none());
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 999.0);
    }

    #[test]
    fn mass_conservation_without_failures() {
        // Total (s, w) over alive hosts is invariant while nothing fails.
        let n = 30;
        let g = special::cycle(n);
        let sim = run(g, &vec![1; n], Aggregate::Count, 40, ChurnPlan::none());
        let total_s: f64 = (0..n as u32).map(|h| sim.logic(HostId(h)).s).sum();
        let total_w: f64 = (0..n as u32).map(|h| sim.logic(HostId(h)).w).sum();
        assert!((total_s - n as f64).abs() < 1e-6, "s mass {total_s}");
        assert!((total_w - 1.0).abs() < 1e-9, "w mass {total_w}");
    }

    #[test]
    fn churn_destroys_mass() {
        // Failing hosts mid-gossip removes their mass: the count estimate
        // no longer reflects any well-defined host set. We only assert the
        // run completes and produces *some* estimate — the point of the
        // baseline is that nothing stronger can be asserted.
        let n = 60;
        let g = random_average_degree(n, 6.0, 6);
        let churn = ChurnPlan::uniform_failures(n, 20, Time(5), Time(30), HostId(0), 8);
        let sim = run(g, &vec![1; n], Aggregate::Count, 60, churn);
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert!(v.is_finite());
    }

    #[test]
    fn history_tracks_rounds() {
        let g = special::cycle(10);
        let sim = run(g, &[1; 10], Aggregate::Count, 25, ChurnPlan::none());
        assert_eq!(sim.logic(HostId(0)).history().len(), 25);
        assert!(sim.logic(HostId(1)).history().is_empty());
    }

    #[test]
    fn zero_rounds_never_declares() {
        let g = special::cycle(4);
        let sim = run(g, &[1; 4], Aggregate::Count, 0, ChurnPlan::none());
        assert!(sim.logic(HostId(0)).result().is_none());
    }
}
