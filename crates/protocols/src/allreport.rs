//! ALLREPORT (Fig 2) and RANDOMIZEDREPORT (§4.3).
//!
//! ALLREPORT is the constructive proof of Theorem 4.3: flood the query;
//! every host that hears it sends its attribute value straight to `hq`;
//! `hq` aggregates whatever arrived by `2·D̂·δ`. It performs the least
//! possible in-network processing and — studied as *Direct Delivery* by
//! Yao & Gehrke — pays a high price in messages and in load around `hq`.
//! A report travels over the IP underlay, one message per report (the
//! P2P setting of §3.1 Ex. 3.1), so only a point-to-point medium
//! carries it.
//!
//! RANDOMIZEDREPORT answers `count` with Approximate Single-Site
//! Validity: each host reports with probability `p` and `hq` declares
//! `|M| / p`, saving `(1 − p)·|H|` report messages.

use crate::common::{Aggregate, QuerySpec};
use pov_sim::{Ctx, NodeLogic, Time};
use pov_topology::HostId;
use rand::Rng;

/// Timer key for the declaration deadline at `hq`.
const TIMER_DECLARE: u32 = 0;

/// ALLREPORT messages.
#[derive(Clone, Debug)]
pub enum ArMsg {
    /// The flooded query.
    Query {
        /// Query parameters.
        spec: QuerySpec,
        /// The querying host (reports are addressed to it).
        hq: HostId,
        /// Report-sampling probability: `None` for ALLREPORT, `Some(p)`
        /// for RANDOMIZEDREPORT.
        sample: Option<f64>,
    },
    /// A host's attribute value on its way to `hq`.
    Report {
        /// Value of the originating host.
        value: u64,
    },
}

/// Per-host ALLREPORT/RANDOMIZEDREPORT state.
#[derive(Debug)]
pub struct AllReportNode {
    value: u64,
    seen_query: bool,
    /// `hq`-only: collected values `M` (own value included, Fig 2).
    collected: Vec<u64>,
    query: Option<QuerySpec>,
    result: Option<(f64, Time)>,
    is_query_host: bool,
    sample: Option<f64>,
}

impl AllReportNode {
    /// A passive host.
    pub fn host(value: u64) -> Self {
        AllReportNode {
            value,
            seen_query: false,
            collected: Vec::new(),
            query: None,
            result: None,
            is_query_host: false,
            sample: None,
        }
    }

    /// The querying host for plain ALLREPORT.
    pub fn query_host(value: u64, spec: QuerySpec) -> Self {
        let mut n = Self::host(value);
        n.is_query_host = true;
        n.query = Some(spec);
        n
    }

    /// The querying host for RANDOMIZEDREPORT with sampling probability
    /// `p` (§4.3; count queries only).
    pub fn randomized_query_host(value: u64, spec: QuerySpec, p: f64) -> Self {
        assert!(
            spec.aggregate == Aggregate::Count,
            "RANDOMIZEDREPORT estimates count only"
        );
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let mut n = Self::query_host(value, spec);
        n.sample = Some(p);
        n
    }

    /// The declared result at `hq`.
    pub fn result(&self) -> Option<(f64, Time)> {
        self.result
    }
}

impl AllReportNode {
    fn maybe_report(&mut self, ctx: &mut Ctx<'_, ArMsg>, hq: HostId) {
        let report = match self.sample {
            Some(p) => ctx.rng().gen_bool(p),
            None => true,
        };
        if !report {
            return;
        }
        ctx.send_direct(hq, ArMsg::Report { value: self.value });
    }
}

impl NodeLogic for AllReportNode {
    type Msg = ArMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ArMsg>) {
        if !self.is_query_host {
            return;
        }
        let spec = self.query.expect("query host has a spec");
        self.seen_query = true;
        // Fig 2: M := {hq}. Under sampling, hq flips its own coin too.
        let include_self = match self.sample {
            Some(p) => ctx.rng().gen_bool(p),
            None => true,
        };
        if include_self {
            self.collected.push(self.value);
        }
        ctx.set_timer(spec.deadline(), TIMER_DECLARE);
        ctx.broadcast(ArMsg::Query {
            spec,
            hq: ctx.me(),
            sample: self.sample,
        });
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ArMsg>, from: HostId, msg: ArMsg) {
        match msg {
            ArMsg::Query { spec, hq, sample } => {
                if self.seen_query {
                    return;
                }
                self.seen_query = true;
                self.query = Some(spec);
                self.sample = sample;
                ctx.broadcast_except(Some(from), ArMsg::Query { spec, hq, sample });
                self.maybe_report(ctx, hq);
            }
            ArMsg::Report { value } => {
                // Reports are addressed to hq alone; one arriving after
                // the declaration is too late.
                if self.result.is_none() {
                    self.collected.push(value);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ArMsg>, key: u32) {
        if key != TIMER_DECLARE || !self.is_query_host || self.result.is_some() {
            return;
        }
        let spec = self.query.expect("query host has a spec");
        let value = match self.sample {
            Some(p) => self.collected.len() as f64 / p,
            None => spec.aggregate.ground_truth(&self.collected).unwrap_or(0.0),
        };
        self.result = Some((value, ctx.now()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_sim::{ChurnPlan, SimBuilder, Simulation};
    use pov_topology::generators::special;
    use pov_topology::Graph;

    fn run(
        graph: Graph,
        values: &[u64],
        aggregate: Aggregate,
        d_hat: u32,
        churn: ChurnPlan,
    ) -> Simulation<'static, AllReportNode> {
        let spec = QuerySpec {
            aggregate,
            d_hat,
            c: 8,
        };
        let values = values.to_vec();
        let mut sim = SimBuilder::new(graph).churn(churn).seed(5).build(move |h| {
            if h == HostId(0) {
                AllReportNode::query_host(values[h.index()], spec)
            } else {
                AllReportNode::host(values[h.index()])
            }
        });
        sim.run_until(Time(spec.deadline() + 1));
        sim
    }

    #[test]
    fn exact_count_failure_free() {
        let sim = run(
            special::cycle(12),
            &[1; 12],
            Aggregate::Count,
            6,
            ChurnPlan::none(),
        );
        let (v, at) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 12.0);
        assert_eq!(at, Time(12));
    }

    #[test]
    fn exact_sum_and_avg() {
        let values = [10u64, 20, 30, 40, 50];
        let sim = run(
            special::chain(5),
            &values,
            Aggregate::Sum,
            4,
            ChurnPlan::none(),
        );
        assert_eq!(sim.logic(HostId(0)).result().unwrap().0, 150.0);
        let sim = run(
            special::chain(5),
            &values,
            Aggregate::Average,
            4,
            ChurnPlan::none(),
        );
        assert_eq!(sim.logic(HostId(0)).result().unwrap().0, 30.0);
    }

    #[test]
    fn direct_mode_message_cost() {
        // Chain of n: flood costs n-1 messages; each non-hq host reports
        // directly (1 message each) = n-1. Total 2(n-1).
        let n = 8;
        let sim = run(
            special::chain(n),
            &vec![1; n],
            Aggregate::Count,
            (n - 1) as u32,
            ChurnPlan::none(),
        );
        assert_eq!(sim.metrics().messages_sent as usize, 2 * (n - 1));
    }

    #[test]
    fn failure_loses_unreachable_values_only() {
        // Chain 0-1-2-3-4; host 1 fails at t=0 ⇒ HC = {0}; count = 1.
        let churn = ChurnPlan::none().with_failure(Time(0), HostId(1));
        let sim = run(special::chain(5), &[1; 5], Aggregate::Count, 4, churn);
        assert_eq!(sim.logic(HostId(0)).result().unwrap().0, 1.0);
    }

    #[test]
    fn randomized_report_estimates_count() {
        let n = 400;
        let spec = QuerySpec {
            aggregate: Aggregate::Count,
            d_hat: 4,
            c: 8,
        };
        let g = special::star(n);
        let mut sim = SimBuilder::new(g).seed(11).build(move |h| {
            if h == HostId(0) {
                AllReportNode::randomized_query_host(1, spec, 0.5)
            } else {
                AllReportNode::host(1)
            }
        });
        sim.run_until(Time(spec.deadline() + 1));
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert!(
            (n as f64 * 0.8..n as f64 * 1.2).contains(&v),
            "estimate {v} for {n}"
        );
        // Message savings: roughly half the hosts stayed silent.
        let sent = sim.metrics().messages_sent;
        assert!(
            sent < (2 * n - 2) as u64,
            "sent {sent}, no savings over ALLREPORT"
        );
    }

    #[test]
    #[should_panic(expected = "count only")]
    fn randomized_report_rejects_sum() {
        let spec = QuerySpec {
            aggregate: Aggregate::Sum,
            d_hat: 4,
            c: 8,
        };
        AllReportNode::randomized_query_host(1, spec, 0.5);
    }

    #[test]
    fn late_query_copy_not_reported_twice() {
        // On a cycle every host receives the query from two sides but
        // must report exactly once.
        let n = 10;
        let sim = run(
            special::cycle(n),
            &vec![1; n],
            Aggregate::Count,
            n as u32,
            ChurnPlan::none(),
        );
        assert_eq!(sim.logic(HostId(0)).result().unwrap().0, n as f64);
    }
}
