//! High-level façade: build a network, issue a query, get a judged
//! answer. The experiment drivers use the lower-level crates directly;
//! this is the API a downstream user starts from.

use crate::judged::{judged_plan, JudgedOutcome};
use crate::workload;
use pov_protocols::{Aggregate, ProtocolKind, RunPlan};
use pov_sim::{ChurnPlan, DelayModel, Medium, Time};
use pov_topology::generators::TopologyKind;
use pov_topology::{analysis, Graph, HostId};

/// How far `D̂` overestimates the measured diameter: the paper's
/// "reasonably small constant" (§4.1).
const D_HAT_SLACK: u32 = 2;

/// A topology with per-host attribute values and a calibrated
/// stable-diameter overestimate `D̂`.
#[derive(Clone, Debug)]
pub struct Network {
    graph: Graph,
    values: Vec<u64>,
    d_hat: u32,
    seed: u64,
}

impl Network {
    /// Build one of the §6.1 topologies with `n` hosts and paper-Zipf
    /// attribute values ([`Network::from_graph`]).
    pub fn build(kind: TopologyKind, n: usize, seed: u64) -> Self {
        Self::from_graph(kind.build(n, seed), seed)
    }

    /// Wrap an existing graph: paper-Zipf values drawn from `seed`, and
    /// `D̂` = the graph's estimated diameter + 2. Every network the
    /// façade, the scenario runner and the benches build from a seed
    /// goes through here, so they agree on values and `D̂`.
    pub fn from_graph(graph: Graph, seed: u64) -> Self {
        let values = workload::paper_values(graph.num_hosts(), seed ^ 0x5eed_0001);
        let d = analysis::diameter_estimate(&graph, 4, seed | 1);
        Network {
            graph,
            values,
            d_hat: d + D_HAT_SLACK,
            seed,
        }
    }

    /// Wrap a graph with explicit values and `D̂`.
    pub fn with_values(graph: Graph, values: Vec<u64>, d_hat: u32, seed: u64) -> Self {
        assert_eq!(graph.num_hosts(), values.len(), "one value per host");
        Network {
            graph,
            values,
            d_hat,
            seed,
        }
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Per-host attribute values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The stable-diameter overestimate used for query deadlines.
    pub fn d_hat(&self) -> u32 {
        self.d_hat
    }

    /// Start describing a query.
    pub fn query(&self, aggregate: Aggregate) -> QueryBuilder<'_> {
        QueryBuilder {
            net: self,
            aggregate,
            failures: 0,
            c: 8,
            medium: Medium::PointToPoint,
            delay: DelayModel::default(),
            hq: HostId(0),
            seed: self.seed ^ 0xc0ffee,
        }
    }
}

/// Fluent query configuration — a thin front door over [`RunPlan`]:
/// [`QueryBuilder::run`] and [`QueryBuilder::compare`] lower to the
/// same plan and executor the scenario batch runner uses.
#[derive(Clone, Debug)]
pub struct QueryBuilder<'a> {
    net: &'a Network,
    aggregate: Aggregate,
    failures: usize,
    c: usize,
    medium: Medium,
    delay: DelayModel,
    hq: HostId,
    seed: u64,
}

impl<'a> QueryBuilder<'a> {
    /// Fail `r` random hosts at a uniform rate during query processing
    /// (the §6.2 dynamism model).
    pub fn churn(mut self, r: usize) -> Self {
        self.failures = r;
        self
    }

    /// FM repetitions `c` for sketched aggregates (default 8, per Fig 6).
    pub fn repetitions(mut self, c: usize) -> Self {
        self.c = c;
        self
    }

    /// Choose the communication medium (default point-to-point).
    pub fn medium(mut self, medium: Medium) -> Self {
        self.medium = medium;
        self
    }

    /// Choose the per-hop delay model (default fixed 1-tick hops). The
    /// query deadline in ticks scales by the model's bound `δ`, exactly
    /// as in scenario files.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Choose the querying host (default `h0`).
    pub fn from_host(mut self, hq: HostId) -> Self {
        self.hq = hq;
        self
    }

    /// Per-query seed (default derived from the network seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The [`RunPlan`] this builder describes, with `kinds` as the
    /// execution list.
    fn plan(&self, kinds: impl IntoIterator<Item = ProtocolKind>) -> RunPlan {
        let plan = RunPlan::query(self.aggregate)
            .d_hat(self.net.d_hat)
            .repetitions(self.c)
            .medium(self.medium)
            .delay(self.delay)
            .seed(self.seed)
            .from_host(self.hq)
            .protocols(kinds);
        let churn = ChurnPlan::uniform_failures(
            self.net.graph.num_hosts(),
            self.failures,
            Time::ZERO,
            Time(plan.deadline()),
            self.hq,
            self.seed ^ 0xdead,
        );
        plan.churn(churn)
    }

    /// Run the query under `protocol` and judge the outcome.
    ///
    /// # Panics
    /// Panics if `protocol` cannot answer the query: RANDOMIZEDREPORT
    /// estimates count only, and it and ALLREPORT report over the
    /// underlay, which a radio medium does not carry.
    pub fn run(&self, protocol: ProtocolKind) -> JudgedOutcome {
        self.compare(&[protocol]).remove(0)
    }

    /// Run the query under *each* protocol over one shared plan — same
    /// churn realization, same seed — and return the judged answers in
    /// argument order. Because the failure draw is fixed by the plan,
    /// the answers form a paired comparison: any verdict/cost gap is
    /// the protocols' doing, not the dynamism's.
    pub fn compare(&self, protocols: &[ProtocolKind]) -> Vec<JudgedOutcome> {
        let plan = self.plan(protocols.iter().copied());
        judged_plan(&self.net.graph, &self.net.values, &plan)
            .into_iter()
            .map(|mut judged| judged.windows.remove(0).judged)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_protocols::wildfire::WildfireOpts;

    fn wildfire() -> ProtocolKind {
        ProtocolKind::Wildfire(WildfireOpts::default())
    }

    #[test]
    fn quickstart_flow() {
        let net = Network::build(TopologyKind::Random, 300, 11);
        let answer = net.query(Aggregate::Max).run(wildfire());
        assert!(answer.verdict.is_valid());
        let truth = *net.values().iter().max().unwrap() as f64;
        assert_eq!(answer.value, Some(truth));
    }

    #[test]
    fn wildfire_valid_under_churn() {
        let net = Network::build(TopologyKind::Gnutella, 400, 5);
        for seed in 0..3 {
            let answer = net
                .query(Aggregate::Min)
                .churn(40)
                .seed(seed)
                .run(wildfire());
            assert!(
                answer.verdict.is_valid(),
                "seed {seed}: {:?}",
                answer.verdict
            );
        }
    }

    #[test]
    fn spanning_tree_exact_without_churn() {
        let net = Network::build(TopologyKind::Random, 250, 3);
        let answer = net.query(Aggregate::Sum).run(ProtocolKind::SpanningTree);
        let truth: u64 = net.values().iter().sum();
        assert_eq!(answer.value, Some(truth as f64));
        assert!(answer.verdict.within_bounds);
        assert_eq!(answer.hc_size, 250);
        assert_eq!(answer.hu_size, 250);
    }

    #[test]
    fn churn_shrinks_hc() {
        let net = Network::build(TopologyKind::Random, 300, 9);
        let answer = net
            .query(Aggregate::Count)
            .churn(60)
            .run(ProtocolKind::SpanningTree);
        assert!(answer.hc_size < 300 - 59, "hc = {}", answer.hc_size);
        assert_eq!(answer.hu_size, 300);
    }

    #[test]
    fn all_facade_protocols_run() {
        let net = Network::build(TopologyKind::Grid, 100, 2);
        for p in [
            ProtocolKind::AllReport,
            ProtocolKind::SpanningTree,
            ProtocolKind::Dag { k: 2 },
            ProtocolKind::Dag { k: 3 },
            wildfire(),
        ] {
            let answer = net.query(Aggregate::Max).run(p);
            assert!(answer.value.is_some(), "{}", p.label());
        }
    }

    #[test]
    fn facade_reaches_randomized_report_and_gossip() {
        // RANDOMIZEDREPORT estimates count only.
        let net = Network::build(TopologyKind::Random, 200, 4);
        for p in [
            ProtocolKind::RandomizedReport { p: 0.5 },
            ProtocolKind::Gossip { rounds: 40 },
        ] {
            let answer = net.query(Aggregate::Count).run(p);
            assert!(answer.value.is_some(), "{}", p.label());
        }
    }

    #[test]
    fn compare_pairs_protocols_on_one_realization() {
        // WILDFIRE vs SPANNINGTREE under the same 60-failure draw: the
        // paired answers expose the validity gap without churn-sampling
        // noise, and come back in argument order.
        let net = Network::build(TopologyKind::Random, 300, 17);
        let answers = net
            .query(Aggregate::Count)
            .churn(60)
            .compare(&[wildfire(), ProtocolKind::SpanningTree]);
        assert_eq!(answers.len(), 2);
        // Shared realization: identical oracle population set.
        assert_eq!(answers[0].hu_size, answers[1].hu_size);
        // And identical to what a solo run of each protocol sees.
        for (p, answer) in [wildfire(), ProtocolKind::SpanningTree]
            .into_iter()
            .zip(&answers)
        {
            let solo = net.query(Aggregate::Count).churn(60).run(p);
            assert_eq!(solo.value, answer.value, "{}", p.label());
            assert_eq!(
                solo.metrics.messages_sent,
                answer.metrics.messages_sent,
                "{}",
                p.label()
            );
        }
        assert_ne!(
            answers[0].metrics.messages_sent, answers[1].metrics.messages_sent,
            "the two protocols' costs tell the answers apart"
        );
    }

    #[test]
    fn facade_delay_scales_deadline() {
        // The two front doors must agree: a 2-tick hop bound doubles the
        // declaration instant through the façade exactly as it does
        // through scenario files.
        let g = pov_topology::generators::special::cycle(8);
        let net = Network::with_values(g, vec![5; 8], 6, 3);
        let fast = net.query(Aggregate::Max).run(wildfire());
        let slow = net
            .query(Aggregate::Max)
            .delay(DelayModel::Fixed(2))
            .run(wildfire());
        assert_eq!(fast.declared_at, Some(Time(12)));
        assert_eq!(slow.declared_at, Some(Time(24)));
        assert_eq!(slow.value, fast.value);
    }

    #[test]
    #[should_panic(expected = "one value per host")]
    fn with_values_checks_length() {
        let g = pov_topology::generators::special::chain(3);
        Network::with_values(g, vec![1, 2], 4, 0);
    }

    #[test]
    fn query_from_non_default_host() {
        // A mid-chain querying host sees the whole chain; HC/HU are
        // computed from *its* vantage point.
        let g = pov_topology::generators::special::chain(9);
        let values: Vec<u64> = (10..19).collect();
        let net = Network::with_values(g, values.clone(), 10, 1);
        let answer = net
            .query(Aggregate::Max)
            .from_host(HostId(4))
            .run(wildfire());
        assert_eq!(answer.value, Some(18.0));
        assert!(answer.verdict.is_valid());
        assert_eq!(answer.hc_size, 9);

        // The exact protocols agree from the same vantage point.
        let g = pov_topology::generators::special::chain(9);
        let net = Network::with_values(g, values, 10, 1);
        let answer = net
            .query(Aggregate::Count)
            .from_host(HostId(4))
            .run(ProtocolKind::SpanningTree);
        assert_eq!(answer.value, Some(9.0));
    }

    #[test]
    fn custom_d_hat_controls_deadline() {
        let g = pov_topology::generators::special::cycle(8);
        let net = Network::with_values(g, vec![5; 8], 6, 3);
        assert_eq!(net.d_hat(), 6);
        let answer = net.query(Aggregate::Max).run(wildfire());
        // WILDFIRE declares at exactly 2·D̂.
        assert_eq!(answer.declared_at, Some(Time(12)));
    }
}
