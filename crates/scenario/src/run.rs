//! The batch executor: fan a scenario's `seeds × repetitions` matrix
//! across worker threads and aggregate order-independently.
//!
//! Determinism is the contract here. Each cell of the matrix derives its
//! own [`SmallRng`] stream from `(seed, repetition)` alone — never from
//! thread identity or scheduling — and every record lands in a
//! pre-allocated slot indexed by its matrix position. Aggregation then
//! reads the slots in index order, so the report (and its JSON
//! rendering) is byte-identical for any `--threads` value. The
//! `prop_scenario` suite asserts exactly that.
//!
//! One cell executes the *whole* [`RunPlan`] the scenario lowers to:
//! every `[[protocol]]` contender and (for `[continuous]` scenarios)
//! every window runs against the same churn/partition realization, so
//! the per-protocol report sections are a paired comparison.

use crate::json::Json;
use crate::spec::{ChurnSpec, Scenario};
use pov_core::judged::judged_plan;
use pov_core::mux::{judged_mux, WindowSpec, WorkloadSpec as MuxWorkloadSpec};
use pov_core::pov_protocols::{
    AdversarySpec as PlanAdversarySpec, MuxPlan, OverlayConfig, RunPlan,
};
use pov_core::pov_sim::{share, ChurnPlan, PartitionPlan, PhaseSchedule, Time};
use pov_core::pov_topology::{Graph, HostId};
use pov_core::Network;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What one `(seed, repetition, window)` produced for one protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Root seed of this cell.
    pub seed: u64,
    /// Repetition index under that seed.
    pub rep: usize,
    /// Continuous-window index (`0` for one-shot scenarios).
    pub window: usize,
    /// Label of the membership phase this window started in (`None`
    /// for scenarios without a `[phases]` schedule).
    pub phase: Option<&'static str>,
    /// Declared value (`None` if `hq` never declared).
    pub value: Option<f64>,
    /// Whether the ORACLE judged the declared value Single-Site Valid.
    pub valid: bool,
    /// Multiplicative deviation from the valid envelope (`1.0` = inside;
    /// `None` for unbounded aggregates or undeclared runs).
    pub deviation: Option<f64>,
    /// `|HC|` over the judged interval.
    pub hc: usize,
    /// `|HU|` over the judged interval.
    pub hu: usize,
    /// Communication cost (messages sent).
    pub messages: u64,
    /// Computation cost (max messages processed at one host).
    pub computation: u64,
    /// Declaration instant in ticks.
    pub time_cost: Option<u64>,
}

/// Mean / population standard deviation / min / max of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Agg {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Number of samples aggregated (runs that produced this metric).
    pub count: usize,
}

impl Agg {
    /// Aggregate a sample set (empty → all-zero with `count = 0`).
    pub fn of(xs: &[f64]) -> Agg {
        if xs.is_empty() {
            return Agg {
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
                count: 0,
            };
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Agg {
            mean,
            stddev: var.sqrt(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            count: xs.len(),
        }
    }

    fn to_json(self) -> Json {
        Json::obj()
            .with("mean", self.mean)
            .with("stddev", self.stddev)
            .with("min", self.min)
            .with("max", self.max)
            .with("count", self.count)
    }
}

/// One protocol's slice of a batch report: its aggregates and records
/// over the whole `seeds × repetitions × windows` matrix.
#[derive(Clone, Debug)]
pub struct ProtocolSection {
    /// Protocol display label (`WILDFIRE`, `DAG(k=2)`, …).
    pub protocol: String,
    /// Fraction of this protocol's records in which `hq` declared.
    pub declared_fraction: f64,
    /// Fraction of this protocol's records judged Single-Site Valid.
    pub valid_fraction: f64,
    /// Named metric aggregates, in fixed order.
    pub metrics: Vec<(&'static str, Agg)>,
    /// Per-record results in matrix order (seed-major, then repetition,
    /// then window).
    pub records: Vec<RunRecord>,
}

impl ProtocolSection {
    /// One metric's aggregate by name.
    pub fn metric(&self, name: &str) -> Option<Agg> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, a)| a)
    }

    fn to_json(&self) -> Json {
        let records = self
            .records
            .iter()
            .map(|r| {
                Json::obj()
                    .with("seed", r.seed)
                    .with("rep", r.rep)
                    .with("window", r.window)
                    .with("phase", r.phase)
                    .with("value", r.value)
                    .with("valid", r.valid)
                    .with("deviation", r.deviation)
                    .with("hc", r.hc)
                    .with("hu", r.hu)
                    .with("messages", r.messages)
                    .with("computation", r.computation)
                    .with("time_cost", r.time_cost)
            })
            .collect();
        let mut metrics = Json::obj();
        for &(name, agg) in &self.metrics {
            metrics = metrics.with(name, agg.to_json());
        }
        Json::obj()
            .with("protocol", self.protocol.as_str())
            .with("declared_fraction", self.declared_fraction)
            .with("valid_fraction", self.valid_fraction)
            .with("metrics", metrics)
            .with("records", Json::Arr(records))
    }
}

/// One metric's paired per-cell difference between a contender and the
/// baseline protocol: `mean ± ci95` of `contender − baseline` over the
/// `(seed, rep, window)` cells where both produced the metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairedDiff {
    /// Metric name (`value`, `deviation`, `messages`, …).
    pub metric: &'static str,
    /// Mean per-cell difference (contender − baseline).
    pub mean: f64,
    /// 95% confidence half-width, `1.96·σ/√n` (normal approximation —
    /// the batch matrices are large enough that the t correction is
    /// noise, and the offline environment carries no t-tables).
    pub ci95: f64,
    /// Number of cells both protocols produced the metric in.
    pub count: usize,
}

/// Paired comparison of one `[[protocol]]` contender against the
/// *first* (baseline) table — e.g. `WILDFIRE − SPANNINGTREE` when
/// SPANNINGTREE is listed first. Because every cell of the batch runs
/// all protocols against the same churn/partition realization, these
/// are true paired differences: the per-cell draw variance cancels, so
/// `|mean| > ci95` is a significance statement about the protocols, not
/// about the seeds — the §6 trade-off claims become statistical rather
/// than eyeballed.
#[derive(Clone, Debug)]
pub struct PairedSection {
    /// The contender protocol's display label.
    pub protocol: String,
    /// The baseline protocol's display label (first `[[protocol]]`).
    pub baseline: String,
    /// One paired difference per metric, in fixed metric order.
    pub diffs: Vec<PairedDiff>,
}

impl PairedSection {
    fn to_json(&self) -> Json {
        let mut diffs = Json::obj();
        for d in &self.diffs {
            diffs = diffs.with(
                d.metric,
                Json::obj()
                    .with("mean", d.mean)
                    .with("ci95", d.ci95)
                    .with("count", d.count),
            );
        }
        Json::obj()
            .with("protocol", self.protocol.as_str())
            .with("baseline", self.baseline.as_str())
            .with("diffs", diffs)
    }
}

/// What one query of a cell's `[workload]` produced inside the
/// multiplexed run, judged over the query's own interval.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadRecord {
    /// Root seed of this cell.
    pub seed: u64,
    /// Repetition index under that seed.
    pub rep: usize,
    /// Query index inside the cell's workload.
    pub query: u32,
    /// Aggregate display name (`count`, `sum`, …).
    pub aggregate: &'static str,
    /// The query's root host.
    pub root: u32,
    /// Arrival tick.
    pub arrival: u64,
    /// Declared value (`None` if the root died first).
    pub value: Option<f64>,
    /// Whether the ORACLE judged the declared value Single-Site Valid
    /// over this query's own interval.
    pub valid: bool,
    /// Declaration instant in ticks.
    pub declared_at: Option<u64>,
    /// `|HC|` over the query's interval.
    pub hc: usize,
    /// `|HU|` over the query's interval.
    pub hu: usize,
    /// Payload items charged to this query across all hosts.
    pub payload_msgs: u64,
    /// Whether the query joined a live wave via the partial cache.
    pub joined: bool,
}

/// One cell's raw multiplexing economics: what the shared substrate
/// actually sent versus what the co-resident queries paid in payload.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkloadCellStats {
    /// Raw engine messages (shared wave messages actually sent).
    pub raw_messages: u64,
    /// Total payload items across all queries.
    pub payload_items: u64,
    /// Queries that joined a live wave through the partial cache.
    pub cache_joins: u64,
}

impl WorkloadCellStats {
    fn add(&mut self, other: WorkloadCellStats) {
        self.raw_messages += other.raw_messages;
        self.payload_items += other.payload_items;
        self.cache_joins += other.cache_joins;
    }
}

/// The `[workload]` slice of a batch report: per-query verdicts over
/// the whole matrix plus the summed sharing economics.
#[derive(Clone, Debug)]
pub struct WorkloadSection {
    /// Queries per cell (after sliding-window expansion).
    pub queries_per_cell: usize,
    /// Fraction of workload queries whose root declared.
    pub declared_fraction: f64,
    /// Fraction of workload queries judged Single-Site Valid.
    pub valid_fraction: f64,
    /// Summed sharing economics over all cells.
    pub stats: WorkloadCellStats,
    /// Per-query results in matrix order (seed-major, then repetition,
    /// then query index).
    pub records: Vec<WorkloadRecord>,
}

impl WorkloadSection {
    fn to_json(&self) -> Json {
        let records = self
            .records
            .iter()
            .map(|r| {
                Json::obj()
                    .with("seed", r.seed)
                    .with("rep", r.rep)
                    .with("query", r.query)
                    .with("aggregate", r.aggregate)
                    .with("root", r.root)
                    .with("arrival", r.arrival)
                    .with("value", r.value)
                    .with("valid", r.valid)
                    .with("declared_at", r.declared_at)
                    .with("hc", r.hc)
                    .with("hu", r.hu)
                    .with("payload_msgs", r.payload_msgs)
                    .with("joined", r.joined)
            })
            .collect();
        Json::obj()
            .with("queries_per_cell", self.queries_per_cell)
            .with("declared_fraction", self.declared_fraction)
            .with("valid_fraction", self.valid_fraction)
            .with("raw_messages", self.stats.raw_messages)
            .with("payload_items", self.stats.payload_items)
            .with("cache_joins", self.stats.cache_joins)
            .with("records", Json::Arr(records))
    }
}

/// The aggregated result of one scenario batch: shared run facts plus
/// one [`ProtocolSection`] per `[[protocol]]` contender, all computed
/// from the same per-cell churn realizations.
#[derive(Clone, Debug)]
pub struct Report {
    /// Scenario name.
    pub scenario: String,
    /// Topology display name.
    pub topology: String,
    /// Dynamism regime (churn model, `+partition` when one is layered).
    pub churn_model: String,
    /// Actual host count of the built graph.
    pub n: usize,
    /// The `D̂` used for the query deadline.
    pub d_hat: u32,
    /// Cells in the batch matrix (seeds × repetitions).
    pub runs: usize,
    /// Continuous windows per cell (`1` for one-shot scenarios).
    pub windows: usize,
    /// Fraction of records (all protocols) in which `hq` declared.
    pub declared_fraction: f64,
    /// Fraction of records (all protocols) judged Single-Site Valid.
    pub valid_fraction: f64,
    /// One section per protocol, in `[[protocol]]` file order.
    pub protocols: Vec<ProtocolSection>,
    /// Paired per-cell differences of every later protocol against the
    /// first (empty for single-protocol scenarios).
    pub paired: Vec<PairedSection>,
    /// Per-query verdicts of the `[workload]` multiplexed runs (`None`
    /// without a `[workload]` section).
    pub workload: Option<WorkloadSection>,
}

impl Report {
    /// The section for one protocol, by display label.
    pub fn section(&self, protocol: &str) -> Option<&ProtocolSection> {
        self.protocols.iter().find(|s| s.protocol == protocol)
    }

    /// One metric's aggregate by name, from the *first* protocol
    /// section — the whole report for single-protocol scenarios.
    pub fn metric(&self, name: &str) -> Option<Agg> {
        self.protocols.first().and_then(|s| s.metric(name))
    }

    /// All records of the first protocol section (the whole batch for
    /// single-protocol scenarios).
    pub fn records(&self) -> &[RunRecord] {
        self.protocols
            .first()
            .map(|s| s.records.as_slice())
            .unwrap_or(&[])
    }

    /// The JSON document emitted by `repro scenario --json` (and diffed
    /// byte-for-byte by the determinism gate).
    pub fn to_json(&self) -> Json {
        let doc = Json::obj()
            .with("scenario", self.scenario.as_str())
            .with("topology", self.topology.as_str())
            .with("churn_model", self.churn_model.as_str())
            .with("n", self.n)
            .with("d_hat", self.d_hat)
            .with("runs", self.runs)
            .with("windows", self.windows)
            .with("declared_fraction", self.declared_fraction)
            .with("valid_fraction", self.valid_fraction)
            .with(
                "protocols",
                Json::Arr(self.protocols.iter().map(|s| s.to_json()).collect()),
            )
            .with(
                "paired",
                Json::Arr(self.paired.iter().map(|p| p.to_json()).collect()),
            );
        // The key exists only for [workload] scenarios, so workload-free
        // reports stay byte-identical to their historical renderings.
        match &self.workload {
            Some(w) => doc.with("workload", w.to_json()),
            None => doc,
        }
    }
}

/// The one-shot deadline `2·D̂·δ` of `scn` over `net`, in ticks.
pub(crate) fn deadline(scn: &Scenario, net: &Network) -> u64 {
    2 * net.d_hat() as u64 * scn.delay.bound()
}

/// The instant a fraction `frac` of the regime `span` falls on.
fn tick(frac: f64, span: u64) -> Time {
    Time((frac * span as f64).round() as u64)
}

/// The tick count the scenario's window fractions scale to: the
/// one-shot deadline `2·D̂·δ`, or the whole `windows × W` horizon for
/// continuous scenarios (so a regime can span the registration), where
/// a window `W` is one query round, the deadline itself.
pub(crate) fn regime_span(scn: &Scenario, deadline: u64) -> u64 {
    match &scn.continuous {
        None => deadline,
        Some(c) => c.windows as u64 * deadline,
    }
}

/// Derive the churn plan for one cell from the scenario's regime.
fn materialize_churn(scn: &Scenario, graph: &Graph, span: u64, churn_seed: u64) -> ChurnPlan {
    let hq = HostId(scn.hq);
    let n = graph.num_hosts();
    match &scn.churn {
        ChurnSpec::None => ChurnPlan::none(),
        ChurnSpec::Uniform { fraction, window } => ChurnPlan::uniform_failures(
            n,
            share(*fraction, n),
            tick(window.0, span),
            tick(window.1, span),
            hq,
            churn_seed,
        ),
        ChurnSpec::FlashCrowd { fraction, window } => ChurnPlan::flash_crowd(
            n,
            share(*fraction, n),
            tick(window.0, span),
            tick(window.1, span),
            hq,
            churn_seed,
        ),
        ChurnSpec::Correlated {
            clusters,
            cluster_size,
            window,
        } => ChurnPlan::correlated_failures(
            graph,
            *clusters,
            *cluster_size,
            tick(window.0, span),
            tick(window.1, span),
            hq,
            churn_seed,
        ),
        ChurnSpec::Oscillating {
            fraction,
            window,
            period,
            downtime,
        } => {
            // Fractional period/downtime lower to ticks of the span; both
            // clamp to ≥ 1 tick with downtime < period kept invariant.
            let period_ticks = tick(*period, span).ticks().max(2);
            let downtime_ticks = tick(*downtime, span).ticks().clamp(1, period_ticks - 1);
            ChurnPlan::oscillating(
                n,
                share(*fraction, n),
                tick(window.0, span),
                tick(window.1, span),
                period_ticks,
                downtime_ticks,
                hq,
                churn_seed,
            )
        }
        ChurnSpec::AdversarialRoot { radius, at } => {
            ChurnPlan::root_neighbourhood_failures(graph, hq, *radius, tick(*at, span))
        }
    }
}

/// Derive the partition plan for one cell: one cut per
/// `[[partition]]` table, overlaid into a single cascading
/// [`PartitionPlan`]. All cuts draw their pivots from one RNG stream in
/// table order, so a one-table scenario materializes exactly the cut it
/// always did.
fn materialize_partition(
    scn: &Scenario,
    graph: &Graph,
    span: u64,
    churn_seed: u64,
) -> Option<PartitionPlan> {
    // The partition draws use their own stream off `churn_seed` so
    // stacking a churn model on top does not shift the cuts.
    let mut rng = SmallRng::seed_from_u64(churn_seed ^ 0x51de_c0de);
    PartitionPlan::stack_all(scn.partitions.iter().map(|spec| {
        let (from, heal) = (tick(spec.from, span), tick(spec.heal, span));
        PartitionPlan::split_sparing(graph, HostId(scn.hq), spec.fraction, &mut rng)
            .window(from, heal.max(from + 1))
    }))
}

/// Build the cell's [`PhaseSchedule`] from the scenario's `[phases]`
/// spec. Weights are relative spans: phase `i` ends at tick
/// `round(cum_weight_i / total · span)`, so the boundaries partition
/// the regime span exactly (up to the ≥ 1-tick floor every phase
/// keeps) and rounding error never accumulates.
pub(crate) fn materialize_phases(scn: &Scenario, span: u64) -> Option<PhaseSchedule> {
    let spec = scn.phases.as_ref()?;
    let total: f64 = spec.phases.iter().map(|&(_, w)| w).sum();
    let mut schedule = PhaseSchedule::with_start_alive(spec.start_alive);
    let mut cum = 0.0;
    let mut last = 0u64;
    for &(kind, weight) in &spec.phases {
        cum += weight;
        let boundary = tick(cum / total, span).ticks();
        let ticks = boundary.saturating_sub(last).max(1);
        last += ticks;
        schedule = schedule.then(kind, ticks);
    }
    Some(schedule)
}

/// One cell's fully lowered plan plus the phase schedule (when the
/// scenario scripts one) that labels its windows.
pub(crate) struct CellPlan {
    /// The executable plan — every protocol, the cell's churn/partition
    /// realization, and any continuous-window spec.
    pub(crate) plan: RunPlan,
    /// The phase schedule the regime lowered from (`None` without a
    /// `[phases]` section).
    pub(crate) phases: Option<PhaseSchedule>,
    /// The cell's workload seed (`None` without a `[workload]` section).
    pub(crate) workload_seed: Option<u64>,
}

/// Lower one `(seed, rep)` cell to its [`RunPlan`]. This is *the* cell
/// seed derivation: the batch runner and the trace runner both call it,
/// so a trace records exactly the runs the report aggregates.
pub(crate) fn cell_plan(scn: &Scenario, net: &Network, seed: u64, rep: usize) -> CellPlan {
    // Per-cell RNG stream: a function of (seed, rep) only.
    let mut stream = SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(rep as u64),
    );
    let churn_seed: u64 = stream.gen();
    let sim_seed: u64 = stream.gen();
    // Drawn strictly after the churn and sim seeds, and only when the
    // scenario has an [overlay] section — overlay-free scenarios keep
    // their exact historical seed streams (byte-identical reports).
    let overlay_seed: Option<u64> = scn.overlay.map(|_| stream.gen());
    // Same discipline for [workload], drawn after the overlay seed.
    let workload_seed: Option<u64> = scn.workload.map(|_| stream.gen());
    // Churn/partition windows are fractions of the regime span in
    // *ticks*: the `2·D̂·δ` deadline, or the full multi-window horizon.
    let deadline = deadline(scn, net);
    let span = regime_span(scn, deadline);
    // A [phases] schedule owns the whole membership regime: its lowered
    // churn/partition plans replace the hand-written sections (which
    // the parser rejects alongside it anyway).
    let (phase_schedule, churn, partition) = match materialize_phases(scn, span) {
        Some(schedule) => {
            let lowered = schedule.lower(net.graph(), HostId(scn.hq), churn_seed);
            (Some(schedule), lowered.churn, lowered.partition)
        }
        None => (
            None,
            materialize_churn(scn, net.graph(), span, churn_seed),
            materialize_partition(scn, net.graph(), span, churn_seed),
        ),
    };
    let mut plan = RunPlan::query(scn.aggregate)
        .d_hat(net.d_hat())
        .repetitions(scn.c)
        .medium(scn.medium)
        .delay(scn.delay)
        .churn(churn)
        .seed(sim_seed)
        .from_host(HostId(scn.hq))
        .protocols(scn.protocols.iter().copied());
    if let Some(partition) = partition {
        plan = plan.partition(partition);
    }
    if let Some(a) = &scn.adversary {
        plan = plan.adversary(PlanAdversarySpec::fm_maxima(
            a.kills_per_wave,
            a.budget,
            tick(a.start, span),
            tick(a.until, span),
        ));
    }
    if let Some(ov) = &scn.overlay {
        plan = plan.overlay(OverlayConfig {
            seed: overlay_seed.expect("drawn when [overlay] present"),
            ..*ov
        });
    }
    if let Some(c) = &scn.continuous {
        plan = plan.continuous(deadline, c.windows);
    }
    CellPlan {
        plan,
        phases: phase_schedule,
        workload_seed,
    }
}

/// Build `scn`'s [`Network`] once, run `cell` for every `(seed, rep)`
/// on `threads` scoped workers sharing it read-only, and regroup the
/// cell-major output protocol-major. `cell` returns one stream per
/// protocol plus an extra value. Returns the network, one stream per
/// protocol in deterministic `(seed, rep, window)` order, and the
/// extras in the same cell order.
/// Cells land in slot-indexed positions, so the result is the same for
/// any `threads`. The batch runner and the trace runner share this.
///
/// # Panics
/// Panics if `threads == 0`, the scenario has no protocols, its `hq`
/// exceeds the host count the topology actually produced (grids round
/// down to squares), or its seeds × repetitions matrix is empty.
pub(crate) fn run_cells<R, X, F>(
    scn: &Scenario,
    threads: usize,
    cell: F,
) -> (Network, Vec<Vec<R>>, Vec<X>)
where
    R: Send,
    X: Send,
    F: Fn(&Network, u64, usize) -> (Vec<Vec<R>>, X) + Sync,
{
    assert!(threads >= 1, "need at least one worker thread");
    assert!(
        !scn.protocols.is_empty(),
        "scenario '{}' has no protocols",
        scn.name
    );
    let graph = scn.topology.build(scn.n, scn.topology_seed);
    let net = Network::from_graph(graph, scn.topology_seed);
    assert!(
        (scn.hq as usize) < net.graph().num_hosts(),
        "querying host {} out of range: topology produced {} hosts",
        scn.hq,
        net.graph().num_hosts()
    );
    let jobs: Vec<(u64, usize)> = scn
        .seeds
        .iter()
        .flat_map(|&s| (0..scn.repetitions).map(move |r| (s, r)))
        .collect();
    // The parser rejects empty seed lists / zero repetitions, but the
    // Scenario fields are public — fail loudly for hand-built specs.
    assert!(
        !jobs.is_empty(),
        "scenario '{}' has an empty seeds × repetitions matrix",
        scn.name
    );
    let mut slots: Vec<Option<(Vec<Vec<R>>, X)>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    let chunk = jobs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let (net, cell) = (&net, &cell);
        for (job_chunk, slot_chunk) in jobs.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (&(seed, rep), slot) in job_chunk.iter().zip(slot_chunk) {
                    *slot = Some(cell(net, seed, rep));
                }
            });
        }
    });
    let mut per_protocol: Vec<Vec<R>> = Vec::new();
    per_protocol.resize_with(scn.protocols.len(), Vec::new);
    let mut extras = Vec::with_capacity(slots.len());
    for slot in slots {
        let (streams, extra) = slot.expect("every cell ran");
        for (p, records) in streams.into_iter().enumerate() {
            per_protocol[p].extend(records);
        }
        extras.push(extra);
    }
    (net, per_protocol, extras)
}

/// One cell's multiplexed workload: its records and sharing stats.
type WorkloadCell = (Vec<WorkloadRecord>, WorkloadCellStats);

/// Execute one cell's `[workload]`: lower the fractions to ticks of the
/// unit-delay mux deadline `2·D̂`, materialize the arrival process from
/// the cell's workload seed, and run all queries multiplexed against
/// the *same* churn/partition realization the protocol contenders saw.
fn run_cell_workload(
    scn: &Scenario,
    net: &Network,
    plan: &RunPlan,
    workload_seed: u64,
    seed: u64,
    rep: usize,
) -> WorkloadCell {
    let wl = scn.workload.expect("caller checked [workload] presence");
    // The multiplexed engine always runs on the unit-delay point-to-point
    // substrate, so its deadline base is 2·D̂ hops = ticks.
    let base = 2 * net.d_hat() as u64;
    let frac = |f: f64| (f * base as f64).round() as u64;
    let spec = MuxWorkloadSpec {
        queries: wl.queries,
        span: frac(wl.span).max(1),
        d_hat: net.d_hat(),
        window: wl.window.map(|(window, slide, instances)| {
            let window = frac(window).max(2);
            WindowSpec {
                window,
                slide: frac(slide).clamp(1, window - 1),
                instances,
            }
        }),
        seed: workload_seed,
    };
    let queries = spec.generate(net.graph().num_hosts());
    let mux_plan = MuxPlan {
        churn: plan.churn.clone(),
        partition: plan.partition.clone(),
        seed: plan.seed,
    };
    let (judged, out) = judged_mux(net.graph(), net.values(), &queries, &mux_plan);
    let records = judged
        .iter()
        .map(|j| WorkloadRecord {
            seed,
            rep,
            query: j.query.id.0,
            aggregate: j.query.aggregate.name(),
            root: j.query.root.0,
            arrival: j.query.arrival,
            value: j.value,
            valid: j.is_valid(),
            declared_at: j.declared_at.map(|t| t.ticks()),
            hc: j.hc_size,
            hu: j.hu_size,
            payload_msgs: j.payload_msgs,
            joined: j.joined,
        })
        .collect();
    let stats = WorkloadCellStats {
        raw_messages: out.raw_messages,
        payload_items: out.payload_items,
        cache_joins: out.cache_joins,
    };
    (records, stats)
}

/// Execute one `(seed, rep)` cell: every protocol (and window) shares
/// the churn/partition realization drawn from this cell's RNG stream.
/// Returns one record stream per protocol, plus the multiplexed
/// workload's records and stats when the scenario carries a
/// `[workload]`.
fn run_cell(
    scn: &Scenario,
    net: &Network,
    seed: u64,
    rep: usize,
) -> (Vec<Vec<RunRecord>>, Option<WorkloadCell>) {
    let CellPlan {
        plan,
        phases: phase_schedule,
        workload_seed,
    } = cell_plan(scn, net, seed, rep);
    let workload = workload_seed.map(|ws| run_cell_workload(scn, net, &plan, ws, seed, rep));
    let protocols = judged_plan(net.graph(), net.values(), &plan)
        .into_iter()
        .map(|protocol| {
            protocol
                .windows
                .into_iter()
                .enumerate()
                .map(|(window, w)| RunRecord {
                    seed,
                    rep,
                    window,
                    phase: phase_schedule.as_ref().map(|s| s.label_at(w.start)),
                    value: w.judged.value,
                    valid: w.judged.verdict.is_valid(),
                    deviation: w.judged.deviation(),
                    hc: w.judged.hc_size,
                    hu: w.judged.hu_size,
                    messages: w.judged.metrics.messages_sent,
                    computation: w.judged.metrics.computation_cost(),
                    time_cost: w.judged.time_cost(),
                })
                .collect()
        })
        .collect();
    (protocols, workload)
}

/// Execute the whole batch on `threads` workers and aggregate.
///
/// # Panics
/// Panics if `threads == 0`, the scenario has no protocols, or its `hq`
/// exceeds the host count the topology actually produced (grids round
/// down to squares).
pub fn run_batch(scn: &Scenario, threads: usize) -> Report {
    let (net, per_protocol, extras) =
        run_cells(scn, threads, |net, seed, rep| run_cell(scn, net, seed, rep));
    // The workload streams concatenate in the same cell order.
    let runs = extras.len();
    let mut workload_records: Vec<WorkloadRecord> = Vec::new();
    let mut workload_stats = WorkloadCellStats::default();
    for (records, stats) in extras.into_iter().flatten() {
        workload_records.extend(records);
        workload_stats.add(stats);
    }
    let workload = scn
        .workload
        .map(|_| workload_section(workload_records, workload_stats));
    aggregate(scn, &net, runs, per_protocol, workload)
}

/// Aggregate the concatenated workload record stream into its report
/// section.
fn workload_section(records: Vec<WorkloadRecord>, stats: WorkloadCellStats) -> WorkloadSection {
    let per_cell = records
        .first()
        .map(|r0| {
            records
                .iter()
                .filter(|r| (r.seed, r.rep) == (r0.seed, r0.rep))
                .count()
        })
        .unwrap_or(0);
    let total = records.len().max(1);
    let declared = records.iter().filter(|r| r.value.is_some()).count();
    let valid = records.iter().filter(|r| r.valid).count();
    WorkloadSection {
        queries_per_cell: per_cell,
        declared_fraction: declared as f64 / total as f64,
        valid_fraction: valid as f64 / total as f64,
        stats,
        records,
    }
}

fn aggregate(
    scn: &Scenario,
    net: &Network,
    runs: usize,
    per_protocol: Vec<Vec<RunRecord>>,
    workload: Option<WorkloadSection>,
) -> Report {
    let sections: Vec<ProtocolSection> = scn
        .protocols
        .iter()
        .zip(per_protocol)
        .map(|(kind, records)| {
            let total = records.len().max(1);
            let declared = records.iter().filter(|r| r.value.is_some()).count();
            let valid = records.iter().filter(|r| r.valid).count();
            let of = |f: &dyn Fn(&RunRecord) -> Option<f64>| {
                Agg::of(&records.iter().filter_map(f).collect::<Vec<f64>>())
            };
            let metrics: Vec<(&'static str, Agg)> = vec![
                ("value", of(&|r| r.value)),
                ("deviation", of(&|r| r.deviation)),
                ("messages", of(&|r| Some(r.messages as f64))),
                ("computation", of(&|r| Some(r.computation as f64))),
                ("time_cost", of(&|r| r.time_cost.map(|t| t as f64))),
                ("hc", of(&|r| Some(r.hc as f64))),
                ("hu", of(&|r| Some(r.hu as f64))),
            ];
            ProtocolSection {
                protocol: kind.label(),
                declared_fraction: declared as f64 / total as f64,
                valid_fraction: valid as f64 / total as f64,
                metrics,
                records,
            }
        })
        .collect();
    let all: usize = sections.iter().map(|s| s.records.len()).sum();
    let declared: usize = sections
        .iter()
        .flat_map(|s| &s.records)
        .filter(|r| r.value.is_some())
        .count();
    let valid: usize = sections
        .iter()
        .flat_map(|s| &s.records)
        .filter(|r| r.valid)
        .count();
    let paired = sections
        .split_first()
        .map(|(baseline, rest)| {
            rest.iter()
                .map(|section| paired_section(baseline, section))
                .collect()
        })
        .unwrap_or_default();
    Report {
        scenario: scn.name.clone(),
        topology: scn.topology.name().to_string(),
        churn_model: scn.regime(),
        n: net.graph().num_hosts(),
        d_hat: net.d_hat(),
        runs,
        windows: scn.continuous.map_or(1, |c| c.windows),
        declared_fraction: declared as f64 / all.max(1) as f64,
        valid_fraction: valid as f64 / all.max(1) as f64,
        protocols: sections,
        paired,
        workload,
    }
}

/// Per-cell paired differences `section − baseline` over the matched
/// record streams (both sections run the same `(seed, rep, window)`
/// cells in the same order — the batch runner's pairing guarantee).
fn paired_section(baseline: &ProtocolSection, section: &ProtocolSection) -> PairedSection {
    debug_assert_eq!(baseline.records.len(), section.records.len());
    let diff_of = |metric: &'static str, f: &dyn Fn(&RunRecord) -> Option<f64>| {
        let diffs: Vec<f64> = section
            .records
            .iter()
            .zip(&baseline.records)
            .filter_map(|(s, b)| {
                debug_assert_eq!((s.seed, s.rep, s.window), (b.seed, b.rep, b.window));
                Some(f(s)? - f(b)?)
            })
            .collect();
        let agg = Agg::of(&diffs);
        PairedDiff {
            metric,
            mean: agg.mean,
            ci95: 1.96 * agg.stddev / (agg.count.max(1) as f64).sqrt(),
            count: agg.count,
        }
    };
    PairedSection {
        protocol: section.protocol.clone(),
        baseline: baseline.protocol.clone(),
        diffs: vec![
            diff_of("value", &|r| r.value),
            diff_of("deviation", &|r| r.deviation),
            diff_of("messages", &|r| Some(r.messages as f64)),
            diff_of("computation", &|r| Some(r.computation as f64)),
            diff_of("time_cost", &|r| r.time_cost.map(|t| t as f64)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ContinuousSpec, PartitionSpec};
    use pov_core::pov_protocols::wildfire::WildfireOpts;
    use pov_core::pov_protocols::{Aggregate, ProtocolKind};
    use pov_core::pov_sim::{DelayModel, Medium};
    use pov_core::pov_topology::generators::TopologyKind;

    pub(crate) fn tiny(churn: ChurnSpec) -> Scenario {
        Scenario {
            name: "tiny".into(),
            description: String::new(),
            topology: TopologyKind::Random,
            n: 80,
            topology_seed: 3,
            aggregate: Aggregate::Count,
            c: 8,
            hq: 0,
            medium: Medium::PointToPoint,
            delay: DelayModel::Fixed(1),
            protocols: vec![ProtocolKind::Wildfire(WildfireOpts::default())],
            churn,
            partitions: vec![],
            phases: None,
            adversary: None,
            continuous: None,
            overlay: None,
            workload: None,
            seeds: vec![1, 2, 3],
            repetitions: 2,
        }
    }

    #[test]
    fn batch_covers_matrix_in_order() {
        // Max is exactly valid under WILDFIRE (Thm 5.1) — the clean case.
        let mut scn = tiny(ChurnSpec::None);
        scn.aggregate = Aggregate::Max;
        let report = run_batch(&scn, 2);
        assert_eq!(report.runs, 6);
        let cells: Vec<(u64, usize)> = report.records().iter().map(|r| (r.seed, r.rep)).collect();
        assert_eq!(cells, vec![(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]);
        // Static network: everything declares, everything is valid.
        assert_eq!(report.declared_fraction, 1.0);
        assert_eq!(report.valid_fraction, 1.0);
        let v = report.metric("value").unwrap();
        assert!(v.count == 6 && v.min > 0.0);
    }

    #[test]
    fn sketched_count_deviation_stays_within_fm_noise() {
        // Strict validity is the wrong yardstick for sketched counts
        // (FM noise pushes the point estimate off the envelope even on a
        // static network); the deviation metric captures Thm 5.3's
        // Approximate SSV instead.
        let scn = tiny(ChurnSpec::Uniform {
            fraction: 0.1,
            window: (0.0, 1.0),
        });
        let report = run_batch(&scn, 2);
        let dev = report.metric("deviation").unwrap();
        assert_eq!(dev.count, 6, "every run measures a deviation");
        assert!(dev.mean < 2.0, "WILDFIRE deviation blew up: {}", dev.mean);
        assert!(dev.min >= 1.0, "deviation is clamped at 1.0");
    }

    #[test]
    fn thread_counts_agree_byte_for_byte() {
        let scn = tiny(ChurnSpec::Uniform {
            fraction: 0.1,
            window: (0.0, 1.0),
        });
        let sequential = run_batch(&scn, 1).to_json().render();
        for threads in [2, 3, 5, 8, 13] {
            let parallel = run_batch(&scn, threads).to_json().render();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn same_seed_reps_differ_but_reruns_match() {
        let scn = tiny(ChurnSpec::Uniform {
            fraction: 0.2,
            window: (0.0, 1.0),
        });
        let a = run_batch(&scn, 4);
        let b = run_batch(&scn, 4);
        assert_eq!(a.records(), b.records(), "identical batches");
        // Different (seed, rep) cells see different churn draws.
        assert_ne!(
            (a.records()[0].hc, a.records()[0].messages),
            (a.records()[1].hc, a.records()[1].messages),
            "rep 0 and rep 1 of seed 1 should differ"
        );
    }

    #[test]
    fn every_churn_regime_runs() {
        for churn in [
            ChurnSpec::Uniform {
                fraction: 0.15,
                window: (0.0, 0.8),
            },
            ChurnSpec::FlashCrowd {
                fraction: 0.2,
                window: (0.1, 0.6),
            },
            ChurnSpec::Correlated {
                clusters: 2,
                cluster_size: 5,
                window: (0.0, 0.5),
            },
            ChurnSpec::Oscillating {
                fraction: 0.2,
                window: (0.0, 1.0),
                period: 0.5,
                downtime: 0.2,
            },
            ChurnSpec::AdversarialRoot { radius: 1, at: 0.2 },
        ] {
            let name = churn.model_name();
            let mut scn = tiny(churn);
            scn.seeds = vec![1, 2];
            scn.repetitions = 1;
            let report = run_batch(&scn, 2);
            assert_eq!(report.runs, 2, "{name}");
            assert_eq!(report.churn_model, name);
            // hq never dies in any regime, so every run declares.
            assert_eq!(report.declared_fraction, 1.0, "{name}");
        }
    }

    #[test]
    fn flash_crowd_grows_hu_beyond_initial_population() {
        let scn = Scenario {
            seeds: vec![5],
            repetitions: 1,
            ..tiny(ChurnSpec::FlashCrowd {
                fraction: 0.3,
                window: (0.0, 0.5),
            })
        };
        let report = run_batch(&scn, 1);
        let r = &report.records()[0];
        // Joiners start dead: HC (stable hosts) is well below n, while HU
        // counts everyone who was up at some instant.
        assert!(r.hc < report.n, "hc {} vs n {}", r.hc, report.n);
        assert!(r.hu > r.hc, "hu {} should exceed hc {}", r.hu, r.hc);
    }

    #[test]
    fn adversarial_root_starves_the_query() {
        let mut scn = tiny(ChurnSpec::AdversarialRoot { radius: 2, at: 0.1 });
        scn.seeds = vec![7];
        scn.repetitions = 1;
        let report = run_batch(&scn, 1);
        let r = &report.records()[0];
        // The blast zone dies just after the flood leaves hq: the
        // declared count collapses far below the population.
        let v = r.value.expect("hq survives");
        assert!(
            v < report.n as f64 * 0.8,
            "adversary should hide hosts (got {v} of {})",
            report.n
        );
    }

    #[test]
    fn sketch_adversary_scenario_runs_and_reaches_the_oracle() {
        let mut scn = tiny(ChurnSpec::None);
        scn.adversary = Some(crate::spec::AdversarySpec {
            kills_per_wave: 2,
            budget: 12,
            start: 0.0,
            until: 0.6,
        });
        let report = run_batch(&scn, 2);
        assert_eq!(report.churn_model, "adversary");
        // hq is always spared, so every run declares…
        assert_eq!(report.declared_fraction, 1.0);
        for r in report.records() {
            // …and the 12 kills show up in the oracle sets: HC loses at
            // least the dead, HU still counts them.
            assert!(r.hc <= report.n - 12, "hc {} vs n {}", r.hc, report.n);
            assert_eq!(r.hu, report.n);
        }
        // Byte-identical across thread counts, like every other regime.
        assert_eq!(
            run_batch(&scn, 1).to_json().render(),
            run_batch(&scn, 8).to_json().render()
        );
    }

    #[test]
    fn partition_is_majority_side_for_hq() {
        let mut scn = tiny(ChurnSpec::None);
        scn.partitions = vec![PartitionSpec {
            fraction: 0.4,
            from: 0.0,
            heal: 1.0,
        }];
        let report = run_batch(&scn, 3);
        assert_eq!(report.churn_model, "partition");
        for r in report.records() {
            // hq always declares (it is never cut off from itself) and
            // the unhealed full-window cut hides the minority side.
            assert!(r.value.is_some());
        }
    }

    #[test]
    fn cascading_partitions_overlay_and_stay_deterministic() {
        // Two overlapping cuts must hurt validity at least as much as
        // the first cut alone, and the batch must stay byte-identical
        // across thread counts like every other regime.
        let mut one = tiny(ChurnSpec::None);
        one.partitions = vec![PartitionSpec {
            fraction: 0.3,
            from: 0.0,
            heal: 0.6,
        }];
        let mut two = one.clone();
        two.partitions.push(PartitionSpec {
            fraction: 0.2,
            from: 0.4,
            heal: 1.0,
        });
        assert_eq!(two.regime(), "partition");
        let single = run_batch(&one, 2);
        let cascade = run_batch(&two, 2);
        assert_eq!(cascade.runs, single.runs);
        // hq sits on the majority side of every cut, so it declares.
        assert_eq!(cascade.declared_fraction, 1.0);
        let dev_one = single.metric("deviation").unwrap().mean;
        let dev_two = cascade.metric("deviation").unwrap().mean;
        assert!(
            dev_two >= dev_one * 0.99,
            "a second cut cannot improve validity: {dev_two} vs {dev_one}"
        );
        // The first cut's realization is unchanged by adding a second
        // table: the pivot stream is drawn in table order.
        assert_eq!(
            run_batch(&two, 1).to_json().render(),
            run_batch(&two, 8).to_json().render()
        );
    }

    #[test]
    fn churn_and_partition_stack_in_one_run() {
        // Uniform failures *and* a healing cut: validity must suffer at
        // least as much as under the failures alone.
        let churn = ChurnSpec::Uniform {
            fraction: 0.1,
            window: (0.0, 1.0),
        };
        let mut stacked = tiny(churn.clone());
        stacked.partitions = vec![PartitionSpec {
            fraction: 0.3,
            from: 0.1,
            heal: 0.8,
        }];
        let alone = run_batch(&tiny(churn), 2);
        let both = run_batch(&stacked, 2);
        assert_eq!(both.churn_model, "uniform+partition");
        assert_eq!(both.runs, alone.runs);
        let dev_alone = alone.metric("deviation").unwrap().mean;
        let dev_both = both.metric("deviation").unwrap().mean;
        assert!(
            dev_both >= dev_alone * 0.99,
            "stacking a cut cannot improve validity: {dev_both} vs {dev_alone}"
        );
    }

    #[test]
    fn multi_protocol_sections_share_realization() {
        let mut scn = tiny(ChurnSpec::Uniform {
            fraction: 0.15,
            window: (0.0, 1.0),
        });
        scn.protocols = vec![
            ProtocolKind::Wildfire(WildfireOpts::default()),
            ProtocolKind::SpanningTree,
        ];
        let report = run_batch(&scn, 2);
        assert_eq!(report.protocols.len(), 2);
        let wf = report.section("WILDFIRE").expect("section");
        let st = report.section("SPANNINGTREE").expect("section");
        assert_eq!(wf.records.len(), st.records.len());
        // Paired: record i of both sections comes from the same (seed,
        // rep) cell and hence the same churn draw — HU (same judging
        // deadline) matches record-for-record.
        for (a, b) in wf.records.iter().zip(&st.records) {
            assert_eq!((a.seed, a.rep, a.window), (b.seed, b.rep, b.window));
            assert_eq!(a.hu, b.hu, "seed {} rep {}", a.seed, a.rep);
        }
        // And each section equals the single-protocol run of the same
        // scenario — protocol order cannot perturb the realization.
        let mut solo = scn.clone();
        solo.protocols = vec![ProtocolKind::SpanningTree];
        let solo_report = run_batch(&solo, 2);
        assert_eq!(st.records, solo_report.records());
    }

    #[test]
    fn paired_difference_column_contrasts_protocols() {
        let mut scn = tiny(ChurnSpec::Uniform {
            fraction: 0.15,
            window: (0.0, 1.0),
        });
        scn.protocols = vec![
            ProtocolKind::SpanningTree,
            ProtocolKind::Wildfire(WildfireOpts::default()),
        ];
        let report = run_batch(&scn, 2);
        // One paired section per non-baseline contender.
        assert_eq!(report.paired.len(), 1);
        let p = &report.paired[0];
        assert_eq!(p.protocol, "WILDFIRE");
        assert_eq!(p.baseline, "SPANNINGTREE");
        // Hand-computed per-cell message differences must match.
        let wf = report.section("WILDFIRE").unwrap();
        let st = report.section("SPANNINGTREE").unwrap();
        let diffs: Vec<f64> = wf
            .records
            .iter()
            .zip(&st.records)
            .map(|(a, b)| a.messages as f64 - b.messages as f64)
            .collect();
        let msgs = p.diffs.iter().find(|d| d.metric == "messages");
        let msgs = msgs.expect("messages diff");
        assert_eq!(msgs.count, diffs.len());
        let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
        assert!((msgs.mean - mean).abs() < 1e-9);
        assert!(msgs.ci95 >= 0.0);
        // WILDFIRE floods; the paired effect on messages is large and
        // positive — and under churn, significantly so.
        assert!(
            msgs.mean > msgs.ci95,
            "WILDFIRE must pay significantly more messages: {} ± {}",
            msgs.mean,
            msgs.ci95
        );
        // Single-protocol reports carry no paired sections.
        let solo = run_batch(&tiny(ChurnSpec::None), 1);
        assert!(solo.paired.is_empty());
        // The column lands in the JSON document deterministically.
        let json = report.to_json().render();
        assert!(json.contains("\"paired\""), "{json}");
        assert!(json.contains("\"ci95\""), "{json}");
        assert_eq!(json, run_batch(&scn, 8).to_json().render());
    }

    #[test]
    fn continuous_scenario_reports_per_window_records() {
        let mut scn = tiny(ChurnSpec::Uniform {
            fraction: 0.2,
            window: (0.0, 0.6),
        });
        scn.seeds = vec![1, 2];
        scn.repetitions = 1;
        scn.continuous = Some(ContinuousSpec { windows: 3 });
        let report = run_batch(&scn, 2);
        assert_eq!(report.runs, 2);
        assert_eq!(report.windows, 3);
        let records = report.records();
        assert_eq!(records.len(), 2 * 3, "one record per cell per window");
        let order: Vec<(u64, usize)> = records.iter().map(|r| (r.seed, r.window)).collect();
        assert_eq!(order, vec![(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]);
        // Churn spans the horizon: the later windows run against a
        // thinner population than the first.
        let hu0 = records
            .iter()
            .filter(|r| r.window == 0)
            .map(|r| r.hu)
            .sum::<usize>();
        let hu2 = records
            .iter()
            .filter(|r| r.window == 2)
            .map(|r| r.hu)
            .sum::<usize>();
        assert!(hu2 < hu0, "membership must decay: {hu2} vs {hu0}");
        // Determinism holds for windows too.
        assert_eq!(
            run_batch(&scn, 1).to_json().render(),
            run_batch(&scn, 4).to_json().render()
        );
    }

    #[test]
    fn phased_schedule_labels_windows_and_shapes_membership() {
        use pov_core::pov_sim::PhaseKind;
        let mut scn = tiny(ChurnSpec::None);
        scn.phases = Some(crate::spec::PhasesSpec {
            start_alive: 0.6,
            phases: vec![
                (PhaseKind::Growth { fraction: 0.5 }, 1.0),
                (PhaseKind::Stable, 1.0),
                (PhaseKind::Shrink { fraction: 0.5 }, 1.0),
                (PhaseKind::Heal, 1.0),
            ],
        });
        scn.seeds = vec![1, 2];
        scn.repetitions = 1;
        scn.continuous = Some(ContinuousSpec { windows: 8 });
        let report = run_batch(&scn, 2);
        assert_eq!(report.churn_model, "phased");
        assert_eq!(report.windows, 8);
        // Equal weights over 8 windows: every record carries its phase
        // label and the labels tile the horizon two windows apiece.
        let labels: Vec<&str> = report
            .records()
            .iter()
            .filter(|r| r.seed == 1)
            .map(|r| r.phase.expect("phased runs label every window"))
            .collect();
        assert_eq!(
            labels,
            ["growth", "growth", "stable", "stable", "shrink", "shrink", "heal", "heal"]
        );
        // The arc shows up in the oracle sets: growth raises the judged
        // population, shrink lowers it again.
        let hu = |label: &str| {
            report
                .records()
                .iter()
                .filter(|r| r.phase == Some(label))
                .map(|r| r.hu)
                .sum::<usize>()
        };
        assert!(
            hu("stable") > hu("growth"),
            "growth must raise membership: stable {} vs growth {}",
            hu("stable"),
            hu("growth")
        );
        assert!(
            hu("heal") < hu("stable"),
            "shrink must thin membership: heal {} vs stable {}",
            hu("heal"),
            hu("stable")
        );
        // The label lands in the JSON document and the batch stays
        // byte-identical across thread counts like every other regime.
        let json = report.to_json().render();
        assert!(json.contains("\"phase\": \"growth\""), "{json}");
        assert_eq!(json, run_batch(&scn, 4).to_json().render());
    }

    #[test]
    fn double_dip_arc_is_judged_in_every_window() {
        use pov_core::pov_sim::PhaseKind;
        // Shrink, partition and heal, then shrink and heal again: window
        // slicing across two reversals of the membership's direction.
        let mut scn = tiny(ChurnSpec::None);
        scn.phases = Some(crate::spec::PhasesSpec {
            start_alive: 0.8,
            phases: vec![
                (PhaseKind::Growth { fraction: 0.2 }, 2.0),
                (PhaseKind::Stable, 2.0),
                (PhaseKind::Shrink { fraction: 0.35 }, 2.0),
                (PhaseKind::Partition { fraction: 0.25 }, 1.0),
                (PhaseKind::Heal, 2.0),
                (PhaseKind::Shrink { fraction: 0.25 }, 1.0),
                (PhaseKind::Heal, 2.0),
            ],
        });
        scn.seeds = vec![1];
        scn.repetitions = 1;
        scn.continuous = Some(ContinuousSpec { windows: 24 });
        let report = run_batch(&scn, 1);
        // Every window judged: hq is spared, so the series never stops
        // early, and it declares in each window.
        let records = report.records();
        let windows: Vec<usize> = records.iter().map(|r| r.window).collect();
        assert_eq!(windows, (0..24).collect::<Vec<_>>());
        assert!(records.iter().all(|r| r.value.is_some()));
        // Weights 2:2:2:1:2:1:2 over 24 windows: two windows per unit.
        let mut segments: Vec<(&str, Vec<usize>)> = Vec::new();
        for r in records {
            let label = r.phase.expect("phased runs label every window");
            match segments.last_mut() {
                Some((last, hus)) if *last == label => hus.push(r.hu),
                _ => segments.push((label, vec![r.hu])),
            }
        }
        let arc: Vec<(&str, usize)> = segments.iter().map(|(l, h)| (*l, h.len())).collect();
        assert_eq!(
            arc,
            [
                ("growth", 4),
                ("stable", 4),
                ("shrink", 4),
                ("partition", 2),
                ("heal", 4),
                ("shrink", 2),
                ("heal", 4)
            ]
        );
        // `hu` falls across each shrink, and the heal after it revives
        // every dead host, so the population ends each heal whole again.
        for (label, hus) in &segments {
            let (first, last) = (hus[0], hus[hus.len() - 1]);
            match *label {
                "shrink" => assert!(last < first, "shrink must thin hu: {hus:?}"),
                "heal" => {
                    assert!(last > first, "heal must grow hu: {hus:?}");
                    assert_eq!(last, report.n, "heal must recover everyone: {hus:?}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn overlay_scenario_runs_and_stays_deterministic() {
        let mut scn = tiny(ChurnSpec::Uniform {
            fraction: 0.15,
            window: (0.0, 1.0),
        });
        scn.overlay = Some(OverlayConfig::default());
        let report = run_batch(&scn, 2);
        assert_eq!(report.runs, 6);
        // hq never dies, and the overlay starts as a copy of the base
        // topology, so every run still declares.
        assert_eq!(report.declared_fraction, 1.0);
        // The headline determinism contract extends to maintained
        // overlays: byte-identical reports for any --threads value.
        assert_eq!(
            run_batch(&scn, 1).to_json().render(),
            run_batch(&scn, 8).to_json().render()
        );
    }

    #[test]
    fn overlay_seed_varies_per_cell_but_not_per_protocol() {
        // Two protocols under one overlay scenario stay paired: same
        // cell → same overlay seed → same maintained-overlay evolution.
        let mut scn = tiny(ChurnSpec::Uniform {
            fraction: 0.15,
            window: (0.0, 1.0),
        });
        scn.overlay = Some(OverlayConfig::default());
        scn.protocols = vec![
            ProtocolKind::Wildfire(WildfireOpts::default()),
            ProtocolKind::SpanningTree,
        ];
        let report = run_batch(&scn, 2);
        let wf = report.section("WILDFIRE").expect("section");
        let st = report.section("SPANNINGTREE").expect("section");
        for (a, b) in wf.records.iter().zip(&st.records) {
            assert_eq!((a.seed, a.rep, a.window), (b.seed, b.rep, b.window));
            assert_eq!(a.hu, b.hu, "seed {} rep {}", a.seed, a.rep);
        }
    }

    #[test]
    fn delay_model_reaches_the_simulation() {
        // A 2-tick fixed hop delay must double the declaration instant
        // relative to the default — if the spec's delay were silently
        // dropped, both batches would report identical time costs.
        let mut one = tiny(ChurnSpec::None);
        one.aggregate = Aggregate::Max;
        let mut two = one.clone();
        two.delay = DelayModel::Fixed(2);
        let t1 = run_batch(&one, 2).metric("time_cost").unwrap().mean;
        let t2 = run_batch(&two, 2).metric("time_cost").unwrap().mean;
        assert_eq!(t2, t1 * 2.0, "2-tick δ must double the time cost");
        // And the exact max survives the slower network.
        let v = run_batch(&two, 2).metric("value").unwrap();
        assert_eq!(v.min, v.max, "max is exact under any delay bound");
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_rejected() {
        run_batch(&tiny(ChurnSpec::None), 0);
    }

    #[test]
    fn workload_scenario_reports_per_query_verdicts() {
        let mut scn = tiny(ChurnSpec::Uniform {
            fraction: 0.1,
            window: (0.0, 1.0),
        });
        scn.workload = Some(crate::spec::WorkloadSpec {
            queries: 12,
            span: 1.0,
            window: None,
        });
        let report = run_batch(&scn, 2);
        let w = report.workload.as_ref().expect("workload section");
        assert_eq!(w.queries_per_cell, 12);
        assert_eq!(w.records.len(), 12 * report.runs);
        // Matrix order: seed-major, then repetition, then query index.
        let order: Vec<(u64, usize, u32)> =
            w.records.iter().map(|r| (r.seed, r.rep, r.query)).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        // Sharing economics are accounted.
        assert!(w.stats.raw_messages > 0);
        assert!(w.stats.payload_items > 0);
        // The key lands in the JSON document, byte-identically across
        // thread counts like every other report slice.
        let json = report.to_json().render();
        assert!(json.contains("\"workload\""), "{json}");
        assert!(json.contains("\"payload_msgs\""), "{json}");
        assert_eq!(json, run_batch(&scn, 8).to_json().render());
    }

    #[test]
    fn workload_leaves_protocol_records_untouched() {
        // The workload seed is drawn after every pre-existing seed, so
        // adding a [workload] section must not perturb the protocol
        // contenders' realizations — the golden-report guarantee.
        let churn = ChurnSpec::Uniform {
            fraction: 0.15,
            window: (0.0, 1.0),
        };
        let plain = tiny(churn.clone());
        let mut with_wl = tiny(churn);
        with_wl.workload = Some(crate::spec::WorkloadSpec {
            queries: 5,
            span: 0.5,
            window: None,
        });
        let a = run_batch(&plain, 2);
        let b = run_batch(&with_wl, 2);
        assert_eq!(a.records(), b.records());
        // And workload-free reports carry no workload key at all.
        assert!(!a.to_json().render().contains("\"workload\""));
    }

    #[test]
    fn windowed_workload_expands_instances_in_report() {
        let mut scn = tiny(ChurnSpec::None);
        scn.seeds = vec![1];
        scn.repetitions = 1;
        scn.workload = Some(crate::spec::WorkloadSpec {
            queries: 4,
            span: 0.5,
            window: Some((0.8, 0.3, 3)),
        });
        let report = run_batch(&scn, 1);
        let w = report.workload.as_ref().expect("workload section");
        assert_eq!(w.queries_per_cell, 4 * 3, "base queries × instances");
        // Static network: every query declares and every verdict holds.
        assert_eq!(w.declared_fraction, 1.0);
        assert_eq!(w.valid_fraction, 1.0);
    }

    #[test]
    fn agg_statistics() {
        let a = Agg::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.mean, 2.5);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
        assert_eq!(a.count, 4);
        assert!((a.stddev - 1.118).abs() < 1e-3);
        let empty = Agg::of(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
    }
}
