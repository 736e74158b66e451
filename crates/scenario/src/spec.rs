//! The declarative [`Scenario`] spec and its mapping from parsed `.scn`
//! documents.
//!
//! A scenario pins down *everything* a batch run needs — topology,
//! query, medium, delay, protocol, dynamism regime, seed set and
//! repetition count — so that `repro scenario file.scn` is a pure
//! function of the file. Validation is strict: unknown sections or keys
//! are errors (with line numbers), because a typoed key silently
//! falling back to a default is the classic way benchmark configs rot.

use crate::parse::{Doc, Entry, ParseError, Section, Value};
use pov_core::pov_protocols::allreport::ReportRouting;
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::{Aggregate, OverlayConfig, ProtocolKind};
use pov_core::pov_sim::{DelayModel, Medium, PhaseKind};
use pov_core::pov_topology::generators::TopologyKind;

/// Which protocol a scenario runs (name-addressable mirror of
/// [`ProtocolKind`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolSpec {
    /// WILDFIRE with both §5.3 optimizations.
    Wildfire,
    /// SPANNINGTREE.
    SpanningTree,
    /// DIRECTEDACYCLICGRAPH with `k` parents.
    Dag {
        /// Maximum parents per host.
        k: usize,
    },
    /// ALLREPORT with direct report delivery.
    AllReport,
    /// RANDOMIZEDREPORT with report probability `p`.
    RandomizedReport {
        /// Per-host report probability.
        p: f64,
    },
    /// Push-sum gossip for `rounds` rounds.
    Gossip {
        /// Number of gossip rounds.
        rounds: u32,
    },
}

impl ProtocolSpec {
    /// The runnable [`ProtocolKind`].
    pub fn kind(self) -> ProtocolKind {
        match self {
            ProtocolSpec::Wildfire => ProtocolKind::Wildfire(WildfireOpts::default()),
            ProtocolSpec::SpanningTree => ProtocolKind::SpanningTree,
            ProtocolSpec::Dag { k } => ProtocolKind::Dag { k },
            ProtocolSpec::AllReport => ProtocolKind::AllReport(ReportRouting::Direct),
            ProtocolSpec::RandomizedReport { p } => ProtocolKind::RandomizedReport { p },
            ProtocolSpec::Gossip { rounds } => ProtocolKind::Gossip { rounds },
        }
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        self.kind().name()
    }

    /// Unambiguous display label: the paper name plus any parameters, so
    /// two `[[protocol]]` tables that differ only in `k` or `p` get
    /// distinct report sections.
    pub fn label(self) -> String {
        match self {
            ProtocolSpec::Dag { k } => format!("DAG(k={k})"),
            ProtocolSpec::RandomizedReport { p } => format!("RANDOMIZEDREPORT(p={p})"),
            ProtocolSpec::Gossip { rounds } => format!("GOSSIP(rounds={rounds})"),
            other => other.name().to_string(),
        }
    }
}

/// The dynamism regime of a scenario. Window positions are expressed as
/// fractions of the query deadline `2·D̂·δ`, so the same scenario file is
/// meaningful across topologies whose diameters differ.
#[derive(Clone, Debug, PartialEq)]
pub enum ChurnSpec {
    /// Static network.
    None,
    /// The paper's §6.2 model: `fraction·|H|` uniformly random hosts fail
    /// at a uniform rate over the window.
    Uniform {
        /// Fraction of hosts that fail (0..1).
        fraction: f64,
        /// Failure window as fractions of the deadline.
        window: (f64, f64),
    },
    /// Flash crowd: `fraction·|H|` hosts start dead and join at a uniform
    /// rate over the window.
    FlashCrowd {
        /// Fraction of hosts that join (0..1).
        fraction: f64,
        /// Join window as fractions of the deadline.
        window: (f64, f64),
    },
    /// Correlated cluster failures: `clusters` BFS-neighbourhoods of
    /// `cluster_size` hosts fail together, spread across the window.
    Correlated {
        /// Number of blast zones.
        clusters: usize,
        /// Hosts per blast zone.
        cluster_size: usize,
        /// Failure window as fractions of the deadline.
        window: (f64, f64),
    },
    /// Oscillating membership: `fraction·|H|` hosts repeatedly fail and
    /// rejoin, cycling every `period` and staying down for `downtime`
    /// (both fractions of the regime span) inside the window.
    Oscillating {
        /// Fraction of hosts that oscillate (0..1).
        fraction: f64,
        /// Oscillation window as fractions of the regime span.
        window: (f64, f64),
        /// Cycle length as a fraction of the regime span.
        period: f64,
        /// Down-phase length as a fraction of the regime span
        /// (must be < `period`).
        downtime: f64,
    },
    /// Adaptive adversary: every host within `radius` hops of `hq`
    /// (except `hq`) is killed at `at` (fraction of the deadline).
    AdversarialRoot {
        /// Blast radius in hops.
        radius: u32,
        /// Kill instant as a fraction of the deadline.
        at: f64,
    },
}

impl ChurnSpec {
    /// Model name as written in scenario files.
    pub fn model_name(&self) -> &'static str {
        match self {
            ChurnSpec::None => "none",
            ChurnSpec::Uniform { .. } => "uniform",
            ChurnSpec::FlashCrowd { .. } => "flash-crowd",
            ChurnSpec::Correlated { .. } => "correlated",
            ChurnSpec::Oscillating { .. } => "oscillating",
            ChurnSpec::AdversarialRoot { .. } => "adversarial-root",
        }
    }
}

/// A `[partition]` section: the `fraction` of hosts BFS-nearest a
/// random pivot are cut off during `[from, heal)` (hosts stay alive),
/// then the network reconnects. Co-occurs freely with any `[churn]`
/// model — churn and partition compose in one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionSpec {
    /// Fraction of hosts on the severed side (0..1).
    pub fraction: f64,
    /// Cut start as a fraction of the regime span.
    pub from: f64,
    /// Heal instant as a fraction of the regime span.
    pub heal: f64,
}

/// An `[adversary]` section: a *dynamic*, protocol-state-aware attacker
/// polled by the engine during the run. Unlike every `[churn]` model —
/// all pre-materialized before the first event — the adversary decides
/// each wave from the live run state: `target = "fm_maxima"` kills the
/// hosts whose current partials carry the most FM sketch mass (the
/// scalar their bit maxima induce) — the answer's carriers. `budget`
/// fixes the total number of kills, making the regime comparable to
/// `[churn] model = "uniform"` at `fraction = budget / n`; `start` /
/// `until` are fractions of the regime span like every other window.
/// Composes with any `[churn]` model; incompatible with `[continuous]`
/// (a dynamic schedule cannot be replayed into window-local plans).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdversarySpec {
    /// Hosts killed per wave.
    pub kills_per_wave: usize,
    /// Total kill budget across all waves.
    pub budget: usize,
    /// First wave as a fraction of the regime span.
    pub start: f64,
    /// Last strike instant as a fraction of the regime span.
    pub until: f64,
}

/// A `[continuous]` section: run the query as §4.2 continuous windows
/// instead of a one-shot. Each window is `window_factor` times the
/// one-shot deadline `2·D̂·δ` long (the minimum that fits a query
/// round), and churn/partition window fractions scale to the *whole
/// horizon* `windows × W` so a regime can span the registration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContinuousSpec {
    /// Number of consecutive windows.
    pub windows: usize,
    /// Window length as a multiple of the one-shot deadline (≥ 1).
    pub window_factor: f64,
}

/// A `[phases]` section plus its `[[phase]]` tables: a long-horizon
/// membership arc (growth → stable → shrink → partition → heal,
/// ewok-style) scripted as weighted phases. Weights are *relative*
/// spans: the executor scales them to the regime's tick span (the
/// one-shot deadline, or the whole `windows × W` horizon under
/// `[continuous]` — the soak-length case), then lowers through
/// [`pov_core::pov_sim::PhaseSchedule`] to ordinary churn/partition
/// plans. Owns the whole membership regime: conflicts with `[churn]`
/// and `[partition]` sections.
#[derive(Clone, Debug, PartialEq)]
pub struct PhasesSpec {
    /// Fraction of hosts alive at tick 0 (the rest join later), in
    /// `(0, 1]`.
    pub start_alive: f64,
    /// `(kind, weight)` per `[[phase]]` table, in file order; weights
    /// are relative phase lengths (> 0).
    pub phases: Vec<(PhaseKind, f64)>,
}

/// A `[telemetry]` section: opt-in knobs for the trace runner
/// (`repro trace`). Parsing the section never changes what a scenario
/// *reports* — `run_batch` ignores it entirely, so adding `[telemetry]`
/// to a `.scn` file keeps its JSON report byte-identical. The knobs
/// only shape the recordings `trace_batch` produces.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetrySpec {
    /// Emit a protocol-state summary sample (active hosts, sketch mass)
    /// every this many ticks.
    pub summary_every: u64,
    /// Ring-buffer capacity of the flight recorder, in ticks.
    pub flight_window: u64,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec {
            summary_every: 8,
            flight_window: 256,
        }
    }
}

/// An `[overlay]` section: maintain a dynamic overlay (HyParView-style
/// partial views + SWIM-style failure detection, see
/// `pov_overlay::OverlayMaintenance`) over the base topology during
/// every run. Unlike `[telemetry]`, the section *does* change what a
/// scenario reports — protocols route over the maintained overlay
/// instead of the static graph. The driver's RNG seed is not a file
/// key: like the churn and simulation seeds, it is derived
/// deterministically from each cell's root seed, so repetitions explore
/// independent overlay evolutions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverlaySpec {
    /// The parsed maintenance knobs; `seed` is always 0 here and is
    /// replaced per cell by the batch runner.
    pub config: OverlayConfig,
}

/// A `[workload]` section: a deterministic multiplexed query workload
/// executed *concurrently inside one simulation* per cell, alongside
/// the `[[protocol]]` contenders. `queries` mixed-aggregate queries
/// with uniform-random roots arrive over `span × 2·D̂` ticks; optional
/// sliding windows (§4.2) expand each base query into `instances`
/// instances `slide × 2·D̂` ticks apart, each judged over its own
/// `[end − W, end]` interval. All fractions scale to the one-shot
/// deadline like churn windows do. The multiplexed engine always runs
/// on the unit-delay point-to-point substrate (the `[medium]` section
/// applies to the protocol contenders only). Incompatible with
/// `[continuous]` (a workload is already many queries) and
/// `[adversary]` (a dynamic kill schedule cannot be replayed into the
/// workload's environment).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Number of base queries per cell.
    pub queries: usize,
    /// Arrival span as a multiple of the one-shot deadline `2·D̂`.
    pub span: f64,
    /// Optional sliding windows: `(window, slide, instances)` with the
    /// first two as fractions of the deadline and `slide < window`.
    pub window: Option<(f64, f64, usize)>,
}

/// A fully specified, runnable scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (reported in JSON).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Topology family.
    pub topology: TopologyKind,
    /// Host count (grid rounds down to a square).
    pub n: usize,
    /// Seed for topology construction and attribute values.
    pub topology_seed: u64,
    /// The aggregate under query.
    pub aggregate: Aggregate,
    /// FM repetitions `c` for sketched aggregates.
    pub c: usize,
    /// The querying host.
    pub hq: u32,
    /// Slack added to the measured diameter to form `D̂`.
    pub d_hat_slack: u32,
    /// Communication medium.
    pub medium: Medium,
    /// Per-hop delay model.
    pub delay: DelayModel,
    /// Protocols under test — every run executes *all* of them against
    /// the same churn/partition realization (one `[[protocol]]` table
    /// each, or a single `[protocol]` section).
    pub protocols: Vec<ProtocolSpec>,
    /// Dynamism regime.
    pub churn: ChurnSpec,
    /// Partitions layered over the churn regime — one cut per
    /// `[partition]` / `[[partition]]` table, overlaid (cascading) when
    /// there are several.
    pub partitions: Vec<PartitionSpec>,
    /// Optional long-horizon phase schedule; when present it owns the
    /// membership regime (`churn` is `None`, `partitions` empty).
    pub phases: Option<PhasesSpec>,
    /// Optional dynamic sketch-targeting adversary layered over the
    /// pre-materialized regime.
    pub adversary: Option<AdversarySpec>,
    /// Optional §4.2 continuous-window execution.
    pub continuous: Option<ContinuousSpec>,
    /// Optional `[telemetry]` knobs for the trace runner (never affects
    /// reports).
    pub telemetry: Option<TelemetrySpec>,
    /// Optional `[overlay]` maintenance layered over the base topology
    /// (affects reports: protocols route over the evolving overlay).
    pub overlay: Option<OverlaySpec>,
    /// Optional `[workload]` multiplexed query workload run per cell
    /// alongside the protocol contenders.
    pub workload: Option<WorkloadSpec>,
    /// Root seeds; the batch runs `seeds × repetitions`.
    pub seeds: Vec<u64>,
    /// Repetitions per seed.
    pub repetitions: usize,
}

impl std::str::FromStr for Scenario {
    type Err = ParseError;

    /// Parse and validate a scenario from `.scn` text.
    fn from_str(text: &str) -> Result<Scenario, ParseError> {
        let doc = Doc::parse(text)?;
        Scenario::from_doc(&doc)
    }
}

impl Scenario {
    /// Total number of runs in the batch.
    pub fn num_runs(&self) -> usize {
        self.seeds.len() * self.repetitions
    }

    /// Human-readable name of the dynamism regime, for reports: the
    /// churn model, `+partition` when a cut is layered on top (plain
    /// `partition` when the cut is the whole regime), `+adversary` when
    /// the dynamic sketch-targeting attacker is layered (plain
    /// `adversary` when it is the whole regime).
    pub fn regime(&self) -> String {
        let base = if self.phases.is_some() {
            "phased".to_string()
        } else {
            match (&self.churn, self.partitions.is_empty()) {
                (ChurnSpec::None, false) => "partition".to_string(),
                (c, true) => c.model_name().to_string(),
                (c, false) => format!("{}+partition", c.model_name()),
            }
        };
        match (&self.adversary, base.as_str()) {
            (None, _) => base,
            (Some(_), "none") => "adversary".to_string(),
            (Some(_), _) => format!("{base}+adversary"),
        }
    }

    fn from_doc(doc: &Doc) -> Result<Scenario, ParseError> {
        const KNOWN: &[&str] = &[
            "scenario",
            "topology",
            "query",
            "medium",
            "protocol",
            "churn",
            "partition",
            "phases",
            "phase",
            "adversary",
            "continuous",
            "telemetry",
            "overlay",
            "workload",
            "run",
        ];
        for s in &doc.sections {
            if !KNOWN.contains(&s.name.as_str()) {
                return Err(ParseError::at(
                    s.line,
                    format!(
                        "unknown section [{}] (expected one of: {})",
                        s.name,
                        KNOWN.join(", ")
                    ),
                ));
            }
            // Only [[protocol]], [[partition]] and [[phase]] may
            // repeat: every other reader consumes a single section, so
            // a second [[run]]/[[churn]]/… table would be silently
            // ignored — exactly the "typo falls back to a default"
            // failure mode this validator exists to stop.
            if s.array && s.name != "protocol" && s.name != "partition" && s.name != "phase" {
                return Err(ParseError::at(
                    s.line,
                    format!(
                        "[[{}]] is not repeatable; only [[protocol]], [[partition]] and \
                         [[phase]] tables may repeat (write [{}] instead)",
                        s.name, s.name
                    ),
                ));
            }
        }
        let scn = Keys::over(doc, "scenario")?;
        let name = scn.require_str("name")?;
        let description = scn.opt_str("description")?.unwrap_or_default();
        scn.finish()?;

        let topo = Keys::over(doc, "topology")?;
        let topology = match topo.require_str("kind")?.as_str() {
            "gnutella" => TopologyKind::Gnutella,
            "random" => TopologyKind::Random,
            "powerlaw" | "power-law" => TopologyKind::PowerLaw,
            "grid" => TopologyKind::Grid,
            other => {
                return Err(topo.err(
                    "kind",
                    format!("unknown topology '{other}' (gnutella|random|powerlaw|grid)"),
                ))
            }
        };
        let n = topo.require_usize("n")?;
        if n < topology.min_hosts() {
            return Err(topo.err(
                "n",
                format!(
                    "{} needs at least {} hosts, got {n}",
                    topology.name(),
                    topology.min_hosts()
                ),
            ));
        }
        let topology_seed = topo.opt_u64("seed")?.unwrap_or(1);
        topo.finish()?;

        let query = Keys::over(doc, "query")?;
        let aggregate = match query.require_str("aggregate")?.as_str() {
            "count" => Aggregate::Count,
            "sum" => Aggregate::Sum,
            "min" => Aggregate::Min,
            "max" => Aggregate::Max,
            "avg" | "average" => Aggregate::Average,
            other => {
                return Err(query.err(
                    "aggregate",
                    format!("unknown aggregate '{other}' (count|sum|min|max|avg)"),
                ))
            }
        };
        let c = query.opt_usize("c")?.unwrap_or(8);
        if c == 0 {
            return Err(query.err("c", "FM repetitions c must be >= 1"));
        }
        let hq = query.opt_u32("hq")?.unwrap_or(0);
        // Grids round n down to a perfect square, so validate against the
        // host count the topology will actually produce.
        let effective_n = match topology {
            TopologyKind::Grid => {
                let side = (n as f64).sqrt().floor() as usize;
                side * side
            }
            _ => n,
        };
        if (hq as usize) >= effective_n {
            return Err(query.err(
                "hq",
                format!(
                    "querying host {hq} out of range ({} builds {effective_n} hosts from n = {n})",
                    topology.name()
                ),
            ));
        }
        let d_hat_slack = query.opt_u32("d_hat_slack")?.unwrap_or(2);
        query.finish()?;

        let med = Keys::over(doc, "medium")?;
        let medium = match med.opt_str("kind")?.as_deref().unwrap_or("p2p") {
            "p2p" | "point-to-point" => Medium::PointToPoint,
            "radio" => Medium::Radio,
            other => return Err(med.err("kind", format!("unknown medium '{other}' (p2p|radio)"))),
        };
        let delay = match med.opt_str("delay")?.as_deref().unwrap_or("fixed") {
            "fixed" => {
                let ticks = med.opt_u64("ticks")?.unwrap_or(1);
                if ticks == 0 {
                    return Err(med.err("ticks", "a delay is at least 1 tick"));
                }
                DelayModel::Fixed(ticks)
            }
            "uniform" => {
                let min = med.opt_u64("min")?.unwrap_or(1);
                if min == 0 {
                    return Err(med.err("min", "a delay is at least 1 tick"));
                }
                let max = med.require_u64("max")?;
                if max < min {
                    return Err(med.err("max", format!("delay max {max} < min {min}")));
                }
                DelayModel::Uniform { min, max }
            }
            other => {
                return Err(med.err(
                    "delay",
                    format!("unknown delay model '{other}' (fixed|uniform)"),
                ))
            }
        };
        med.finish()?;

        let mut protocols = Vec::new();
        for section in doc.sections_named("protocol") {
            let proto = Keys::for_section(section);
            let spec = match proto.require_str("kind")?.as_str() {
                "wildfire" => ProtocolSpec::Wildfire,
                "spanning-tree" | "spanningtree" => ProtocolSpec::SpanningTree,
                "dag" => {
                    let k = proto.opt_usize("k")?.unwrap_or(2);
                    if k == 0 {
                        return Err(proto.err("k", "a DAG host needs at least one parent slot"));
                    }
                    ProtocolSpec::Dag { k }
                }
                "allreport" => ProtocolSpec::AllReport,
                "randomized-report" => {
                    let p = proto.require_f64("p")?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(
                            proto.err("p", format!("report probability {p} outside [0, 1]"))
                        );
                    }
                    ProtocolSpec::RandomizedReport { p }
                }
                "gossip" => ProtocolSpec::Gossip {
                    rounds: proto
                        .opt_u32("rounds")?
                        .ok_or_else(|| proto.missing("rounds", "integer"))?,
                },
                other => {
                    return Err(proto.err(
                        "kind",
                        format!(
                            "unknown protocol '{other}' \
                             (wildfire|spanning-tree|dag|allreport|randomized-report|gossip)"
                        ),
                    ))
                }
            };
            if protocols.contains(&spec) {
                return Err(ParseError::at(
                    section.line,
                    format!("duplicate [[protocol]] table for {}", spec.label()),
                ));
            }
            proto.finish()?;
            protocols.push(spec);
        }
        if protocols.is_empty() {
            return Err(ParseError::at(
                0,
                "missing required section [protocol] (or one [[protocol]] table per contender)",
            ));
        }

        // [partition] may stand alone or co-occur with any [churn]
        // model; repeated [[partition]] tables overlay cascading cuts;
        // `[churn] model = "partition"` remains as legacy sugar for a
        // single cut.
        let mut partitions: Vec<PartitionSpec> = Vec::new();
        for section in doc.sections_named("partition") {
            let pa = Keys::for_section(section);
            partitions.push(partition_spec(&pa)?);
            pa.finish()?;
        }

        let churn = match doc.section("churn") {
            None => ChurnSpec::None,
            Some(_) => {
                let ch = Keys::over(doc, "churn")?;
                let window = |ch: &Keys<'_>| -> Result<(f64, f64), ParseError> {
                    let from = ch.opt_f64("from")?.unwrap_or(0.0);
                    let until = ch.opt_f64("until")?.unwrap_or(1.0);
                    if !(0.0..=1.0).contains(&from) || !(0.0..=1.0).contains(&until) || from > until
                    {
                        return Err(ch.err(
                            "from",
                            format!(
                                "window [{from}, {until}] must satisfy 0 <= from <= until <= 1"
                            ),
                        ));
                    }
                    Ok((from, until))
                };
                let spec = match ch.require_str("model")?.as_str() {
                    "none" => ChurnSpec::None,
                    "uniform" => ChurnSpec::Uniform {
                        fraction: fraction_key(&ch)?,
                        window: window(&ch)?,
                    },
                    "flash-crowd" => ChurnSpec::FlashCrowd {
                        fraction: fraction_key(&ch)?,
                        window: window(&ch)?,
                    },
                    "correlated" => {
                        let clusters = ch.require_usize("clusters")?;
                        let cluster_size = ch.require_usize("cluster_size")?;
                        if cluster_size == 0 {
                            return Err(ch.err("cluster_size", "a cluster needs at least one host"));
                        }
                        ChurnSpec::Correlated {
                            clusters,
                            cluster_size,
                            window: window(&ch)?,
                        }
                    }
                    "oscillating" => {
                        let period = ch.opt_f64("period")?.unwrap_or(0.5);
                        let downtime = ch.opt_f64("downtime")?.unwrap_or(period / 2.0);
                        if !(period > 0.0 && period <= 1.0) {
                            return Err(ch.err("period", format!("period {period} outside (0, 1]")));
                        }
                        if !(downtime > 0.0 && downtime < period) {
                            return Err(ch.err(
                                "downtime",
                                format!("downtime {downtime} must satisfy 0 < downtime < period"),
                            ));
                        }
                        ChurnSpec::Oscillating {
                            fraction: fraction_key(&ch)?,
                            window: window(&ch)?,
                            period,
                            downtime,
                        }
                    }
                    "partition" => {
                        // Legacy spelling: `[churn] model = "partition"` is
                        // sugar for a dedicated [partition] section.
                        if !partitions.is_empty() {
                            return Err(ch.err(
                                "model",
                                "churn model 'partition' conflicts with the [partition] \
                                 section; put the cut in [partition] and pick a real churn model",
                            ));
                        }
                        partitions.push(partition_spec(&ch)?);
                        ChurnSpec::None
                    }
                    "adversarial-root" => ChurnSpec::AdversarialRoot {
                        radius: ch.opt_u32("radius")?.unwrap_or(1),
                        at: {
                            let at = ch.opt_f64("at")?.unwrap_or(0.25);
                            if !(0.0..=1.0).contains(&at) {
                                return Err(ch.err("at", format!("at {at} outside [0, 1]")));
                            }
                            at
                        },
                    },
                    other => {
                        return Err(ch.err(
                            "model",
                            format!(
                                "unknown churn model '{other}' \
                                 (none|uniform|flash-crowd|correlated|oscillating|partition\
                                 |adversarial-root)"
                            ),
                        ))
                    }
                };
                ch.finish()?;
                spec
            }
        };

        // [phases] + [[phase]] tables own the whole membership regime —
        // they lower through `PhaseSchedule` into generated churn and
        // partition plans, so hand-written [churn] / [partition]
        // sections would fight them for the same hosts.
        let phases = match doc.section("phases") {
            None => {
                if let Some(first) = doc.sections_named("phase").next() {
                    return Err(ParseError::at(
                        first.line,
                        "[[phase]] tables need a [phases] header section",
                    ));
                }
                None
            }
            Some(section) => {
                if doc.section("churn").is_some() {
                    return Err(ParseError::at(
                        section.line,
                        "[phases] conflicts with [churn]: the phase schedule owns the \
                         whole membership regime",
                    ));
                }
                if doc.section("partition").is_some() {
                    return Err(ParseError::at(
                        section.line,
                        "[phases] conflicts with [partition]: script the cut as a \
                         [[phase]] of kind 'partition' instead",
                    ));
                }
                let ph = Keys::over(doc, "phases")?;
                let start_alive = ph.opt_f64("start_alive")?.unwrap_or(1.0);
                if !(start_alive > 0.0 && start_alive <= 1.0) {
                    return Err(ph.err(
                        "start_alive",
                        format!("start_alive {start_alive} outside (0, 1]"),
                    ));
                }
                ph.finish()?;
                let mut list: Vec<(PhaseKind, f64)> = Vec::new();
                for table in doc.sections_named("phase") {
                    let pk = Keys::for_section(table);
                    let kind_name = pk.require_str("kind")?;
                    let weight = pk.opt_f64("weight")?.unwrap_or(1.0);
                    if weight <= 0.0 {
                        return Err(pk.err("weight", format!("weight {weight} must be > 0")));
                    }
                    let kind = match kind_name.as_str() {
                        "growth" => PhaseKind::Growth {
                            fraction: phase_fraction(&pk)?,
                        },
                        "stable" => PhaseKind::Stable,
                        "shrink" => PhaseKind::Shrink {
                            fraction: phase_fraction(&pk)?,
                        },
                        "partition" => PhaseKind::Partition {
                            fraction: phase_fraction(&pk)?,
                        },
                        "heal" => PhaseKind::Heal,
                        other => {
                            return Err(pk.err(
                                "kind",
                                format!(
                                    "unknown phase kind '{other}' \
                                     (growth|stable|shrink|partition|heal)"
                                ),
                            ))
                        }
                    };
                    pk.finish()?;
                    list.push((kind, weight));
                }
                if list.is_empty() {
                    return Err(ParseError::at(
                        section.line,
                        "[phases] needs at least one [[phase]] table",
                    ));
                }
                Some(PhasesSpec {
                    start_alive,
                    phases: list,
                })
            }
        };

        let adversary = match doc.section("adversary") {
            None => None,
            Some(section) => {
                let ad = Keys::over(doc, "adversary")?;
                match ad.require_str("target")?.as_str() {
                    "fm_maxima" => {}
                    other => {
                        return Err(ad.err(
                            "target",
                            format!("unknown adversary target '{other}' (fm_maxima)"),
                        ))
                    }
                }
                let kills_per_wave = ad.opt_usize("kills_per_wave")?.unwrap_or(1);
                if kills_per_wave == 0 {
                    return Err(ad.err("kills_per_wave", "must be >= 1"));
                }
                let budget = ad.require_usize("budget")?;
                if budget == 0 {
                    return Err(ad.err("budget", "an adversary with no kills is [churn] none"));
                }
                let start = ad.opt_f64("start")?.unwrap_or(0.0);
                let until = ad.opt_f64("until")?.unwrap_or(1.0);
                if !(0.0..=1.0).contains(&start) || !(0.0..=1.0).contains(&until) || start > until {
                    return Err(ad.err(
                        "start",
                        format!("window [{start}, {until}] must satisfy 0 <= start <= until <= 1"),
                    ));
                }
                if doc.section("continuous").is_some() {
                    return Err(ParseError::at(
                        section.line,
                        "[adversary] cannot be combined with [continuous]: a dynamic kill \
                         schedule cannot be replayed into window-local churn plans",
                    ));
                }
                ad.finish()?;
                Some(AdversarySpec {
                    kills_per_wave,
                    budget,
                    start,
                    until,
                })
            }
        };

        let telemetry = match doc.section("telemetry") {
            None => None,
            Some(_) => {
                let te = Keys::over(doc, "telemetry")?;
                let defaults = TelemetrySpec::default();
                let summary_every = te
                    .opt_u64("summary_every")?
                    .unwrap_or(defaults.summary_every);
                if summary_every == 0 {
                    return Err(te.err("summary_every", "sampling cadence must be >= 1 tick"));
                }
                let flight_window = te
                    .opt_u64("flight_window")?
                    .unwrap_or(defaults.flight_window);
                if flight_window == 0 {
                    return Err(te.err("flight_window", "flight recorder needs >= 1 tick of ring"));
                }
                te.finish()?;
                Some(TelemetrySpec {
                    summary_every,
                    flight_window,
                })
            }
        };

        let overlay = match doc.section("overlay") {
            None => None,
            Some(_) => {
                let ov = Keys::over(doc, "overlay")?;
                let defaults = OverlayConfig::default();
                let active_degree = ov
                    .opt_usize("active_degree")?
                    .unwrap_or(defaults.active_degree);
                if active_degree == 0 {
                    return Err(ov.err("active_degree", "active view needs >= 1 slot"));
                }
                let passive_degree = ov
                    .opt_usize("passive_degree")?
                    .unwrap_or(defaults.passive_degree);
                let shuffle_every = ov
                    .opt_u64("shuffle_every")?
                    .unwrap_or(defaults.shuffle_every);
                if shuffle_every == 0 {
                    return Err(ov.err("shuffle_every", "shuffle cadence must be >= 1 tick"));
                }
                let probe_every = ov.opt_u64("probe_every")?.unwrap_or(defaults.probe_every);
                if probe_every == 0 {
                    return Err(ov.err("probe_every", "probe cadence must be >= 1 tick"));
                }
                let probe_timeout = ov
                    .opt_u64("probe_timeout")?
                    .unwrap_or(defaults.probe_timeout);
                if probe_timeout == 0 {
                    return Err(ov.err("probe_timeout", "probe timeout must be >= 1 tick"));
                }
                let indirect_probes = ov
                    .opt_usize("indirect_probes")?
                    .unwrap_or(defaults.indirect_probes);
                let suspicion_timeout = ov
                    .opt_u64("suspicion_timeout")?
                    .unwrap_or(defaults.suspicion_timeout);
                if suspicion_timeout == 0 {
                    return Err(ov.err("suspicion_timeout", "suspicion timeout must be >= 1 tick"));
                }
                let false_positive = ov
                    .opt_f64("false_positive")?
                    .unwrap_or(defaults.false_positive);
                if !(0.0..=1.0).contains(&false_positive) {
                    return Err(ov.err(
                        "false_positive",
                        format!("false_positive {false_positive} outside [0, 1]"),
                    ));
                }
                ov.finish()?;
                Some(OverlaySpec {
                    config: OverlayConfig {
                        active_degree,
                        passive_degree,
                        shuffle_every,
                        probe_every,
                        probe_timeout,
                        indirect_probes,
                        suspicion_timeout,
                        false_positive,
                        seed: 0,
                    },
                })
            }
        };

        let workload = match doc.section("workload") {
            None => None,
            Some(section) => {
                if doc.section("continuous").is_some() {
                    return Err(ParseError::at(
                        section.line,
                        "[workload] cannot be combined with [continuous]: a workload is \
                         already many queries over one run",
                    ));
                }
                if doc.section("adversary").is_some() {
                    return Err(ParseError::at(
                        section.line,
                        "[workload] cannot be combined with [adversary]: a dynamic kill \
                         schedule cannot be replayed into the workload's environment",
                    ));
                }
                let wl = Keys::over(doc, "workload")?;
                let queries = wl.require_usize("queries")?;
                if queries == 0 {
                    return Err(wl.err("queries", "a workload needs at least one query"));
                }
                let span = wl.opt_f64("span")?.unwrap_or(1.0);
                if !(span > 0.0 && span <= 8.0) {
                    return Err(wl.err("span", format!("arrival span {span} outside (0, 8]")));
                }
                let window = match wl.opt_f64("window")? {
                    None => None,
                    Some(w) => {
                        if !(w > 0.0 && w <= 1.0) {
                            return Err(wl.err("window", format!("window {w} outside (0, 1]")));
                        }
                        let slide = wl.require_f64("slide")?;
                        if !(slide > 0.0 && slide < w) {
                            return Err(wl.err(
                                "slide",
                                format!("slide {slide} must satisfy 0 < slide < window {w}"),
                            ));
                        }
                        let instances = wl.opt_usize("instances")?.unwrap_or(2);
                        if instances == 0 {
                            return Err(wl.err("instances", "need at least one instance"));
                        }
                        Some((w, slide, instances))
                    }
                };
                wl.finish()?;
                Some(WorkloadSpec {
                    queries,
                    span,
                    window,
                })
            }
        };

        let continuous = match doc.section("continuous") {
            None => None,
            Some(_) => {
                let co = Keys::over(doc, "continuous")?;
                let windows = co.require_usize("windows")?;
                if windows == 0 {
                    return Err(co.err("windows", "need at least one window"));
                }
                let window_factor = co.opt_f64("window_factor")?.unwrap_or(1.0);
                if window_factor < 1.0 {
                    return Err(co.err(
                        "window_factor",
                        format!(
                            "window_factor {window_factor} < 1: a window must fit a \
                             full query round (§4.2)"
                        ),
                    ));
                }
                co.finish()?;
                Some(ContinuousSpec {
                    windows,
                    window_factor,
                })
            }
        };

        let run = Keys::over(doc, "run")?;
        let seeds = run.require_u64_list("seeds")?;
        if seeds.is_empty() {
            return Err(run.err("seeds", "need at least one seed"));
        }
        let repetitions = run.opt_usize("repetitions")?.unwrap_or(1);
        if repetitions == 0 {
            return Err(run.err("repetitions", "repetitions must be >= 1"));
        }
        run.finish()?;

        Ok(Scenario {
            name,
            description,
            topology,
            n,
            topology_seed,
            aggregate,
            c,
            hq,
            d_hat_slack,
            medium,
            delay,
            protocols,
            churn,
            partitions,
            phases,
            adversary,
            continuous,
            telemetry,
            overlay,
            workload,
            seeds,
            repetitions,
        })
    }
}

/// Read the `fraction` key of a growth/shrink/partition `[[phase]]`
/// table and validate it lies in `(0, 1]` (the range
/// [`pov_core::pov_sim::PhaseSchedule::then`] asserts).
fn phase_fraction(keys: &Keys<'_>) -> Result<f64, ParseError> {
    let f = keys.require_f64("fraction")?;
    if !(f > 0.0 && f <= 1.0) {
        return Err(keys.err("fraction", format!("fraction {f} outside (0, 1]")));
    }
    Ok(f)
}

/// Read a `fraction` key and validate it lies in `[0, 1]`.
fn fraction_key(keys: &Keys<'_>) -> Result<f64, ParseError> {
    let f = keys.require_f64("fraction")?;
    if !(0.0..=1.0).contains(&f) {
        return Err(keys.err("fraction", format!("fraction {f} outside [0, 1]")));
    }
    Ok(f)
}

/// Read the cut keys (`fraction`, `from`, `heal`) of a `[partition]`
/// section — or of the legacy `[churn] model = "partition"` spelling.
fn partition_spec(keys: &Keys<'_>) -> Result<PartitionSpec, ParseError> {
    let from = keys.opt_f64("from")?.unwrap_or(0.0);
    let heal = keys.opt_f64("heal")?.unwrap_or(1.0);
    if !(0.0..=1.0).contains(&from) || !(0.0..=1.0).contains(&heal) || from >= heal {
        return Err(keys.err(
            "from",
            format!("partition [{from}, {heal}) must satisfy 0 <= from < heal <= 1"),
        ));
    }
    Ok(PartitionSpec {
        fraction: fraction_key(keys)?,
        from,
        heal,
    })
}

/// Typed, consumption-tracked access to one section's keys: every key a
/// reader touches is marked, and [`Keys::finish`] rejects leftovers so
/// typos cannot silently fall back to defaults.
struct Keys<'a> {
    section: Option<&'a Section>,
    name: &'a str,
    line: usize,
    used: std::cell::RefCell<Vec<&'a str>>,
}

impl<'a> Keys<'a> {
    fn over(doc: &'a Doc, name: &'a str) -> Result<Keys<'a>, ParseError> {
        let section = doc.section(name);
        match (name, &section) {
            // [medium], [churn], [partition], [adversary], [continuous],
            // [telemetry], [overlay] and [workload] are optional; the
            // rest must exist.
            (
                "medium" | "churn" | "partition" | "adversary" | "continuous" | "telemetry"
                | "overlay" | "workload",
                _,
            )
            | (_, Some(_)) => Ok(Keys {
                line: section.map_or(0, |s| s.line),
                section,
                name,
                used: std::cell::RefCell::new(Vec::new()),
            }),
            _ => Err(ParseError::at(
                0,
                format!("missing required section [{name}]"),
            )),
        }
    }

    /// Typed access to one concrete section instance — used for the
    /// repeated `[[protocol]]` tables, where `Doc::section` (first
    /// match) is not enough.
    fn for_section(section: &'a Section) -> Keys<'a> {
        Keys {
            line: section.line,
            name: &section.name,
            section: Some(section),
            used: std::cell::RefCell::new(Vec::new()),
        }
    }

    fn entry(&self, key: &'a str) -> Option<&'a Entry> {
        let e = self.section.and_then(|s| s.get(key));
        if e.is_some() {
            self.used.borrow_mut().push(key);
        }
        e
    }

    fn err(&self, key: &str, msg: impl Into<String>) -> ParseError {
        let line = self
            .section
            .and_then(|s| s.get(key))
            .map_or(self.line, |e| e.line);
        ParseError::at(line, format!("[{}] {}: {}", self.name, key, msg.into()))
    }

    fn require_str(&self, key: &'a str) -> Result<String, ParseError> {
        self.opt_str(key)?
            .ok_or_else(|| self.missing(key, "string"))
    }

    fn opt_str(&self, key: &'a str) -> Result<Option<String>, ParseError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Str(s) => Ok(Some(s.clone())),
                v => Err(self.err(key, format!("expected a string, got {}", v.type_name()))),
            },
        }
    }

    fn require_u64(&self, key: &'a str) -> Result<u64, ParseError> {
        self.opt_u64(key)?
            .ok_or_else(|| self.missing(key, "integer"))
    }

    fn opt_u64(&self, key: &'a str) -> Result<Option<u64>, ParseError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match e.value {
                Value::Int(i) if i >= 0 => Ok(Some(i as u64)),
                Value::Int(i) => Err(self.err(key, format!("must be non-negative, got {i}"))),
                ref v => Err(self.err(key, format!("expected an integer, got {}", v.type_name()))),
            },
        }
    }

    fn opt_u32(&self, key: &'a str) -> Result<Option<u32>, ParseError> {
        self.opt_u64(key)?
            .map(|v| u32::try_from(v).map_err(|_| self.err(key, format!("{v} exceeds u32::MAX"))))
            .transpose()
    }

    fn require_usize(&self, key: &'a str) -> Result<usize, ParseError> {
        Ok(self.require_u64(key)? as usize)
    }

    fn opt_usize(&self, key: &'a str) -> Result<Option<usize>, ParseError> {
        Ok(self.opt_u64(key)?.map(|v| v as usize))
    }

    fn require_f64(&self, key: &'a str) -> Result<f64, ParseError> {
        self.opt_f64(key)?
            .ok_or_else(|| self.missing(key, "number"))
    }

    fn opt_f64(&self, key: &'a str) -> Result<Option<f64>, ParseError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match e.value {
                Value::Float(f) => Ok(Some(f)),
                Value::Int(i) => Ok(Some(i as f64)),
                ref v => Err(self.err(key, format!("expected a number, got {}", v.type_name()))),
            },
        }
    }

    fn require_u64_list(&self, key: &'a str) -> Result<Vec<u64>, ParseError> {
        match self.entry(key) {
            None => Err(self.missing(key, "list of integers")),
            Some(e) => match &e.value {
                Value::List(items) => items
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) if *i >= 0 => Ok(*i as u64),
                        Value::Int(i) => {
                            Err(self.err(key, format!("list elements must be >= 0, got {i}")))
                        }
                        v => Err(self.err(
                            key,
                            format!("expected integer elements, got {}", v.type_name()),
                        )),
                    })
                    .collect(),
                v => Err(self.err(key, format!("expected a list, got {}", v.type_name()))),
            },
        }
    }

    fn missing(&self, key: &str, what: &str) -> ParseError {
        ParseError::at(
            self.line,
            format!("[{}] missing required key '{key}' ({what})", self.name),
        )
    }

    /// Reject keys nobody consumed.
    fn finish(&self) -> Result<(), ParseError> {
        if let Some(section) = self.section {
            let used = self.used.borrow();
            for e in &section.entries {
                if !used.contains(&e.key.as_str()) {
                    return Err(ParseError::at(
                        e.line,
                        format!("unknown key '{}' in [{}]", e.key, self.name),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    const GOOD: &str = r#"
[scenario]
name = "demo"
description = "a demo"

[topology]
kind = "grid"
n = 400
seed = 7

[query]
aggregate = "count"
c = 16
hq = 0

[medium]
kind = "radio"
delay = "uniform"
min = 1
max = 2

[protocol]
kind = "wildfire"

[churn]
model = "partition"
fraction = 0.4
from = 0.1
heal = 0.6

[run]
seeds = [1, 2, 3]
repetitions = 2
"#;

    #[test]
    fn parses_complete_scenario() {
        let s = Scenario::from_str(GOOD).expect("valid");
        assert_eq!(s.name, "demo");
        assert_eq!(s.topology, TopologyKind::Grid);
        assert_eq!(s.n, 400);
        assert_eq!(s.topology_seed, 7);
        assert_eq!(s.aggregate, Aggregate::Count);
        assert_eq!(s.c, 16);
        assert_eq!(s.medium, Medium::Radio);
        assert_eq!(s.delay, DelayModel::Uniform { min: 1, max: 2 });
        assert_eq!(s.protocols, vec![ProtocolSpec::Wildfire]);
        // The legacy `model = "partition"` spelling lowers to a
        // [partition] spec with no additional churn.
        assert_eq!(s.churn, ChurnSpec::None);
        assert_eq!(
            s.partitions,
            vec![PartitionSpec {
                fraction: 0.4,
                from: 0.1,
                heal: 0.6
            }]
        );
        assert_eq!(s.regime(), "partition");
        assert_eq!(s.continuous, None);
        assert_eq!(s.seeds, vec![1, 2, 3]);
        assert_eq!(s.num_runs(), 6);
    }

    #[test]
    fn defaults_are_sensible() {
        let s = Scenario::from_str(
            r#"
[scenario]
name = "min"
[topology]
kind = "random"
n = 100
[query]
aggregate = "max"
[protocol]
kind = "spanning-tree"
[run]
seeds = [9]
"#,
        )
        .expect("valid");
        assert_eq!(s.c, 8);
        assert_eq!(s.hq, 0);
        assert_eq!(s.d_hat_slack, 2);
        assert_eq!(s.medium, Medium::PointToPoint);
        assert_eq!(s.delay, DelayModel::Fixed(1));
        assert_eq!(s.churn, ChurnSpec::None);
        assert_eq!(s.partitions, vec![]);
        assert_eq!(s.continuous, None);
        assert_eq!(s.regime(), "none");
        assert_eq!(s.repetitions, 1);
        assert_eq!(s.topology_seed, 1);
    }

    #[test]
    fn repeated_protocol_tables_compare_in_order() {
        let s = Scenario::from_str(
            r#"
[scenario]
name = "versus"
[topology]
kind = "random"
n = 100
[query]
aggregate = "count"
[[protocol]]
kind = "wildfire"
[[protocol]]
kind = "spanning-tree"
[[protocol]]
kind = "dag"
k = 3
[run]
seeds = [1]
"#,
        )
        .expect("valid");
        assert_eq!(
            s.protocols,
            vec![
                ProtocolSpec::Wildfire,
                ProtocolSpec::SpanningTree,
                ProtocolSpec::Dag { k: 3 },
            ]
        );
        assert_eq!(s.protocols[2].label(), "DAG(k=3)");
    }

    #[test]
    fn repeated_tables_only_allowed_for_protocol() {
        // A second [[run]] table would be silently ignored by the
        // first-match readers — reject the array form outright for
        // every section but [[protocol]].
        for section in ["run", "churn", "query", "medium"] {
            let text = GOOD.replace(&format!("[{section}]"), &format!("[[{section}]]"));
            let err = Scenario::from_str(&text).expect_err(section);
            assert!(
                err.msg.contains("not repeatable"),
                "[{section}]: {}",
                err.msg
            );
        }
    }

    #[test]
    fn duplicate_protocol_tables_rejected() {
        let err = Scenario::from_str(
            "[scenario]\nname = \"x\"\n[topology]\nkind = \"random\"\nn = 50\n\
             [query]\naggregate = \"count\"\n\
             [[protocol]]\nkind = \"wildfire\"\n[[protocol]]\nkind = \"wildfire\"\n\
             [run]\nseeds = [1]",
        )
        .expect_err("dup");
        assert!(err.msg.contains("duplicate [[protocol]]"), "{}", err.msg);
    }

    #[test]
    fn churn_and_partition_co_occur() {
        let s = Scenario::from_str(
            r#"
[scenario]
name = "both"
[topology]
kind = "random"
n = 200
[query]
aggregate = "count"
[protocol]
kind = "wildfire"
[churn]
model = "uniform"
fraction = 0.1
[partition]
fraction = 0.3
from = 0.2
heal = 0.7
[run]
seeds = [1]
"#,
        )
        .expect("valid");
        assert_eq!(
            s.churn,
            ChurnSpec::Uniform {
                fraction: 0.1,
                window: (0.0, 1.0)
            }
        );
        assert_eq!(
            s.partitions,
            vec![PartitionSpec {
                fraction: 0.3,
                from: 0.2,
                heal: 0.7
            }]
        );
        assert_eq!(s.regime(), "uniform+partition");
    }

    #[test]
    fn repeated_partition_tables_cascade() {
        let s = Scenario::from_str(
            r#"
[scenario]
name = "cascade"
[topology]
kind = "random"
n = 200
[query]
aggregate = "count"
[protocol]
kind = "wildfire"
[[partition]]
fraction = 0.3
from = 0.0
heal = 0.5
[[partition]]
fraction = 0.2
from = 0.3
heal = 0.9
[run]
seeds = [1]
"#,
        )
        .expect("valid");
        assert_eq!(
            s.partitions,
            vec![
                PartitionSpec {
                    fraction: 0.3,
                    from: 0.0,
                    heal: 0.5
                },
                PartitionSpec {
                    fraction: 0.2,
                    from: 0.3,
                    heal: 0.9
                },
            ]
        );
        assert_eq!(s.regime(), "partition");
    }

    #[test]
    fn legacy_partition_model_conflicts_with_partition_section() {
        let err = Scenario::from_str(&format!("{GOOD}\n[partition]\nfraction = 0.2"))
            .expect_err("conflict");
        assert!(err.msg.contains("conflicts"), "{}", err.msg);
    }

    const PHASED: &str = r#"
[scenario]
name = "phased"
[topology]
kind = "random"
n = 100
[query]
aggregate = "count"
[protocol]
kind = "wildfire"
[phases]
start_alive = 0.7
[[phase]]
kind = "growth"
fraction = 0.4
weight = 2.0
[[phase]]
kind = "stable"
weight = 3.0
[[phase]]
kind = "shrink"
fraction = 0.3
[[phase]]
kind = "partition"
fraction = 0.3
[[phase]]
kind = "heal"
[continuous]
windows = 4
[run]
seeds = [1]
"#;

    #[test]
    fn phases_section_parses_the_membership_arc() {
        let s = Scenario::from_str(PHASED).expect("valid");
        let p = s.phases.as_ref().expect("phases spec");
        assert_eq!(p.start_alive, 0.7);
        assert_eq!(
            p.phases,
            vec![
                (PhaseKind::Growth { fraction: 0.4 }, 2.0),
                (PhaseKind::Stable, 3.0),
                (PhaseKind::Shrink { fraction: 0.3 }, 1.0),
                (PhaseKind::Partition { fraction: 0.3 }, 1.0),
                (PhaseKind::Heal, 1.0),
            ]
        );
        assert_eq!(s.churn, ChurnSpec::None);
        assert_eq!(s.partitions, vec![]);
        assert_eq!(s.regime(), "phased");
        // [phases] composes with [continuous] — the soak harness runs
        // long arcs as window streams.
        assert_eq!(s.continuous.map(|c| c.windows), Some(4));
    }

    #[test]
    fn phases_conflict_with_hand_written_regimes() {
        let err = Scenario::from_str(&format!("{PHASED}\n[churn]\nmodel = \"none\""))
            .expect_err("churn conflict");
        assert!(err.msg.contains("conflicts with [churn]"), "{}", err.msg);
        let err = Scenario::from_str(&format!(
            "{PHASED}\n[partition]\nfraction = 0.2\nfrom = 0.0\nheal = 0.5"
        ))
        .expect_err("partition conflict");
        assert!(
            err.msg.contains("conflicts with [partition]"),
            "{}",
            err.msg
        );
    }

    #[test]
    fn phases_grammar_rejects_malformed_arcs() {
        // A [[phase]] table without the [phases] header.
        let err = Scenario::from_str(&PHASED.replace("[phases]\nstart_alive = 0.7\n", ""))
            .expect_err("headless phase");
        assert!(err.msg.contains("[phases] header"), "{}", err.msg);
        // A [phases] header with no [[phase]] tables.
        let err = Scenario::from_str(
            "[scenario]\nname = \"x\"\n[topology]\nkind = \"random\"\nn = 50\n\
             [query]\naggregate = \"count\"\n[protocol]\nkind = \"wildfire\"\n\
             [phases]\nstart_alive = 0.5\n[run]\nseeds = [1]",
        )
        .expect_err("empty arc");
        assert!(err.msg.contains("at least one [[phase]]"), "{}", err.msg);
        // Unknown phase kind.
        let err = Scenario::from_str(&PHASED.replace("kind = \"stable\"", "kind = \"plateau\""))
            .expect_err("bad kind");
        assert!(err.msg.contains("unknown phase kind"), "{}", err.msg);
        // Growth without its fraction.
        let err = Scenario::from_str(&PHASED.replace("fraction = 0.4\n", ""))
            .expect_err("missing fraction");
        assert!(err.msg.contains("fraction"), "{}", err.msg);
        // Stable phases take no fraction — the strict key reader
        // rejects the leftover.
        let err = Scenario::from_str(
            &PHASED.replace("kind = \"stable\"", "kind = \"stable\"\nfraction = 0.2"),
        )
        .expect_err("stable fraction");
        assert!(err.msg.contains("unknown key 'fraction'"), "{}", err.msg);
        // Zero weight and out-of-range start_alive.
        let err = Scenario::from_str(&PHASED.replace("weight = 3.0", "weight = 0.0"))
            .expect_err("zero weight");
        assert!(err.msg.contains("must be > 0"), "{}", err.msg);
        let err = Scenario::from_str(&PHASED.replace("start_alive = 0.7", "start_alive = 1.5"))
            .expect_err("bad start_alive");
        assert!(err.msg.contains("outside (0, 1]"), "{}", err.msg);
    }

    #[test]
    fn oscillating_model_parses_with_defaults() {
        let text = GOOD
            .replace("model = \"partition\"", "model = \"oscillating\"")
            .replace("from = 0.1\nheal = 0.6", "period = 0.4\ndowntime = 0.1");
        let s = Scenario::from_str(&text).expect("valid");
        assert_eq!(
            s.churn,
            ChurnSpec::Oscillating {
                fraction: 0.4,
                window: (0.0, 1.0),
                period: 0.4,
                downtime: 0.1,
            }
        );
        assert_eq!(s.regime(), "oscillating");
        // Downtime must stay below the period.
        let bad = text.replace("downtime = 0.1", "downtime = 0.5");
        let err = Scenario::from_str(&bad).expect_err("downtime >= period");
        assert!(err.msg.contains("downtime"), "{}", err.msg);
    }

    #[test]
    fn adversary_section_parses_and_validates() {
        let s = Scenario::from_str(&format!(
            "{GOOD}\n[adversary]\ntarget = \"fm_maxima\"\nkills_per_wave = 3\n\
             budget = 24\nstart = 0.1\nuntil = 0.6"
        ))
        .expect("valid");
        assert_eq!(
            s.adversary,
            Some(AdversarySpec {
                kills_per_wave: 3,
                budget: 24,
                start: 0.1,
                until: 0.6
            })
        );
        // GOOD's legacy churn model is a partition; the adversary layers.
        assert_eq!(s.regime(), "partition+adversary");
        // Defaults: one kill per wave, whole-run window.
        let s = Scenario::from_str(&format!(
            "{GOOD}\n[adversary]\ntarget = \"fm_maxima\"\nbudget = 8"
        ))
        .expect("valid");
        assert_eq!(
            s.adversary,
            Some(AdversarySpec {
                kills_per_wave: 1,
                budget: 8,
                start: 0.0,
                until: 1.0
            })
        );
        let err = Scenario::from_str(&format!(
            "{GOOD}\n[adversary]\ntarget = \"root\"\nbudget = 8"
        ))
        .expect_err("bad target");
        assert!(err.msg.contains("unknown adversary target"), "{}", err.msg);
        let err = Scenario::from_str(&format!(
            "{GOOD}\n[adversary]\ntarget = \"fm_maxima\"\nbudget = 0"
        ))
        .expect_err("zero budget");
        assert!(err.msg.contains("no kills"), "{}", err.msg);
        let err = Scenario::from_str(&format!(
            "{GOOD}\n[adversary]\ntarget = \"fm_maxima\"\nbudget = 8\nstart = 0.9\nuntil = 0.2"
        ))
        .expect_err("inverted window");
        assert!(err.msg.contains("start <= until"), "{}", err.msg);
    }

    #[test]
    fn adversary_rejects_continuous_combination() {
        let err = Scenario::from_str(&format!(
            "{GOOD}\n[adversary]\ntarget = \"fm_maxima\"\nbudget = 8\n\
             [continuous]\nwindows = 2"
        ))
        .expect_err("adversary + continuous");
        assert!(err.msg.contains("[continuous]"), "{}", err.msg);
    }

    #[test]
    fn adversary_alone_names_the_regime() {
        let s = Scenario::from_str(
            r#"
[scenario]
name = "adv"
[topology]
kind = "random"
n = 100
[query]
aggregate = "count"
[protocol]
kind = "wildfire"
[adversary]
target = "fm_maxima"
budget = 10
[run]
seeds = [1]
"#,
        )
        .expect("valid");
        assert_eq!(s.churn, ChurnSpec::None);
        assert_eq!(s.regime(), "adversary");
    }

    #[test]
    fn telemetry_section_parses_and_validates() {
        // Absent section → no spec (trace runner falls back to defaults).
        let s = Scenario::from_str(GOOD).expect("valid");
        assert_eq!(s.telemetry, None);
        // Present but empty → the documented defaults.
        let s = Scenario::from_str(&format!("{GOOD}\n[telemetry]")).expect("valid");
        assert_eq!(s.telemetry, Some(TelemetrySpec::default()));
        assert_eq!(
            s.telemetry.unwrap(),
            TelemetrySpec {
                summary_every: 8,
                flight_window: 256
            }
        );
        // Explicit knobs.
        let s = Scenario::from_str(&format!(
            "{GOOD}\n[telemetry]\nsummary_every = 4\nflight_window = 64"
        ))
        .expect("valid");
        assert_eq!(
            s.telemetry,
            Some(TelemetrySpec {
                summary_every: 4,
                flight_window: 64
            })
        );
        // Zero cadences are rejected, typos too.
        let err = Scenario::from_str(&format!("{GOOD}\n[telemetry]\nsummary_every = 0"))
            .expect_err("zero cadence");
        assert!(err.msg.contains(">= 1 tick"), "{}", err.msg);
        let err = Scenario::from_str(&format!("{GOOD}\n[telemetry]\nflight_window = 0"))
            .expect_err("zero ring");
        assert!(err.msg.contains("ring"), "{}", err.msg);
        let err = Scenario::from_str(&format!("{GOOD}\n[telemetry]\nsumary_every = 4"))
            .expect_err("typo");
        assert!(err.msg.contains("unknown key"), "{}", err.msg);
        // Not repeatable, like every other single-reader section.
        let err = Scenario::from_str(&format!("{GOOD}\n[[telemetry]]\nsummary_every = 4"))
            .expect_err("array form");
        assert!(err.msg.contains("not repeatable"), "{}", err.msg);
    }

    #[test]
    fn overlay_section_parses_and_validates() {
        // Absent section → no overlay (reports are byte-identical to
        // the pre-overlay grammar).
        let s = Scenario::from_str(GOOD).expect("valid");
        assert_eq!(s.overlay, None);
        // Present but empty → the driver's documented defaults with a
        // zero placeholder seed (the batch runner injects per-cell
        // seeds).
        let s = Scenario::from_str(&format!("{GOOD}\n[overlay]")).expect("valid");
        assert_eq!(
            s.overlay,
            Some(OverlaySpec {
                config: OverlayConfig {
                    seed: 0,
                    ..OverlayConfig::default()
                }
            })
        );
        // Explicit knobs.
        let s = Scenario::from_str(&format!(
            "{GOOD}\n[overlay]\nactive_degree = 3\npassive_degree = 8\nshuffle_every = 6\n\
             probe_every = 2\nprobe_timeout = 1\nindirect_probes = 1\nsuspicion_timeout = 3\n\
             false_positive = 0.05"
        ))
        .expect("valid");
        let cfg = s.overlay.unwrap().config;
        assert_eq!(cfg.active_degree, 3);
        assert_eq!(cfg.passive_degree, 8);
        assert_eq!(cfg.shuffle_every, 6);
        assert_eq!(cfg.probe_every, 2);
        assert_eq!(cfg.probe_timeout, 1);
        assert_eq!(cfg.indirect_probes, 1);
        assert_eq!(cfg.suspicion_timeout, 3);
        assert_eq!(cfg.false_positive, 0.05);
        // Degenerate cadences and out-of-range rates are rejected.
        let err = Scenario::from_str(&format!("{GOOD}\n[overlay]\nactive_degree = 0"))
            .expect_err("zero active view");
        assert!(err.msg.contains(">= 1 slot"), "{}", err.msg);
        let err = Scenario::from_str(&format!("{GOOD}\n[overlay]\nprobe_every = 0"))
            .expect_err("zero cadence");
        assert!(err.msg.contains(">= 1 tick"), "{}", err.msg);
        let err = Scenario::from_str(&format!("{GOOD}\n[overlay]\nfalse_positive = 1.5"))
            .expect_err("bad rate");
        assert!(err.msg.contains("outside [0, 1]"), "{}", err.msg);
        // There is no `seed` key: seeds come from [run], per cell.
        let err =
            Scenario::from_str(&format!("{GOOD}\n[overlay]\nseed = 7")).expect_err("seed key");
        assert!(err.msg.contains("unknown key 'seed'"), "{}", err.msg);
        // Not repeatable, like every other single-reader section.
        let err = Scenario::from_str(&format!("{GOOD}\n[[overlay]]\nactive_degree = 3"))
            .expect_err("array form");
        assert!(err.msg.contains("not repeatable"), "{}", err.msg);
    }

    #[test]
    fn workload_section_parses_and_validates() {
        // Absent section → no workload (reports keep their historical
        // rendering, byte for byte).
        let s = Scenario::from_str(GOOD).expect("valid");
        assert_eq!(s.workload, None);
        // Minimal form: queries with the default one-deadline span.
        let s = Scenario::from_str(&format!("{GOOD}\n[workload]\nqueries = 40")).expect("valid");
        assert_eq!(
            s.workload,
            Some(WorkloadSpec {
                queries: 40,
                span: 1.0,
                window: None,
            })
        );
        // Full form with sliding windows.
        let s = Scenario::from_str(&format!(
            "{GOOD}\n[workload]\nqueries = 10\nspan = 2.0\nwindow = 0.8\nslide = 0.3\ninstances = 3"
        ))
        .expect("valid");
        assert_eq!(
            s.workload,
            Some(WorkloadSpec {
                queries: 10,
                span: 2.0,
                window: Some((0.8, 0.3, 3)),
            })
        );
        // `instances` defaults to 2 when windowed.
        let s = Scenario::from_str(&format!(
            "{GOOD}\n[workload]\nqueries = 10\nwindow = 0.5\nslide = 0.2"
        ))
        .expect("valid");
        assert_eq!(s.workload.unwrap().window, Some((0.5, 0.2, 2)));
        // Validation: every knob is range-checked.
        let err = Scenario::from_str(&format!("{GOOD}\n[workload]\nqueries = 0"))
            .expect_err("zero queries");
        assert!(err.msg.contains("at least one query"), "{}", err.msg);
        let err = Scenario::from_str(&format!("{GOOD}\n[workload]\nqueries = 5\nspan = 9.0"))
            .expect_err("huge span");
        assert!(err.msg.contains("outside (0, 8]"), "{}", err.msg);
        let err = Scenario::from_str(&format!(
            "{GOOD}\n[workload]\nqueries = 5\nwindow = 0.4\nslide = 0.4"
        ))
        .expect_err("slide == window");
        assert!(err.msg.contains("slide < window"), "{}", err.msg);
        let err = Scenario::from_str(&format!("{GOOD}\n[workload]\nqueries = 5\nwindow = 0.4"))
            .expect_err("window without slide");
        assert!(err.msg.contains("slide"), "{}", err.msg);
        // Conflicts: [continuous] and [adversary] are rejected.
        let err = Scenario::from_str(&format!(
            "{GOOD}\n[workload]\nqueries = 5\n[continuous]\nwindows = 2"
        ))
        .expect_err("continuous conflict");
        assert!(err.msg.contains("[continuous]"), "{}", err.msg);
        let err = Scenario::from_str(&format!(
            "{GOOD}\n[workload]\nqueries = 5\n[adversary]\nkills_per_wave = 1\nbudget = 4"
        ))
        .expect_err("adversary conflict");
        assert!(err.msg.contains("[adversary]"), "{}", err.msg);
        // Unknown keys are caught like every other section.
        let err = Scenario::from_str(&format!("{GOOD}\n[workload]\nqueries = 5\nbogus = 1"))
            .expect_err("unknown key");
        assert!(err.msg.contains("unknown key"), "{}", err.msg);
    }

    #[test]
    fn continuous_section_parses_and_validates() {
        let s = Scenario::from_str(&format!(
            "{GOOD}\n[continuous]\nwindows = 4\nwindow_factor = 1.5"
        ))
        .expect("valid");
        assert_eq!(
            s.continuous,
            Some(ContinuousSpec {
                windows: 4,
                window_factor: 1.5
            })
        );
        let err = Scenario::from_str(&format!("{GOOD}\n[continuous]\nwindows = 0"))
            .expect_err("zero windows");
        assert!(err.msg.contains("at least one window"), "{}", err.msg);
        let err = Scenario::from_str(&format!(
            "{GOOD}\n[continuous]\nwindows = 2\nwindow_factor = 0.5"
        ))
        .expect_err("factor < 1");
        assert!(err.msg.contains("window_factor"), "{}", err.msg);
    }

    /// Replace every line of GOOD whose key matches the mutation's first
    /// key — only inside `[section]` when the mutation starts with that
    /// prefix — by the mutation's lines, and expect a parse error.
    fn fails_with(mutation: &str, needle: &str) {
        let (section, mutation) = match mutation.strip_prefix('[') {
            Some(rest) => {
                let (name, m) = rest.split_once("] ").expect("`[section] key = value`");
                (Some(name), m)
            }
            None => (None, mutation),
        };
        let key = mutation.split('=').next().unwrap().trim();
        let mut current = "";
        let text: String = GOOD
            .lines()
            .map(|l| {
                if let Some(name) = l.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
                    current = name;
                }
                let here = section.is_none_or(|s| s == current);
                if here && l.split('=').next().map(str::trim) == Some(key) {
                    mutation.to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = Scenario::from_str(&text).expect_err("should fail");
        assert!(
            err.msg.contains(needle),
            "error '{}' should mention '{needle}'",
            err.msg
        );
        assert!(err.line > 0, "error should carry a line number");
    }

    #[test]
    fn rejects_bad_values_with_context() {
        fails_with("kind = \"torus\"", "unknown");
        fails_with("aggregate = \"median\"", "unknown aggregate");
        fails_with("hq = 400", "out of range");
        fails_with("fraction = 1.5", "outside [0, 1]");
        fails_with("from = 0.9", "from < heal");
        fails_with("seeds = []", "at least one seed");
        fails_with("repetitions = 0", ">= 1");
        fails_with("[protocol] kind = \"dag\"\nk = 0", "[protocol] k: ");
        fails_with(
            "[churn] model = \"correlated\"\nclusters = 2\ncluster_size = 0",
            "[churn] cluster_size: a cluster needs at least one host",
        );
        // The engine would clamp a 0-tick delay to 1 and run a
        // different medium than the file describes.
        fails_with(
            "[medium] delay = \"fixed\"\nticks = 0",
            "[medium] ticks: a delay is at least 1 tick",
        );
        fails_with(
            "[medium] min = 0",
            "[medium] min: a delay is at least 1 tick",
        );
    }

    #[test]
    fn u32_keys_reject_values_that_would_wrap() {
        // 2³² + 2 used to be cast `as u32` and run as 2.
        fails_with(
            "[query] c = 16\nd_hat_slack = 4294967298",
            "[query] d_hat_slack: 4294967298 exceeds u32::MAX",
        );
        fails_with(
            "[protocol] kind = \"gossip\"\nrounds = 4294967298",
            "[protocol] rounds: 4294967298 exceeds u32::MAX",
        );
        fails_with(
            "[churn] model = \"adversarial-root\"\nradius = 4294967298",
            "[churn] radius: 4294967298 exceeds u32::MAX",
        );
        fails_with("hq = 4294967298", "[query] hq: 4294967298 exceeds u32::MAX");
    }

    #[test]
    fn topology_smaller_than_its_generator_needs_is_a_line_numbered_error() {
        // Below a kind's `min_hosts()` its generator would panic; the
        // parser must refuse the `n` line first.
        for (kind, name) in [
            (TopologyKind::Gnutella, "gnutella"),
            (TopologyKind::Random, "random"),
            (TopologyKind::PowerLaw, "powerlaw"),
            (TopologyKind::Grid, "grid"),
        ] {
            let min = kind.min_hosts();
            let with_n = |n: usize| {
                GOOD.replace("kind = \"grid\"", &format!("kind = \"{name}\""))
                    .replace("n = 400", &format!("n = {n}"))
            };
            let text = with_n(min - 1);
            let err = Scenario::from_str(&text).expect_err(name);
            let line = text
                .lines()
                .position(|l| l == format!("n = {}", min - 1))
                .expect("n line")
                + 1;
            assert_eq!(err.line, line, "{name}");
            assert!(
                err.msg.contains(&format!(
                    "[topology] n: {} needs at least {min} hosts, got {}",
                    kind.name(),
                    min - 1
                )),
                "{name}: {}",
                err.msg
            );
            assert!(Scenario::from_str(&with_n(min)).is_ok(), "{name}");
        }
    }

    #[test]
    fn grid_hq_validated_against_rounded_host_count() {
        // n = 1000 on a grid builds 31×31 = 961 hosts; hq = 980 looks
        // in-range against n but is out of range for the real graph.
        let text = GOOD
            .replace("n = 400", "n = 1_000")
            .replace("hq = 0", "hq = 980");
        let err = Scenario::from_str(&text).expect_err("hq past grid rounding");
        assert!(err.msg.contains("961"), "{}", err.msg);
        // The same hq is fine once it fits the rounded count.
        let text = GOOD
            .replace("n = 400", "n = 1_000")
            .replace("hq = 0", "hq = 960");
        assert!(Scenario::from_str(&text).is_ok());
    }

    #[test]
    fn rejects_unknown_keys_and_sections() {
        let err = Scenario::from_str(&format!("{GOOD}\nbogus = 1")).expect_err("unknown key");
        assert!(err.msg.contains("unknown key 'bogus'"), "{}", err.msg);
        let err = Scenario::from_str(&format!("{GOOD}\n[extra]\nx = 1")).expect_err("section");
        assert!(err.msg.contains("unknown section [extra]"), "{}", err.msg);
    }

    #[test]
    fn rejects_missing_required() {
        let err = Scenario::from_str("[scenario]\nname = \"x\"").expect_err("missing");
        assert!(err.msg.contains("missing required section"), "{}", err.msg);
    }

    #[test]
    fn protocol_parameters() {
        for (kind, extra, want) in [
            ("dag", "k = 3", ProtocolSpec::Dag { k: 3 }),
            (
                "randomized-report",
                "p = 0.5",
                ProtocolSpec::RandomizedReport { p: 0.5 },
            ),
            ("gossip", "rounds = 40", ProtocolSpec::Gossip { rounds: 40 }),
        ] {
            let s = Scenario::from_str(&format!(
                "[scenario]\nname = \"p\"\n[topology]\nkind = \"random\"\nn = 50\n\
                 [query]\naggregate = \"count\"\n[protocol]\nkind = \"{kind}\"\n{extra}\n\
                 [run]\nseeds = [1]"
            ))
            .expect("valid");
            assert_eq!(s.protocols, vec![want]);
        }
    }
}
