//! The declarative [`Scenario`] spec and its mapping from parsed `.scn`
//! documents.
//!
//! A scenario pins down *everything* a batch run needs — topology,
//! query, medium, delay, protocol, dynamism regime, seed set and
//! repetition count — so that `repro scenario file.scn` is a pure
//! function of the file. One table, `GRAMMAR`, declares the sections,
//! their keys and which may repeat, are required or exclude each other;
//! every violation, and every key a variant ignores, is a line-numbered
//! error, because a typoed key silently falling back to a default is
//! the classic way benchmark configs rot.

use crate::parse::{Doc, Entry, ParseError, Section, Value};
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::{Aggregate, OverlayConfig, ProtocolKind};
use pov_core::pov_sim::{DelayModel, Medium, PhaseKind};
use pov_core::pov_topology::generators::TopologyKind;
use std::cell::Cell;
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::RangeBounds;

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
/// Composes with any `[churn]` model.
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
/// instead of a one-shot. Each window is one query round, the one-shot
/// deadline `W = 2·D̂·δ` long, and churn/partition window fractions
/// scale to the *whole horizon* `windows × W` so a regime can span the
/// registration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContinuousSpec {
    /// Number of consecutive windows.
    pub windows: usize,
}

/// A `[phases]` section plus its `[[phase]]` tables: a long-horizon
/// membership arc (growth → stable → shrink → partition → heal,
/// ewok-style) scripted as weighted phases. Weights are *relative*
/// spans: the executor scales them to the regime's tick span (the
/// one-shot deadline, or the whole `windows × W` horizon under
/// `[continuous]` — the long-horizon case), then lowers through
/// [`pov_core::pov_sim::PhaseSchedule`] to ordinary churn/partition
/// plans. Owns the whole membership regime.
#[derive(Clone, Debug, PartialEq)]
pub struct PhasesSpec {
    /// Fraction of hosts alive at tick 0 (the rest join later), in
    /// `(0, 1]`.
    pub start_alive: f64,
    /// `(kind, weight)` per `[[phase]]` table, in file order; weights
    /// are relative phase lengths (> 0).
    pub phases: Vec<(PhaseKind, f64)>,
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
/// applies to the protocol contenders only).
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
    /// Communication medium.
    pub medium: Medium,
    /// Per-hop delay model.
    pub delay: DelayModel,
    /// Protocols under test — every run executes *all* of them against
    /// the same churn/partition realization (one `[[protocol]]` table
    /// each, or a single `[protocol]` section).
    pub protocols: Vec<ProtocolKind>,
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
    /// Optional `[overlay]` maintenance layered over the base topology
    /// (HyParView-style partial views + SWIM-style failure detection,
    /// see `pov_overlay::OverlayMaintenance`). It changes what a
    /// scenario reports: protocols route over the evolving overlay.
    /// `seed` is always 0 here: the batch runner draws one per cell
    /// from the cell's root seed, so repetitions explore independent
    /// overlay evolutions.
    pub overlay: Option<OverlayConfig>,
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

    fn from_doc(doc: &Doc) -> Parsed<Scenario> {
        check_grammar(doc)?;
        let section = |name| Keys::of(doc.section(name).unwrap_or(&ABSENT));

        let scn = section("scenario");
        let name = scn.string("name", None)?.to_string();
        let description = scn.string("description", Some(""))?.to_string();
        scn.finish()?;

        let topo = section("topology");
        let topology = topo.choice("kind", None, "topology", TOPOLOGIES)?;
        let n: usize = topo.int("n", None)?;
        if n < topology.min_hosts() {
            let (name, min) = (topology.name(), topology.min_hosts());
            return Err(topo.err("n", format!("{name} needs at least {min} hosts, got {n}")));
        }
        let topology_seed = topo.int("seed", Some(1))?;
        topo.finish()?;

        let query = section("query");
        let aggregate = query.choice("aggregate", None, "aggregate", AGGREGATES)?;
        let c = query.positive("c", Some(8), "FM repetitions c must be >= 1")?;
        let hq: u32 = query.int("hq", Some(0))?;
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
        query.finish()?;

        let med = section("medium");
        let medium = med.choice("kind", Some("p2p"), "medium", MEDIA)?;
        let delay = med.choice("delay", Some("fixed"), "delay model", DELAYS)?(&med)?;
        // The protocols time a query in u32 ticks of D̂·δ, and D̂ (the
        // estimated diameter + 2) is at most hosts + 1.
        let delta = delay.bound();
        if delta.saturating_mul(effective_n as u64 + 1) > u32::MAX.into() {
            let key = match delay {
                DelayModel::Fixed(_) => "ticks",
                DelayModel::Uniform { .. } => "max",
            };
            let msg = format!(
                "delay bound {delta} times D̂ (up to hosts + 1 = {}) exceeds u32::MAX",
                effective_n + 1
            );
            return Err(med.err(key, msg));
        }
        med.finish()?;

        let mut protocols = Vec::new();
        for s in doc.sections_named("protocol") {
            let read = |p: &Keys| {
                let kind = p.choice("kind", None, "protocol", PROTOCOLS)?(p)?;
                if kind.reports_direct() && medium == Medium::Radio {
                    let medium = doc.section("medium").and_then(|m| m.get("kind"));
                    let line = medium.map_or(0, |e| e.line);
                    let msg = format!(
                        "{} reports straight to hq over the underlay, which needs a \
                         point-to-point medium, but [medium] kind = \"radio\" (line {line})",
                        kind.label()
                    );
                    return Err(p.err("kind", msg));
                }
                if matches!(kind, ProtocolKind::RandomizedReport { .. })
                    && aggregate != Aggregate::Count
                {
                    let entry = doc.section("query").and_then(|q| q.get("aggregate"));
                    let line = entry.map_or(0, |e| e.line);
                    let msg = format!(
                        "{} estimates count only, but [query] aggregate = \"{}\" (line {line})",
                        kind.label(),
                        aggregate.name()
                    );
                    return Err(p.err("kind", msg));
                }
                Ok(kind)
            };
            let kind = Keys::of(s).read(read)?;
            if protocols.contains(&kind) {
                let msg = format!("duplicate [[protocol]] table for {}", kind.label());
                return Err(ParseError::at(s.line, msg));
            }
            protocols.push(kind);
        }

        // [partition] may stand alone or co-occur with any [churn]
        // model; repeated [[partition]] tables overlay cascading cuts;
        // `[churn] model = "partition"` remains as legacy sugar for a
        // single cut.
        let mut partitions = doc
            .sections_named("partition")
            .map(|s| Keys::of(s).read(partition_spec))
            .collect::<Parsed<Vec<_>>>()?;
        let churn = Keys::opt(doc, "churn", |ch| {
            ch.choice("model", None, "churn model", CHURN_MODELS)?(ch, &mut partitions)
        })?;

        let run = section("run");
        let seeds = run.u64_list("seeds")?;
        if seeds.is_empty() {
            return Err(run.err("seeds", "need at least one seed"));
        }
        let repetitions = run.positive("repetitions", Some(1), "repetitions must be >= 1")?;
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
            medium,
            delay,
            protocols,
            churn: churn.unwrap_or(ChurnSpec::None),
            partitions,
            phases: Keys::opt(doc, "phases", |ph| phases(doc, ph))?,
            adversary: Keys::opt(doc, "adversary", adversary)?,
            continuous: Keys::opt(doc, "continuous", continuous)?,
            overlay: Keys::opt(doc, "overlay", overlay)?,
            workload: Keys::opt(doc, "workload", workload)?,
            seeds,
            repetitions,
        })
    }
}

// Readers of the optional sections, which `Scenario::from_doc` runs
// through `Keys::opt`.
fn phases(doc: &Doc, ph: &Keys<'_>) -> Parsed<PhasesSpec> {
    let phase = |pk: &Keys| {
        let kind = pk.choice("kind", None, "phase kind", PHASE_KINDS)?(pk)?;
        let weight = pk.real("weight", Some(1.0), (Excluded(0.0), Unbounded))?;
        Ok((kind, weight))
    };
    Ok(PhasesSpec {
        start_alive: ph.real("start_alive", Some(1.0), POSITIVE_FRACTION)?,
        phases: doc
            .sections_named("phase")
            .map(|s| Keys::of(s).read(phase))
            .collect::<Parsed<_>>()?,
    })
}

fn adversary(ad: &Keys<'_>) -> Parsed<AdversarySpec> {
    ad.choice("target", None, "adversary target", &[("fm_maxima", ())])?;
    let (start, until) = ad.window("start", "until", false)?;
    Ok(AdversarySpec {
        kills_per_wave: ad.positive("kills_per_wave", Some(1), "must be >= 1")?,
        budget: ad.positive("budget", None, "an adversary with no kills is [churn] none")?,
        start,
        until,
    })
}

fn continuous(co: &Keys<'_>) -> Parsed<ContinuousSpec> {
    Ok(ContinuousSpec {
        windows: co.positive("windows", None, "need at least one window")?,
    })
}

fn overlay(ov: &Keys<'_>) -> Parsed<OverlayConfig> {
    let d = OverlayConfig::default();
    let tick = |key, default| ov.positive(key, Some(default), "must be >= 1 tick");
    let slot = "active view needs >= 1 slot";
    Ok(OverlayConfig {
        active_degree: ov.positive("active_degree", Some(d.active_degree), slot)?,
        passive_degree: ov.int("passive_degree", Some(d.passive_degree))?,
        shuffle_every: tick("shuffle_every", d.shuffle_every)?,
        probe_every: tick("probe_every", d.probe_every)?,
        probe_timeout: tick("probe_timeout", d.probe_timeout)?,
        indirect_probes: ov.int("indirect_probes", Some(d.indirect_probes))?,
        suspicion_timeout: tick("suspicion_timeout", d.suspicion_timeout)?,
        false_positive: ov.real("false_positive", Some(d.false_positive), FRACTION)?,
        seed: 0,
    })
}

fn workload(wl: &Keys<'_>) -> Parsed<WorkloadSpec> {
    let queries = wl.positive("queries", None, "a workload needs at least one query")?;
    let span = wl.real("span", Some(1.0), (Excluded(0.0), Included(8.0)))?;
    let mut window = None;
    if wl.has("window") {
        let w = wl.real("window", None, POSITIVE_FRACTION)?;
        let slide = wl.real("slide", None, (Unbounded, Unbounded))?;
        if !(slide > 0.0 && slide < w) {
            let msg = format!("{slide} must satisfy 0 < slide < window {w}");
            return Err(wl.err("slide", msg));
        }
        let instances = wl.positive("instances", Some(2), "need at least one instance")?;
        window = Some((w, slide, instances));
    }
    Ok(WorkloadSpec {
        queries,
        span,
        window,
    })
}

/// How a section may occur in a `.scn` file.
enum Presence {
    Required,
    Optional,
    /// Only together with the named section.
    With(&'static str),
}

use Presence::{Optional, Required, With};

/// One section of the `.scn` grammar.
struct Rule {
    name: &'static str,
    presence: Presence,
    /// Whether the `[[name]]` form may repeat it.
    repeats: bool,
    /// Every key some variant of the section reads, space-separated.
    keys: &'static str,
    /// Sections it cannot share a file with, each with the reason.
    excludes: &'static [(&'static str, &'static str)],
}

impl Rule {
    const fn new(name: &'static str, presence: Presence, keys: &'static str) -> Rule {
        Rule {
            name,
            presence,
            repeats: false,
            keys,
            excludes: &[],
        }
    }

    const fn repeats(self) -> Rule {
        Rule {
            repeats: true,
            ..self
        }
    }

    const fn excludes(self, excludes: &'static [(&'static str, &'static str)]) -> Rule {
        Rule { excludes, ..self }
    }

    fn has_key(&self, key: &str) -> bool {
        self.keys.split(' ').any(|k| k == key)
    }
}

/// The `.scn` grammar: which sections exist, which are required or
/// repeat, the keys each may hold and the sections that exclude each
/// other. [`check_grammar`] holds a document to it before any section
/// reader runs; the readers in `Scenario::from_doc` own the values,
/// their defaults and which keys each variant reads.
const GRAMMAR: &[Rule] = &[
    Rule::new("scenario", Required, "name description"),
    Rule::new("topology", Required, "kind n seed"),
    Rule::new("query", Required, "aggregate c hq"),
    Rule::new("medium", Optional, "kind delay ticks min max"),
    Rule::new("protocol", Required, "kind k p rounds").repeats(),
    Rule::new(
        "churn",
        Optional,
        "model fraction from until clusters cluster_size period downtime heal radius at",
    ),
    Rule::new("partition", Optional, "fraction from heal").repeats(),
    Rule::new("phases", With("phase"), "start_alive").excludes(&[
        ("churn", "the phase schedule owns the whole regime"),
        ("partition", "script the cut as a 'partition' [[phase]]"),
    ]),
    Rule::new("phase", With("phases"), "kind fraction weight").repeats(),
    Rule::new(
        "adversary",
        Optional,
        "target kills_per_wave budget start until",
    )
    .excludes(&[("continuous", "dynamic kills cannot be replayed per window")]),
    Rule::new("continuous", Optional, "windows"),
    Rule::new(
        "overlay",
        Optional,
        "active_degree passive_degree shuffle_every probe_every probe_timeout indirect_probes \
         suspicion_timeout false_positive",
    ),
    Rule::new("workload", Optional, "queries span window slide instances").excludes(&[
        ("continuous", "a workload is already many queries"),
        ("adversary", "dynamic kills cannot be replayed per query"),
    ]),
    Rule::new("run", Required, "seeds repetitions"),
];

/// Hold `doc` to [`GRAMMAR`]: every section known, repeated only where
/// its rule allows and holding only its rule's keys; every required
/// section present and no excluded pair together.
fn check_grammar(doc: &Doc) -> Parsed<()> {
    let index = |name: &str| GRAMMAR.iter().position(|r| r.name == name);
    // Bit `i` marks `GRAMMAR[i]` as present in `doc`.
    let mut seen = 0u32;
    for s in &doc.sections {
        let Some(i) = index(&s.name) else {
            let known: Vec<&str> = GRAMMAR.iter().map(|r| r.name).collect();
            let known = known.join(", ");
            let msg = format!("unknown section [{}] (expected one of: {known})", s.name);
            return Err(ParseError::at(s.line, msg));
        };
        if s.array && !GRAMMAR[i].repeats {
            let msg = format!("[[{0}]] is not repeatable (write [{0}] instead)", s.name);
            return Err(ParseError::at(s.line, msg));
        }
        if let Some(e) = s.entries.iter().find(|e| !GRAMMAR[i].has_key(&e.key)) {
            let msg = format!("unknown key '{}' in [{}]", e.key, s.name);
            return Err(ParseError::at(e.line, msg));
        }
        seen |= 1 << i;
    }
    let present = |name: &str| index(name).is_some_and(|i| seen & 1 << i != 0);
    for (i, r) in GRAMMAR.iter().enumerate() {
        if seen & 1 << i == 0 {
            if let Required = r.presence {
                let msg = format!("missing required section [{}]", r.name);
                return Err(ParseError::at(0, msg));
            }
            continue;
        }
        let msg = match r.presence {
            With(other) if !present(other) => match index(other).map(|o| GRAMMAR[o].repeats) {
                Some(true) => format!("needs at least one [[{other}]] table"),
                _ => format!("needs a [{other}] header section"),
            },
            _ => match r.excludes.iter().find(|(other, _)| present(other)) {
                Some((other, why)) => format!("conflicts with [{other}]: {why}"),
                None => continue,
            },
        };
        let line = doc.section(r.name).map_or(0, |s| s.line);
        return Err(ParseError::at(line, format!("[{}] {msg}", r.name)));
    }
    Ok(())
}

type Parsed<T> = Result<T, ParseError>;

/// Reads the keys one value of an enumerated key (a protocol kind, a
/// phase kind, …) uses.
type Variant<T> = fn(&Keys<'_>) -> Parsed<T>;

const TOPOLOGIES: &[(&str, TopologyKind)] = &[
    ("gnutella", TopologyKind::Gnutella),
    ("random", TopologyKind::Random),
    ("powerlaw", TopologyKind::PowerLaw),
    ("grid", TopologyKind::Grid),
];

const AGGREGATES: &[(&str, Aggregate)] = &[
    ("count", Aggregate::Count),
    ("sum", Aggregate::Sum),
    ("min", Aggregate::Min),
    ("max", Aggregate::Max),
    ("avg", Aggregate::Average),
];

const MEDIA: &[(&str, Medium)] = &[("p2p", Medium::PointToPoint), ("radio", Medium::Radio)];

const TICK: &str = "a delay is at least 1 tick";

const DELAYS: &[(&str, Variant<DelayModel>)] = &[
    ("fixed", |m| {
        m.positive::<u32>("ticks", Some(1), TICK)
            .map(|t| DelayModel::Fixed(t.into()))
    }),
    ("uniform", |m| {
        let min: u32 = m.positive("min", Some(1), TICK)?;
        let max: u32 = m.int("max", None)?;
        if max < min {
            return Err(m.err("max", format!("delay max {max} < min {min}")));
        }
        let (min, max) = (min.into(), max.into());
        Ok(DelayModel::Uniform { min, max })
    }),
];

const PROTOCOLS: &[(&str, Variant<ProtocolKind>)] = &[
    ("wildfire", |_| {
        Ok(ProtocolKind::Wildfire(WildfireOpts::default()))
    }),
    ("spanning-tree", |_| Ok(ProtocolKind::SpanningTree)),
    ("dag", |p| {
        let k = p.positive("k", Some(2), "a DAG host needs at least one parent slot")?;
        Ok(ProtocolKind::Dag { k })
    }),
    ("allreport", |_| Ok(ProtocolKind::AllReport)),
    ("randomized-report", |p| {
        let p = p.real("p", None, FRACTION)?;
        Ok(ProtocolKind::RandomizedReport { p })
    }),
    ("gossip", |p| {
        p.int("rounds", None)
            .map(|rounds| ProtocolKind::Gossip { rounds })
    }),
];

/// The `[churn]` models. Legacy `model = "partition"` is sugar for one
/// `[partition]` section, so a model may add to the file's cuts.
type ChurnModel = fn(&Keys<'_>, &mut Vec<PartitionSpec>) -> Parsed<ChurnSpec>;

const CHURN_MODELS: &[(&str, ChurnModel)] = &[
    ("none", |_, _| Ok(ChurnSpec::None)),
    ("uniform", |ch, _| {
        let (fraction, window) = ch.spread()?;
        Ok(ChurnSpec::Uniform { fraction, window })
    }),
    ("flash-crowd", |ch, _| {
        let (fraction, window) = ch.spread()?;
        Ok(ChurnSpec::FlashCrowd { fraction, window })
    }),
    ("correlated", |ch, _| {
        Ok(ChurnSpec::Correlated {
            clusters: ch.int("clusters", None)?,
            cluster_size: ch.positive("cluster_size", None, "a cluster needs at least one host")?,
            window: ch.window("from", "until", false)?,
        })
    }),
    ("oscillating", |ch, _| {
        let period = ch.real("period", Some(0.5), POSITIVE_FRACTION)?;
        let below_period = (Excluded(0.0), Excluded(period));
        let downtime = ch.real("downtime", Some(period / 2.0), below_period)?;
        let (fraction, window) = ch.spread()?;
        // Phases are paced over one period from `from`: a longer period
        // puts the later hosts' first outage past `until`, and they
        // would never leave.
        if period > window.1 - window.0 {
            let msg = format!(
                "{period} exceeds the window [{}, {}]: hosts phased past `until` would never \
                 oscillate",
                window.0, window.1
            );
            return Err(ch.err("period", msg));
        }
        Ok(ChurnSpec::Oscillating {
            fraction,
            window,
            period,
            downtime,
        })
    }),
    ("partition", |ch, cuts| {
        if !cuts.is_empty() {
            let msg = "churn model 'partition' conflicts with the [partition] section; put the \
                       cut in [partition] and pick a real churn model";
            return Err(ch.err("model", msg));
        }
        cuts.push(partition_spec(ch)?);
        Ok(ChurnSpec::None)
    }),
    ("adversarial-root", |ch, _| {
        let radius = ch.int("radius", Some(1))?;
        let at = ch.real("at", Some(0.25), FRACTION)?;
        Ok(ChurnSpec::AdversarialRoot { radius, at })
    }),
];

/// `[[phase]]` kinds; a growth, shrink or partition `fraction` lies in
/// `(0, 1]`, the range [`pov_core::pov_sim::PhaseSchedule::then`]
/// asserts.
const PHASE_KINDS: &[(&str, Variant<PhaseKind>)] = &[
    ("growth", |k| Ok(PhaseKind::Growth { fraction: cut(k)? })),
    ("stable", |_| Ok(PhaseKind::Stable)),
    ("shrink", |k| Ok(PhaseKind::Shrink { fraction: cut(k)? })),
    ("partition", |k| {
        Ok(PhaseKind::Partition { fraction: cut(k)? })
    }),
    ("heal", |_| Ok(PhaseKind::Heal)),
];

/// The share of hosts a growth, shrink or partition phase moves.
fn cut(phase: &Keys<'_>) -> Parsed<f64> {
    phase.real("fraction", None, POSITIVE_FRACTION)
}

/// Read the cut keys (`fraction`, `from`, `heal`) of a `[partition]`
/// section — or of the legacy `[churn] model = "partition"` spelling.
fn partition_spec(keys: &Keys<'_>) -> Parsed<PartitionSpec> {
    let (from, heal) = keys.window("from", "heal", true)?;
    let fraction = keys.real("fraction", None, FRACTION)?;
    Ok(PartitionSpec {
        fraction,
        from,
        heal,
    })
}

/// Stands in for a section the file leaves out: its reader takes every
/// default.
static ABSENT: Section = Section {
    name: String::new(),
    line: 0,
    array: false,
    entries: Vec::new(),
};

/// The interval a real key must lie in.
type Interval = (Bound<f64>, Bound<f64>);

const FRACTION: Interval = (Included(0.0), Included(1.0));
const POSITIVE_FRACTION: Interval = (Excluded(0.0), Included(1.0));

/// Typed, consumption-tracked access to one section's keys: every key a
/// reader touches is marked, and [`Keys::finish`] rejects leftovers so a
/// key the chosen variant ignores cannot pass silently.
struct Keys<'a> {
    section: &'a Section,
    /// Bit `i` marks entry `i` as read; [`check_grammar`] bounds a
    /// section's entries by its rule's key list, well below 64.
    used: Cell<u64>,
}

impl<'a> Keys<'a> {
    fn of(section: &'a Section) -> Keys<'a> {
        let used = Cell::new(0);
        Keys { section, used }
    }

    /// Read the optional section `name` with `f`, or `None` when the
    /// file leaves it out.
    fn opt<T>(doc: &'a Doc, name: &str, f: impl FnOnce(&Self) -> Parsed<T>) -> Parsed<Option<T>> {
        doc.section(name).map(|s| Keys::of(s).read(f)).transpose()
    }

    /// Run `f` over the section, then [`Keys::finish`] it.
    fn read<T>(self, f: impl FnOnce(&Self) -> Parsed<T>) -> Parsed<T> {
        let value = f(&self)?;
        self.finish()?;
        Ok(value)
    }

    fn has(&self, key: &str) -> bool {
        self.section.get(key).is_some()
    }

    fn entry(&self, key: &str) -> Option<&'a Entry> {
        let i = self.section.entries.iter().position(|e| e.key == key)?;
        self.used.set(self.used.get() | 1 << i);
        Some(&self.section.entries[i])
    }

    /// An error on `key`'s line (the header's when `key` is absent).
    fn err(&self, key: &str, msg: impl Into<String>) -> ParseError {
        let line = self.section.get(key).map_or(self.section.line, |e| e.line);
        let msg = format!("[{}] {key}: {}", self.section.name, msg.into());
        ParseError::at(line, msg)
    }

    fn missing(&self, key: &str, what: &str) -> ParseError {
        self.err(key, format!("missing required key ({what})"))
    }

    /// A string key, or `default` when absent (`None`: required).
    fn string(&self, key: &str, default: Option<&'a str>) -> Parsed<&'a str> {
        match self.entry(key).map(|e| &e.value) {
            None => default.ok_or_else(|| self.missing(key, "string")),
            Some(Value::Str(s)) => Ok(s),
            Some(v) => Err(self.err(key, format!("expected a string, got {}", v.type_name()))),
        }
    }

    /// An enumerated string key: the value paired with the name it
    /// spells. `default` names the pair an absent key takes (`None`:
    /// required); the names list the alternatives in the error.
    fn choice<T: Copy>(
        &self,
        key: &str,
        default: Option<&'a str>,
        what: &str,
        choices: &[(&'static str, T)],
    ) -> Parsed<T> {
        let name = self.string(key, default)?;
        let Some(&(_, value)) = choices.iter().find(|(n, _)| *n == name) else {
            let names: Vec<&str> = choices.iter().map(|(n, _)| *n).collect();
            let msg = format!("unknown {what} '{name}' ({})", names.join("|"));
            return Err(self.err(key, msg));
        };
        Ok(value)
    }

    /// `v`, the value of `key` or an element of its list, as a `u64`.
    fn unsigned(&self, key: &str, v: &Value) -> Parsed<u64> {
        match *v {
            Value::Int(i) if i >= 0 => Ok(i as u64),
            Value::Int(i) => Err(self.err(key, format!("must be non-negative, got {i}"))),
            ref v => Err(self.err(key, format!("expected an integer, got {}", v.type_name()))),
        }
    }

    /// An integer key as `T`, or `default` when absent (`None`: required).
    fn int<T: TryFrom<u64>>(&self, key: &str, default: Option<T>) -> Parsed<T> {
        let Some(e) = self.entry(key) else {
            return default.ok_or_else(|| self.missing(key, "integer"));
        };
        let v = self.unsigned(key, &e.value)?;
        let max = || format!("{v} exceeds {}::MAX", std::any::type_name::<T>());
        T::try_from(v).map_err(|_| self.err(key, max()))
    }

    /// [`Keys::int`] for a count of at least 1; `why` explains a 0.
    fn positive<T: TryFrom<u64>>(&self, key: &str, default: Option<T>, why: &str) -> Parsed<T> {
        match self.entry(key) {
            Some(e) if e.value == Value::Int(0) => Err(self.err(key, why)),
            _ => self.int(key, default),
        }
    }

    /// A real key in `range`, or `default` when absent (`None`: required).
    fn real(&self, key: &str, default: Option<f64>, range: Interval) -> Parsed<f64> {
        let v = match self.entry(key).map(|e| &e.value) {
            None => default.ok_or_else(|| self.missing(key, "number")),
            Some(&Value::Float(f)) => Ok(f),
            Some(&Value::Int(i)) => Ok(i as f64),
            Some(v) => Err(self.err(key, format!("expected a number, got {}", v.type_name()))),
        }?;
        if range.contains(&v) {
            return Ok(v);
        }
        let closed = |b: &Bound<f64>| matches!(b, Included(_));
        let num = |b: Bound<f64>| match b {
            Included(x) | Excluded(x) => x,
            Unbounded => f64::INFINITY,
        };
        let msg = match range {
            (lo, Unbounded) => format!("{v} must be > {}", num(lo)),
            (lo, hi) => {
                let open = if closed(&lo) { '[' } else { '(' };
                let close = if closed(&hi) { ']' } else { ')' };
                format!("{v} outside {open}{}, {}{close}", num(lo), num(hi))
            }
        };
        Err(self.err(key, msg))
    }

    /// A `[lo_key, hi_key]` window of fractions, `[0, 1]` by default, with
    /// `lo < hi` when `strict`; an inverted pair is blamed on `hi_key`.
    fn window(&self, lo_key: &str, hi_key: &str, strict: bool) -> Parsed<(f64, f64)> {
        let lo = self.real(lo_key, Some(0.0), FRACTION)?;
        let hi = self.real(hi_key, Some(1.0), FRACTION)?;
        if lo < hi || (lo == hi && !strict) {
            return Ok((lo, hi));
        }
        let op = if strict { "<" } else { "<=" };
        let msg = format!("window [{lo}, {hi}] must satisfy {lo_key} {op} {hi_key}");
        Err(self.err(hi_key, msg))
    }

    /// The `fraction` and `[from, until]` a spread-out churn model reads.
    fn spread(&self) -> Parsed<(f64, (f64, f64))> {
        let fraction = self.real("fraction", None, FRACTION)?;
        Ok((fraction, self.window("from", "until", false)?))
    }

    fn u64_list(&self, key: &str) -> Parsed<Vec<u64>> {
        let items = match self.entry(key).map(|e| &e.value) {
            None => return Err(self.missing(key, "list of integers")),
            Some(Value::List(items)) => items,
            Some(v) => return Err(self.err(key, format!("expected a list, got {}", v.type_name()))),
        };
        items.iter().map(|v| self.unsigned(key, v)).collect()
    }

    /// Reject keys the reader left unread. [`check_grammar`] has already
    /// refused keys foreign to the section, so a leftover is one of its
    /// keys that the chosen variant does not use.
    fn finish(&self) -> Parsed<()> {
        let used = self.used.get();
        match self
            .section
            .entries
            .iter()
            .enumerate()
            .find(|(i, _)| used & 1 << i == 0)
        {
            Some((_, e)) => Err(self.err(&e.key, "not used by the variant this section selects")),
            None => Ok(()),
        }
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
        assert_eq!(
            s.protocols,
            vec![ProtocolKind::Wildfire(WildfireOpts::default())]
        );
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
                ProtocolKind::Wildfire(WildfireOpts::default()),
                ProtocolKind::SpanningTree,
                ProtocolKind::Dag { k: 3 },
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
        // [phases] composes with [continuous] — long arcs run as
        // window streams.
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
        // rejects the leftover as a key this variant does not use.
        let err = Scenario::from_str(
            &PHASED.replace("kind = \"stable\"", "kind = \"stable\"\nfraction = 0.2"),
        )
        .expect_err("stable fraction");
        assert!(
            err.msg
                .contains("[phase] fraction: not used by the variant"),
            "{}",
            err.msg
        );
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
            Some(OverlayConfig {
                seed: 0,
                ..OverlayConfig::default()
            })
        );
        // Explicit knobs.
        let s = Scenario::from_str(&format!(
            "{GOOD}\n[overlay]\nactive_degree = 3\npassive_degree = 8\nshuffle_every = 6\n\
             probe_every = 2\nprobe_timeout = 1\nindirect_probes = 1\nsuspicion_timeout = 3\n\
             false_positive = 0.05"
        ))
        .expect("valid");
        let cfg = s.overlay.unwrap();
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
        let s = Scenario::from_str(&format!("{GOOD}\n[continuous]\nwindows = 4")).expect("valid");
        assert_eq!(s.continuous, Some(ContinuousSpec { windows: 4 }));
        let err = Scenario::from_str(&format!("{GOOD}\n[continuous]\nwindows = 0"))
            .expect_err("zero windows");
        assert!(err.msg.contains("at least one window"), "{}", err.msg);
    }

    /// Replace every line of GOOD whose key matches the mutation's first
    /// key — only inside `[section]` when the mutation starts with that
    /// prefix — by the mutation's lines, and expect a parse error; return
    /// the mutated text and the error.
    fn fails_with(mutation: &str, needle: &str) -> (String, ParseError) {
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
        (text, err)
    }

    /// The 1-based number of the first line of `text` equal to `line`.
    fn line_of(text: &str, line: &str) -> usize {
        text.lines().position(|l| l == line).expect("line present") + 1
    }

    #[test]
    fn rejects_bad_values_with_context() {
        fails_with("kind = \"torus\"", "unknown");
        fails_with("aggregate = \"median\"", "unknown aggregate");
        // Each choice has one spelling, and the error lists them.
        fails_with(
            "[topology] kind = \"power-law\"",
            "[topology] kind: unknown topology 'power-law' (gnutella|random|powerlaw|grid)",
        );
        fails_with(
            "[protocol] kind = \"spanningtree\"",
            "[protocol] kind: unknown protocol 'spanningtree' \
             (wildfire|spanning-tree|dag|allreport|randomized-report|gossip)",
        );
        fails_with(
            "aggregate = \"average\"",
            "[query] aggregate: unknown aggregate 'average' (count|sum|min|max|avg)",
        );
        fails_with(
            "[medium] kind = \"point-to-point\"",
            "[medium] kind: unknown medium 'point-to-point' (p2p|radio)",
        );
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
        // A period longer than the window would leave the hosts phased
        // past `until` up for good: fewer than `fraction` oscillate.
        let text = GOOD
            .replace("model = \"partition\"", "model = \"oscillating\"")
            .replace("heal = 0.6", "until = 0.3\nperiod = 0.5");
        let err = Scenario::from_str(&text).expect_err("period longer than the window");
        let want = "[churn] period: 0.5 exceeds the window [0.1, 0.3]";
        assert!(err.msg.contains(want), "{}", err.msg);
        assert_eq!(err.line, line_of(&text, "period = 0.5"));
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
    fn window_errors_blame_the_offending_key_on_its_own_line() {
        // An out-of-range end names itself, not the window's first key
        // or the section header.
        let (text, err) = fails_with(
            "[churn] model = \"uniform\"\nuntil = 1.5",
            "[churn] until: 1.5 outside [0, 1]",
        );
        assert_eq!(err.line, line_of(&text, "until = 1.5"));
        let (text, err) = fails_with("heal = 1.5", "[churn] heal: 1.5 outside [0, 1]");
        assert_eq!(err.line, line_of(&text, "heal = 1.5"));
        // An inverted pair is blamed on its second key.
        let (text, err) = fails_with(
            "from = 0.9",
            "[churn] heal: window [0.9, 0.6] must satisfy from < heal",
        );
        assert_eq!(err.line, line_of(&text, "heal = 0.6"));
        let text = format!(
            "{GOOD}\n[adversary]\ntarget = \"fm_maxima\"\nbudget = 8\nstart = 0.9\nuntil = 0.2"
        );
        let err = Scenario::from_str(&text).expect_err("inverted adversary window");
        assert!(
            err.msg
                .contains("[adversary] until: window [0.9, 0.2] must satisfy start <= until"),
            "{}",
            err.msg
        );
        assert_eq!(err.line, line_of(&text, "until = 0.2"));
    }

    #[test]
    fn keys_the_chosen_variant_ignores_are_pointed_errors() {
        // `slide` belongs to [workload], but only a windowed workload
        // reads it; `ticks` belongs to [medium], but only a fixed delay
        // reads it. Neither is an unknown key.
        let text = format!("{GOOD}\n[workload]\nqueries = 2\nslide = 0.3");
        let err = Scenario::from_str(&text).expect_err("slide without window");
        assert!(
            err.msg.contains("[workload] slide: not used"),
            "{}",
            err.msg
        );
        assert!(!err.msg.contains("unknown"), "{}", err.msg);
        assert_eq!(err.line, line_of(&text, "slide = 0.3"));
        let (text, err) = fails_with("[medium] max = 2\nticks = 3", "[medium] ticks: not used");
        assert!(!err.msg.contains("unknown"), "{}", err.msg);
        assert_eq!(err.line, line_of(&text, "ticks = 3"));
        // A key no variant of the section reads stays unknown.
        fails_with(
            "[medium] max = 2\nradius = 3",
            "unknown key 'radius' in [medium]",
        );
    }

    #[test]
    fn u32_keys_reject_values_that_would_wrap() {
        // 2³² + 2 used to be cast `as u32` and run as 2.
        fails_with(
            "[protocol] kind = \"gossip\"\nrounds = 4294967298",
            "[protocol] rounds: 4294967298 exceeds u32::MAX",
        );
        fails_with(
            "[churn] model = \"adversarial-root\"\nradius = 4294967298",
            "[churn] radius: 4294967298 exceeds u32::MAX",
        );
        fails_with("hq = 4294967298", "[query] hq: 4294967298 exceeds u32::MAX");
        // A delay above u32 used to wrap D̂·δ at run time into a shorter
        // deadline, i.e. a different query.
        fails_with(
            "[medium] delay = \"fixed\"\nticks = 5_000_000_000",
            "[medium] ticks: 5000000000 exceeds u32::MAX",
        );
        fails_with(
            "[medium] max = 5_000_000_000",
            "[medium] max: 5000000000 exceeds u32::MAX",
        );
    }

    #[test]
    fn delay_whose_deadline_would_overflow_is_a_line_numbered_error() {
        // GOOD builds 400 hosts, so D̂·δ fits u32 up to δ = ⌊u32::MAX / 401⌋.
        let fits = u32::MAX / 401;
        let text = GOOD.replace("max = 2\n", &format!("max = {fits}\n"));
        assert!(Scenario::from_str(&text).is_ok());
        let over = format!("max = {}", fits + 1);
        let (text, err) = fails_with(&format!("[medium] {over}"), "[medium] max: delay bound");
        assert_eq!(err.line, line_of(&text, &over));
        let (text, err) = fails_with(
            "[medium] delay = \"fixed\"\nticks = 4000000000",
            "[medium] ticks: delay bound 4000000000 times D̂ (up to hosts + 1 = 401) exceeds u32::MAX",
        );
        assert_eq!(err.line, line_of(&text, "ticks = 4000000000"));
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
        // D̂'s slack, the window length and the trace cadence are
        // constants: a file that still sets one is told so on its line.
        let (text, err) = fails_with(
            "[query] c = 16\nd_hat_slack = 2",
            "unknown key 'd_hat_slack'",
        );
        assert_eq!(err.line, line_of(&text, "d_hat_slack = 2"));
        let text = format!("{GOOD}\n[continuous]\nwindows = 2\nwindow_factor = 1.0");
        let err = Scenario::from_str(&text).expect_err("window_factor");
        assert!(
            err.msg
                .contains("unknown key 'window_factor' in [continuous]"),
            "{}",
            err.msg
        );
        assert_eq!(err.line, line_of(&text, "window_factor = 1.0"));
        let text = format!("{GOOD}\n[telemetry]\nsummary_every = 8");
        let err = Scenario::from_str(&text).expect_err("telemetry");
        assert!(
            err.msg.contains("unknown section [telemetry]"),
            "{}",
            err.msg
        );
        assert_eq!(err.line, line_of(&text, "[telemetry]"));
    }

    /// The grammar docs cannot drift from [`GRAMMAR`]: every `key = …`
    /// line a fenced `toml` or `ini` block puts under `[s]` or `[[s]]`
    /// is a key of `s`, and every key of `s` appears in some block under
    /// `[s]`, as a key line or as a word of a comment.
    #[test]
    fn documented_grammar_matches_table() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut documented: Vec<(String, String)> = Vec::new();
        for doc in ["README.md", "docs/OVERLAY.md", "docs/OBSERVABILITY.md"] {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).expect(doc);
            let (mut fenced, mut section) = (false, String::new());
            for line in text.lines() {
                if let Some(lang) = line.trim().strip_prefix("```") {
                    fenced = !fenced && (lang == "toml" || lang == "ini");
                    section.clear();
                    continue;
                }
                if !fenced {
                    continue;
                }
                let (code, comment) = line.split_once('#').unwrap_or((line, ""));
                let code = code.trim();
                if code.starts_with('[') {
                    section = code.trim_matches(['[', ']']).to_string();
                } else if let Some((key, _)) = code.split_once('=') {
                    let key = key.trim();
                    let rule = GRAMMAR.iter().find(|r| r.name == section);
                    assert!(
                        rule.is_some_and(|r| r.has_key(key)),
                        "{doc}: `{key}` is not a key of [{section}]"
                    );
                    documented.push((section.clone(), key.to_string()));
                }
                for word in comment.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                    documented.push((section.clone(), word.to_string()));
                }
            }
        }
        for rule in GRAMMAR {
            for key in rule.keys.split(' ') {
                assert!(
                    documented.contains(&(rule.name.to_string(), key.to_string())),
                    "[{}] {key} appears in no documented block",
                    rule.name
                );
            }
        }
    }

    #[test]
    fn rejects_missing_required() {
        let err = Scenario::from_str("[scenario]\nname = \"x\"").expect_err("missing");
        assert!(err.msg.contains("missing required section"), "{}", err.msg);
    }

    #[test]
    fn radio_rejects_protocols_that_report_over_the_underlay() {
        // GOOD runs on a radio medium; a direct-report protocol there
        // used to parse and then send underlay reports the medium
        // cannot carry.
        for (kind, extra, label) in [
            ("allreport", "", "ALLREPORT"),
            ("randomized-report", "\np = 0.5", "RANDOMIZEDREPORT(p=0.5)"),
        ] {
            let (text, err) = fails_with(
                &format!("[protocol] kind = \"{kind}\"{extra}"),
                &format!(
                    "[protocol] kind: {label} reports straight to hq over the underlay, \
                     which needs a point-to-point medium, but [medium] kind = \"radio\" \
                     (line {})",
                    line_of(GOOD, "kind = \"radio\"")
                ),
            );
            assert_eq!(err.line, line_of(&text, &format!("kind = \"{kind}\"")));
            // Over point-to-point, the same protocol parses.
            let p2p = text.replace("kind = \"radio\"", "kind = \"p2p\"");
            assert!(Scenario::from_str(&p2p).is_ok(), "{kind}");
        }
    }

    #[test]
    fn randomized_report_rejects_aggregates_other_than_count() {
        // RANDOMIZEDREPORT estimates a count: a file asking it for any
        // other aggregate is refused at parse, before a run can start.
        let text = GOOD.replace("kind = \"radio\"", "kind = \"p2p\"").replace(
            "kind = \"wildfire\"",
            "kind = \"randomized-report\"\np = 0.5",
        );
        for name in ["sum", "min", "max", "avg"] {
            let text = text.replace("aggregate = \"count\"", &format!("aggregate = \"{name}\""));
            let err = Scenario::from_str(&text).expect_err("should fail");
            assert_eq!(
                err.msg,
                format!(
                    "[protocol] kind: RANDOMIZEDREPORT(p=0.5) estimates count only, \
                     but [query] aggregate = \"{name}\" (line {})",
                    line_of(&text, &format!("aggregate = \"{name}\""))
                )
            );
            assert_eq!(err.line, line_of(&text, "kind = \"randomized-report\""));
        }
        assert!(Scenario::from_str(&text).is_ok(), "a count parses");
    }

    #[test]
    fn protocol_parameters() {
        for (kind, extra, want) in [
            ("dag", "k = 3", ProtocolKind::Dag { k: 3 }),
            (
                "randomized-report",
                "p = 0.5",
                ProtocolKind::RandomizedReport { p: 0.5 },
            ),
            ("gossip", "rounds = 40", ProtocolKind::Gossip { rounds: 40 }),
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
