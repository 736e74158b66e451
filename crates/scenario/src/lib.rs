//! Declarative scenarios for the Price-of-Validity simulator.
//!
//! The paper evaluates under exactly one dynamism model — `R` hosts
//! removed at a uniform rate (§6.2). This crate opens the regime space
//! and makes batch evaluation a first-class, machine-readable artifact:
//!
//! * [`Scenario`] — a complete experiment description (topology, query,
//!   medium, delay, *a list of* protocols, churn regime, optional
//!   partition and continuous-window specs, seed set, repetitions),
//!   loadable from plain-text `.scn` files (see `scenarios/` at the
//!   workspace root and the README's "Scenario files" section) through
//!   a small self-contained [`parse`] layer — the offline environment
//!   has no crates.io, so the grammar is hand-rolled like the
//!   `vendor/` stand-ins. Every scenario lowers to one
//!   `pov_core::pov_protocols::RunPlan` per batch cell;
//! * [`ChurnSpec`] — regimes beyond the paper: flash-crowd join bursts,
//!   correlated cluster failures, oscillating fail-and-rejoin cycles,
//!   an adaptive adversary nuking the root's neighbourhood — freely
//!   composed with a [`PartitionSpec`] cut that heals and an
//!   [`AdversarySpec`] *dynamic* sketch-targeting attacker (the
//!   `[adversary]` section), which is polled mid-run rather than
//!   pre-materialized;
//! * [`run_batch`] — a `std::thread::scope` executor fanning the
//!   `seeds × repetitions` matrix across workers, with per-cell
//!   [`rand::rngs::SmallRng`] streams and order-independent
//!   aggregation: reports carry one [`ProtocolSection`] per contender
//!   (a paired comparison — every protocol sees the same churn
//!   realization) and are **byte-identical** for any thread count
//!   (property-tested);
//! * [`Json`] — a deterministic JSON writer for [`Report`]s and `repro
//!   --json`, so the accuracy/cost trajectory is diffable across PRs;
//! * [`trace_batch`] — the telemetry runner behind `repro trace`:
//!   re-executes the same batch matrix with a `pov_telemetry` recorder
//!   attached to every cell and assembles a
//!   [`pov_telemetry::TraceDoc`] for the JSONL / Chrome / summary
//!   exporters, with the same byte-identical-across-threads guarantee
//!   as the reports. Every recording samples protocol state at a fixed
//!   cadence; nothing in a `.scn` file tunes it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod parse;
pub mod run;
pub mod spec;
pub mod trace;

pub use json::{table_to_json, Json};
pub use parse::ParseError;
pub use run::{
    run_batch, Agg, PairedDiff, PairedSection, ProtocolSection, Report, RunRecord,
    WorkloadCellStats, WorkloadRecord, WorkloadSection,
};
pub use spec::{
    AdversarySpec, ChurnSpec, ContinuousSpec, PartitionSpec, PhasesSpec, Scenario, WorkloadSpec,
};
pub use trace::trace_batch;

#[cfg(test)]
mod smoke {
    use super::*;

    #[test]
    fn crate_root_smoke() {
        let scn: Scenario = r#"
[scenario]
name = "smoke"
[topology]
kind = "random"
n = 60
[query]
aggregate = "count"
[protocol]
kind = "wildfire"
[churn]
model = "uniform"
fraction = 0.1
[run]
seeds = [1, 2]
repetitions = 2
"#
        .parse()
        .expect("valid scenario");
        let a = run_batch(&scn, 1);
        let b = run_batch(&scn, 4);
        assert_eq!(a.to_json().render(), b.to_json().render());
        assert_eq!(a.runs, 4);
    }
}
