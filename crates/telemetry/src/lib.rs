//! Deterministic telemetry for the simulation engine: recorders that
//! capture what happens *inside* a wave, and exporters that render the
//! recordings for humans and tools.
//!
//! The engine's [`TelemetrySink`](pov_sim::TelemetrySink) trait is the
//! tap; this crate supplies the standard sinks and everything
//! downstream of them:
//!
//! * [`TickRecorder`] — the full per-tick time series of a run
//!   ([`TickSeries`]): alive count, queue depth, deliveries, drops,
//!   sends, churn, timers and the wave frontier per active tick, plus
//!   optional periodic protocol-state samples (active hosts, sketch
//!   mass).
//! * [`export`] — pure renderers from a [`TraceDoc`]: deterministic
//!   JSONL ([`TRACE_SCHEMA`]), Chrome trace-event JSON (loads in
//!   Perfetto / `chrome://tracing`), and a plain-text per-phase
//!   summary table.
//!
//! Everything here inherits the engine's determinism contract: output
//! is keyed by virtual ticks only and is byte-identical across thread
//! counts and platforms. See `docs/OBSERVABILITY.md` for schemas and
//! the overhead budget.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
pub mod fmt;
mod record;

pub use export::{CellTrace, PhaseSpan, TraceDoc};
pub use record::{SummarySample, TickRecorder, TickSeries};

/// Schema tag stamped on every trace export (JSONL header, Chrome
/// document, summary table).
pub const TRACE_SCHEMA: &str = "pov_trace/v1";

#[cfg(test)]
mod smoke {
    use super::*;
    use pov_sim::{Medium, NodeLogic, SimBuilder, Time};
    use pov_topology::HostId;

    struct Forward {
        seen: bool,
    }

    impl NodeLogic for Forward {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut pov_sim::Ctx<'_, ()>) {
            if ctx.me() == HostId(0) {
                self.seen = true;
                ctx.broadcast(());
            }
        }
        fn on_message(&mut self, ctx: &mut pov_sim::Ctx<'_, ()>, from: HostId, _: ()) {
            if !self.seen {
                self.seen = true;
                ctx.broadcast_except(Some(from), ());
            }
        }
    }

    #[test]
    fn recorder_to_exporter_round_trip() {
        let mut rec = TickRecorder::new();
        let mut sim = SimBuilder::new(pov_topology::generators::special::cycle(12))
            .medium(Medium::PointToPoint)
            .telemetry(&mut rec)
            .build(|_| Forward { seen: false });
        sim.run_until(Time(40));
        let sent = sim.metrics().messages_sent;
        drop(sim);
        let series = rec.finish();
        assert_eq!(series.num_hosts, 12);
        assert_eq!(series.sent(), sent);
        assert!(series.peak_frontier() >= 1);
        let doc = TraceDoc {
            name: "smoke".into(),
            phases: vec![],
            cells: vec![CellTrace {
                protocol: "FLOOD".into(),
                seed: 0,
                rep: 0,
                window: 0,
                offset: 0,
                series,
            }],
        };
        let a = export::jsonl(&doc);
        let b = export::jsonl(&doc);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\": \"pov_trace/v1\""));
        assert!(export::chrome(&doc).contains("traceEvents"));
        assert!(export::summary(&doc).contains("run"));
    }
}
