//! Property tests for the batch executor's determinism contract: for
//! any scenario — any churn regime, stacked partition, phased
//! membership arc, protocol list, one-shot or continuous — and any
//! thread count, the parallel report, down to its JSON bytes, equals
//! the sequential one.

use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::{Aggregate, ProtocolKind};
use pov_core::pov_sim::{DelayModel, Medium, PhaseKind};
use pov_core::pov_topology::generators::TopologyKind;
use pov_scenario::{
    run_batch, AdversarySpec, ChurnSpec, ContinuousSpec, PartitionSpec, PhasesSpec, Scenario,
};
use proptest::prelude::*;

fn scenario(topology_seed: u64, base_seed: u64, churn_pick: u8, proto_pick: u8) -> Scenario {
    let churn = match churn_pick % 8 {
        0 | 7 => ChurnSpec::None,
        1 => ChurnSpec::Uniform {
            fraction: 0.15,
            window: (0.0, 1.0),
        },
        2 => ChurnSpec::FlashCrowd {
            fraction: 0.2,
            window: (0.0, 0.5),
        },
        3 => ChurnSpec::Oscillating {
            fraction: 0.2,
            window: (0.0, 1.0),
            period: 0.5,
            downtime: 0.2,
        },
        4 => ChurnSpec::AdversarialRoot { radius: 1, at: 0.3 },
        5 => ChurnSpec::Uniform {
            fraction: 0.1,
            window: (0.2, 0.9),
        },
        // Pick 6 stacks the dynamic sketch adversary on uniform churn.
        _ => ChurnSpec::Uniform {
            fraction: 0.1,
            window: (0.0, 1.0),
        },
    };
    // Pick 7 scripts the whole regime as a phased membership arc — the
    // PhaseSchedule lowering must be as thread-agnostic as hand churn.
    let phases = (churn_pick % 8 == 7).then(|| PhasesSpec {
        start_alive: 0.7,
        phases: vec![
            (PhaseKind::Growth { fraction: 0.4 }, 1.0),
            (PhaseKind::Stable, 1.5),
            (PhaseKind::Shrink { fraction: 0.5 }, 1.0),
            (PhaseKind::Heal, 0.5),
        ],
    });
    let adversary = (churn_pick % 8 == 6).then_some(AdversarySpec {
        kills_per_wave: 2,
        budget: 8,
        start: 0.0,
        until: 0.8,
    });
    // Odd churn picks also layer a partition over the regime (except
    // the phased pick, whose schedule owns cuts itself).
    let partitions = Vec::from_iter((churn_pick % 2 == 1 && phases.is_none()).then_some(
        PartitionSpec {
            fraction: 0.3,
            from: 0.1,
            heal: 0.7,
        },
    ));
    let protocols = match proto_pick % 4 {
        0 => vec![ProtocolKind::Wildfire(WildfireOpts::default())],
        1 => vec![ProtocolKind::SpanningTree],
        2 => vec![ProtocolKind::Dag { k: 2 }],
        _ => vec![
            ProtocolKind::Wildfire(WildfireOpts::default()),
            ProtocolKind::SpanningTree,
        ],
    };
    // One pick in four runs as a short continuous registration — unless
    // the dynamic adversary is in play (the executor rejects replaying
    // a dynamic kill schedule into window-local plans).
    let continuous =
        (proto_pick % 4 == 3 && adversary.is_none()).then_some(ContinuousSpec { windows: 2 });
    Scenario {
        name: "prop".into(),
        description: String::new(),
        topology: TopologyKind::Random,
        n: 50,
        topology_seed,
        aggregate: Aggregate::Count,
        c: 8,
        hq: 0,
        medium: Medium::PointToPoint,
        delay: DelayModel::Fixed(1),
        protocols,
        churn,
        partitions,
        phases,
        adversary,
        continuous,
        overlay: None,
        workload: None,
        seeds: vec![base_seed, base_seed ^ 0xabcd, base_seed.wrapping_add(7)],
        repetitions: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance gate: any thread count, byte-identical JSON.
    #[test]
    fn parallel_report_equals_sequential(
        topo_seed in 1u64..500,
        base_seed in 0u64..10_000,
        churn_pick in 0u8..8,
        proto_pick in 0u8..4,
        threads in 2usize..9,
    ) {
        let scn = scenario(topo_seed, base_seed, churn_pick, proto_pick);
        let sequential = run_batch(&scn, 1);
        let parallel = run_batch(&scn, threads);
        for (a, b) in sequential.protocols.iter().zip(&parallel.protocols) {
            prop_assert_eq!(&a.records, &b.records);
        }
        prop_assert_eq!(
            sequential.to_json().render(),
            parallel.to_json().render()
        );
    }

    /// Oversubscription (more threads than matrix cells) still covers
    /// every cell exactly once.
    #[test]
    fn more_threads_than_jobs(topo_seed in 1u64..100, threads in 7usize..32) {
        let mut scn = scenario(topo_seed, 1, 0, 0);
        scn.seeds = vec![1, 2];
        scn.repetitions = 1;
        let report = run_batch(&scn, threads);
        prop_assert_eq!(report.runs, 2);
        let cells: Vec<(u64, usize)> =
            report.records().iter().map(|r| (r.seed, r.rep)).collect();
        prop_assert_eq!(cells, vec![(1, 0), (2, 0)]);
    }
}
