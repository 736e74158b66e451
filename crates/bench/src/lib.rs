//! Shared scale presets for the benchmark harness.
//!
//! Every paper experiment exists in two sizes:
//!
//! * [`Scale::Quick`] — minutes-not-hours defaults used by `repro`
//!   without flags (topologies around a few thousand hosts; same sweep
//!   *shapes* as the paper);
//! * [`Scale::Paper`] — the full §6 sizes (Gnutella 39,046; Random /
//!   Power-law 40K; Grid 100×100), selected with `repro --paper`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine_bench;
pub mod mux;

use pov_core::experiments::{
    ablation, adversary, fig06, fig10, fig11, fig12, fig13, overlay, price, validity,
};
use pov_core::pov_protocols::Aggregate;
use pov_core::pov_topology::generators::TopologyKind;

/// Experiment size preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down sweeps (default).
    Quick,
    /// The paper's §6 sizes.
    Paper,
}

impl Scale {
    /// Fig 6 configuration.
    pub fn fig06(self) -> fig06::Config {
        match self {
            Scale::Paper => fig06::Config::paper(),
            Scale::Quick => fig06::Config {
                set_sizes: vec![1 << 10, 1 << 12],
                c_values: vec![1, 2, 4, 8, 12, 16],
                trials: 10,
                seed: 2004,
            },
        }
    }

    /// Fig 7 (count on Gnutella) configuration.
    pub fn fig07(self) -> validity::Config {
        match self {
            Scale::Paper => validity::Config::paper_fig07(),
            Scale::Quick => validity::Config {
                trials: 5,
                ..validity::Config::smoke(TopologyKind::Gnutella, Aggregate::Count, 4_000)
            },
        }
    }

    /// Fig 8 (sum on Gnutella) configuration.
    pub fn fig08(self) -> validity::Config {
        match self {
            Scale::Paper => validity::Config::paper_fig08(),
            Scale::Quick => validity::Config {
                trials: 5,
                seed: 8,
                ..validity::Config::smoke(TopologyKind::Gnutella, Aggregate::Sum, 4_000)
            },
        }
    }

    /// Fig 9 (count on Grid) configuration.
    pub fn fig09(self) -> validity::Config {
        match self {
            Scale::Paper => validity::Config::paper_fig09(),
            Scale::Quick => validity::Config {
                trials: 5,
                seed: 9,
                ..validity::Config::smoke(TopologyKind::Grid, Aggregate::Count, 2_500)
            },
        }
    }

    /// Fig 10 configuration.
    pub fn fig10(self) -> fig10::Config {
        match self {
            Scale::Paper => fig10::Config::paper(),
            Scale::Quick => fig10::Config {
                sizes: vec![1_000, 2_000, 4_000],
                d_hat_multipliers: vec![1, 2, 4],
                gnutella_n: Some(4_000),
                c: 8,
                seed: 10,
            },
        }
    }

    /// Fig 11 configuration.
    pub fn fig11(self) -> fig11::Config {
        match self {
            Scale::Paper => fig11::Config::paper(),
            Scale::Quick => fig11::Config {
                sides: vec![30, 40, 50],
                c: 8,
                seed: 11,
            },
        }
    }

    /// Fig 12 configuration.
    pub fn fig12(self) -> fig12::Config {
        match self {
            Scale::Paper => fig12::Config::paper(),
            Scale::Quick => fig12::Config {
                topologies: vec![(TopologyKind::PowerLaw, 4_000), (TopologyKind::Grid, 2_500)],
                c: 8,
                seed: 12,
            },
        }
    }

    /// Fig 13 configuration.
    pub fn fig13(self) -> fig13::Config {
        match self {
            Scale::Paper => fig13::Config::paper(),
            Scale::Quick => fig13::Config {
                sizes: vec![1_000, 2_000, 4_000],
                d_hat_multipliers: vec![1, 2, 4],
                profile_topologies: vec![
                    (TopologyKind::Gnutella, 4_000),
                    (TopologyKind::Random, 4_000),
                    (TopologyKind::PowerLaw, 4_000),
                    (TopologyKind::Grid, 2_500),
                ],
                c: 8,
                seed: 13,
            },
        }
    }

    /// Price-table configuration.
    pub fn price(self) -> price::Config {
        match self {
            Scale::Paper => price::Config::paper(),
            Scale::Quick => price::Config {
                topologies: vec![
                    (TopologyKind::Gnutella, 4_000),
                    (TopologyKind::Random, 4_000),
                    (TopologyKind::PowerLaw, 4_000),
                    (TopologyKind::Grid, 2_500),
                ],
                aggregates: vec![Aggregate::Count, Aggregate::Sum, Aggregate::Min],
                churn_fraction: 0.10,
                trials: 5,
                c: 8,
                seed: 77,
            },
        }
    }

    /// WILDFIRE-optimization ablation configuration.
    pub fn ablation(self) -> ablation::Config {
        match self {
            Scale::Paper => ablation::Config::paper(),
            Scale::Quick => ablation::Config {
                n: 4_000,
                ..ablation::Config::paper()
            },
        }
    }

    /// Adversary (sketch-targeted vs uniform churn) configuration.
    pub fn adversary(self) -> adversary::Config {
        match self {
            Scale::Paper => adversary::Config::paper(),
            Scale::Quick => adversary::Config::smoke(),
        }
    }

    /// Overlay maintenance (static vs maintained at equal churn)
    /// configuration.
    pub fn overlay(self) -> overlay::Config {
        match self {
            Scale::Paper => overlay::Config::paper(),
            Scale::Quick => overlay::Config::smoke(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_scales_materialize() {
        for s in [Scale::Quick, Scale::Paper] {
            assert!(!s.fig06().set_sizes.is_empty());
            assert!(!s.fig07().r_values.is_empty());
            assert!(!s.fig10().sizes.is_empty());
            assert!(!s.fig11().sides.is_empty());
            assert!(!s.fig12().topologies.is_empty());
            assert!(!s.fig13().sizes.is_empty());
            assert!(!s.price().topologies.is_empty());
            assert!(s.ablation().n > 0);
        }
    }

    #[test]
    fn paper_scale_matches_section_6() {
        assert_eq!(Scale::Paper.fig07().n, 39_046);
        assert_eq!(Scale::Paper.fig09().n, 10_000);
        assert_eq!(Scale::Paper.fig10().sizes.last(), Some(&40_000));
        assert_eq!(Scale::Paper.fig11().sides.last(), Some(&100));
    }
}
