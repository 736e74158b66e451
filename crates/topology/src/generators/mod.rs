//! Topology generators.
//!
//! §6.1 of the paper evaluates on four topologies:
//!
//! * **Gnutella** — a 2001 crawl with `|H| = 39,046` ([`gnutella`];
//!   we synthesize a structurally matching graph, see that module's
//!   docs for the substitution rationale);
//! * **Random** — uniform random edges with average degree 5
//!   ([`random_average_degree`]);
//! * **Power-law** — degree exponent γ = 2.9 ([`power_law`]);
//! * **Grid** — 100×100 sensor grid, each host adjacent to the hosts in
//!   the enclosing 2-unit square, i.e. the 8-host Moore neighbourhood
//!   ([`grid`]).
//!
//! [`special`] holds the adversarial constructions used in the proofs of
//! Theorems 4.1, 4.2 and 4.4.

mod gnutella;
mod grid;
mod powerlaw;
mod random;
pub mod special;

pub use gnutella::gnutella;
pub use grid::{grid, grid_coords, grid_square};
pub use powerlaw::{barabasi_albert, estimate_gamma, power_law};
pub use random::random_average_degree;

use crate::Graph;

/// The four §6.1 evaluation topologies, addressable by name (handy for the
/// `repro` harness and experiment configs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TopologyKind {
    /// Gnutella-like crawl graph (synthetic stand-in; 39,046 hosts at
    /// paper scale).
    Gnutella,
    /// Uniform random graph with average degree 5.
    Random,
    /// Power-law degree distribution with γ = 2.9.
    PowerLaw,
    /// Square sensor grid with Moore (8-neighbour) connectivity.
    Grid,
}

impl TopologyKind {
    /// Build a topology of this kind with (approximately) `n` hosts.
    ///
    /// For [`TopologyKind::Grid`] the host count is rounded down to the
    /// nearest perfect square, matching the paper's 100×100 = 10K layout.
    pub fn build(self, n: usize, seed: u64) -> Graph {
        match self {
            TopologyKind::Gnutella => gnutella(n, seed),
            TopologyKind::Random => random_average_degree(n, 5.0, seed),
            TopologyKind::PowerLaw => power_law(n, 2.9, seed),
            TopologyKind::Grid => {
                let side = (n as f64).sqrt().floor() as usize;
                grid_square(side)
            }
        }
    }

    /// The fewest hosts a topology of this kind is built from: two for
    /// any network, eight for Gnutella's seed ring and four for the
    /// power-law stub pairing. The Gnutella, random and power-law
    /// generators assert it, and scenario validation rejects a smaller
    /// `n` with it.
    pub fn min_hosts(self) -> usize {
        match self {
            TopologyKind::Gnutella => 8,
            TopologyKind::PowerLaw => 4,
            TopologyKind::Random | TopologyKind::Grid => 2,
        }
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Gnutella => "Gnutella",
            TopologyKind::Random => "Random",
            TopologyKind::PowerLaw => "Power-law",
            TopologyKind::Grid => "Grid",
        }
    }

    /// All four kinds in the order the paper lists them.
    pub const ALL: [TopologyKind; 4] = [
        TopologyKind::Gnutella,
        TopologyKind::Random,
        TopologyKind::PowerLaw,
        TopologyKind::Grid,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn kinds_build_connected_graphs() {
        for kind in TopologyKind::ALL {
            let g = kind.build(400, 9);
            assert!(
                analysis::is_connected(&g),
                "{} should be connected",
                kind.name()
            );
            assert!(g.num_hosts() >= 396, "{}", kind.name());
        }
    }

    #[test]
    fn grid_kind_rounds_to_square() {
        let g = TopologyKind::Grid.build(10_000, 0);
        assert_eq!(g.num_hosts(), 10_000);
        let g = TopologyKind::Grid.build(10_100, 0);
        assert_eq!(g.num_hosts(), 10_000);
    }

    /// The streaming CSR path must be byte-identical to the old
    /// materialized `GraphBuilder` path (kept behind `#[cfg(test)]` as
    /// the oracle) for every generator × size × seed. Mirrors the PR-5
    /// heap-queue oracle pattern.
    #[test]
    fn streaming_matches_materialized_oracle() {
        fn assert_identical(stream: &Graph, oracle: &Graph, what: &str) {
            assert_eq!(
                stream.csr_parts(),
                oracle.csr_parts(),
                "{what}: CSR parts diverge"
            );
            assert_eq!(stream.num_edges(), oracle.num_edges(), "{what}");
        }
        for &n in &[16usize, 257, 1000] {
            for seed in 0..3u64 {
                assert_identical(
                    &gnutella(n, seed),
                    &gnutella::gnutella_materialized(n, seed),
                    &format!("gnutella n={n} seed={seed}"),
                );
                assert_identical(
                    &random_average_degree(n, 5.0, seed),
                    &random::random_average_degree_materialized(n, 5.0, seed),
                    &format!("random n={n} seed={seed}"),
                );
                assert_identical(
                    &power_law(n, 2.9, seed),
                    &powerlaw::power_law_materialized(n, 2.9, seed),
                    &format!("power_law n={n} seed={seed}"),
                );
                assert_identical(
                    &barabasi_albert(n, 2, seed),
                    &powerlaw::barabasi_albert_materialized(n, 2, seed),
                    &format!("barabasi_albert n={n} seed={seed}"),
                );
            }
            let side = (n as f64).sqrt().floor() as usize;
            assert_identical(
                &grid(side, side + 1),
                &grid::grid_materialized(side, side + 1),
                &format!("grid {side}x{}", side + 1),
            );
        }
        // The dense complete-graph branch of the random generator.
        assert_identical(
            &random_average_degree(6, 5.0, 0),
            &random::random_average_degree_materialized(6, 5.0, 0),
            "random dense limit",
        );
    }
}
