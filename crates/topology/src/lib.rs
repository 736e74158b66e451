//! Network topology models and generators for the reproduction of
//! *"The Price of Validity in Dynamic Networks"* (Bawa, Gionis,
//! Garcia-Molina, Motwani; SIGMOD 2004 / JCSS 73(2007)).
//!
//! The paper models the network as an undirected graph `G = (H, E)` over a
//! set of hosts `H` with symmetric neighbour relations (§3.1). This crate
//! provides:
//!
//! * [`Graph`] — a compact undirected simple graph keyed by [`HostId`];
//! * [`generators`] — the four evaluation topologies of §6.1 (**Gnutella**,
//!   **Random**, **Power-law**, **Grid**) plus the adversarial
//!   constructions used in the proofs of Theorems 4.1, 4.2 and 4.4 and a
//!   DHT-style identifier ring used by the §5.4 size estimators;
//! * [`OverlayView`] — a mutable add/remove delta layered over the CSR
//!   graph, the substrate for overlay-maintenance protocols whose edges
//!   evolve during a run (merged reads, periodic compaction);
//! * [`analysis`] — BFS distances, diameter estimation, connected
//!   components and alive-subgraph reachability (the building block of the
//!   oracle's `HC` computation), plus degree/connectivity summaries of
//!   an [`OverlayView`] snapshot;
//! * [`ring`] — a consistent-hashing identifier ring substrate for the
//!   protocol-specific size estimator of §5.4.
//!
//! # Example
//!
//! ```
//! use pov_topology::{generators, analysis};
//!
//! let g = generators::random_average_degree(1_000, 5.0, 42);
//! assert_eq!(g.num_hosts(), 1_000);
//! let d = analysis::diameter_estimate(&g, 8, 7);
//! assert!(d > 1 && d < 20);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod generators;
mod graph;
mod overlay;
#[cfg(test)]
mod reference;
pub mod ring;

pub use graph::{EdgeSink, Graph, GraphBuilder, HostId, StreamingBuilder};
pub use overlay::OverlayView;

#[cfg(test)]
mod smoke {
    use super::*;

    #[test]
    fn crate_root_smoke() {
        let mut b = GraphBuilder::with_hosts(4);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(1), HostId(2));
        b.add_edge(HostId(2), HostId(3));
        let g = b.build();
        assert_eq!(g.num_hosts(), 4);
        assert_eq!(g.neighbors(HostId(1)), &[HostId(0), HostId(2)]);
        assert_eq!(generators::grid_square(3).num_hosts(), 9);
    }
}
