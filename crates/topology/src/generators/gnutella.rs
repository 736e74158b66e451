//! Synthetic Gnutella-like topology.
//!
//! The paper evaluates on a real 2001 crawl of Gnutella (DSS Clip2 [10])
//! with `|H| = 39,046`. That dataset is not redistributable, so we
//! synthesize a graph matching the structural properties reported for
//! Gnutella snapshots of that era by Ripeanu, Foster & Iamnitchi [33]:
//!
//! * heavy-tailed ("multi-modal power-law") degree distribution,
//! * average degree ≈ 3.4,
//! * minimum degree 1 but very few degree-1 hosts (ultrapeer-ish core),
//! * a single connected component,
//! * small diameter (≈ 12 at 40K hosts, §3.2).
//!
//! The generator mixes preferential attachment (creating hubs) with
//! uniform attachment (creating the exponential low-degree mode), the
//! standard recipe for Gnutella-like overlays.

use super::TopologyKind;
use crate::{EdgeSink, Graph, HostId, StreamingBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Probability that an arriving host picks its neighbours preferentially
/// (vs uniformly). Chosen so the degree tail resembles the published
/// Gnutella exponent (~2.3) while keeping a thick low-degree mode.
const PREFERENTIAL_MIX: f64 = 0.7;

/// Emit the Gnutella-like edge stream into `sink`. Shared by the
/// streaming production path and the materialized `#[cfg(test)]` oracle.
fn emit_gnutella<S: EdgeSink>(n: usize, seed: u64, sink: &mut S) {
    let min = TopologyKind::Gnutella.min_hosts();
    assert!(n >= min, "need at least {min} hosts");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut endpoints: Vec<HostId> = Vec::with_capacity(4 * n);

    // Small random core.
    let core = 8.min(n);
    for a in 0..core as u32 {
        let bb = (a + 1) % core as u32;
        sink.add_edge(HostId(a), HostId(bb));
        endpoints.push(HostId(a));
        endpoints.push(HostId(bb));
    }

    for v in core..n {
        let v = HostId(v as u32);
        // Average degree ~3.4 → on average 1.7 edges contributed per
        // arrival: alternate between 1 and 2, biased toward 2.
        let edges = if rng.gen_bool(0.7) { 2 } else { 1 };
        let mut chosen: Vec<HostId> = Vec::with_capacity(edges);
        let mut guard = 0;
        while chosen.len() < edges && guard < 64 {
            guard += 1;
            let t = if rng.gen_bool(PREFERENTIAL_MIX) {
                endpoints[rng.gen_range(0..endpoints.len())]
            } else {
                HostId(rng.gen_range(0..v.0))
            };
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for t in chosen {
            sink.add_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
}

/// Build a Gnutella-like graph with `n` hosts. Use `n = 39_046` to match
/// the paper's crawl size. Edges stream straight into the CSR builder so
/// peak memory is `O(edges)`.
pub fn gnutella(n: usize, seed: u64) -> Graph {
    // ~1.7 edges contributed per arrival plus the core ring.
    let hint = (n as f64 * 1.8) as usize + 16;
    let mut b = StreamingBuilder::with_edge_capacity(n, hint);
    emit_gnutella(n, seed, &mut b);
    b.build_connected().0
}

/// The pre-streaming materialized path, kept as the byte-identity oracle
/// for `generators::tests::streaming_matches_materialized_oracle`.
#[cfg(test)]
pub(crate) fn gnutella_materialized(n: usize, seed: u64) -> Graph {
    let mut b = crate::GraphBuilder::with_hosts(n);
    emit_gnutella(n, seed, &mut b);
    crate::reference::connect_components(&b.build()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn paper_scale_properties() {
        let g = gnutella(39_046, 2004);
        assert_eq!(g.num_hosts(), 39_046);
        assert!(analysis::is_connected(&g));
        let avg = g.average_degree();
        assert!(
            (2.6..4.2).contains(&avg),
            "average degree {avg} out of Gnutella range"
        );
        let d = analysis::diameter_estimate(&g, 4, 1);
        assert!(d <= 25, "diameter {d} too large (Gnutella 2001 had ~12)");
    }

    #[test]
    fn has_hubs() {
        let g = gnutella(10_000, 7);
        let max_deg = g.hosts().map(|h| g.degree(h)).max().unwrap();
        assert!(max_deg >= 30, "max degree {max_deg}: no hubs formed");
    }

    #[test]
    fn deterministic() {
        let a = gnutella(1_000, 3);
        let b = gnutella(1_000, 3);
        assert_eq!(a.num_edges(), b.num_edges());
        for h in a.hosts() {
            assert_eq!(a.neighbors(h), b.neighbors(h));
        }
    }

    #[test]
    fn connected_across_seeds() {
        for seed in 0..4 {
            assert!(analysis::is_connected(&gnutella(500, seed)));
        }
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn rejects_tiny_networks() {
        gnutella(4, 0);
    }
}
