//! Uniform random graphs (the §6.1 "Random" topology).

use super::TopologyKind;
use crate::{EdgeSink, Graph, HostId, StreamingBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Emit the `G(n, p)` edge stream into `sink`. Shared by the streaming
/// production path and the materialized `#[cfg(test)]` oracle, so both
/// consume the rng identically.
fn emit_random<S: EdgeSink>(n: usize, avg_degree: f64, seed: u64, sink: &mut S) {
    assert!(
        n >= TopologyKind::Random.min_hosts(),
        "need at least two hosts"
    );
    let p = (avg_degree / (n as f64 - 1.0)).clamp(0.0, 1.0);
    let mut rng = SmallRng::seed_from_u64(seed);

    if p >= 1.0 {
        for a in 0..n as u32 {
            for bb in (a + 1)..n as u32 {
                sink.add_edge(HostId(a), HostId(bb));
            }
        }
        return;
    }
    if p > 0.0 {
        // Iterate over the implicit index of pairs (a, b), a < b, skipping
        // ahead by geometric jumps (Batagelj & Brandes style).
        let log_1p = (1.0 - p).ln();
        let mut a: i64 = 1;
        let mut bb: i64 = -1;
        let n = n as i64;
        while a < n {
            let r: f64 = rng.gen_range(f64::EPSILON..1.0);
            bb += 1 + ((1.0 - r).ln() / log_1p) as i64;
            while bb >= a && a < n {
                bb -= a;
                a += 1;
            }
            if a < n {
                sink.add_edge(HostId(bb as u32), HostId(a as u32));
            }
        }
    }
}

/// `G(n, p)` with `p` chosen so the expected average degree is
/// `avg_degree`, then patched to a single connected component (§6.1:
/// *"constructed by placing an edge between pairs of hosts with uniform
/// probability such that average degree is 5"*).
///
/// Uses geometric edge skipping so generation is `O(|E|)` rather than
/// `O(n²)`, and streams edges straight into the CSR builder so peak
/// memory is one flat pair buffer — `O(|E|)` with a small constant.
pub fn random_average_degree(n: usize, avg_degree: f64, seed: u64) -> Graph {
    // Expected |E| = n·avg/2; pad a little so the buffer rarely grows.
    let hint = ((n as f64 * avg_degree / 2.0) * 1.05) as usize + 16;
    let mut b = StreamingBuilder::with_edge_capacity(n, hint);
    emit_random(n, avg_degree, seed, &mut b);
    b.build_connected().0
}

/// The pre-streaming materialized path, kept as the byte-identity oracle
/// for `generators::tests::streaming_matches_materialized_oracle`.
#[cfg(test)]
pub(crate) fn random_average_degree_materialized(n: usize, avg_degree: f64, seed: u64) -> Graph {
    let mut b = crate::GraphBuilder::with_hosts(n);
    emit_random(n, avg_degree, seed, &mut b);
    crate::reference::connect_components(&b.build()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn average_degree_close_to_target() {
        let g = random_average_degree(10_000, 5.0, 1);
        let avg = g.average_degree();
        assert!((4.5..5.5).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = random_average_degree(500, 5.0, 7);
        let b = random_average_degree(500, 5.0, 7);
        assert_eq!(a.num_edges(), b.num_edges());
        for h in a.hosts() {
            assert_eq!(a.neighbors(h), b.neighbors(h));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_average_degree(500, 5.0, 7);
        let b = random_average_degree(500, 5.0, 8);
        let same = a.hosts().all(|h| a.neighbors(h) == b.neighbors(h));
        assert!(!same);
    }

    #[test]
    fn always_connected() {
        for seed in 0..5 {
            let g = random_average_degree(300, 2.0, seed);
            assert!(analysis::is_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn small_world_diameter() {
        // §3.2: information networks exhibit small diameters.
        let g = random_average_degree(5_000, 5.0, 3);
        let d = analysis::diameter_estimate(&g, 4, 5);
        assert!(d <= 15, "diameter {d} too large for a random graph");
    }

    /// At average degree 1 the raw stream falls into hundreds of
    /// components; the union-find patch made before the CSR must match
    /// the BFS-labelled patch of the built graph byte for byte.
    #[test]
    fn sparse_patch_matches_bfs_oracle() {
        for n in [500, 3000] {
            for seed in 0..3u64 {
                let mut b = StreamingBuilder::with_hosts(n);
                emit_random(n, 1.0, seed, &mut b);
                let (oracle, oracle_added) =
                    crate::reference::connect_components(&b.clone().build());
                let (g, added) = b.build_connected();
                assert!(added >= n / 10, "n={n} seed={seed}: only {added} patches");
                assert_eq!(added, oracle_added, "n={n} seed={seed}");
                assert_eq!(g.csr_parts(), oracle.csr_parts(), "n={n} seed={seed}");
                assert_eq!(
                    g.csr_parts(),
                    random_average_degree(n, 1.0, seed).csr_parts(),
                    "n={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn dense_limit_is_complete() {
        let g = random_average_degree(6, 5.0, 0);
        assert_eq!(g.num_edges(), 15);
    }

    #[test]
    #[should_panic(expected = "at least two hosts")]
    fn rejects_tiny_networks() {
        random_average_degree(1, 5.0, 0);
    }
}
