//! Power-law graphs (the §6.1 "Power-law" topology, γ = 2.9, citing
//! Barabási–Albert [4]).

use super::TopologyKind;
use crate::{EdgeSink, Graph, HostId, StreamingBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Emit the Barabási–Albert edge stream into `sink`. Shared by the
/// streaming production path and the materialized `#[cfg(test)]` oracle.
fn emit_barabasi_albert<S: EdgeSink>(n: usize, m: usize, seed: u64, sink: &mut S) {
    assert!(n > m && m >= 1, "need n > m >= 1");
    let mut rng = SmallRng::seed_from_u64(seed);
    // Repeated-endpoints list: choosing uniformly from it is
    // degree-proportional choice.
    let mut endpoints: Vec<HostId> = Vec::with_capacity(2 * n * m);

    // Seed clique on the first m+1 hosts.
    for a in 0..=(m as u32) {
        for bb in (a + 1)..=(m as u32) {
            sink.add_edge(HostId(a), HostId(bb));
            endpoints.push(HostId(a));
            endpoints.push(HostId(bb));
        }
    }
    for v in (m + 1)..n {
        let v = HostId(v as u32);
        let mut chosen = Vec::with_capacity(m);
        while chosen.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
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

/// Barabási–Albert preferential attachment: each arriving host attaches
/// to `m` existing hosts chosen proportionally to degree. Produces a
/// connected graph with a power-law tail of exponent ≈ 3.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    let hint = n * m + m * m;
    let mut b = StreamingBuilder::with_edge_capacity(n, hint);
    emit_barabasi_albert(n, m, seed, &mut b);
    b.build()
}

/// The pre-streaming materialized BA path, kept as the byte-identity
/// oracle for `generators::tests::streaming_matches_materialized_oracle`.
#[cfg(test)]
pub(crate) fn barabasi_albert_materialized(n: usize, m: usize, seed: u64) -> Graph {
    let mut b = crate::GraphBuilder::with_hosts(n);
    emit_barabasi_albert(n, m, seed, &mut b);
    b.build()
}

/// Emit the configuration-model stub pairing into `sink`. Shared by the
/// streaming production path and the materialized `#[cfg(test)]` oracle.
fn emit_power_law<S: EdgeSink>(n: usize, gamma: f64, seed: u64, sink: &mut S) {
    let min = TopologyKind::PowerLaw.min_hosts();
    assert!(n >= min, "need at least {min} hosts");
    assert!(gamma > 1.0, "gamma must exceed 1");
    let mut rng = SmallRng::seed_from_u64(seed);
    let min_deg = 2usize;
    let max_deg = ((n as f64).sqrt() as usize).max(min_deg + 1);

    // Inverse-CDF sampling from P(deg = k) ∝ k^-gamma on [min_deg, max_deg].
    let weights: Vec<f64> = (min_deg..=max_deg)
        .map(|k| (k as f64).powf(-gamma))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }

    let mut stubs: Vec<HostId> = Vec::new();
    for h in 0..n {
        let u: f64 = rng.gen();
        let idx = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
        let deg = min_deg + idx;
        for _ in 0..deg {
            stubs.push(HostId(h as u32));
        }
    }
    if stubs.len() % 2 == 1 {
        stubs.pop();
    }
    // Fisher-Yates pairing.
    for i in (1..stubs.len()).rev() {
        stubs.swap(i, rng.gen_range(0..=i));
    }
    for pair in stubs.chunks_exact(2) {
        sink.add_edge(pair[0], pair[1]);
    }
}

/// Configuration-model power-law graph with target degree exponent
/// `gamma` (the paper uses γ = 2.9). Draws degrees from a truncated
/// discrete power law (min degree 2, max `√n`), pairs stubs uniformly at
/// random, erases self-loops/multi-edges and patches connectivity.
pub fn power_law(n: usize, gamma: f64, seed: u64) -> Graph {
    // Mean degree of the truncated power law is a little over min_deg.
    let hint = (n as f64 * 1.5) as usize + 16;
    let mut b = StreamingBuilder::with_edge_capacity(n, hint);
    emit_power_law(n, gamma, seed, &mut b);
    b.build_connected().0
}

/// The pre-streaming materialized path, kept as the byte-identity oracle
/// for `generators::tests::streaming_matches_materialized_oracle`.
#[cfg(test)]
pub(crate) fn power_law_materialized(n: usize, gamma: f64, seed: u64) -> Graph {
    let mut b = crate::GraphBuilder::with_hosts(n);
    emit_power_law(n, gamma, seed, &mut b);
    crate::reference::connect_components(&b.build()).0
}

/// Maximum-likelihood (Hill) estimate of the power-law exponent of a
/// graph's degree distribution, using the Clauset–Shalizi–Newman discrete
/// approximation `γ ≈ 1 + n / Σ ln(d_i / (d_min − ½))` over degrees
/// `d_i ≥ d_min`. Good enough to assert the generator hits its target.
pub fn estimate_gamma(g: &Graph) -> f64 {
    let d_min = 2.0f64;
    let mut n = 0usize;
    let mut acc = 0.0f64;
    for h in g.hosts() {
        let d = g.degree(h) as f64;
        if d >= d_min {
            n += 1;
            acc += (d / (d_min - 0.5)).ln();
        }
    }
    if n == 0 || acc <= 0.0 {
        return f64::NAN;
    }
    1.0 + n as f64 / acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn ba_is_connected_and_sized() {
        let g = barabasi_albert(2_000, 2, 5);
        assert_eq!(g.num_hosts(), 2_000);
        assert!(analysis::is_connected(&g));
        // m edges per arrival plus the seed clique.
        assert!(g.num_edges() >= 2 * (2_000 - 3));
    }

    #[test]
    fn ba_has_heavy_tail() {
        let g = barabasi_albert(5_000, 2, 9);
        let max_deg = g.hosts().map(|h| g.degree(h)).max().unwrap();
        // A uniform random graph with the same density would have max
        // degree ~15; preferential attachment produces hubs.
        assert!(max_deg > 40, "max degree {max_deg}");
    }

    #[test]
    fn configuration_model_connected() {
        for seed in 0..3 {
            let g = power_law(1_000, 2.9, seed);
            assert!(analysis::is_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn gamma_estimate_in_range() {
        let g = power_law(30_000, 2.9, 1);
        let gamma = estimate_gamma(&g);
        assert!(
            (2.0..4.0).contains(&gamma),
            "estimated gamma {gamma} far from 2.9"
        );
    }

    #[test]
    fn min_degree_respected_before_patching() {
        let g = power_law(2_000, 2.9, 3);
        // Erased configuration model can only lower degrees slightly; the
        // bulk of hosts should retain degree >= 2.
        let low = g.hosts().filter(|&h| g.degree(h) < 2).count();
        assert!(low * 20 < g.num_hosts(), "{low} hosts below min degree");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = power_law(500, 2.9, 11);
        let b = power_law(500, 2.9, 11);
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    #[should_panic(expected = "n > m")]
    fn ba_rejects_bad_parameters() {
        barabasi_albert(2, 2, 0);
    }
}
