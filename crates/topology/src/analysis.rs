//! Graph analysis: BFS distances, diameter, components, alive-subgraph
//! reachability.
//!
//! The paper's validity bounds hinge on hop distances: WILDFIRE and
//! ALLREPORT run for `2·D̂·δ` where `D̂` overestimates the *stable
//! diameter* (§4.1), and the oracle's `HC` is the set of hosts with a
//! stable path to the querying host. All of those reduce to BFS over
//! (sub)graphs, and every one of them runs on one kernel, [`Sweep`].

use crate::{Graph, HostId, OverlayView};

/// Distance value meaning "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// A level whose frontier holds more than `1 / BOTTOM_UP_RATIO` of the
/// hosts still unvisited is expanded bottom-up (Beamer et al.'s α = 14).
const BOTTOM_UP_RATIO: usize = 14;

/// Level-synchronous, direction-optimising breadth-first search
/// (Beamer, Asanović & Patterson, *Direction-Optimizing Breadth-First
/// Search*, SC'12): the one traversal behind every whole-graph query in
/// this module and behind the oracle's `HC`.
///
/// Each level is expanded one of two ways:
/// * **top-down** while the frontier is small: read each frontier host's
///   row and claim its unvisited neighbours;
/// * **bottom-up** once `frontier × 14 > unvisited`: stream the unvisited
///   hosts' rows in id order, each stopping at its first neighbour in the
///   frontier. In the bulge of a small-world search most unvisited hosts
///   find a parent within a neighbour or two, so most rows are never read
///   to the end, and the rows that are read come in CSR order instead of
///   at random.
///
/// The levels, and so every distance, are the same either way; only the
/// order of hosts within a level differs (discovery order top-down,
/// ascending id bottom-up).
///
/// A `Sweep` owns its buffers — a visited bitset, a frontier bitset and
/// two frontier lists — and serves any number of searches over graphs
/// with the host count it was made for. Searches between two
/// [`reset`](Sweep::reset)s share the visited set, so a later search
/// never re-enters hosts an earlier one reached.
#[derive(Debug)]
pub struct Sweep {
    /// Bit `h` is set once host `h` is reached, and from the start for a
    /// dead host and for the padding bits past the last host, so a
    /// bottom-up scan of the clear bits sees only live unvisited hosts.
    visited: Vec<u64>,
    /// The frontier as a bitset, set only while a bottom-up level runs.
    in_frontier: Vec<u64>,
    frontier: Vec<HostId>,
    next: Vec<HostId>,
    /// Live hosts not yet reached.
    unvisited: usize,
    num_hosts: usize,
    /// Depths of the levels expanded bottom-up, for the direction tests.
    #[cfg(test)]
    bottom_up_depths: Vec<u32>,
}

impl Sweep {
    /// A sweep over graphs of `n` hosts, every host unvisited.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        let mut sweep = Sweep {
            visited: vec![0; words],
            in_frontier: vec![0; words],
            frontier: Vec::new(),
            next: Vec::new(),
            unvisited: 0,
            num_hosts: n,
            #[cfg(test)]
            bottom_up_depths: Vec::new(),
        };
        sweep.reset(|_| true);
        sweep
    }

    /// Forget every search: each host `alive` accepts is unvisited again,
    /// and every other host starts out visited, so no search enters it.
    pub fn reset(&mut self, alive: impl Fn(HostId) -> bool) {
        let n = self.num_hosts;
        self.unvisited = 0;
        for (w, word) in self.visited.iter_mut().enumerate() {
            let mut dead = 0u64;
            for b in 0..64 {
                let h = w * 64 + b;
                if h >= n || !alive(HostId(h as u32)) {
                    dead |= 1 << b;
                }
            }
            *word = dead;
            self.unvisited += dead.count_zeros() as usize;
        }
    }

    /// Search from `source` through the hosts not yet visited, calling
    /// `on_level(depth, hosts)` once per level; level 0 is `[source]`.
    /// Returns the number of levels — one more than the source's
    /// eccentricity within what it reached — or 0 when `source` was
    /// already visited or is dead.
    pub fn search(
        &mut self,
        g: &Graph,
        source: HostId,
        on_level: impl FnMut(u32, &[HostId]),
    ) -> u32 {
        assert_eq!(
            g.num_hosts(),
            self.num_hosts,
            "sweep sized for another graph"
        );
        self.walk(|h| g.neighbors(h), source, on_level)
    }

    fn walk<'g>(
        &mut self,
        row: impl Fn(HostId) -> &'g [HostId],
        source: HostId,
        mut on_level: impl FnMut(u32, &[HostId]),
    ) -> u32 {
        let (w, bit) = (source.index() / 64, 1u64 << (source.0 % 64));
        if self.visited[w] & bit != 0 {
            return 0;
        }
        self.visited[w] |= bit;
        self.unvisited -= 1;
        self.frontier.clear();
        self.frontier.push(source);
        let mut levels = 0;
        loop {
            on_level(levels, &self.frontier);
            levels += 1;
            if self.unvisited == 0 {
                return levels;
            }
            self.next.clear();
            if self.frontier.len() * BOTTOM_UP_RATIO > self.unvisited {
                #[cfg(test)]
                self.bottom_up_depths.push(levels - 1);
                self.bottom_up(&row);
            } else {
                self.top_down(&row);
            }
            if self.next.is_empty() {
                return levels;
            }
            self.unvisited -= self.next.len();
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
    }

    fn top_down<'g>(&mut self, row: &impl Fn(HostId) -> &'g [HostId]) {
        for &u in &self.frontier {
            for &v in row(u) {
                let (w, bit) = (v.index() / 64, 1u64 << (v.0 % 64));
                if self.visited[w] & bit == 0 {
                    self.visited[w] |= bit;
                    self.next.push(v);
                }
            }
        }
    }

    fn bottom_up<'g>(&mut self, row: &impl Fn(HostId) -> &'g [HostId]) {
        for &u in &self.frontier {
            self.in_frontier[u.index() / 64] |= 1 << (u.0 % 64);
        }
        let in_frontier = &self.in_frontier;
        for (w, word) in self.visited.iter_mut().enumerate() {
            let mut free = !*word;
            while free != 0 {
                let b = free.trailing_zeros();
                free &= free - 1;
                let v = HostId(w as u32 * 64 + b);
                if row(v)
                    .iter()
                    .any(|u| in_frontier[u.index() / 64] & (1 << (u.0 % 64)) != 0)
                {
                    *word |= 1 << b;
                    self.next.push(v);
                }
            }
        }
        // The bitset holds nothing but frontier bits, so clearing each
        // frontier host's whole word empties it.
        for &u in &self.frontier {
            self.in_frontier[u.index() / 64] = 0;
        }
    }
}

/// BFS hop distances from `source` to every host; `UNREACHABLE` where no
/// path exists.
pub fn bfs_distances(g: &Graph, source: HostId) -> Vec<u32> {
    bfs_distances_filtered(g, source, |_| true)
}

/// BFS hop distances from `source` restricted to hosts for which
/// `alive(h)` is true. If `alive(source)` is false every host is
/// unreachable.
///
/// Over the subgraph of hosts alive during a whole query interval the
/// reached hosts are exactly those with a *stable path* to the source
/// (§4.1) — the oracle's `HC`, which it takes from a [`Sweep`] directly.
pub fn bfs_distances_filtered(
    g: &Graph,
    source: HostId,
    alive: impl Fn(HostId) -> bool,
) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_hosts()];
    let mut sweep = Sweep::new(g.num_hosts());
    sweep.reset(alive);
    sweep.search(g, source, |depth, level| {
        for &h in level {
            dist[h.index()] = depth;
        }
    });
    dist
}

/// Lower-bound estimate of the diameter by repeated *double sweep*:
/// start from a host, BFS to the farthest host, BFS again from there, and
/// repeat from `probes` pseudo-random starting hosts. Exact on trees and
/// empirically tight on the small-world topologies used in §6 (\[2,33\]
/// report such graphs have diameter growing very slowly with `|H|`).
///
/// The farthest host is the highest id on the first search's last level;
/// one [`Sweep`]'s buffers serve all `2 × probes` searches.
pub fn diameter_estimate(g: &Graph, probes: u32, seed: u64) -> u32 {
    let n = g.num_hosts();
    if n == 0 {
        return 0;
    }
    let mut sweep = Sweep::new(n);
    let mut best = 0;
    let mut state = seed | 1;
    for _ in 0..probes.max(1) {
        // xorshift over host ids; determinism matters more than quality here.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let start = HostId((state % n as u64) as u32);
        let mut far = start;
        sweep.reset(|_| true);
        sweep.search(g, start, |_, level| {
            far = *level.iter().max().expect("a level is never empty");
        });
        sweep.reset(|_| true);
        best = best.max(sweep.search(g, far, |_, _| {}) - 1);
    }
    best
}

/// Exact diameter by all-pairs BFS. `O(|H|·(|H|+|E|))`; only for small
/// graphs (tests, adversarial instances).
pub fn diameter_exact(g: &Graph) -> u32 {
    let mut sweep = Sweep::new(g.num_hosts());
    g.hosts()
        .map(|h| {
            sweep.reset(|_| true);
            sweep.search(g, h, |_, _| {}) - 1
        })
        .max()
        .unwrap_or(0)
}

/// Whether the whole graph is one connected component.
pub fn is_connected(g: &Graph) -> bool {
    if g.num_hosts() == 0 {
        return true;
    }
    let mut sweep = Sweep::new(g.num_hosts());
    sweep.search(g, HostId(0), |_, _| {});
    sweep.unvisited == 0
}

/// Connected components; each component is a sorted list of hosts, and
/// the components come in order of their lowest host.
pub fn connected_components(g: &Graph) -> Vec<Vec<HostId>> {
    let mut sweep = Sweep::new(g.num_hosts());
    let mut components = Vec::new();
    for h in g.hosts() {
        let mut members = Vec::new();
        if sweep.search(g, h, |_, level| members.extend_from_slice(level)) > 0 {
            members.sort_unstable();
            components.push(members);
        }
    }
    components
}

/// Connect a graph that may have several components by wiring each
/// secondary component to the largest one with a single edge (between the
/// lowest-id hosts; of equal-largest components the one whose lowest host
/// is highest is the anchor). Returns the number of edges added.
///
/// The §6 experiments assume `hq` can initially reach everyone; random
/// generators occasionally leave stragglers, which this repairs without
/// materially changing the degree distribution. The generators patch
/// their edge stream before the CSR exists
/// ([`StreamingBuilder::build_connected`](crate::StreamingBuilder::build_connected));
/// this replays a built graph's edges through the same union-find.
pub fn connect_components(g: &Graph) -> (Graph, usize) {
    let mut b = crate::StreamingBuilder::with_edge_capacity(g.num_hosts(), g.num_edges());
    for (a, c) in g.edges() {
        b.add_edge(a, c);
    }
    b.build_connected()
}

/// Degree-distribution summary of an [`OverlayView`] snapshot: the
/// shape of the maintained overlay at one instant, reported by
/// `repro overlay` and consumed by topology-aware adversaries.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeSummary {
    /// Smallest degree over all hosts (0 on an empty graph).
    pub min: usize,
    /// Largest degree over all hosts.
    pub max: usize,
    /// Mean degree `2|E| / |H|`.
    pub mean: f64,
    /// Hosts with degree zero — detached hosts the overlay has evicted
    /// or not yet re-attached.
    pub isolated: usize,
    /// `histogram[d]` = number of hosts with degree `d`.
    pub histogram: Vec<usize>,
}

/// Degree distribution of the overlay's *current* merged edge set.
pub fn overlay_degree_summary(v: &OverlayView) -> DegreeSummary {
    let n = v.num_hosts();
    let degrees: Vec<usize> = v.hosts().map(|h| v.degree(h)).collect();
    let max = degrees.iter().copied().max().unwrap_or(0);
    let mut histogram = vec![0usize; max + 1];
    for &d in &degrees {
        histogram[d] += 1;
    }
    DegreeSummary {
        min: degrees.iter().copied().min().unwrap_or(0),
        max,
        mean: if n == 0 {
            0.0
        } else {
            2.0 * v.num_edges() as f64 / n as f64
        },
        isolated: histogram.first().copied().unwrap_or(0),
        histogram,
    }
}

/// Connectivity summary of an [`OverlayView`] snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectivitySummary {
    /// Number of connected components (isolated hosts count as
    /// singleton components).
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Whether the snapshot is one connected component.
    pub connected: bool,
}

/// Connectivity of the overlay's *current* merged edge set, via the
/// [`Sweep`] kernel over [`OverlayView::neighbors`] (no CSR
/// materialization).
pub fn overlay_connectivity(v: &OverlayView) -> ConnectivitySummary {
    let mut sweep = Sweep::new(v.num_hosts());
    let mut components = 0usize;
    let mut largest = 0usize;
    for h in v.hosts() {
        let mut size = 0usize;
        if sweep.walk(|u| v.neighbors(u), h, |_, level| size += level.len()) > 0 {
            components += 1;
            largest = largest.max(size);
        }
    }
    ConnectivitySummary {
        components,
        largest_component: largest,
        connected: components <= 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::TopologyKind;
    use crate::{reference, GraphBuilder};
    use proptest::prelude::*;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::with_hosts(n);
        for i in 0..n.saturating_sub(1) {
            b.add_edge(HostId(i as u32), HostId(i as u32 + 1));
        }
        b.build()
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, HostId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable_component() {
        let mut b = GraphBuilder::with_hosts(4);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(2), HostId(3));
        let g = b.build();
        let d = bfs_distances(&g, HostId(0));
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn filtered_bfs_respects_dead_hosts() {
        // 0-1-2-3 with host 1 dead: 2,3 unreachable from 0.
        let g = path(4);
        let d = bfs_distances_filtered(&g, HostId(0), |h| h != HostId(1));
        assert_eq!(d[0], 0);
        assert_eq!(d[1], UNREACHABLE);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn filtered_bfs_dead_source() {
        let g = path(3);
        let d = bfs_distances_filtered(&g, HostId(0), |_| false);
        assert!(d.iter().all(|&x| x == UNREACHABLE));
    }

    #[test]
    fn diameter_of_path_is_exact() {
        let g = path(10);
        assert_eq!(diameter_exact(&g), 9);
        // Double sweep is exact on trees.
        assert_eq!(diameter_estimate(&g, 4, 3), 9);
    }

    #[test]
    fn diameter_of_cycle() {
        let n = 10;
        let mut b = GraphBuilder::with_hosts(n);
        for i in 0..n {
            b.add_edge(HostId(i as u32), HostId(((i + 1) % n) as u32));
        }
        let g = b.build();
        assert_eq!(diameter_exact(&g), 5);
        assert!(diameter_estimate(&g, 8, 11) <= 5);
        assert!(diameter_estimate(&g, 8, 11) >= 4);
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&path(6)));
        let mut b = GraphBuilder::with_hosts(3);
        b.add_edge(HostId(0), HostId(1));
        let g = b.build();
        assert!(!is_connected(&g));
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![HostId(0), HostId(1)]);
        assert_eq!(comps[1], vec![HostId(2)]);
    }

    #[test]
    fn connect_components_repairs_graph() {
        let mut b = GraphBuilder::with_hosts(5);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(2), HostId(3));
        let g = b.build();
        let (fixed, added) = connect_components(&g);
        assert_eq!(added, 2);
        assert!(is_connected(&fixed));
        assert_eq!(fixed.num_edges(), 4);
    }

    #[test]
    fn connect_components_noop_when_connected() {
        let g = path(4);
        let (fixed, added) = connect_components(&g);
        assert_eq!(added, 0);
        assert_eq!(fixed.num_edges(), g.num_edges());
    }

    #[test]
    fn overlay_degree_summary_tracks_the_delta() {
        let mut v = OverlayView::new(path(4));
        let s = overlay_degree_summary(&v);
        assert_eq!((s.min, s.max, s.isolated), (1, 2, 0));
        assert!((s.mean - 1.5).abs() < 1e-12);
        assert_eq!(s.histogram, vec![0, 2, 2]);
        // Evict host 1: its edges vanish, host 0 detaches.
        v.remove_edge(HostId(1), HostId(0));
        v.remove_edge(HostId(1), HostId(2));
        let s = overlay_degree_summary(&v);
        assert_eq!(s.isolated, 2);
        assert_eq!(s.min, 0);
        assert_eq!(s.histogram[0], 2);
    }

    #[test]
    fn overlay_connectivity_tracks_the_delta() {
        let mut v = OverlayView::new(path(4));
        assert_eq!(
            overlay_connectivity(&v),
            ConnectivitySummary {
                components: 1,
                largest_component: 4,
                connected: true,
            }
        );
        v.remove_edge(HostId(1), HostId(2));
        let c = overlay_connectivity(&v);
        assert_eq!(c.components, 2);
        assert_eq!(c.largest_component, 2);
        assert!(!c.connected);
        // A maintained overlay re-attaching at a new point heals it.
        v.add_edge(HostId(0), HostId(3));
        assert!(overlay_connectivity(&v).connected);
    }

    #[test]
    fn overlay_summaries_on_empty_view() {
        let v = OverlayView::new(Graph::with_hosts(0));
        let s = overlay_degree_summary(&v);
        assert_eq!((s.min, s.max, s.isolated), (0, 0, 0));
        let c = overlay_connectivity(&v);
        assert_eq!(c.components, 0);
        assert!(c.connected);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = Graph::with_hosts(0);
        assert!(is_connected(&g));
        assert_eq!(diameter_estimate(&g, 3, 1), 0);
        assert_eq!(connected_components(&g).len(), 0);
    }

    /// A graph over `n` hosts from a raw edge list taken modulo `n`
    /// (sparse lists leave several components and isolated hosts).
    fn from_edges(n: usize, es: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::with_hosts(n);
        for &(a, c) in es {
            b.add_edge(HostId(a % n as u32), HostId(c % n as u32));
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every kernel-backed query agrees with the retained queue BFS
        /// on graphs of at most 64 hosts — disconnected ones, filtered
        /// ones, dead sources and dead cut vertices included.
        #[test]
        fn kernel_matches_reference_bfs(
            n in 1usize..=64,
            es in prop::collection::vec((0u32..64, 0u32..64), 0..160),
            dead in prop::collection::vec(0u32..64, 0..16),
            source in 0u32..64,
            seed in 0u64..1000,
        ) {
            let g = from_edges(n, &es);
            let source = HostId(source % n as u32);
            let alive = |h: HostId| !dead.iter().any(|&d| d % n as u32 == h.0);
            prop_assert_eq!(
                bfs_distances_filtered(&g, source, alive),
                reference::bfs_distances_filtered(&g, source, alive)
            );
            let full = reference::bfs_distances_filtered(&g, source, |_| true);
            prop_assert_eq!(&bfs_distances(&g, source), &full);
            let comps = reference::connected_components(&g);
            prop_assert_eq!(is_connected(&g), comps.len() <= 1);
            prop_assert_eq!(&connected_components(&g), &comps);
            prop_assert_eq!(
                diameter_estimate(&g, 1 + (seed % 4) as u32, seed),
                reference::diameter_estimate(&g, 1 + (seed % 4) as u32, seed)
            );
            let (fixed, added) = connect_components(&g);
            let (oracle, oracle_added) = reference::connect_components(&g);
            prop_assert_eq!(fixed.csr_parts(), oracle.csr_parts());
            prop_assert_eq!(fixed.num_edges(), oracle.num_edges());
            prop_assert_eq!(added, oracle_added);
        }
    }

    #[test]
    fn dead_cut_vertex_strands_the_far_side() {
        // Two triangles joined through host 3: 0-1-2-3-4-5-6 with chords.
        let es = [
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (4, 6),
        ];
        let g = from_edges(7, &es);
        for source in [0, 5] {
            let alive = |h: HostId| h != HostId(3);
            let d = bfs_distances_filtered(&g, HostId(source), alive);
            assert_eq!(
                d,
                reference::bfs_distances_filtered(&g, HostId(source), alive)
            );
            let stranded = d.iter().filter(|&&x| x == UNREACHABLE).count();
            assert_eq!(stranded, 4, "source {source}: 3 and the far side");
        }
    }

    #[test]
    fn star_expands_bottom_up_at_level_one() {
        // Hub 0, spokes 1..=20, each spoke with a pendant 20 + i: the
        // 20-host level 1 faces 20 unvisited pendants.
        let mut es: Vec<(u32, u32)> = (1..=20).map(|i| (0, i)).collect();
        es.extend((1..=20).map(|i| (i, 20 + i)));
        let g = from_edges(41, &es);
        let mut sweep = Sweep::new(41);
        let mut dist = vec![UNREACHABLE; 41];
        let levels = sweep.search(&g, HostId(0), |depth, level| {
            for &h in level {
                dist[h.index()] = depth;
            }
        });
        assert_eq!(levels, 3);
        assert_eq!(sweep.bottom_up_depths, vec![1]);
        assert_eq!(
            dist,
            reference::bfs_distances_filtered(&g, HostId(0), |_| true)
        );
    }

    #[test]
    fn path_stays_top_down_until_the_tail() {
        // A one-host frontier goes bottom-up only once fewer than 14
        // hosts are left unvisited: depth d leaves 63 − d of them.
        let g = path(64);
        let mut sweep = Sweep::new(64);
        let mut dist = vec![UNREACHABLE; 64];
        let levels = sweep.search(&g, HostId(0), |depth, level| {
            for &h in level {
                dist[h.index()] = depth;
            }
        });
        assert_eq!(levels, 64);
        assert_eq!(sweep.bottom_up_depths, (50..63).collect::<Vec<u32>>());
        assert_eq!(dist, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn search_skips_visited_and_dead_sources() {
        let g = path(4);
        let mut sweep = Sweep::new(4);
        sweep.reset(|h| h != HostId(2));
        assert_eq!(sweep.search(&g, HostId(2), |_, _| panic!("dead source")), 0);
        assert_eq!(sweep.search(&g, HostId(0), |_, _| {}), 2);
        assert_eq!(sweep.search(&g, HostId(1), |_, _| panic!("reached")), 0);
        assert_eq!(sweep.search(&g, HostId(3), |_, _| {}), 1);
    }

    /// Generated topologies are large enough for a frontier bulge, so
    /// middle levels run bottom-up here, unlike on the tiny graphs above.
    #[test]
    fn diameter_estimate_matches_reference_double_sweep() {
        for kind in TopologyKind::ALL {
            for n in [kind.min_hosts(), 50, 300, 3000] {
                for seed in 0..3u64 {
                    let g = kind.build(n, seed);
                    let what = format!("{} n={n} seed={seed}", kind.name());
                    for probes in [1, 4] {
                        assert_eq!(
                            diameter_estimate(&g, probes, seed | 1),
                            reference::diameter_estimate(&g, probes, seed | 1),
                            "{what} probes={probes}"
                        );
                    }
                    let source = HostId((seed as usize * 7919 % g.num_hosts()) as u32);
                    assert_eq!(
                        bfs_distances(&g, source),
                        reference::bfs_distances_filtered(&g, source, |_| true),
                        "{what}"
                    );
                }
            }
        }
    }
}
