//! Undirected simple graph over hosts.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Identifier of a host in the network.
///
/// The paper uses `h` for both the host identity and its attribute value
/// (§3, footnote 2); here `HostId` is only the identity — attribute values
/// live in the workload layer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl HostId {
    /// The id as a `usize` index, for array-backed host tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl From<u32> for HostId {
    fn from(v: u32) -> Self {
        HostId(v)
    }
}

/// An undirected simple graph `G = (H, E)` (§3.1), stored in
/// **compressed sparse row** (CSR) form.
///
/// Hosts are identified by dense ids `0..n`. All adjacency lists live in
/// one contiguous `targets` arena; `offsets[h]..offsets[h + 1]` indexes
/// host `h`'s slice of it. Compared to the former `Vec<Vec<HostId>>`
/// layout this is one allocation instead of `n + 1`, neighbour walks are
/// cache-linear across hosts (BFS, flood fan-out), and cloning a graph —
/// or refusing to, see `pov_sim::SimBuilder::over` — is two `memcpy`s.
///
/// Lists are kept sorted and deduplicated so iteration order (and
/// therefore every simulation built on top) is deterministic.
#[derive(Clone, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[h]..offsets[h + 1]` bounds host `h`'s slice of
    /// `targets`; length `n + 1`, `offsets[0] == 0`, non-decreasing.
    offsets: Vec<u32>,
    /// Concatenated neighbour lists, each sorted ascending.
    targets: Vec<HostId>,
    num_edges: usize,
}

impl Graph {
    /// An empty graph with `n` isolated hosts.
    pub fn with_hosts(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            num_edges: 0,
        }
    }

    /// Number of hosts `|H|`.
    #[inline]
    pub fn num_hosts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Average degree `2|E| / |H|`.
    pub fn average_degree(&self) -> f64 {
        if self.num_hosts() == 0 {
            return 0.0;
        }
        2.0 * self.num_edges as f64 / self.num_hosts() as f64
    }

    /// Neighbours `N(h)` of a host, sorted ascending — a borrow of the
    /// CSR arena, so engines and protocols can hold the slice without
    /// copying the list (the hot-path accessor: every send, broadcast
    /// and BFS expansion goes through here).
    #[inline]
    pub fn neighbors(&self, h: HostId) -> &[HostId] {
        &self.targets[self.offsets[h.index()] as usize..self.offsets[h.index() + 1] as usize]
    }

    /// Degree of a host.
    #[inline]
    pub fn degree(&self, h: HostId) -> usize {
        (self.offsets[h.index() + 1] - self.offsets[h.index()]) as usize
    }

    /// The CSR row bounds, `n + 1` words: host `h`'s neighbours are
    /// slots `offsets[h]..offsets[h + 1]` of the arena. Read-only, for a
    /// caller that wants the address of a row's bounds before it reads
    /// the row (the engine prefetches them a few events ahead).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Whether `(a, b)` is an edge. `O(log deg(a))`.
    pub fn has_edge(&self, a: HostId, b: HostId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all hosts.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.num_hosts() as u32).map(HostId)
    }

    /// Iterator over all undirected edges, each reported once with
    /// `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (HostId, HostId)> + '_ {
        self.hosts().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// Assemble a graph directly from CSR parts. The caller guarantees the
    /// invariants: `offsets` has length `n + 1`, is non-decreasing, starts
    /// at 0; each host's `targets` slice is sorted, deduplicated and
    /// symmetric. Used by the CSR-merging component patch kept as a test
    /// oracle in `reference`.
    #[cfg(test)]
    pub(crate) fn from_csr(offsets: Vec<u32>, targets: Vec<HostId>, num_edges: usize) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        debug_assert_eq!(targets.len(), 2 * num_edges);
        Graph {
            offsets,
            targets,
            num_edges,
        }
    }

    /// The raw CSR parts, for byte-level comparisons in tests.
    #[cfg(test)]
    pub(crate) fn csr_parts(&self) -> (&[u32], &[HostId]) {
        (&self.offsets, &self.targets)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("hosts", &self.num_hosts())
            .field("edges", &self.num_edges())
            .finish()
    }
}

/// Anything that can receive a stream of undirected edges.
///
/// Topology generators emit edges through this trait, which lets the
/// same generator body feed either the materialized [`GraphBuilder`]
/// (kept as the test oracle) or the flat [`StreamingBuilder`] used in
/// production. Implementations must treat `add_edge(a, b)` and
/// `add_edge(b, a)` as the same edge and ignore self-loops.
pub trait EdgeSink {
    /// Add the undirected edge `(a, b)`. Self-loops are ignored;
    /// duplicates are deduplicated at build time.
    fn add_edge(&mut self, a: HostId, b: HostId);
}

/// Incremental builder for [`Graph`]; tolerates duplicate edge insertions
/// and self-loops (both ignored), which keeps random generators simple.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    adjacency: Vec<Vec<HostId>>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` hosts.
    pub fn with_hosts(n: usize) -> Self {
        GraphBuilder {
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.adjacency.len()
    }

    /// Add the undirected edge `(a, b)`. Self-loops are ignored.
    pub fn add_edge(&mut self, a: HostId, b: HostId) {
        if a == b {
            return;
        }
        self.adjacency[a.index()].push(b);
        self.adjacency[b.index()].push(a);
    }

    /// Finalize: sort adjacency lists, drop duplicate edges, and pack
    /// the lists into the CSR arena.
    pub fn build(mut self) -> Graph {
        let mut num_half_edges = 0;
        for nbrs in &mut self.adjacency {
            nbrs.sort_unstable();
            nbrs.dedup();
            num_half_edges += nbrs.len();
        }
        let mut offsets = Vec::with_capacity(self.adjacency.len() + 1);
        let mut targets = Vec::with_capacity(num_half_edges);
        offsets.push(0u32);
        for nbrs in &self.adjacency {
            targets.extend_from_slice(nbrs);
            offsets.push(targets.len() as u32);
        }
        Graph {
            offsets,
            targets,
            num_edges: num_half_edges / 2,
        }
    }
}

impl EdgeSink for GraphBuilder {
    fn add_edge(&mut self, a: HostId, b: HostId) {
        GraphBuilder::add_edge(self, a, b);
    }
}

/// Streaming CSR builder: collects each undirected edge as one packed
/// `u64` pair and counting-sorts the pairs straight into the CSR arena.
///
/// Unlike [`GraphBuilder`] there is no per-host `Vec` (no `n` separate
/// allocations, no pointer-chasing during build): peak memory is one flat
/// pair buffer (8 bytes per inserted edge) plus the final CSR arrays, i.e.
/// `O(edges)` regardless of how skewed the degree distribution is. This is
/// what makes topology generation at `n = 10⁶` fit the scaling budget —
/// see `docs/SCALING.md`.
///
/// Produces output byte-identical to `GraphBuilder::build` for the same
/// edge multiset (property-tested per generator in
/// `generators::tests::streaming_matches_materialized_oracle`).
#[derive(Clone, Debug)]
pub struct StreamingBuilder {
    num_hosts: usize,
    /// Canonicalized edges, packed `(min << 32) | max`. Sorting these
    /// lexicographically is exactly sorting by `(min, max)`.
    pairs: Vec<u64>,
}

impl StreamingBuilder {
    /// A streaming builder for a graph with `n` hosts.
    pub fn with_hosts(n: usize) -> Self {
        StreamingBuilder {
            num_hosts: n,
            pairs: Vec::new(),
        }
    }

    /// A streaming builder with capacity reserved for `edges` insertions
    /// (counting duplicates). Generators that know their edge budget pass
    /// it here so the pair buffer never reallocates mid-stream.
    pub fn with_edge_capacity(n: usize, edges: usize) -> Self {
        StreamingBuilder {
            num_hosts: n,
            pairs: Vec::with_capacity(edges),
        }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.num_hosts
    }

    /// Add the undirected edge `(a, b)`. Self-loops are ignored.
    pub fn add_edge(&mut self, a: HostId, b: HostId) {
        if a == b {
            return;
        }
        debug_assert!(a.index() < self.num_hosts && b.index() < self.num_hosts);
        let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.pairs.push(((lo as u64) << 32) | hi as u64);
    }

    /// Finalize: sort and deduplicate the pair buffer, then counting-sort
    /// it into the CSR arena.
    pub fn build(self) -> Graph {
        let n = self.num_hosts;
        self.into_csr(vec![0; n + 1], vec![0; n])
    }

    /// Finalize as [`build`](Self::build) does, after wiring each
    /// secondary component to the largest one with a single edge between
    /// their lowest hosts — the patch [`crate::analysis::connect_components`]
    /// applies to a built graph, made here before the CSR exists so the
    /// arena is filled once. Returns the graph and the number of edges
    /// added.
    ///
    /// Components come from a union-find over the pair buffer whose two
    /// `n`-word arrays (parents, then component sizes) are the ones the
    /// CSR fill reuses as its cursors and offsets.
    pub fn build_connected(mut self) -> (Graph, usize) {
        let n = self.num_hosts;
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut size = vec![0u32; n + 1];
        let added = self.patch_components(&mut parent, &mut size);
        size.fill(0);
        (self.into_csr(size, parent), added)
    }

    /// Union-find over the pairs with path halving, the smaller root
    /// winning, so each root is its component's lowest host. Pushes one
    /// `(anchor, root)` pair per secondary component, where the anchor is
    /// the lowest host of the largest component — of equal-largest ones
    /// the last in lowest-host order — and returns how many it pushed.
    fn patch_components(&mut self, parent: &mut [u32], size: &mut [u32]) -> usize {
        fn find(parent: &mut [u32], mut h: u32) -> u32 {
            while parent[h as usize] != h {
                let grand = parent[parent[h as usize] as usize];
                parent[h as usize] = grand;
                h = grand;
            }
            h
        }
        for &p in &self.pairs {
            let a = find(parent, (p >> 32) as u32);
            let b = find(parent, p as u32);
            match a.cmp(&b) {
                Ordering::Less => parent[b as usize] = a,
                Ordering::Greater => parent[a as usize] = b,
                Ordering::Equal => {}
            }
        }
        let n = self.num_hosts as u32;
        for h in 0..n {
            size[find(parent, h) as usize] += 1;
        }
        // Path halving never points a non-root at itself, so the roots are
        // exactly the fixed points, met here in lowest-host order.
        let (mut anchor, mut largest, mut roots) = (0u32, 0u32, 0usize);
        for h in 0..n {
            if parent[h as usize] == h {
                roots += 1;
                if size[h as usize] >= largest {
                    (anchor, largest) = (h, size[h as usize]);
                }
            }
        }
        if roots <= 1 {
            return 0;
        }
        self.pairs.reserve(roots - 1);
        for h in 0..n {
            if parent[h as usize] == h && h != anchor {
                let (lo, hi) = (anchor.min(h), anchor.max(h));
                self.pairs.push(((lo as u64) << 32) | hi as u64);
            }
        }
        roots - 1
    }

    /// Sort and deduplicate the pair buffer, then counting-sort it into
    /// the CSR arena, given a zeroed `offsets` of `n + 1` words and a
    /// `cursor` of `n` words with any contents.
    ///
    /// Filling in pair-sorted order leaves every neighbour list already
    /// sorted ascending: host `h` first receives its smaller neighbours
    /// `c < h` (from pairs `(c, h)`, which sort before any `(h, ·)` pair),
    /// each in ascending `c` order, then its larger neighbours from
    /// `(h, b)` pairs in ascending `b` order.
    fn into_csr(mut self, mut offsets: Vec<u32>, mut cursor: Vec<u32>) -> Graph {
        self.pairs.sort_unstable();
        self.pairs.dedup();
        let n = self.num_hosts;
        let num_edges = self.pairs.len();
        assert!(
            num_edges <= (u32::MAX / 2) as usize,
            "edge count overflows u32 CSR offsets"
        );
        for &p in &self.pairs {
            offsets[(p >> 32) as usize + 1] += 1;
            offsets[(p & 0xffff_ffff) as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // cursor[h] = next free slot in h's CSR slice.
        cursor.copy_from_slice(&offsets[..n]);
        let mut targets = vec![HostId(0); 2 * num_edges];
        for &p in &self.pairs {
            let a = (p >> 32) as u32;
            let b = (p & 0xffff_ffff) as u32;
            targets[cursor[a as usize] as usize] = HostId(b);
            cursor[a as usize] += 1;
            targets[cursor[b as usize] as usize] = HostId(a);
            cursor[b as usize] += 1;
        }
        Graph {
            offsets,
            targets,
            num_edges,
        }
    }
}

impl EdgeSink for StreamingBuilder {
    fn add_edge(&mut self, a: HostId, b: HostId) {
        StreamingBuilder::add_edge(self, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::with_hosts(3);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(1), HostId(2));
        b.add_edge(HostId(2), HostId(0));
        b.build()
    }

    #[test]
    fn counts_hosts_and_edges() {
        let g = triangle();
        assert_eq!(g.num_hosts(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert!(g.hosts().all(|h| g.degree(h) == 2));
    }

    #[test]
    fn duplicate_edges_and_self_loops_are_ignored() {
        let mut b = GraphBuilder::with_hosts(2);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(1), HostId(0));
        b.add_edge(HostId(0), HostId(0));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(HostId(0)), 1);
        assert_eq!(g.degree(HostId(1)), 1);
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut b = GraphBuilder::with_hosts(4);
        b.add_edge(HostId(0), HostId(3));
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(0), HostId(2));
        let g = b.build();
        assert_eq!(g.neighbors(HostId(0)), &[HostId(1), HostId(2), HostId(3)]);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle();
        for (a, b) in g.edges() {
            assert!(g.has_edge(a, b));
            assert!(g.has_edge(b, a));
        }
        assert!(!g.has_edge(HostId(0), HostId(0)));
    }

    #[test]
    fn edges_reported_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (a, b) in edges {
            assert!(a < b);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::with_hosts(0);
        assert_eq!(g.num_hosts(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn streaming_builder_matches_graph_builder() {
        // Same insertion stream — duplicates, both orientations, a
        // self-loop — must produce byte-identical CSR parts.
        let inserts = [(0u32, 3u32), (3, 0), (0, 1), (2, 1), (0, 2), (2, 2)];
        let mut gb = GraphBuilder::with_hosts(4);
        let mut sb = StreamingBuilder::with_edge_capacity(4, inserts.len());
        for &(a, b) in &inserts {
            gb.add_edge(HostId(a), HostId(b));
            sb.add_edge(HostId(a), HostId(b));
        }
        let g = gb.build();
        let s = sb.build();
        assert_eq!(g.csr_parts(), s.csr_parts());
        assert_eq!(g.num_edges(), s.num_edges());
    }

    #[test]
    fn streaming_builder_sorted_neighbors_and_isolated_hosts() {
        let mut sb = StreamingBuilder::with_hosts(5);
        sb.add_edge(HostId(4), HostId(1));
        sb.add_edge(HostId(1), HostId(0));
        sb.add_edge(HostId(1), HostId(3));
        let g = sb.build();
        assert_eq!(g.neighbors(HostId(1)), &[HostId(0), HostId(3), HostId(4)]);
        assert_eq!(g.degree(HostId(2)), 0);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn streaming_builder_empty() {
        let g = StreamingBuilder::with_hosts(0).build();
        assert_eq!(g.num_hosts(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn clone_preserves_structure() {
        let g = triangle();
        let c = g.clone();
        assert_eq!(c.num_hosts(), g.num_hosts());
        assert_eq!(c.num_edges(), g.num_edges());
        for h in g.hosts() {
            assert_eq!(c.neighbors(h), g.neighbors(h));
        }
    }

    #[test]
    fn build_connected_anchors_the_later_of_equal_largest_components() {
        // {0, 1, 2} and {3, 4, 5} tie for largest; 6 and 7 are isolated.
        let mut sb = StreamingBuilder::with_hosts(8);
        for (a, b) in [(0, 1), (1, 2), (4, 3), (5, 4)] {
            sb.add_edge(HostId(a), HostId(b));
        }
        let raw = sb.clone().build();
        let (g, added) = sb.build_connected();
        assert_eq!(added, 3);
        assert_eq!(g.neighbors(HostId(3)), &[0, 4, 6, 7].map(HostId));
        let (oracle, oracle_added) = crate::reference::connect_components(&raw);
        assert_eq!(g.csr_parts(), oracle.csr_parts());
        assert_eq!((g.num_edges(), added), (oracle.num_edges(), oracle_added));
        let (replayed, replay_added) = crate::analysis::connect_components(&raw);
        assert_eq!(replayed.csr_parts(), g.csr_parts());
        assert_eq!(replay_added, added);
    }

    #[test]
    fn build_connected_is_build_on_a_connected_stream() {
        let mut sb = StreamingBuilder::with_hosts(4);
        for (a, b) in [(3, 0), (1, 2), (0, 1), (1, 0)] {
            sb.add_edge(HostId(a), HostId(b));
        }
        let (g, added) = sb.clone().build_connected();
        assert_eq!(added, 0);
        assert_eq!(g.csr_parts(), sb.build().csr_parts());
        assert_eq!(StreamingBuilder::with_hosts(0).build_connected().1, 0);
        assert_eq!(StreamingBuilder::with_hosts(1).build_connected().1, 0);
    }
}
