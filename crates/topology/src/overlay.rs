//! A mutable overlay view over an immutable CSR [`Graph`].
//!
//! The CSR layout of [`Graph`] is the right shape for the engine's hot
//! path — one contiguous arena, slice-borrowed adjacency — but it is
//! frozen at build time. Overlay-maintenance protocols (HyParView-style
//! partial views, SWIM-style eviction) need edges that *evolve* during
//! a run. [`OverlayView`] provides that as a **delta layer**:
//!
//! * the **base** CSR graph stays untouched and shared;
//! * per-host **add/remove deltas** record how the overlay has diverged;
//! * [`OverlayView::neighbors`] serves the merged adjacency — hosts with
//!   no delta borrow the base CSR slice directly, touched hosts borrow a
//!   cached merged list that is updated in place on every mutation;
//! * [`OverlayView::compact`] periodically folds the deltas back into a
//!   fresh CSR base, bounding delta memory on long runs.
//!
//! Determinism: merged lists are kept sorted ascending (same contract as
//! [`Graph::neighbors`]), mutations are idempotent, and no iteration
//! order depends on hash state — the delta table is a dense per-host
//! vector, not a hash map.

use crate::{Graph, GraphBuilder, HostId};

/// Per-host divergence from the base CSR adjacency.
#[derive(Clone, Debug, Default)]
struct HostDelta {
    /// Neighbours present in the overlay but not in the base, sorted.
    added: Vec<HostId>,
    /// Base neighbours no longer present in the overlay, sorted.
    removed: Vec<HostId>,
    /// Cached merged adjacency (base − removed + added), sorted.
    merged: Vec<HostId>,
}

/// A mutable edge-set view layered over an immutable CSR [`Graph`].
///
/// See the module-level docs for the design. All mutators keep the
/// undirected-simple-graph invariants of [`Graph`]: edges are
/// symmetric, self-loops are rejected, duplicates are idempotent.
#[derive(Clone, Debug)]
pub struct OverlayView {
    base: Graph,
    /// `delta[h]` is `Some` iff host `h`'s adjacency has diverged.
    delta: Vec<Option<HostDelta>>,
    /// Hosts with a live delta (ascending insertion not required; reads
    /// never iterate this, only compaction statistics).
    touched: usize,
    num_edges: usize,
}

impl OverlayView {
    /// An overlay that initially mirrors `base` exactly.
    pub fn new(base: Graph) -> Self {
        let n = base.num_hosts();
        let num_edges = base.num_edges();
        OverlayView {
            base,
            delta: vec![None; n],
            touched: 0,
            num_edges,
        }
    }

    /// Number of hosts (fixed; the overlay mutates edges, not the host
    /// universe — aliveness lives in the engine).
    #[inline]
    pub fn num_hosts(&self) -> usize {
        self.base.num_hosts()
    }

    /// Number of undirected edges currently in the overlay.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The immutable base graph this view diverges from.
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Current neighbours of `h`, sorted ascending. Hosts whose
    /// adjacency never diverged borrow the base CSR arena; touched
    /// hosts borrow their cached merged list. Either way this is the
    /// same `&[HostId]` contract as [`Graph::neighbors`].
    #[inline]
    pub fn neighbors(&self, h: HostId) -> &[HostId] {
        match &self.delta[h.index()] {
            Some(d) => &d.merged,
            None => self.base.neighbors(h),
        }
    }

    /// Current degree of `h`.
    #[inline]
    pub fn degree(&self, h: HostId) -> usize {
        self.neighbors(h).len()
    }

    /// Whether `(a, b)` is currently an overlay edge. `O(log deg(a))`.
    pub fn has_edge(&self, a: HostId, b: HostId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all hosts.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.base.hosts()
    }

    /// Iterator over all current undirected edges, each reported once
    /// with `a < b`, in ascending `(a, b)` order.
    pub fn edges(&self) -> impl Iterator<Item = (HostId, HostId)> + '_ {
        self.hosts().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// Number of hosts whose adjacency currently diverges from base.
    pub fn delta_hosts(&self) -> usize {
        self.touched
    }

    /// Total size of the add/remove delta, in directed half-edges.
    /// The compaction policy triggers on this figure.
    pub fn delta_len(&self) -> usize {
        self.delta
            .iter()
            .flatten()
            .map(|d| d.added.len() + d.removed.len())
            .sum()
    }

    /// Add the undirected edge `(a, b)`. Returns `true` if the overlay
    /// changed (the edge was absent). Self-loops are rejected.
    pub fn add_edge(&mut self, a: HostId, b: HostId) -> bool {
        if a == b || self.has_edge(a, b) {
            return false;
        }
        self.half_add(a, b);
        self.half_add(b, a);
        self.num_edges += 1;
        true
    }

    /// Remove the undirected edge `(a, b)`. Returns `true` if the
    /// overlay changed (the edge was present).
    pub fn remove_edge(&mut self, a: HostId, b: HostId) -> bool {
        if a == b || !self.has_edge(a, b) {
            return false;
        }
        self.half_remove(a, b);
        self.half_remove(b, a);
        self.num_edges -= 1;
        true
    }

    fn ensure_delta(&mut self, h: HostId) -> &mut HostDelta {
        let slot = &mut self.delta[h.index()];
        if slot.is_none() {
            *slot = Some(HostDelta {
                added: Vec::new(),
                removed: Vec::new(),
                merged: self.base.neighbors(h).to_vec(),
            });
            self.touched += 1;
        }
        slot.as_mut().expect("just filled")
    }

    /// Record the directed half of an edge addition on `a`'s delta.
    fn half_add(&mut self, a: HostId, b: HostId) {
        let in_base = self.base.has_edge(a, b);
        let d = self.ensure_delta(a);
        if in_base {
            // Re-adding a previously removed base edge: shrink the
            // delta instead of growing it.
            if let Ok(i) = d.removed.binary_search(&b) {
                d.removed.remove(i);
            }
        } else if let Err(i) = d.added.binary_search(&b) {
            d.added.insert(i, b);
        }
        if let Err(i) = d.merged.binary_search(&b) {
            d.merged.insert(i, b);
        }
        self.collapse_if_clean(a);
    }

    /// Record the directed half of an edge removal on `a`'s delta.
    fn half_remove(&mut self, a: HostId, b: HostId) {
        let in_base = self.base.has_edge(a, b);
        let d = self.ensure_delta(a);
        if in_base {
            if let Err(i) = d.removed.binary_search(&b) {
                d.removed.insert(i, b);
            }
        } else if let Ok(i) = d.added.binary_search(&b) {
            d.added.remove(i);
        }
        if let Ok(i) = d.merged.binary_search(&b) {
            d.merged.remove(i);
        }
        self.collapse_if_clean(a);
    }

    /// Drop a host's delta entry once it converges back to base, so
    /// reads return to the zero-copy CSR path and `delta_len` reflects
    /// genuine divergence only.
    fn collapse_if_clean(&mut self, a: HostId) {
        let slot = &mut self.delta[a.index()];
        if let Some(d) = slot {
            if d.added.is_empty() && d.removed.is_empty() {
                *slot = None;
                self.touched -= 1;
            }
        }
    }

    /// Materialize the current merged edge set as a standalone CSR
    /// [`Graph`], leaving the view untouched.
    pub fn to_graph(&self) -> Graph {
        let mut b = GraphBuilder::with_hosts(self.num_hosts());
        for (x, y) in self.edges() {
            b.add_edge(x, y);
        }
        b.build()
    }

    /// Fold the deltas into a fresh CSR base. After compaction the view
    /// serves every host from the CSR arena again and `delta_len() == 0`.
    /// Call periodically (e.g. when [`OverlayView::delta_len`] crosses a
    /// threshold) to bound delta memory on long runs.
    pub fn compact(&mut self) {
        if self.touched == 0 {
            return;
        }
        self.base = self.to_graph();
        self.delta.iter_mut().for_each(|d| *d = None);
        self.touched = 0;
        debug_assert_eq!(self.base.num_edges(), self.num_edges);
    }
}

impl From<Graph> for OverlayView {
    fn from(g: Graph) -> Self {
        OverlayView::new(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::with_hosts(n);
        for i in 0..n.saturating_sub(1) {
            b.add_edge(HostId(i as u32), HostId(i as u32 + 1));
        }
        b.build()
    }

    #[test]
    fn mirrors_base_until_touched() {
        let g = path(4);
        let v = OverlayView::new(g.clone());
        assert_eq!(v.num_edges(), g.num_edges());
        for h in g.hosts() {
            assert_eq!(v.neighbors(h), g.neighbors(h));
        }
        assert_eq!(v.delta_hosts(), 0);
        assert_eq!(v.delta_len(), 0);
    }

    #[test]
    fn add_and_remove_merge_sorted() {
        let mut v = OverlayView::new(path(5));
        assert!(v.add_edge(HostId(0), HostId(4)));
        assert!(!v.add_edge(HostId(4), HostId(0)), "idempotent + symmetric");
        assert_eq!(v.neighbors(HostId(0)), &[HostId(1), HostId(4)]);
        assert!(v.remove_edge(HostId(1), HostId(2)));
        assert_eq!(v.neighbors(HostId(1)), &[HostId(0)]);
        assert_eq!(v.neighbors(HostId(2)), &[HostId(3)]);
        assert_eq!(v.num_edges(), 4);
        assert!(v.has_edge(HostId(0), HostId(4)));
        assert!(!v.has_edge(HostId(2), HostId(1)));
    }

    #[test]
    fn self_loops_and_double_removal_rejected() {
        let mut v = OverlayView::new(path(3));
        assert!(!v.add_edge(HostId(1), HostId(1)));
        assert!(v.remove_edge(HostId(0), HostId(1)));
        assert!(!v.remove_edge(HostId(0), HostId(1)));
        assert_eq!(v.num_edges(), 1);
    }

    #[test]
    fn readding_removed_base_edge_shrinks_delta() {
        let mut v = OverlayView::new(path(3));
        v.remove_edge(HostId(0), HostId(1));
        assert_eq!(v.edges().collect::<Vec<_>>(), vec![(HostId(1), HostId(2))]);
        assert_eq!(v.delta_len(), 2, "one removed edge, two half-edges");
        v.add_edge(HostId(0), HostId(1));
        assert_eq!(v.delta_len(), 0, "delta collapses when back at base");
        assert_eq!(v.delta_hosts(), 0);
        assert_eq!(v.neighbors(HostId(0)), &[HostId(1)]);
    }

    #[test]
    fn delta_introspection() {
        let mut v = OverlayView::new(path(4));
        v.add_edge(HostId(0), HostId(3));
        v.remove_edge(HostId(1), HostId(2));
        // Base edges 0-1, 1-2, 2-3: 0-3 added, 1-2 removed.
        assert_eq!(
            v.edges().collect::<Vec<_>>(),
            vec![
                (HostId(0), HostId(1)),
                (HostId(0), HostId(3)),
                (HostId(2), HostId(3))
            ]
        );
        assert_eq!(v.delta_hosts(), 4);
        assert_eq!(v.delta_len(), 4);
    }

    #[test]
    fn compact_folds_delta_into_csr() {
        let mut v = OverlayView::new(path(5));
        v.add_edge(HostId(0), HostId(4));
        v.remove_edge(HostId(2), HostId(3));
        let before: Vec<_> = v.edges().collect();
        let snapshot = v.to_graph();
        v.compact();
        assert_eq!(v.delta_len(), 0);
        assert_eq!(v.delta_hosts(), 0);
        let after: Vec<_> = v.edges().collect();
        assert_eq!(before, after);
        assert_eq!(v.num_edges(), snapshot.num_edges());
        for h in v.hosts() {
            assert_eq!(v.neighbors(h), snapshot.neighbors(h));
        }
        // Further mutation keeps working against the new base.
        assert!(v.add_edge(HostId(2), HostId(3)));
        assert!(v.has_edge(HostId(3), HostId(2)));
    }

    #[test]
    fn compact_on_clean_view_is_a_noop() {
        let mut v = OverlayView::new(path(3));
        let base_ptr = v.base().num_edges();
        v.compact();
        assert_eq!(v.base().num_edges(), base_ptr);
        assert_eq!(v.num_edges(), 2);
    }

    #[test]
    fn edges_reported_once_sorted() {
        let mut v = OverlayView::new(path(4));
        v.add_edge(HostId(3), HostId(0));
        let edges: Vec<_> = v.edges().collect();
        assert_eq!(
            edges,
            vec![
                (HostId(0), HostId(1)),
                (HostId(0), HostId(3)),
                (HostId(1), HostId(2)),
                (HostId(2), HostId(3)),
            ]
        );
    }
}
