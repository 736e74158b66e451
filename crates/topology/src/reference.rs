//! The traversals the [`crate::analysis::Sweep`] kernel and the
//! union-find patch of [`crate::StreamingBuilder::build_connected`]
//! replaced, kept unchanged as test oracles: a `VecDeque` BFS, the
//! double sweep over its distance arrays, and the BFS-labelled component
//! patch that merged its edges into a second CSR.

use crate::analysis::UNREACHABLE;
use crate::{Graph, HostId};
use std::collections::VecDeque;

/// Queue BFS hop distances from `source` over the hosts `alive` accepts.
pub(crate) fn bfs_distances_filtered(
    g: &Graph,
    source: HostId,
    alive: impl Fn(HostId) -> bool,
) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_hosts()];
    if !alive(source) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.neighbors(u) {
            if dist[v.index()] == UNREACHABLE && alive(v) {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Repeated double sweep over full distance arrays, probing from the
/// same xorshift start hosts as `analysis::diameter_estimate`.
pub(crate) fn diameter_estimate(g: &Graph, probes: u32, seed: u64) -> u32 {
    let n = g.num_hosts();
    if n == 0 {
        return 0;
    }
    let mut best = 0;
    let mut state = seed | 1;
    for _ in 0..probes.max(1) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let start = HostId((state % n as u64) as u32);
        let d1 = bfs_distances_filtered(g, start, |_| true);
        let far = farthest(&d1).unwrap_or(start);
        let d2 = bfs_distances_filtered(g, far, |_| true);
        let ecc = d2
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0);
        best = best.max(ecc);
    }
    best
}

fn farthest(dist: &[u32]) -> Option<HostId> {
    dist.iter()
        .enumerate()
        .filter(|&(_, &d)| d != UNREACHABLE)
        .max_by_key(|&(_, &d)| d)
        .map(|(i, _)| HostId(i as u32))
}

/// Connected components by queue BFS from each unlabelled host; each
/// component sorted, components in lowest-host order.
pub(crate) fn connected_components(g: &Graph) -> Vec<Vec<HostId>> {
    let mut comp = vec![usize::MAX; g.num_hosts()];
    let mut components = Vec::new();
    for h in g.hosts() {
        if comp[h.index()] != usize::MAX {
            continue;
        }
        let id = components.len();
        let mut members = Vec::new();
        let mut queue = VecDeque::new();
        comp[h.index()] = id;
        queue.push_back(h);
        while let Some(u) = queue.pop_front() {
            members.push(u);
            for &v in g.neighbors(u) {
                if comp[v.index()] == usize::MAX {
                    comp[v.index()] = id;
                    queue.push_back(v);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

/// Wire each secondary component's lowest host to the largest
/// component's lowest host (the last of equal-largest ones), merging the
/// patch edges into a second CSR.
pub(crate) fn connect_components(g: &Graph) -> (Graph, usize) {
    let comps = connected_components(g);
    if comps.len() <= 1 {
        return (g.clone(), 0);
    }
    let largest = comps
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| c.len())
        .map(|(i, _)| i)
        .expect("at least one component");
    let anchor = comps[largest][0];
    let mut patch: Vec<(HostId, HostId)> = Vec::with_capacity(2 * (comps.len() - 1));
    let mut added = 0;
    for (i, c) in comps.iter().enumerate() {
        if i != largest {
            patch.push((anchor, c[0]));
            patch.push((c[0], anchor));
            added += 1;
        }
    }
    patch.sort_unstable();
    let n = g.num_hosts();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(2 * (g.num_edges() + added));
    offsets.push(0u32);
    let mut pi = 0;
    for h in g.hosts() {
        let old = g.neighbors(h);
        let start = pi;
        while pi < patch.len() && patch[pi].0 == h {
            pi += 1;
        }
        let extras = &patch[start..pi];
        let (mut oi, mut ei) = (0, 0);
        while oi < old.len() && ei < extras.len() {
            if old[oi] < extras[ei].1 {
                targets.push(old[oi]);
                oi += 1;
            } else {
                targets.push(extras[ei].1);
                ei += 1;
            }
        }
        targets.extend_from_slice(&old[oi..]);
        targets.extend(extras[ei..].iter().map(|&(_, nb)| nb));
        offsets.push(targets.len() as u32);
    }
    (
        Graph::from_csr(offsets, targets, g.num_edges() + added),
        added,
    )
}
