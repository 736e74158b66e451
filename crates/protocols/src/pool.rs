//! A thread-local arena of recycled per-host protocol buffers.
//!
//! The sibling of `pov_sim`'s engine arena, one layer up: where the
//! engine recycles a handful of `O(hosts)` vectors per simulation, the
//! protocols allocate *per host* — every DAG host carries a parent
//! table and a neighbour-classification set, every SPANNINGTREE host a
//! classification set, and `hq` in ALLREPORT a collected-values vector.
//! A scenario batch builds and drops thousands of simulations per
//! worker thread, so those per-host collections hit the allocator
//! `O(cells × hosts)` times. Nodes take their collections from this
//! pool at construction and return them in `Drop`, turning the steady
//! state into pointer swaps.
//!
//! Determinism is unaffected: recycled buffers come back *cleared*
//! (capacity retained), and the protocols only `len`/`insert`/
//! `contains`/`push` these collections — none iterates a set, so even
//! a `HashSet`'s retained hasher state cannot influence behaviour.
//! Batch outputs are bit-identical to fresh-allocation runs.
//!
//! The retention cap is far above the engine arena's: these are
//! per-host shapes, so serving one simulation from the pool needs up to
//! `hosts` buffers per shape, not a handful. [`KEEP`] buffers of ~node
//! degree capacity each bound the idle pool to a few megabytes per
//! thread while fully recycling the scenario library's cell sizes.

use crate::mux::{MuxItem, QueryId};
use pov_topology::HostId;
use std::cell::RefCell;
use std::collections::HashSet;

/// Maximum recycled buffers retained per shape. Sized for the scenario
/// library (cells up to a few thousand hosts are served entirely from
/// the pool); million-host runs simply allocate past it.
const KEEP: usize = 4096;

#[derive(Default)]
struct Pool {
    hosts: Vec<Vec<HostId>>,
    host_sets: Vec<HashSet<HostId>>,
    values: Vec<Vec<u64>>,
    mux_items: Vec<Vec<(QueryId, MuxItem)>>,
    /// The mux engine's per-neighbour outgoing buffers: empty between
    /// timer firings, so one set serves every host on the thread.
    mux_out: Vec<Vec<(QueryId, MuxItem)>>,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

macro_rules! pooled {
    ($take:ident, $put:ident, $field:ident, $t:ty) => {
        /// Take a cleared collection from the pool (allocating an empty
        /// one only if the pool is dry).
        pub(crate) fn $take() -> $t {
            let mut v: $t = POOL
                .with(|p| p.borrow_mut().$field.pop())
                .unwrap_or_default();
            v.clear();
            v
        }

        /// Return a collection to the pool for reuse. Buffers that never
        /// allocated are dropped — recycling them would pool nothing.
        pub(crate) fn $put(v: $t) {
            if v.capacity() == 0 {
                return;
            }
            POOL.with(|p| {
                let pool = &mut p.borrow_mut().$field;
                if pool.len() < KEEP {
                    pool.push(v);
                }
            });
        }
    };
}

pooled!(take_hosts, put_hosts, hosts, Vec<HostId>);
pooled!(take_host_set, put_host_set, host_sets, HashSet<HostId>);
pooled!(take_values, put_values, values, Vec<u64>);
pooled!(
    take_mux_items,
    put_mux_items,
    mux_items,
    Vec<(QueryId, MuxItem)>
);

/// Borrow the thread's mux outgoing buffers (one per neighbour slot,
/// each empty, capacity retained) for one timer firing.
pub(crate) fn take_mux_out() -> Vec<Vec<(QueryId, MuxItem)>> {
    POOL.with(|p| std::mem::take(&mut p.borrow_mut().mux_out))
}

/// Hand the outgoing buffers back once the firing has shipped them.
pub(crate) fn put_mux_out(bufs: Vec<Vec<(QueryId, MuxItem)>>) {
    debug_assert!(bufs.iter().all(Vec::is_empty), "unshipped mux items");
    POOL.with(|p| p.borrow_mut().mux_out = bufs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_cleared_collections() {
        let mut s = take_host_set();
        s.insert(HostId(7));
        put_host_set(s);
        let s = take_host_set();
        assert!(s.is_empty(), "recycled set must come back cleared");
        assert!(s.capacity() > 0, "recycled set must keep its table");
        put_host_set(s);

        let mut v = take_hosts();
        v.push(HostId(1));
        put_hosts(v);
        let v = take_hosts();
        assert!(v.is_empty() && v.capacity() > 0);
        put_hosts(v);
    }

    #[test]
    fn unallocated_buffers_are_not_pooled() {
        let before = POOL.with(|p| p.borrow().values.len());
        put_values(Vec::new());
        assert_eq!(POOL.with(|p| p.borrow().values.len()), before);
    }

    #[test]
    fn pool_bounds_retention() {
        for _ in 0..(KEEP + 100) {
            put_values(vec![0; 4]);
        }
        assert!(POOL.with(|p| p.borrow().values.len()) <= KEEP);
    }
}
