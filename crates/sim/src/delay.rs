//! Per-message delay models under the known bound `δ` (§3.1), and
//! temporary network partitions layered on top of them.

use crate::Time;
use pov_topology::{analysis, Graph, HostId};
use rand::rngs::SmallRng;
use rand::Rng;

/// How long a message takes to cross one edge, in ticks. The relaxed
/// asynchronous model only promises an *upper bound* `δ`; these models
/// let experiments exercise both the deterministic best case and
/// bounded jitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayModel {
    /// Every message takes exactly `d` ticks (the paper's simulations use
    /// lock-step hops, i.e. `Fixed(1)`).
    Fixed(u64),
    /// Each message independently takes a uniform number of ticks in
    /// `[min, max]`. `max` plays the role of `δ`.
    Uniform {
        /// Minimum per-hop delay (≥ 1).
        min: u64,
        /// Maximum per-hop delay (the bound `δ`).
        max: u64,
    },
}

impl DelayModel {
    /// Sample the delay for one message.
    pub fn sample(self, rng: &mut SmallRng) -> u64 {
        match self {
            DelayModel::Fixed(d) => d.max(1),
            DelayModel::Uniform { min, max } => {
                let lo = min.max(1);
                let hi = max.max(lo);
                rng.gen_range(lo..=hi)
            }
        }
    }

    /// The upper bound `δ` this model guarantees.
    pub fn bound(self) -> u64 {
        match self {
            DelayModel::Fixed(d) => d.max(1),
            DelayModel::Uniform { min, max } => max.max(min).max(1),
        }
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel::Fixed(1)
    }
}

/// One cut of a [`PartitionPlan`]: a side assignment plus the windows
/// during which it severs cross-side traffic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Cut {
    /// Per-host side assignment (index = host id).
    sides: Vec<u8>,
    /// Half-open windows `[from, until)` during which the cut is active.
    windows: Vec<(Time, Time)>,
}

impl Cut {
    fn is_active(&self, at: Time) -> bool {
        self.windows.iter().any(|&(f, u)| at >= f && at < u)
    }

    fn blocks(&self, at: Time, a: HostId, b: HostId) -> bool {
        self.sides[a.index()] != self.sides[b.index()] && self.is_active(at)
    }
}

/// A temporary network partition: while one of its windows is active,
/// messages whose endpoints sit on opposite sides of the cut are lost in
/// transit (the sender has already paid their communication cost, exactly
/// as for a message to a crashed host). Hosts on both sides stay alive —
/// this models *disconnection without departure*, the regime of
/// possibly-disconnected dynamic networks that the paper's §6.2 churn
/// model cannot express.
///
/// A plan holds one or more **cuts** — independent side assignments,
/// each with its own active windows. A single `new`/`split_bfs` plan is
/// one cut; [`PartitionPlan::stack`] overlays further cuts, which is how
/// the scenario grammar's repeated `[[partition]]` tables lower to
/// *cascading* partitions (overlapping outages with different
/// geometry). A message is dropped iff **any** cut both separates its
/// endpoints and is active at the *delivery* instant: traffic already
/// in flight when the links are severed is lost with them, and traffic
/// sent during the last `δ` before the heal completes normally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionPlan {
    cuts: Vec<Cut>,
}

impl PartitionPlan {
    /// A single-cut partition over an explicit side assignment (one
    /// entry per host). Add active windows with
    /// [`PartitionPlan::window`]; a plan with no windows never blocks
    /// anything.
    pub fn new(sides: Vec<u8>) -> Self {
        PartitionPlan {
            cuts: vec![Cut {
                sides,
                windows: Vec::new(),
            }],
        }
    }

    /// Split `graph` in two by BFS distance from `pivot`: the `fraction`
    /// of hosts nearest `pivot` (ties broken by host id; `pivot` first)
    /// form side 1, the rest side 0. This yields a geometrically coherent
    /// cut — one region of a grid, one neighbourhood of an overlay —
    /// rather than a random bisection no real outage produces.
    pub fn split_bfs(graph: &Graph, pivot: HostId, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0, 1]");
        let n = graph.num_hosts();
        let dist = analysis::bfs_distances(graph, pivot);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&h| (dist[h as usize], h));
        let take = crate::share(fraction, n);
        let mut sides = vec![0u8; n];
        for &h in order.iter().take(take) {
            sides[h as usize] = 1;
        }
        PartitionPlan::new(sides)
    }

    /// A BFS cut (see [`PartitionPlan::split_bfs`]) that severs about
    /// `fraction` of `graph` and keeps `spare` (the querying host) on
    /// the majority side. The pivot is a random host other than
    /// `spare`, drawn from `rng`, which keeps per-seed variety; when
    /// `spare` lands on the severed side, the cut is re-split from
    /// `spare` itself and flipped, so the minority is always remote.
    pub fn split_sparing(graph: &Graph, spare: HostId, fraction: f64, rng: &mut SmallRng) -> Self {
        let n = graph.num_hosts() as u32;
        let pivot = loop {
            let h = HostId(rng.gen_range(0..n));
            if h != spare {
                break h;
            }
        };
        let cut = PartitionPlan::split_bfs(graph, pivot, fraction);
        if cut.sides()[spare.index()] == 0 {
            return cut;
        }
        let from_spare = PartitionPlan::split_bfs(graph, spare, 1.0 - fraction);
        PartitionPlan::new(from_spare.sides().iter().map(|&s| 1 - s).collect())
    }

    /// Add an active window `[from, until)` to the most recently added
    /// cut. A zero-length window (`from == until`) is accepted but
    /// inert — it never activates the cut; window slicers clamp
    /// absolute-time windows into local time and must be able to
    /// represent (and then skip) the degenerate result. Inverted
    /// windows are rejected.
    pub fn window(mut self, from: Time, until: Time) -> Self {
        assert!(from <= until, "inverted partition window");
        self.cuts
            .last_mut()
            .expect("PartitionPlan::window on a cut-less plan")
            .windows
            .push((from, until));
        self
    }

    /// Overlay every cut of `other` on top of this plan — the cascading
    /// composition: each cut keeps its own side map and windows, and a
    /// message is lost if *any* of them severs it at delivery time.
    ///
    /// # Panics
    /// Panics if the two plans disagree on the host count.
    pub fn stack(mut self, other: PartitionPlan) -> Self {
        assert_eq!(
            self.num_hosts(),
            other.num_hosts(),
            "stacked partitions must cover the same host set"
        );
        self.cuts.extend(other.cuts);
        self
    }

    /// Stack `plans` in order (see [`PartitionPlan::stack`]); `None`
    /// when there are none.
    pub fn stack_all(plans: impl IntoIterator<Item = PartitionPlan>) -> Option<Self> {
        plans.into_iter().reduce(PartitionPlan::stack)
    }

    /// Number of hosts every cut's side map covers (0 for a cut-less
    /// plan).
    pub fn num_hosts(&self) -> usize {
        self.cuts.first().map_or(0, |c| c.sides.len())
    }

    /// Whether any cut's window covers instant `at`.
    pub fn is_active(&self, at: Time) -> bool {
        self.cuts.iter().any(|c| c.is_active(at))
    }

    /// Whether a message between `a` and `b` delivered at `at` is lost
    /// (some active cut separates them).
    pub fn blocks(&self, at: Time, a: HostId, b: HostId) -> bool {
        self.cuts.iter().any(|c| c.blocks(at, a, b))
    }

    /// Side assignment of the *primary* (first) cut — the whole story
    /// for single-cut plans, which every constructor produces.
    fn sides(&self) -> &[u8] {
        self.cuts.first().map_or(&[], |c| &c.sides)
    }

    /// Active windows `[from, until)` of the primary cut, in insertion
    /// order. Exposed so window-slicing executors (continuous queries)
    /// can re-express an absolute-time plan in a sub-interval's local
    /// time; multi-cut plans are sliced via [`PartitionPlan::cuts`].
    pub fn windows(&self) -> &[(Time, Time)] {
        self.cuts.first().map_or(&[], |c| &c.windows)
    }

    /// Every cut as `(sides, windows)`, in stacking order.
    pub fn cuts(&self) -> impl Iterator<Item = (&[u8], &[(Time, Time)])> + '_ {
        self.cuts
            .iter()
            .map(|c| (c.sides.as_slice(), c.windows.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_constant() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(DelayModel::Fixed(3).sample(&mut rng), 3);
        assert_eq!(DelayModel::Fixed(3).bound(), 3);
    }

    #[test]
    fn fixed_zero_clamps_to_one() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(DelayModel::Fixed(0).sample(&mut rng), 1);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(42);
        let m = DelayModel::Uniform { min: 1, max: 4 };
        for _ in 0..200 {
            let d = m.sample(&mut rng);
            assert!((1..=4).contains(&d));
        }
        assert_eq!(m.bound(), 4);
    }

    #[test]
    fn uniform_covers_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        let m = DelayModel::Uniform { min: 1, max: 3 };
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[m.sample(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn default_is_one_tick() {
        assert_eq!(DelayModel::default(), DelayModel::Fixed(1));
    }

    #[test]
    fn partition_blocks_only_cross_cut_during_window() {
        let plan = PartitionPlan::new(vec![0, 0, 1, 1]).window(Time(5), Time(10));
        // Outside the window: nothing blocked.
        assert!(!plan.blocks(Time(4), HostId(0), HostId(2)));
        assert!(!plan.blocks(Time(10), HostId(0), HostId(2)));
        // Inside: only cross-cut pairs.
        assert!(plan.blocks(Time(5), HostId(0), HostId(2)));
        assert!(plan.blocks(Time(9), HostId(3), HostId(1)));
        assert!(!plan.blocks(Time(7), HostId(0), HostId(1)));
        assert!(!plan.blocks(Time(7), HostId(2), HostId(3)));
    }

    #[test]
    fn partition_multiple_windows() {
        let plan = PartitionPlan::new(vec![0, 1])
            .window(Time(1), Time(2))
            .window(Time(5), Time(7));
        let active: Vec<u64> = (0u64..8).filter(|&t| plan.is_active(Time(t))).collect();
        assert_eq!(active, vec![1, 5, 6]);
    }

    #[test]
    fn split_bfs_takes_pivot_region() {
        use pov_topology::generators::special;
        let g = special::chain(10);
        let plan = PartitionPlan::split_bfs(&g, HostId(0), 0.4);
        // The 4 hosts nearest h0 on a chain are h0..h3.
        assert_eq!(plan.sides(), &[1, 1, 1, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn split_sparing_keeps_the_spare_on_the_majority_side() {
        use pov_topology::generators::special;
        let g = special::chain(10);
        let spare = HostId(0);
        let mut rng = SmallRng::seed_from_u64(3);
        // Twenty pivots reach both branches: a pivot beside the spare
        // sweeps it into the severed side and forces the re-split.
        for _ in 0..20 {
            let plan = PartitionPlan::split_sparing(&g, spare, 0.3, &mut rng);
            assert_eq!(plan.sides()[spare.index()], 0);
            assert_eq!(plan.sides().iter().filter(|&&s| s == 1).count(), 3);
        }
    }

    #[test]
    fn empty_plan_never_blocks() {
        let plan = PartitionPlan::new(vec![0, 1]);
        assert!(!plan.blocks(Time(0), HostId(0), HostId(1)));
        assert!(!plan.is_active(Time(100)));
    }

    #[test]
    fn zero_length_window_is_inert() {
        let plan = PartitionPlan::new(vec![0, 1]).window(Time(5), Time(5));
        assert!(!plan.is_active(Time(5)));
        assert!(!plan.blocks(Time(5), HostId(0), HostId(1)));
    }

    #[test]
    #[should_panic(expected = "inverted partition window")]
    fn rejects_inverted_window() {
        let _ = PartitionPlan::new(vec![0, 1]).window(Time(5), Time(4));
    }

    #[test]
    fn stacked_cuts_block_independently() {
        // Cut A separates {0,1} | {2,3} during [0, 10); cut B separates
        // {0,2} | {1,3} during [5, 15). Overlap [5, 10) blocks both.
        let a = PartitionPlan::new(vec![0, 0, 1, 1]).window(Time(0), Time(10));
        let b = PartitionPlan::new(vec![0, 1, 0, 1]).window(Time(5), Time(15));
        let plan = a.stack(b);
        assert_eq!(plan.num_hosts(), 4);
        assert_eq!(plan.cuts().count(), 2);
        // t=2: only cut A active.
        assert!(plan.blocks(Time(2), HostId(0), HostId(2)));
        assert!(!plan.blocks(Time(2), HostId(0), HostId(1)));
        // t=7: both active — 0↔1 (cut B) and 0↔2 (cut A) both severed,
        // while 0↔3 crosses both.
        assert!(plan.blocks(Time(7), HostId(0), HostId(1)));
        assert!(plan.blocks(Time(7), HostId(0), HostId(2)));
        assert!(plan.blocks(Time(7), HostId(0), HostId(3)));
        // t=12: only cut B remains.
        assert!(!plan.blocks(Time(12), HostId(0), HostId(2)));
        assert!(plan.blocks(Time(12), HostId(0), HostId(1)));
        // t=15: everything healed.
        assert!(!plan.is_active(Time(15)));
        // The primary-cut accessors still describe cut A.
        assert_eq!(plan.sides(), &[0, 0, 1, 1]);
        assert_eq!(plan.windows(), &[(Time(0), Time(10))]);
    }

    #[test]
    #[should_panic(expected = "same host set")]
    fn stack_rejects_host_count_mismatch() {
        let a = PartitionPlan::new(vec![0, 1]);
        let b = PartitionPlan::new(vec![0, 1, 1]);
        let _ = a.stack(b);
    }
}
