//! Dense alive-set index: the engine's "active hosts" invariant.
//!
//! Every per-wave structure the engine used to maintain with an
//! `O(hosts)` scan — churn/overlay summary refreshes, telemetry
//! protocol-state samples, alive counts — now iterates this bitset
//! instead, making per-poll work proportional to the *active*
//! population rather than the full host range (the n = 10⁶ requirement;
//! see `docs/SCALING.md`). The index is maintained incrementally by the
//! engine's two membership toggles (`Simulation::fail` / `join`, which
//! planned and churn-source events share) alongside the flat
//! `Vec<bool>` that [`EngineView`](crate::EngineView) exposes for O(1)
//! reads.
//!
//! Cost model: one bit per host (1/8 the `Vec<bool>`), O(1) toggles, an
//! O(count + words) ascending iteration, and an O(1) count.

/// A bitset over dense host ids with an incrementally maintained
/// population count, owned by one simulation.
pub(crate) struct AliveSet {
    words: Vec<u64>,
    num_hosts: usize,
    count: usize,
}

impl AliveSet {
    /// An all-dead set over `n` hosts.
    pub(crate) fn with_hosts(n: usize) -> Self {
        AliveSet {
            words: vec![0; n.div_ceil(64)],
            num_hosts: n,
            count: 0,
        }
    }

    /// Build from existing flags (the builder's initial membership).
    pub(crate) fn from_flags(flags: &[bool]) -> Self {
        let mut set = AliveSet::with_hosts(flags.len());
        for (i, &alive) in flags.iter().enumerate() {
            if alive {
                set.words[i / 64] |= 1u64 << (i % 64);
                set.count += 1;
            }
        }
        set
    }

    /// Set host `i`'s membership; returns whether the bit changed.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, alive: bool) -> bool {
        debug_assert!(i < self.num_hosts);
        let (word, mask) = (i / 64, 1u64 << (i % 64));
        let was = self.words[word] & mask != 0;
        if was == alive {
            return false;
        }
        self.words[word] ^= mask;
        if alive {
            self.count += 1;
        } else {
            self.count -= 1;
        }
        true
    }

    /// Number of alive hosts. O(1).
    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Ascending iteration over alive host indices. O(count) bit pops
    /// plus O(hosts / 64) word loads.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            std::iter::successors((bits != 0).then_some(bits), |&b| {
                let rest = b & (b - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |b| w * 64 + b.trailing_zeros() as usize)
        })
    }

    /// Debug-only consistency check: the incremental count matches a
    /// recount of the raw words.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn verify(&self) {
        let recount: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(recount, self.count, "alive-set count drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggles_and_counts() {
        let mut s = AliveSet::with_hosts(130);
        assert_eq!(s.count(), 0);
        assert!(s.set(0, true));
        assert!(s.set(64, true));
        assert!(s.set(129, true));
        assert!(!s.set(64, true), "idempotent set");
        assert_eq!(s.count(), 3);
        assert!(s.set(64, false));
        assert!(!s.set(64, false), "idempotent clear");
        assert_eq!(s.count(), 2);
        s.verify();
    }

    #[test]
    fn iteration_is_ascending_and_exact() {
        let mut s = AliveSet::with_hosts(200);
        for i in [0usize, 3, 63, 64, 65, 127, 128, 199] {
            s.set(i, true);
        }
        s.set(65, false);
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 3, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn from_flags_matches() {
        let flags: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let s = AliveSet::from_flags(&flags);
        assert_eq!(s.count(), flags.iter().filter(|&&a| a).count());
        for i in s.iter() {
            assert!(flags[i]);
        }
        s.verify();
    }

    #[test]
    fn empty_set() {
        let s = AliveSet::with_hosts(0);
        assert_eq!(s.count(), 0);
        assert_eq!(s.iter().count(), 0);
    }
}
