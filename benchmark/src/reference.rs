//! The reference kernel: what the harness times itself against.
//!
//! The box this benchmark runs on is a slice of a shared host, and its
//! memory system has a fast and a slow state that alternate every few
//! minutes with nothing else running in the guest: the same iteration
//! reads 25–70% slower in the slow state, for minutes on end, so no
//! estimator over one run's wall seconds repeats within the 25% the
//! benchmark contract allows (README, "The machine factor"). What does
//! repeat is an iteration's time *relative to a fixed piece of work done
//! at the same moment*. This module is that piece of work: a chain of
//! dependent loads through one random cycle over an 8 MiB table — too big
//! for the core's own caches, so every step pays what the shared cache
//! and memory cost right now. It is harness code, touches nothing of the
//! crates under test, and does the same work on every commit.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 2 Mi × 4 bytes = 8 MiB.
const SLOTS: usize = 2 * 1024 * 1024;
/// Dependent loads per sample (about 20 ms).
const STEPS: usize = 200_000;
/// What one step costs on this box in its fast state. Only fixes the
/// scale: a factor of 1 is the fast state, 1.4 a box 40% slower.
const NOMINAL_NS_PER_STEP: f64 = 100.0;

/// The kernel and the latest reading of it.
pub struct Reference {
    /// `table[i]` is the slot visited after slot `i`; one cycle through
    /// all of them.
    table: Vec<u32>,
    at: u32,
    /// The latest sample, as a machine factor.
    last: f64,
    /// Every factor handed out by [`Reference::timed`].
    factors: Vec<f64>,
}

impl Reference {
    /// Build the table (Sattolo's shuffle from a fixed xorshift stream:
    /// the same cycle in every process) and take the first sample.
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..SLOTS as u32).collect();
        let mut s = 88_172_645_463_325_252_u64;
        for i in (1..SLOTS).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            table.swap(i, (s % i as u64) as usize);
        }
        let mut reference = Reference {
            table,
            at: 0,
            last: 1.0,
            factors: Vec::new(),
        };
        reference.sample();
        reference
    }

    fn sample(&mut self) {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.table[at as usize];
        }
        self.at = black_box(at);
        let ns_per_step = start.elapsed().as_secs_f64() * 1e9 / STEPS as f64;
        self.last = ns_per_step / NOMINAL_NS_PER_STEP;
    }

    /// Run `work` between the latest sample and a fresh one. Returns its
    /// result, its wall seconds, and the machine factor around it: the
    /// mean of the two samples.
    pub fn timed<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.last;
        let start = Instant::now();
        let out = work();
        let wall = start.elapsed().as_secs_f64();
        self.sample();
        let factor = (before + self.last) / 2.0;
        self.factors.push(factor);
        (out, wall, factor)
    }

    /// Every factor handed out so far, in order.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle_through_every_slot() {
        let reference = Reference::new();
        let mut seen = vec![false; SLOTS];
        let mut at = 0u32;
        for _ in 0..SLOTS {
            assert!(!seen[at as usize], "slot {at} visited twice");
            seen[at as usize] = true;
            at = reference.table[at as usize];
        }
        assert_eq!(at, 0, "the walk does not close after {SLOTS} steps");
    }

    #[test]
    fn timed_reports_the_work_and_a_positive_factor() {
        let mut reference = Reference::new();
        let (out, wall, factor) = reference.timed(|| 7);
        assert_eq!(out, 7);
        assert!(wall >= 0.0 && factor > 0.0 && factor.is_finite());
        assert_eq!(reference.factors(), [factor]);
    }
}
