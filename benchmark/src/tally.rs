//! What one iteration answered, reduced to the numbers the benchmark
//! reports and checks: judged answers, how many were valid, what they
//! cost in messages, and a fingerprint over every answer.

/// Running reduction over an iteration's judged answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tally {
    /// Judged answers seen.
    pub answers: u64,
    /// Answers the oracle judged Single-Site Valid.
    pub valid: u64,
    /// Messages sent to produce them (the paper's communication price).
    pub messages: u64,
    /// Verdicts violating `|HC| ≤ |HU|` or `lower ≤ upper`.
    pub malformed: u64,
    hash: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            answers: 0,
            valid: 0,
            messages: 0,
            malformed: 0,
            // FNV-1a offset basis.
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Tally {
    /// Fold in one judged answer: `(value, declared_at, messages,
    /// verdict)` go into the fingerprint bit for bit.
    pub fn answer(
        &mut self,
        value: Option<f64>,
        declared_at: Option<u64>,
        messages: u64,
        valid: bool,
    ) {
        self.answers += 1;
        self.valid += u64::from(valid);
        self.messages += messages;
        self.mix(value.map_or(u64::MAX, f64::to_bits));
        self.mix(declared_at.unwrap_or(u64::MAX));
        self.mix(messages);
        self.mix(u64::from(valid));
    }

    /// Check the oracle's sets behind the last answer for shape:
    /// `HC ⊆ HU` forces `|HC| ≤ |HU|`, and an envelope runs low to high.
    pub fn sets(&mut self, hc: usize, hu: usize, bounds: Option<(f64, f64)>) {
        let ordered = bounds.is_none_or(|(lo, hi)| lo <= hi);
        if hc > hu || !ordered {
            self.malformed += 1;
        }
    }

    /// Hash over every answer folded in so far, in order.
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }

    /// Fraction of answers judged valid (`0` before any answer).
    pub fn valid_fraction(&self) -> f64 {
        self.valid as f64 / self.answers.max(1) as f64
    }

    /// Messages per judged answer (`0` before any answer).
    pub fn msgs_per_query(&self) -> f64 {
        self.messages as f64 / self.answers.max(1) as f64
    }

    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The correctness gate: every check the harness makes counts as one
/// attempted operation; a failed one is recorded with its reason.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Why (first few failures only; the count is exact).
    pub reasons: Vec<String>,
}

impl Gate {
    /// Count one check; record `why()` if it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.checks(1, u64::from(!ok), why);
    }

    /// Count `attempted` checks of one kind, `failed` of them failing.
    pub fn checks(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.reasons.len() < 16 {
            self.reasons.push(why());
        }
    }

    /// Failed checks over attempted ones.
    pub fn failed_fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_depends_on_every_field_and_on_order() {
        let base = |f: &dyn Fn(&mut Tally)| {
            let mut t = Tally::default();
            f(&mut t);
            t.fingerprint()
        };
        let a = base(&|t| t.answer(Some(5.0), Some(12), 100, true));
        assert_eq!(a, base(&|t| t.answer(Some(5.0), Some(12), 100, true)));
        assert_ne!(a, base(&|t| t.answer(Some(5.5), Some(12), 100, true)));
        assert_ne!(a, base(&|t| t.answer(Some(5.0), Some(13), 100, true)));
        assert_ne!(a, base(&|t| t.answer(Some(5.0), Some(12), 101, true)));
        assert_ne!(a, base(&|t| t.answer(Some(5.0), Some(12), 100, false)));
        assert_ne!(a, base(&|t| t.answer(None, Some(12), 100, true)));
        let ab = base(&|t| {
            t.answer(Some(1.0), None, 1, true);
            t.answer(Some(2.0), None, 2, false);
        });
        let ba = base(&|t| {
            t.answer(Some(2.0), None, 2, false);
            t.answer(Some(1.0), None, 1, true);
        });
        assert_ne!(ab, ba);
    }

    #[test]
    fn tally_ratios_and_shape_checks() {
        let mut t = Tally::default();
        t.answer(Some(10.0), Some(4), 30, true);
        t.sets(8, 10, Some((8.0, 10.0)));
        t.answer(Some(3.0), Some(4), 10, false);
        t.sets(9, 7, None); // |HC| > |HU|
        t.sets(1, 2, Some((5.0, 4.0))); // lower > upper
        assert_eq!((t.answers, t.valid, t.messages, t.malformed), (2, 1, 40, 2));
        assert_eq!(t.valid_fraction(), 0.5);
        assert_eq!(t.msgs_per_query(), 20.0);
    }

    #[test]
    fn gate_counts_and_keeps_reasons() {
        let mut g = Gate::default();
        g.check(true, || unreachable!());
        g.check(false, || "bad".into());
        g.checks(10, 0, || unreachable!());
        assert_eq!((g.attempted, g.failed), (12, 1));
        assert_eq!(g.reasons, ["bad"]);
        assert!((g.failed_fraction() - 1.0 / 12.0).abs() < 1e-12);
    }
}
