//! Exact, prospective enforcement of the `(T, 1−ε)` jamming budget.
//!
//! **Definition** (Section 1.1): the adversary can jam at most
//! `⌊(1−ε)·w⌋` out of **any** `w ≥ T` contiguous slots; windows shorter
//! than `T` are unconstrained.
//!
//! **Prospectivity.** A naive enforcer that only checks windows *ending* at
//! the current slot is unsound: jamming slots `0..T−2` is never checked
//! (no window of length ≥ T has completed yet), yet once slot `T−1`
//! arrives the window `[0, T−1]` may already be violated with no way to
//! repair it. This enforcer therefore admits a jam of slot `t` only if
//! **every window containing `t` — past or future — can still satisfy its
//! bound**. Since future slots can only add jams, the binding constraint
//! for a start `s ≤ t` is the *shortest* completable window
//! `[s, max(t, s+T−1)]`:
//!
//! 1. for `s > t−T+1` (a suffix shorter than `T`): the window
//!    `[s, s+T−1]` of length exactly `T` must satisfy
//!    `J(s..t) ≤ ⌊(1−ε)·T⌋`; the binding `s` is `max(0, t−T+2)`;
//! 2. for `s ≤ t−T+1`: the completed window `[s, t]` must satisfy
//!    `J(s..t) ≤ ⌊(1−ε)(t−s+1)⌋`.
//!
//! **Soundness** (every completed window `[s, e]`, `e−s+1 ≥ T`, respects
//! the bound): let `t'` be the last jammed slot in `[s, e]`; the check at
//! `t'` bounded `J(s..t') = J(s..e)` by the allowance of
//! `max(T, t'−s+1) ≤ e−s+1` slots, and allowances are monotone.
//!
//! **Complexity.** With `P(x)` = jams in slots `0..x`, condition 1
//! bounds `P(t) − P(x)` for `x = max(0, t+1−T)`. With the potential
//! `G(x) = 2^32·P(x) − (2^32 − num)·x` (`ε = num/2^32`), condition 2 for
//! an integer jam count is *equivalent* to `G(t+1) ≤ min_{x ≤ t+1−T} G(x)`.
//! The slot `x = t+1−T` that leaves condition 1's window is the same `x`
//! that joins condition 2's eligible set, and against that one `x`
//! condition 2 reduces to condition 1 (both read
//! `(P(t) − P(x) + 1)·2^32 ≤ (2^32 − num)·T`). So one ring of the last
//! `T` prefix counts serves both conditions, the running minimum only
//! needs `x ≤ t−T`, and `G(t)` itself moves by `+num` or
//! `−(2^32 − num)` per slot — adds only, O(1) per slot, O(T) memory.

use crate::rate::Rate;

/// Stateful `(T, 1−ε)` budget enforcer.
///
/// Drive it one slot at a time: query [`JamBudget::can_jam`] for the slot
/// about to be played, then commit the decision with
/// [`JamBudget::advance`] — or do both at once with
/// [`JamBudget::try_jam`] / [`JamBudget::skip`], which run the admission
/// test at most once.
///
/// # Examples
///
/// ```
/// use jle_adversary::{JamBudget, Rate};
///
/// // (T = 4, 1 - eps = 1/2): at most floor(w/2) jams in any window w >= 4.
/// let mut budget = JamBudget::new(Rate::from_f64(0.5), 4);
/// // Short bursts inside a window shorter than T are allowed...
/// assert!(budget.try_jam());
/// assert!(budget.try_jam());
/// // ...but the enforcer never lets a completed window overflow.
/// assert!(!budget.try_jam());
/// assert_eq!(budget.total_jammed(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct JamBudget {
    eps: Rate,
    t_window: u64,
    /// Next slot index to be decided.
    now: u64,
    /// Total jams committed so far (`P(now)`).
    total_jams: u64,
    /// Prefix counts `P(x)` for `x ∈ [max(0, now+1−T), now]`, a ring of
    /// `min(now+1, T)` entries: it grows by push until it holds `T`, then
    /// `P(x)` lives at index `x mod T`.
    prefix: Vec<u64>,
    /// Index in `prefix` of the oldest entry, `P(max(0, now+1−T))`: `0`
    /// while the ring grows, then `(now+1) mod T`.
    oldest: usize,
    /// `G(now)`, kept by adds.
    g_now: i128,
    /// `min_{x ≤ now−T} G(x)`; `i128::MAX` while no `x` is eligible.
    min_g: i128,
    /// Precomputed `⌊(1−ε)·T⌋`.
    allow_t: u64,
    /// Precomputed `(2^32 − num)·(T−1)`: with `now − x = T−1`,
    /// `G(x) = G(now) − 2^32·(P(now) − P(x)) + (2^32 − num)·(T−1)`.
    g_span: i128,
}

impl JamBudget {
    /// Create an enforcer for a `(t_window, 1−eps)`-bounded adversary.
    ///
    /// # Panics
    /// Panics if `t_window == 0` (the paper requires `T ≥ 1`).
    pub fn new(eps: Rate, t_window: u64) -> Self {
        assert!(t_window >= 1, "T must be at least 1");
        let mut prefix = Vec::with_capacity((t_window as usize).min(1 << 22));
        prefix.push(0); // P(0)
        JamBudget {
            eps,
            t_window,
            now: 0,
            total_jams: 0,
            prefix,
            oldest: 0,
            g_now: 0,
            min_g: i128::MAX,
            allow_t: eps.allowance(t_window),
            g_span: eps.complement_num() as i128 * (t_window - 1) as i128,
        }
    }

    /// The ε of this budget.
    #[inline]
    pub fn eps(&self) -> Rate {
        self.eps
    }

    /// The window parameter `T`.
    #[inline]
    pub fn t_window(&self) -> u64 {
        self.t_window
    }

    /// Index of the slot about to be decided.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total jams committed so far.
    #[inline]
    pub fn total_jammed(&self) -> u64 {
        self.total_jams
    }

    /// Fraction of the jamming allowance spent so far: committed jams over
    /// `⌊(1−ε)·max(now, T)⌋` (windows shorter than `T` are measured
    /// against the `T`-slot allowance they are borrowing from). `0.0` when
    /// the allowance is zero; may briefly exceed `1.0` inside a window
    /// shorter than `T`, where bursts beyond the pro-rata bound are legal.
    pub fn spent_fraction(&self) -> f64 {
        let allowance = self.eps.allowance(self.now.max(self.t_window));
        if allowance == 0 {
            0.0
        } else {
            self.total_jams as f64 / allowance as f64
        }
    }

    /// Jams among the last `min(now, T−1)` committed slots.
    #[inline]
    fn recent_jams(&self) -> u64 {
        self.total_jams - self.prefix[self.oldest]
    }

    /// Whether jamming the slot about to be played would keep every window
    /// (past and future) satisfiable.
    #[inline]
    pub fn can_jam(&self) -> bool {
        // Condition 1: the length-T window starting at max(0, now−T+2).
        // Condition 2: G(now+1) with this jam against x ≤ now−T; the
        // newly eligible x = now+1−T is covered by condition 1 (module
        // docs).
        self.recent_jams() < self.allow_t && self.g_now + self.eps.num() as i128 <= self.min_g
    }

    /// Commit the decision for the slot about to be played.
    ///
    /// # Panics
    /// Panics if `jam` is `true` but the jam violates the budget — callers
    /// must consult [`JamBudget::can_jam`] first, or use
    /// [`JamBudget::try_jam`].
    pub fn advance(&mut self, jam: bool) {
        if jam {
            assert!(self.can_jam(), "budget violation: jam of slot {} rejected", self.now);
        }
        self.commit(jam);
    }

    /// [`advance`](Self::advance) without the admission check.
    #[inline]
    fn commit(&mut self, jam: bool) {
        let complement = self.eps.complement_num() as i128;
        if self.prefix.len() as u64 == self.t_window {
            // x = now+1−T leaves the jam window and joins the minimum;
            // its ring cell then takes P(now+1).
            let g_x = self.g_now - ((self.recent_jams() as i128) << 32) + self.g_span;
            self.min_g = self.min_g.min(g_x);
            self.total_jams += jam as u64;
            self.prefix[self.oldest] = self.total_jams;
            self.oldest += 1;
            if self.oldest == self.prefix.len() {
                self.oldest = 0;
            }
        } else {
            self.total_jams += jam as u64;
            self.prefix.push(self.total_jams);
        }
        self.g_now += ((jam as i128) << 32) - complement;
        self.now += 1;
    }

    /// Convenience: jam if permitted, then advance. Returns whether the
    /// slot was jammed.
    #[inline]
    pub fn try_jam(&mut self) -> bool {
        let ok = self.can_jam();
        self.commit(ok);
        ok
    }

    /// Advance one slot without jamming.
    #[inline]
    pub fn skip(&mut self) {
        self.commit(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force referee: check every window of length ≥ T.
    fn verify_all_windows(jams: &[bool], eps: Rate, t_window: u64) {
        let n = jams.len();
        let prefix: Vec<u64> = std::iter::once(0)
            .chain(jams.iter().scan(0u64, |acc, &j| {
                *acc += j as u64;
                Some(*acc)
            }))
            .collect();
        for s in 0..n {
            for e in s..n {
                let w = (e - s + 1) as u64;
                if w < t_window {
                    continue;
                }
                let count = prefix[e + 1] - prefix[s];
                assert!(
                    count <= eps.allowance(w),
                    "window [{s},{e}] has {count} jams > allowance {} (T={t_window})",
                    eps.allowance(w)
                );
            }
        }
    }

    #[test]
    fn greedy_half_small_window() {
        let eps = Rate::from_f64(0.5);
        let mut b = JamBudget::new(eps, 4);
        let jams: Vec<bool> = (0..64).map(|_| b.try_jam()).collect();
        verify_all_windows(&jams, eps, 4);
        // Greedy must achieve a substantial fraction of the budget.
        let total: u64 = jams.iter().map(|&j| j as u64).sum();
        assert!(total >= 16, "greedy only jammed {total}/64");
    }

    #[test]
    fn greedy_never_violates_many_params() {
        for &(p, q, t) in
            &[(1u64, 2u64, 1u64), (1, 2, 8), (1, 10, 16), (9, 10, 5), (1, 3, 100), (2, 3, 2)]
        {
            let eps = Rate::from_ratio(p, q);
            let mut b = JamBudget::new(eps, t);
            let jams: Vec<bool> = (0..400).map(|_| b.try_jam()).collect();
            verify_all_windows(&jams, eps, t);
        }
    }

    #[test]
    fn prefix_cannot_be_overjammed() {
        // The classic unsoundness of retrospective checking: with T = 10,
        // eps = 1/2, the first 9 slots must NOT be all jammable.
        let eps = Rate::from_f64(0.5);
        let mut b = JamBudget::new(eps, 10);
        let jams: Vec<bool> = (0..9).map(|_| b.try_jam()).collect();
        let count = jams.iter().filter(|&&j| j).count();
        assert!(count <= 5, "prefix jam count {count} exceeds allowance of window [0,9]");
    }

    #[test]
    fn t_equals_one_blocks_everything() {
        // With T = 1 every single slot is a window; allowance(1) = 0 for
        // any eps > 0, so no jam is ever possible.
        let eps = Rate::from_ratio(1, 100);
        let mut b = JamBudget::new(eps, 1);
        for _ in 0..50 {
            assert!(!b.try_jam());
        }
        assert_eq!(b.total_jammed(), 0);
    }

    #[test]
    fn short_bursts_inside_t_are_allowed() {
        // The paper: "the adversary can block even all slots in a short
        // window of less than T slots". With T = 8, eps = 1/2 the greedy
        // adversary's first 4 jams may be consecutive.
        let eps = Rate::from_f64(0.5);
        let mut b = JamBudget::new(eps, 8);
        let first4: Vec<bool> = (0..4).map(|_| b.try_jam()).collect();
        assert_eq!(first4, vec![true; 4]);
    }

    #[test]
    fn interleaved_requests_respect_budget() {
        // A bursty requester: ask for jams in blocks of 7, rest in blocks
        // of 3; verify the referee.
        let eps = Rate::from_ratio(1, 4);
        let mut b = JamBudget::new(eps, 6);
        let mut jams = Vec::new();
        for i in 0..300usize {
            let want = (i / 7) % 2 == 0;
            if want {
                jams.push(b.try_jam());
            } else {
                b.skip();
                jams.push(false);
            }
        }
        verify_all_windows(&jams, eps, 6);
    }

    #[test]
    #[should_panic(expected = "budget violation")]
    fn advance_panics_on_forced_violation() {
        let eps = Rate::from_f64(0.9);
        let mut b = JamBudget::new(eps, 2);
        // allowance(2) = floor(0.1 * 2) = 0: no jam ever permitted.
        b.advance(true);
    }

    #[test]
    fn long_run_rate_approaches_one_minus_eps() {
        let eps = Rate::from_ratio(1, 5); // allowance ~ 0.8 w
        let mut b = JamBudget::new(eps, 50);
        let n = 20_000u64;
        let mut total = 0u64;
        for _ in 0..n {
            total += b.try_jam() as u64;
        }
        let rate = total as f64 / n as f64;
        assert!(rate > 0.7 && rate <= 0.8 + 1e-9, "rate {rate} should approach 0.8");
    }

    #[test]
    fn saturating_million_slots_match_reference() {
        let eps = Rate::from_ratio(3, 10);
        let mut ring = JamBudget::new(eps, 64);
        let mut oracle = reference::JamBudget::new(eps, 64);
        for slot in 0..1_000_000u64 {
            assert_eq!(ring.try_jam(), oracle.try_jam(), "decision differs at slot {slot}");
        }
        assert_eq!(ring.total_jammed(), oracle.total_jammed());
        assert_eq!(ring.now(), oracle.now());
        assert_eq!(ring.spent_fraction().to_bits(), oracle.spent_fraction().to_bits());
    }

    #[test]
    fn can_jam_is_pure() {
        let eps = Rate::from_f64(0.5);
        let mut b = JamBudget::new(eps, 4);
        for _ in 0..100 {
            let a = b.can_jam();
            let bb = b.can_jam();
            assert_eq!(a, bb);
            b.advance(a);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests_support::verify_all_windows_ref;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// No request pattern can ever trick the enforcer into letting a
        /// completed window exceed its allowance.
        #[test]
        fn no_window_ever_violates(
            num in 1u64..Rate::SCALE,
            t in 1u64..40,
            requests in proptest::collection::vec(any::<bool>(), 1..300),
        ) {
            let eps = Rate::from_num(num);
            let mut b = JamBudget::new(eps, t);
            let mut jams = Vec::with_capacity(requests.len());
            for &want in &requests {
                if want {
                    jams.push(b.try_jam());
                } else {
                    b.skip();
                    jams.push(false);
                }
            }
            verify_all_windows_ref(&jams, eps, t);
        }

        /// The ring matches the two-delay-line reference decision for
        /// decision under any mix of `try_jam`, `skip` and legal
        /// `advance` (op 2: `advance(can_jam())`, op 3: `advance(false)`).
        #[test]
        fn matches_reference_enforcer(
            num in 1u64..Rate::SCALE,
            t in 1u64..=200,
            ops in proptest::collection::vec(0u8..4, 1..2001),
        ) {
            let ops = &ops[..ops.len().min(10 * t as usize)];
            let eps = Rate::from_num(num);
            let mut ring = JamBudget::new(eps, t);
            let mut oracle = super::reference::JamBudget::new(eps, t);
            for (i, &op) in ops.iter().enumerate() {
                prop_assert_eq!(ring.can_jam(), oracle.can_jam(), "can_jam differs at op {}", i);
                match op {
                    0 => prop_assert_eq!(ring.try_jam(), oracle.try_jam()),
                    1 => {
                        ring.skip();
                        oracle.skip();
                    }
                    2 => {
                        let jam = oracle.can_jam();
                        ring.advance(jam);
                        oracle.advance(jam);
                    }
                    _ => {
                        ring.advance(false);
                        oracle.advance(false);
                    }
                }
                prop_assert_eq!(ring.total_jammed(), oracle.total_jammed());
                prop_assert_eq!(ring.now(), oracle.now());
                prop_assert_eq!(
                    ring.spent_fraction().to_bits(),
                    oracle.spent_fraction().to_bits()
                );
            }
        }

        /// `try_jam` reports exactly the committed jams.
        #[test]
        fn totals_are_consistent(
            num in 1u64..Rate::SCALE,
            t in 1u64..20,
            len in 1usize..200,
        ) {
            let eps = Rate::from_num(num);
            let mut b = JamBudget::new(eps, t);
            let mut count = 0u64;
            for _ in 0..len {
                count += b.try_jam() as u64;
            }
            prop_assert_eq!(b.total_jammed(), count);
            prop_assert_eq!(b.now(), len as u64);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// Shared brute-force referee (also used by the proptests).
    pub fn verify_all_windows_ref(jams: &[bool], eps: Rate, t_window: u64) {
        let n = jams.len();
        let prefix: Vec<u64> = std::iter::once(0)
            .chain(jams.iter().scan(0u64, |acc, &j| {
                *acc += j as u64;
                Some(*acc)
            }))
            .collect();
        for s in 0..n {
            for e in s..n {
                let w = (e - s + 1) as u64;
                if w < t_window {
                    continue;
                }
                let count = prefix[e + 1] - prefix[s];
                assert!(
                    count <= eps.allowance(w),
                    "window [{s},{e}] has {count} jams > allowance {}",
                    eps.allowance(w)
                );
            }
        }
    }
}

/// The two-delay-line enforcer this module's ring replaced, kept
/// verbatim as the oracle the ring must match decision for decision.
#[cfg(test)]
#[allow(dead_code)] // verbatim: the oracle tests do not read every accessor
mod reference {
    use crate::rate::Rate;
    use std::collections::VecDeque;

    #[derive(Debug, Clone)]
    pub struct JamBudget {
        eps: Rate,
        t_window: u64,
        /// Next slot index to be decided.
        now: u64,
        /// Total jams committed so far (`P(now)`).
        total_jams: u64,
        /// Jam bits of the last `min(now, T−1)` slots, oldest first.
        recent: VecDeque<bool>,
        /// Number of `true` bits in `recent`.
        recent_jams: u64,
        /// `G(x)` values for `x` in `(now−T, now]` awaiting eligibility,
        /// oldest first (front is `G(now − len + 1)`).
        pending_g: VecDeque<i128>,
        /// `min_{x ≤ now − T} G(x)`; `G(0) = 0` is eligible from the start
        /// once `now ≥ T`.
        min_g_eligible: Option<i128>,
        /// Precomputed `⌊(1−ε)·T⌋`.
        allow_t: u64,
    }

    impl JamBudget {
        /// Create an enforcer for a `(t_window, 1−eps)`-bounded adversary.
        ///
        /// # Panics
        /// Panics if `t_window == 0` (the paper requires `T ≥ 1`).
        pub fn new(eps: Rate, t_window: u64) -> Self {
            assert!(t_window >= 1, "T must be at least 1");
            JamBudget {
                eps,
                t_window,
                now: 0,
                total_jams: 0,
                recent: VecDeque::with_capacity((t_window as usize).saturating_sub(1).min(1 << 22)),
                recent_jams: 0,
                pending_g: VecDeque::with_capacity((t_window as usize).min(1 << 22)),
                min_g_eligible: None,
                allow_t: eps.allowance(t_window),
            }
        }

        /// The ε of this budget.
        #[inline]
        pub fn eps(&self) -> Rate {
            self.eps
        }

        /// The window parameter `T`.
        #[inline]
        pub fn t_window(&self) -> u64 {
            self.t_window
        }

        /// Index of the slot about to be decided.
        #[inline]
        pub fn now(&self) -> u64 {
            self.now
        }

        /// Total jams committed so far.
        #[inline]
        pub fn total_jammed(&self) -> u64 {
            self.total_jams
        }

        /// Fraction of the jamming allowance spent so far: committed jams over
        /// `⌊(1−ε)·max(now, T)⌋` (windows shorter than `T` are measured
        /// against the `T`-slot allowance they are borrowing from). `0.0` when
        /// the allowance is zero; may briefly exceed `1.0` inside a window
        /// shorter than `T`, where bursts beyond the pro-rata bound are legal.
        pub fn spent_fraction(&self) -> f64 {
            let allowance = self.eps.allowance(self.now.max(self.t_window));
            if allowance == 0 {
                0.0
            } else {
                self.total_jams as f64 / allowance as f64
            }
        }

        /// `G(x)` for the *current* prefix (`x = now`), assuming `add` extra
        /// jams.
        #[inline]
        fn g_with(&self, extra_jams: u64, extra_slots: u64) -> i128 {
            let p = (self.total_jams + extra_jams) as i128 * Rate::SCALE as i128;
            let w = (self.now + extra_slots) as i128 * self.eps.complement_num() as i128;
            p - w
        }

        /// Whether jamming the slot about to be played would keep every window
        /// (past and future) satisfiable.
        pub fn can_jam(&self) -> bool {
            // Condition 1: the length-T window starting at max(0, now−T+2).
            // J over the last min(now, T−1) committed slots, plus this jam.
            if self.recent_jams + 1 > self.allow_t {
                return false;
            }
            // Condition 2: completed windows [s, now] with now−s+1 ≥ T,
            // i.e. x = s ∈ [0, now+1−T]. Equivalent: G(now+1) ≤ min G(x).
            if let Some(min_g) = self.eligible_min_with_current() {
                let g_next = self.g_with(1, 1);
                if g_next > min_g {
                    return false;
                }
            }
            true
        }

        /// `min_{x ≤ now+1−T} G(x)`, or `None` if no `x` is eligible yet.
        ///
        /// Eligible set for deciding slot `now`: `x ∈ [0, now+1−T]`. The
        /// delay-line bookkeeping in [`advance`](Self::advance) keeps
        /// `min_g_eligible` covering `x ≤ now−T`; the one newly eligible value
        /// `x = now+1−T` sits at the front of `pending_g` (or is `G(0) = 0`).
        fn eligible_min_with_current(&self) -> Option<i128> {
            if self.now + 1 < self.t_window {
                return None;
            }
            let newly = if self.now + 1 == self.t_window {
                // x = 0: G(0) = 0.
                0i128
            } else {
                // pending_g front is G(now − len + 1); we need G(now+1−T).
                // len is maintained at exactly T (see advance), so front is
                // G(now + 1 − T).
                *self.pending_g.front().expect("delay line non-empty once now+1 > T")
            };
            Some(match self.min_g_eligible {
                Some(m) => m.min(newly),
                None => newly,
            })
        }

        /// Commit the decision for the slot about to be played.
        ///
        /// # Panics
        /// Panics if `jam` is `true` but the jam violates the budget — callers
        /// must consult [`JamBudget::can_jam`] first (the engine does).
        pub fn advance(&mut self, jam: bool) {
            if jam {
                assert!(self.can_jam(), "budget violation: jam of slot {} rejected", self.now);
            }
            // Newly eligible G becomes part of the running minimum.
            if self.now + 1 >= self.t_window {
                let newly = if self.now + 1 == self.t_window {
                    0i128
                } else {
                    self.pending_g.pop_front().expect("delay line non-empty")
                };
                self.min_g_eligible = Some(match self.min_g_eligible {
                    Some(m) => m.min(newly),
                    None => newly,
                });
            }
            if jam {
                self.total_jams += 1;
                self.recent_jams += 1;
            }
            self.now += 1;
            // Push G(now) (prefix after this slot) into the delay line.
            self.pending_g.push_back(self.g_with(0, 0));
            debug_assert!(self.pending_g.len() as u64 <= self.t_window);
            // Maintain the trailing window of T−1 jam bits.
            self.recent.push_back(jam);
            if self.recent.len() as u64 > self.t_window.saturating_sub(1)
                && self.recent.pop_front() == Some(true)
            {
                self.recent_jams -= 1;
            }
        }

        /// Convenience: jam if permitted, then advance. Returns whether the
        /// slot was jammed.
        pub fn try_jam(&mut self) -> bool {
            let ok = self.can_jam();
            self.advance(ok);
            ok
        }

        /// Advance one slot without jamming.
        #[inline]
        pub fn skip(&mut self) {
            self.advance(false);
        }
    }
}
