//! Bounded channel history — the adversary's knowledge base.
//!
//! The paper's adversary "knows the entire history of the channel and the
//! protocol executed by honest stations" and decides whether to jam a slot
//! *before* seeing the stations' actions in it. [`ChannelHistory`] records
//! everything slot by slot; to keep memory bounded for multi-million-slot
//! runs, per-slot records older than the retention window are dropped while
//! *cumulative counts* are kept exactly. All strategies shipped in
//! `jle-adversary` only consult recent slots and totals, so truncation is
//! observationally irrelevant to them.

use crate::slot::{ChannelState, SlotTruth};
use crate::trace::PackedSlot;
use serde::{Deserialize, Serialize};

/// Exact cumulative statistics over the entire run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateCounts {
    /// Slots observed as Null.
    pub nulls: u64,
    /// Slots observed as Single (necessarily unjammed).
    pub singles: u64,
    /// Slots observed as Collision (true collisions and jammed slots).
    pub collisions: u64,
    /// Jammed slots (subset of `collisions`).
    pub jammed: u64,
}

impl StateCounts {
    /// Total number of recorded slots.
    #[inline]
    pub fn total(&self) -> u64 {
        self.nulls + self.singles + self.collisions
    }

    fn record(&mut self, truth: &SlotTruth) {
        match truth.observed() {
            ChannelState::Null => self.nulls += 1,
            ChannelState::Single => self.singles += 1,
            ChannelState::Collision => self.collisions += 1,
        }
        if truth.jammed {
            self.jammed += 1;
        }
    }
}

/// Read-only view of the channel history, as exposed to adversaries.
pub trait HistoryView {
    /// Index of the next slot to be played (= number of completed slots).
    fn now(&self) -> u64;
    /// Packed record of a past slot, if still retained.
    fn slot(&self, slot: u64) -> Option<PackedSlot>;
    /// Observed state of a past slot, if still retained.
    fn observed(&self, slot: u64) -> Option<ChannelState> {
        self.slot(slot).map(|p| p.state())
    }
    /// The most recent completed slot, if any is retained.
    fn last(&self) -> Option<PackedSlot> {
        self.now().checked_sub(1).and_then(|s| self.slot(s))
    }
    /// Exact cumulative counts over the whole run.
    fn counts(&self) -> StateCounts;
    /// Oldest retained slot index.
    fn retained_from(&self) -> u64;
}

/// Most ring entries [`ChannelHistory::new`] allocates up front; larger
/// retentions grow the ring by doubling as slots arrive.
const INITIAL_RING: usize = 1 << 10;

/// Growable channel record with bounded per-slot retention.
#[derive(Debug, Clone)]
pub struct ChannelHistory {
    /// Power-of-two ring: slot `s` lives at `ring[s mod ring.len()]`. It
    /// grows by doubling (only before any slot has been dropped) until it
    /// holds `retention` slots.
    ring: Vec<PackedSlot>,
    retention: usize,
    /// The `now` at which the ring must double before the next push;
    /// `u64::MAX` once it has reached full size.
    grow_at: u64,
    now: u64,
    counts: StateCounts,
}

impl ChannelHistory {
    /// Create a history retaining at least `retention` most-recent slots
    /// (minimum 1).
    pub fn new(retention: usize) -> Self {
        let retention = retention.max(1);
        let len = retention.min(INITIAL_RING).next_power_of_two();
        let mut h = ChannelHistory {
            ring: vec![PackedSlot::new(&SlotTruth::IDLE); len],
            retention,
            grow_at: 0,
            now: 0,
            counts: StateCounts::default(),
        };
        h.grow_at = h.next_growth();
        h
    }

    /// Double the ring. Only reached while `now == ring.len() < retention`,
    /// so no slot has been dropped yet and every retained slot `s < now`
    /// already sits at its index in the longer ring.
    #[cold]
    fn grow(&mut self) {
        self.ring.resize(self.ring.len() * 2, PackedSlot::new(&SlotTruth::IDLE));
        self.grow_at = self.next_growth();
    }

    /// A ring shorter than the retention must double once it is full.
    fn next_growth(&self) -> u64 {
        if self.ring.len() < self.retention {
            self.ring.len() as u64
        } else {
            u64::MAX
        }
    }

    /// Ring index of `slot` (the length is a power of two).
    #[inline]
    fn cell(&self, slot: u64) -> usize {
        slot as usize & (self.ring.len() - 1)
    }

    /// Record the outcome of the next slot.
    #[inline]
    pub fn push(&mut self, truth: &SlotTruth) {
        if self.now == self.grow_at {
            self.grow();
        }
        self.counts.record(truth);
        let cell = self.cell(self.now);
        self.ring[cell] = PackedSlot::new(truth);
        self.now += 1;
    }

    /// Iterate over the `k` most recent retained slots, oldest first.
    pub fn recent(&self, k: usize) -> impl Iterator<Item = PackedSlot> + '_ {
        let k = (k as u64).min(self.now - self.retained_from());
        (self.now - k..self.now).map(move |s| self.ring[self.cell(s)])
    }

    /// Number of jammed slots among the last `k` retained slots.
    pub fn jammed_in_recent(&self, k: usize) -> u64 {
        self.recent(k).filter(|p| p.jammed()).count() as u64
    }
}

impl HistoryView for ChannelHistory {
    #[inline]
    fn now(&self) -> u64 {
        self.now
    }

    #[inline]
    fn slot(&self, slot: u64) -> Option<PackedSlot> {
        if slot < self.retained_from() || slot >= self.now {
            return None;
        }
        Some(self.ring[self.cell(slot)])
    }

    #[inline]
    fn counts(&self) -> StateCounts {
        self.counts
    }

    #[inline]
    fn retained_from(&self) -> u64 {
        self.now.saturating_sub(self.retention as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_under_truncation() {
        let mut h = ChannelHistory::new(4);
        for i in 0..100u64 {
            let truth = match i % 4 {
                0 => SlotTruth::new(0, false),
                1 => SlotTruth::new(1, false),
                2 => SlotTruth::new(5, false),
                _ => SlotTruth::new(0, true),
            };
            h.push(&truth);
        }
        let c = h.counts();
        assert_eq!(c.total(), 100);
        assert_eq!(c.nulls, 25);
        assert_eq!(c.singles, 25);
        assert_eq!(c.collisions, 50);
        assert_eq!(c.jammed, 25);
    }

    #[test]
    fn retention_window_moves() {
        let mut h = ChannelHistory::new(3);
        for _ in 0..10 {
            h.push(&SlotTruth::new(0, false));
        }
        assert_eq!(h.now(), 10);
        assert_eq!(h.retained_from(), 7);
        assert!(h.slot(6).is_none());
        assert!(h.slot(7).is_some());
        assert!(h.slot(9).is_some());
        assert!(h.slot(10).is_none());
    }

    #[test]
    fn last_and_observed() {
        let mut h = ChannelHistory::new(8);
        assert!(h.last().is_none());
        h.push(&SlotTruth::new(1, false));
        assert_eq!(h.last().unwrap().state(), ChannelState::Single);
        assert_eq!(h.observed(0), Some(ChannelState::Single));
        h.push(&SlotTruth::new(0, true));
        assert_eq!(h.last().unwrap().state(), ChannelState::Collision);
        assert!(h.last().unwrap().jammed());
    }

    #[test]
    fn recent_iterates_oldest_first() {
        let mut h = ChannelHistory::new(16);
        h.push(&SlotTruth::new(0, false)); // Null
        h.push(&SlotTruth::new(1, false)); // Single
        h.push(&SlotTruth::new(3, false)); // Collision
        let states: Vec<ChannelState> = h.recent(2).map(|p| p.state()).collect();
        assert_eq!(states, vec![ChannelState::Single, ChannelState::Collision]);
        let all: Vec<ChannelState> = h.recent(99).map(|p| p.state()).collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], ChannelState::Null);
    }

    #[test]
    fn jammed_in_recent_counts() {
        let mut h = ChannelHistory::new(8);
        for jam in [true, false, true, true] {
            h.push(&SlotTruth::new(0, jam));
        }
        // slots, oldest first: [jam, clear, jam, jam]
        assert_eq!(h.jammed_in_recent(1), 1);
        assert_eq!(h.jammed_in_recent(2), 2);
        assert_eq!(h.jammed_in_recent(3), 2);
        assert_eq!(h.jammed_in_recent(4), 3);
        assert_eq!(h.jammed_in_recent(100), 3);
    }

    /// The `VecDeque` record the ring replaced: exactly `retention`
    /// newest slots, oldest first.
    struct Reference {
        slots: std::collections::VecDeque<PackedSlot>,
        retention: usize,
        first: u64,
        counts: StateCounts,
    }

    impl Reference {
        fn new(retention: usize) -> Self {
            Reference {
                slots: Default::default(),
                retention: retention.max(1),
                first: 0,
                counts: StateCounts::default(),
            }
        }

        fn push(&mut self, truth: &SlotTruth) {
            self.counts.record(truth);
            self.slots.push_back(PackedSlot::new(truth));
            if self.slots.len() > self.retention {
                self.slots.pop_front();
                self.first += 1;
            }
        }

        fn now(&self) -> u64 {
            self.first + self.slots.len() as u64
        }

        fn slot(&self, slot: u64) -> Option<PackedSlot> {
            slot.checked_sub(self.first).and_then(|i| self.slots.get(i as usize).copied())
        }
    }

    /// A deterministic mix of nulls, singles, collisions and jams.
    fn truth_at(i: u64) -> SlotTruth {
        let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
        SlotTruth::new(x % 4, x & 0b1_0000 != 0)
    }

    fn assert_matches(h: &ChannelHistory, r: &Reference) {
        assert_eq!(h.now(), r.now());
        assert_eq!(h.retained_from(), r.first);
        assert_eq!(h.counts(), r.counts);
        assert_eq!(h.last(), r.now().checked_sub(1).and_then(|s| r.slot(s)));
        let from = r.first.saturating_sub(2);
        for s in from..r.now() + 2 {
            assert_eq!(h.slot(s), r.slot(s), "slot {s} at now {}", r.now());
        }
        let len = r.slots.len();
        for k in [0, 1, 2, len / 2, len, len + 5] {
            let want: Vec<PackedSlot> =
                r.slots.iter().skip(len.saturating_sub(k)).copied().collect();
            assert_eq!(h.recent(k).collect::<Vec<_>>(), want, "recent({k})");
            let jams = want.iter().filter(|p| p.jammed()).count() as u64;
            assert_eq!(h.jammed_in_recent(k), jams);
        }
    }

    /// Push `len` slots into both, checking cheap state every slot and the
    /// whole window at intervals and at the end.
    fn drive(h: &mut ChannelHistory, r: &mut Reference, len: u64) {
        for i in 0..len {
            let truth = truth_at(i);
            h.push(&truth);
            r.push(&truth);
            assert_eq!(h.now(), r.now());
            assert_eq!(h.retained_from(), r.first);
            assert_eq!(h.last(), r.slot(r.now() - 1));
            if i % 211 == 0 {
                assert_matches(h, r);
            }
        }
        assert_matches(h, r);
    }

    #[test]
    fn ring_matches_vecdeque_reference() {
        // Retention 1, powers of two, and non-powers of two on both sides
        // of the initial ring size (the ring grows past 1024).
        for retention in [0, 1, 2, 3, 5, 64, 100, 1000, 1024, 1025, 1500, 3000] {
            let mut h = ChannelHistory::new(retention);
            let mut r = Reference::new(retention);
            assert_matches(&h, &r);
            drive(&mut h, &mut r, 5000);
        }
    }

    #[test]
    fn huge_retention_allocates_lazily() {
        // Memory stays bounded by what has been pushed: construction
        // reserves at most 2^20 entries, and the ring only grows as slots
        // arrive.
        let mut h = ChannelHistory::new(1 << 40);
        assert!(h.ring.capacity() <= 1 << 20);
        let mut r = Reference::new(1 << 40);
        drive(&mut h, &mut r, 3000);
        assert!(h.ring.capacity() <= 4096);
        let h = ChannelHistory::new(usize::MAX);
        assert!(h.ring.capacity() <= 1 << 10);
        assert_eq!(h.retained_from(), 0);
    }
}
