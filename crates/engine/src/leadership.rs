//! Leadership tracking: who believes they are leader, right now?
//!
//! In the paper's closed world a run ends the moment a leader emerges, so
//! "the set of current leaders" is only ever inspected once, at the end.
//! Open-world runs (churn + leader leases) keep going: leaders step down,
//! depart, get re-elected — and, under jamming, two stations can
//! transiently *both* believe they lead (split brain). This module
//! provides the engine-side instrumentation for that regime:
//!
//! * [`LeaderLedger`] — a shared registry where protocol instances assert
//!   and renounce leadership beliefs. Entries carry the slot of their
//!   last assertion and expire after a TTL, so a believer that churns out
//!   (and therefore never renounces) stops counting once its lease would
//!   have lapsed — exactly the lease semantics real systems use.
//! * [`SplitBrainObserver`] — a passive [`SlotObserver`] that samples the
//!   ledger every slot, flags windows with ≥2 concurrent believers,
//!   measures time-to-resolution, and deposits
//!   [`SplitBrainStats`] on the report.
//!
//! The observer is strictly passive (golden-seed pinned): it reads the
//! ledger and writes report fields, never the simulation state.

use crate::core::SlotActions;
use crate::observer::SlotObserver;
use crate::report::{RunReport, SplitBrainStats};
use jle_radio::SlotTruth;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A shared registry of live leadership beliefs (see the module docs).
///
/// Cheap to clone behind an [`Arc`]; protocol instances hold one handle
/// each and the observer another. All methods take `&self`.
#[derive(Debug)]
pub struct LeaderLedger {
    /// station → slot of its last leadership assertion.
    beliefs: Mutex<BTreeMap<u64, u64>>,
    reelections: AtomicU64,
    ttl: u64,
}

impl LeaderLedger {
    /// A ledger whose beliefs expire `ttl` slots after their last
    /// assertion (a leader must re-assert at least that often to keep
    /// counting as a believer).
    ///
    /// # Panics
    /// Panics if `ttl` is zero.
    pub fn new(ttl: u64) -> Arc<Self> {
        assert!(ttl > 0, "belief TTL must be positive");
        Arc::new(LeaderLedger {
            beliefs: Mutex::new(BTreeMap::new()),
            reelections: AtomicU64::new(0),
            ttl,
        })
    }

    /// The belief TTL in slots.
    pub fn ttl(&self) -> u64 {
        self.ttl
    }

    /// Station `station` asserts (or refreshes) its leadership belief at
    /// `slot`.
    pub fn assert_leader(&self, station: u64, slot: u64) {
        self.beliefs.lock().unwrap().insert(station, slot);
    }

    /// Station `station` explicitly steps down.
    pub fn renounce(&self, station: u64) {
        self.beliefs.lock().unwrap().remove(&station);
    }

    /// Record one re-election (a station re-entering election after lease
    /// loss).
    pub fn note_reelection(&self) {
        self.reelections.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of re-elections recorded so far.
    pub fn reelections(&self) -> u64 {
        self.reelections.load(Ordering::Relaxed)
    }

    /// Number of live (unexpired as of `slot`) believers. Expired entries
    /// are pruned as a side effect.
    pub fn live_count(&self, slot: u64) -> usize {
        let mut beliefs = self.beliefs.lock().unwrap();
        beliefs.retain(|_, last| slot.saturating_sub(*last) <= self.ttl);
        beliefs.len()
    }

    /// The sorted station ids of live believers as of `slot`.
    pub fn live_believers(&self, slot: u64) -> Vec<u64> {
        let mut beliefs = self.beliefs.lock().unwrap();
        beliefs.retain(|_, last| slot.saturating_sub(*last) <= self.ttl);
        beliefs.keys().copied().collect()
    }
}

/// A resolved (or still-open) split-brain interval, for flight-recorder
/// postmortems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitInterval {
    /// First slot with ≥2 concurrent believers.
    pub from: u64,
    /// First slot back at ≤1 believer, or `None` if still split when the
    /// run ended.
    pub until: Option<u64>,
    /// Peak number of concurrent believers inside the interval.
    pub peak: u64,
}

impl SplitInterval {
    /// Length in slots, counting to `end` when the interval is open.
    pub fn len(&self, end: u64) -> u64 {
        self.until.unwrap_or(end).saturating_sub(self.from)
    }
}

/// Samples a [`LeaderLedger`] every slot and deposits
/// [`SplitBrainStats`] — see the module
/// docs.
#[derive(Debug)]
pub struct SplitBrainObserver {
    ledger: Arc<LeaderLedger>,
    intervals: Vec<SplitInterval>,
    split_slots: u64,
    end_slot: u64,
}

impl SplitBrainObserver {
    /// Observe `ledger`.
    pub fn new(ledger: Arc<LeaderLedger>) -> Self {
        SplitBrainObserver { ledger, intervals: Vec::new(), split_slots: 0, end_slot: 0 }
    }

    /// The recorded split intervals (open last interval ⇒ unresolved).
    pub fn intervals(&self) -> &[SplitInterval] {
        &self.intervals
    }
}

impl SlotObserver for SplitBrainObserver {
    fn on_slot(&mut self, slot: u64, _: &SlotTruth, _: &SlotActions, _: Option<f64>) {
        self.end_slot = slot + 1;
        let count = self.ledger.live_count(slot) as u64;
        if count >= 2 {
            self.split_slots += 1;
            match self.intervals.last_mut() {
                Some(open) if open.until.is_none() => open.peak = open.peak.max(count),
                _ => self.intervals.push(SplitInterval { from: slot, until: None, peak: count }),
            }
        } else if let Some(open) = self.intervals.last_mut() {
            if open.until.is_none() {
                open.until = Some(slot);
            }
        }
    }

    fn finish(&mut self, report: &mut RunReport) {
        let end = self.end_slot;
        report.split_brain = SplitBrainStats {
            tracked: true,
            windows: self.intervals.len() as u64,
            split_slots: self.split_slots,
            longest_split: self.intervals.iter().map(|w| w.len(end)).max().unwrap_or(0),
            max_believers: self.intervals.iter().map(|w| w.peak).max().unwrap_or(0),
            believers: self.ledger.live_believers(end.saturating_sub(1)),
            reelections: self.ledger.reelections(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(obs: &mut SplitBrainObserver, slot: u64) {
        obs.on_slot(slot, &SlotTruth::IDLE, &SlotActions::default(), None);
    }

    #[test]
    fn ledger_tracks_and_expires_beliefs() {
        let ledger = LeaderLedger::new(10);
        ledger.assert_leader(3, 0);
        ledger.assert_leader(7, 5);
        assert_eq!(ledger.live_believers(5), vec![3, 7]);
        // Station 3 never re-asserts: its belief lapses after slot 10.
        assert_eq!(ledger.live_believers(11), vec![7]);
        ledger.renounce(7);
        assert_eq!(ledger.live_count(12), 0);
    }

    #[test]
    fn observer_measures_split_windows() {
        let ledger = LeaderLedger::new(100);
        let mut obs = SplitBrainObserver::new(Arc::clone(&ledger));
        ledger.assert_leader(0, 0);
        for s in 0..4 {
            tick(&mut obs, s);
        }
        // Second believer appears at slot 4, resolves at slot 7.
        ledger.assert_leader(1, 4);
        for s in 4..7 {
            tick(&mut obs, s);
        }
        ledger.renounce(1);
        for s in 7..10 {
            tick(&mut obs, s);
        }
        let mut report = RunReport::default();
        obs.finish(&mut report);
        let sb = &report.split_brain;
        assert!(sb.tracked);
        assert_eq!(sb.windows, 1);
        assert_eq!(sb.split_slots, 3);
        assert_eq!(sb.longest_split, 3);
        assert_eq!(sb.max_believers, 2);
        assert_eq!(sb.believers, vec![0], "converged back to one leader");
        assert_eq!(obs.intervals(), &[SplitInterval { from: 4, until: Some(7), peak: 2 }]);
    }

    #[test]
    fn open_window_counts_to_the_end() {
        let ledger = LeaderLedger::new(100);
        let mut obs = SplitBrainObserver::new(Arc::clone(&ledger));
        ledger.assert_leader(0, 0);
        ledger.assert_leader(1, 0);
        for s in 0..5 {
            tick(&mut obs, s);
        }
        let mut report = RunReport::default();
        obs.finish(&mut report);
        assert_eq!(report.split_brain.windows, 1);
        assert_eq!(report.split_brain.longest_split, 5);
        assert_eq!(report.split_brain.believers, vec![0, 1], "unresolved at the end");
    }

    #[test]
    fn no_split_leaves_zeroed_stats_but_tracked() {
        let ledger = LeaderLedger::new(100);
        let mut obs = SplitBrainObserver::new(Arc::clone(&ledger));
        ledger.assert_leader(2, 0);
        for s in 0..8 {
            tick(&mut obs, s);
        }
        let mut report = RunReport::default();
        obs.finish(&mut report);
        assert!(report.split_brain.tracked);
        assert_eq!(report.split_brain.windows, 0);
        assert_eq!(report.split_brain.believers, vec![2]);
    }
}
