//! Per-slot instrumentation layers for the unified core.
//!
//! A [`SlotObserver`] sees every played slot (ground truth plus aggregate
//! actions) and may fill report fields when the run ends. Instrumentation
//! that used to be inlined in each engine loop — energy accounting, trace
//! recording — is now an observer, and new layers (live throughput for
//! the orchestrator, slot taxonomy in `jle-protocols`) compose the same
//! way without touching the loop.
//!
//! Observers are strictly passive: they run after the slot's randomness
//! is drawn and resolved, before feedback, and must not influence the
//! simulation (the golden-seed suite pins this — attaching or detaching
//! observers never changes a report's simulation fields).

use crate::core::SlotActions;
use crate::report::{EnergyStats, RunReport};
use jle_radio::{SlotTruth, Trace};

/// One station's protocol-internal state, sampled at the end of a slot
/// (after feedback) for replay timelines and state-transition debugging.
///
/// Produced by [`crate::Protocol::state_probe`] implementations and
/// collected by [`crate::StationSet::collect_probes`]; delivered to
/// observers that opted in via [`SlotObserver::wants_probes`]. `state` is
/// a protocol-chosen static label (e.g. LESK's `"electing"`, a lease
/// protocol's `"leading"`); `value` an optional scalar (LESK's estimate
/// `u`, a lease epoch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateProbe {
    /// Station id the probe describes.
    pub station: u64,
    /// Protocol-chosen state label.
    pub state: &'static str,
    /// Optional protocol-internal scalar.
    pub value: Option<f64>,
}

/// A passive per-slot instrumentation layer (see the module docs).
pub trait SlotObserver {
    /// Whether this observer consumes the per-slot protocol estimate. The
    /// core queries [`crate::StationSet::estimate`] — an O(n) scan on the
    /// exact engine — only if some attached observer wants it.
    fn wants_estimate(&self) -> bool {
        false
    }

    /// Whether this observer consumes per-station [`StateProbe`]s. The
    /// core collects probes — an O(n) scan — only if some attached
    /// observer wants them; the disabled path costs one branch per slot.
    fn wants_probes(&self) -> bool {
        false
    }

    /// Called once per played slot, after feedback has been delivered,
    /// with every station's [`StateProbe`] (stations whose protocol
    /// returns `None` are absent). Only called when
    /// [`SlotObserver::wants_probes`] held for this observer.
    fn on_probes(&mut self, slot: u64, probes: &[StateProbe]) {
        let _ = (slot, probes);
    }

    /// Called once per played slot, after the slot's randomness is fully
    /// drawn (winner draw included) and before feedback. `estimate` is `Some`
    /// only if [`SlotObserver::wants_estimate`] held for some observer.
    fn on_slot(
        &mut self,
        slot: u64,
        truth: &SlotTruth,
        actions: &SlotActions,
        estimate: Option<f64>,
    );

    /// Called once when the run ends, before backend finalization; the
    /// observer may deposit its accumulated result on the report.
    fn finish(&mut self, report: &mut RunReport) {
        let _ = report;
    }

    /// Called once after backend finalization, with the *final* report —
    /// every field (`cap_hit`, `leader_crashed`, `leaders`, …) is settled.
    /// Read-only by design: this is where telemetry layers classify
    /// anomalies and update metrics without being able to perturb the
    /// result.
    fn after_run(&mut self, report: &RunReport) {
        let _ = report;
    }
}

/// Blanket impl so `&mut O` can be attached where an observer is expected.
impl<O: SlotObserver + ?Sized> SlotObserver for &mut O {
    fn wants_estimate(&self) -> bool {
        (**self).wants_estimate()
    }
    fn wants_probes(&self) -> bool {
        (**self).wants_probes()
    }
    fn on_probes(&mut self, slot: u64, probes: &[StateProbe]) {
        (**self).on_probes(slot, probes)
    }
    fn on_slot(
        &mut self,
        slot: u64,
        truth: &SlotTruth,
        actions: &SlotActions,
        estimate: Option<f64>,
    ) {
        (**self).on_slot(slot, truth, actions, estimate)
    }
    fn finish(&mut self, report: &mut RunReport) {
        (**self).finish(report)
    }
    fn after_run(&mut self, report: &RunReport) {
        (**self).after_run(report)
    }
}

/// Energy accounting: sums station-slot expenditures into
/// [`RunReport::energy`]. Installed by every shim (energy is part of the
/// report contract), but an ordinary observer nonetheless.
#[derive(Debug, Default)]
pub struct EnergyObserver {
    stats: EnergyStats,
}

impl SlotObserver for EnergyObserver {
    fn on_slot(&mut self, _: u64, _: &SlotTruth, actions: &SlotActions, _: Option<f64>) {
        self.stats.transmissions += actions.transmitters;
        self.stats.listens += actions.listeners;
    }

    fn finish(&mut self, report: &mut RunReport) {
        report.energy = self.stats;
    }
}

/// Trace recording: packs every slot (and the protocol estimate, when one
/// is exposed) into a [`Trace`] deposited on [`RunReport::trace`].
#[derive(Debug)]
pub struct TraceObserver {
    trace: Trace,
}

impl TraceObserver {
    /// Record into `trace`.
    pub fn new(trace: Trace) -> Self {
        TraceObserver { trace }
    }
}

impl SlotObserver for TraceObserver {
    fn wants_estimate(&self) -> bool {
        true
    }

    fn on_slot(&mut self, _: u64, truth: &SlotTruth, _: &SlotActions, estimate: Option<f64>) {
        match estimate {
            Some(u) => self.trace.push_with_estimate(truth, u),
            None => self.trace.push(truth),
        }
    }

    fn finish(&mut self, report: &mut RunReport) {
        report.trace = Some(std::mem::take(&mut self.trace));
    }
}

/// Live slots/sec telemetry: batches played slots and hands the count to a
/// sink every `interval` slots (plus a final flush), so a long run reports
/// progress while it is still inside the loop. The orchestrator wires the
/// sink to its atomic `Stats` counters — see
/// `jle_orchestrator::telemetry`.
///
/// The batching keeps the per-slot cost to one increment; pick `interval`
/// large enough that the sink (typically an atomic add) stays off the hot
/// path.
pub struct ThroughputObserver<F: FnMut(u64)> {
    interval: u64,
    pending: u64,
    sink: F,
}

impl<F: FnMut(u64)> ThroughputObserver<F> {
    /// Flush `sink` every `interval` played slots (minimum 1).
    pub fn new(interval: u64, sink: F) -> Self {
        ThroughputObserver { interval: interval.max(1), pending: 0, sink }
    }
}

impl<F: FnMut(u64)> std::fmt::Debug for ThroughputObserver<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThroughputObserver")
            .field("interval", &self.interval)
            .field("pending", &self.pending)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(u64)> SlotObserver for ThroughputObserver<F> {
    fn on_slot(&mut self, _: u64, _: &SlotTruth, _: &SlotActions, _: Option<f64>) {
        self.pending += 1;
        if self.pending >= self.interval {
            (self.sink)(self.pending);
            self.pending = 0;
        }
    }

    fn finish(&mut self, _: &mut RunReport) {
        if self.pending > 0 {
            (self.sink)(self.pending);
            self.pending = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_observer_accumulates_and_deposits() {
        let mut e = EnergyObserver::default();
        let truth = SlotTruth::new(3, false);
        let actions = SlotActions { transmitters: 3, listeners: 5, lone_transmitter: None };
        e.on_slot(0, &truth, &actions, None);
        e.on_slot(1, &truth, &actions, None);
        let mut report = RunReport::default();
        e.finish(&mut report);
        assert_eq!(report.energy.transmissions, 6);
        assert_eq!(report.energy.listens, 10);
    }

    #[test]
    fn trace_observer_records_estimates_when_present() {
        let mut t = TraceObserver::new(Trace::with_capacity(4));
        assert!(t.wants_estimate());
        let actions = SlotActions::default();
        t.on_slot(0, &SlotTruth::new(0, false), &actions, Some(1.5));
        t.on_slot(1, &SlotTruth::new(2, true), &actions, None);
        let mut report = RunReport::default();
        t.finish(&mut report);
        let trace = report.trace.expect("deposited");
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.estimates, vec![1.5]);
    }

    #[test]
    fn throughput_observer_batches_and_flushes() {
        let mut seen: Vec<u64> = Vec::new();
        {
            let mut t = ThroughputObserver::new(4, |k| seen.push(k));
            let actions = SlotActions::default();
            for slot in 0..10 {
                t.on_slot(slot, &SlotTruth::IDLE, &actions, None);
            }
            t.finish(&mut RunReport::default());
            // A second finish must not double-flush.
            t.finish(&mut RunReport::default());
        }
        assert_eq!(seen, vec![4, 4, 2]);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let mut total = 0u64;
        let mut t = ThroughputObserver::new(0, |k| total += k);
        t.on_slot(0, &SlotTruth::IDLE, &SlotActions::default(), None);
        assert_eq!(total, 1, "interval 0 behaves as 1");
    }
}
