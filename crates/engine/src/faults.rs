//! Fault injection: running elections beyond the paper's perfect-station
//! model.
//!
//! The paper's stations are flawless: always awake, always sensing, never
//! crashing. Real radios are not. This module injects deterministic,
//! seed-driven station faults into the exact engine without touching the
//! protocols themselves:
//!
//! * **crash** at a slot, with optional recovery (a recovered station
//!   reboots with *fresh* protocol state — crashes lose memory);
//! * **late wakeup** (staggered start): the station sleeps until its wake
//!   slot;
//! * **transient deafness**: observations in an interval are dropped
//!   before the protocol sees them;
//! * **sensing flips**: each received `Null`/`Collision` observation is
//!   independently flipped to the other with a per-station probability.
//!   A flip never fabricates or destroys a `Single` — sensing errors
//!   distort energy, not successful receptions — so validity (a `Leader`
//!   only on a heard `Single`) is preserved by construction.
//!
//! The injection points are [`FaultyStation`], an adapter wrapping any
//! [`Protocol`], and [`FaultyStations`], the overlay on any base
//! [`StationSet`] (the exact backend by default, the fast-exact one via
//! [`FaultyStations::with_base`]) that fills the report's degradation
//! fields. The [`FaultPlan`] owns both halves of the overlay — the station
//! factory wrapper (`FaultPlan::station_factory`) and the leader-crash
//! verdict (`FaultPlan::judge_leader`) — which the batch backend's faulty
//! path reuses; [`run_exact_faulty`] is the thin shim over
//! [`crate::core::SimCore`].
//! Fault randomness comes from a dedicated per-station RNG derived from
//! the [`FaultPlan`] seed, so an empty plan leaves the engine's random
//! stream — and therefore the whole run — bit-for-bit identical to a
//! pristine [`crate::run_exact`] run.

use crate::config::SimConfig;
use crate::core::{SimCore, SlotActions, StationSet};
use crate::exact::ExactStations;
use crate::observer::StateProbe;
use crate::protocol::{Action, Protocol, Status};
use crate::report::RunReport;
use crate::streams::mix64;
use jle_adversary::AdversarySpec;
use jle_radio::{cd::Observation, ChannelState, SlotTruth};
use rand::{rngs::SmallRng, Rng, RngCore, SeedableRng};
use serde::{value::Error, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The faults scheduled for one station.
#[derive(Debug, Clone, PartialEq)]
pub struct StationFaults {
    /// First slot the station is awake (0 = from the start).
    pub wake_at: u64,
    /// Slot at which the station crashes (powers off mid-run).
    pub crash_at: Option<u64>,
    /// Slot at which a crashed station reboots — with fresh protocol
    /// state. Ignored without `crash_at`.
    pub recover_at: Option<u64>,
    /// Half-open interval `[from, until)` of slots whose observations are
    /// dropped before the protocol sees them.
    pub deaf: Option<(u64, u64)>,
    /// Probability that a received `Null`/`Collision` observation is
    /// flipped to the other (never touches `Single`s).
    pub sensing_flip_prob: f64,
}

impl Default for StationFaults {
    fn default() -> Self {
        StationFaults {
            wake_at: 0,
            crash_at: None,
            recover_at: None,
            deaf: None,
            sensing_flip_prob: 0.0,
        }
    }
}

impl StationFaults {
    /// No faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder: crash (permanently) at `slot`.
    pub fn crash(mut self, slot: u64) -> Self {
        self.crash_at = Some(slot);
        self
    }

    /// Builder: crash at `slot`, reboot (fresh state) at `recover`.
    pub fn crash_with_recovery(mut self, slot: u64, recover: u64) -> Self {
        assert!(recover > slot, "recovery must follow the crash");
        self.crash_at = Some(slot);
        self.recover_at = Some(recover);
        self
    }

    /// Builder: sleep until `slot` (staggered wakeup).
    pub fn wake_at(mut self, slot: u64) -> Self {
        self.wake_at = slot;
        self
    }

    /// Builder: drop all observations in `[from, until)`.
    pub fn deaf_between(mut self, from: u64, until: u64) -> Self {
        assert!(until > from, "deaf interval must be non-empty");
        self.deaf = Some((from, until));
        self
    }

    /// Builder: flip each received `Null`/`Collision` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn flip_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "flip probability must be in [0,1], got {p}");
        self.sensing_flip_prob = p;
        self
    }

    /// Whether this entry schedules no fault at all.
    pub fn is_benign(&self) -> bool {
        *self == StationFaults::default()
    }

    /// Whether the station is down (asleep or crashed) in `slot`.
    pub fn down_at(&self, slot: u64) -> bool {
        if slot < self.wake_at {
            return true;
        }
        match self.crash_at {
            Some(c) if slot >= c => match self.recover_at {
                Some(r) => slot < r,
                None => true,
            },
            _ => false,
        }
    }

    /// Whether the station is deaf in `slot`.
    pub fn deaf_at(&self, slot: u64) -> bool {
        matches!(self.deaf, Some((a, b)) if slot >= a && slot < b)
    }

    /// Whether the station is crashed (and not yet recovered) at the end
    /// of a run of `end_slots` slots.
    pub fn crashed_at_end(&self, end_slots: u64) -> bool {
        match self.crash_at {
            Some(c) if c < end_slots => match self.recover_at {
                Some(r) => r >= end_slots,
                None => true,
            },
            _ => false,
        }
    }
}

/// Stream tags for the seed-driven plan generators, so composed
/// generators draw from independent streams regardless of call order.
const TAG_CRASH: u64 = 0xC1;
const TAG_WAKE: u64 = 0xC2;
const TAG_DEAF: u64 = 0xC3;

/// A deterministic, seed-driven schedule of per-station faults.
///
/// Build one either explicitly ([`FaultPlan::with_station`]) or with the
/// random generators, which draw from streams derived from the plan seed
/// — the same `(seed, parameters)` always yields the same plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    faults: BTreeMap<u64, StationFaults>,
}

// Hand-written (de)serialization: the vendored derive handles neither
// `BTreeMap` nor tuple-typed fields, and fault plans must serialize
// canonically so the orchestrator can fingerprint them (BTreeMap iteration
// is already sorted by station index, so the rendering is deterministic).
impl Serialize for StationFaults {
    fn to_json_value(&self) -> Value {
        Value::Map(vec![
            ("wake_at".to_string(), self.wake_at.to_json_value()),
            ("crash_at".to_string(), self.crash_at.to_json_value()),
            ("recover_at".to_string(), self.recover_at.to_json_value()),
            ("deaf".to_string(), self.deaf.to_json_value()),
            ("sensing_flip_prob".to_string(), self.sensing_flip_prob.to_json_value()),
        ])
    }
}

impl Deserialize for StationFaults {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| {
            v.get(name).ok_or_else(|| Error::missing_field("StationFaults", name)).cloned()
        };
        Ok(StationFaults {
            wake_at: u64::from_json_value(&field("wake_at")?)?,
            crash_at: Option::<u64>::from_json_value(&field("crash_at")?)?,
            recover_at: Option::<u64>::from_json_value(&field("recover_at")?)?,
            deaf: Option::<(u64, u64)>::from_json_value(&field("deaf")?)?,
            sensing_flip_prob: f64::from_json_value(&field("sensing_flip_prob")?)?,
        })
    }
}

impl Serialize for FaultPlan {
    fn to_json_value(&self) -> Value {
        let faults = self
            .faults
            .iter()
            .map(|(station, f)| (station.to_string(), f.to_json_value()))
            .collect();
        Value::Map(vec![
            ("seed".to_string(), self.seed.to_json_value()),
            ("faults".to_string(), Value::Map(faults)),
        ])
    }
}

impl Deserialize for FaultPlan {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        let seed_v = v.get("seed").ok_or_else(|| Error::missing_field("FaultPlan", "seed"))?;
        let faults_v =
            v.get("faults").ok_or_else(|| Error::missing_field("FaultPlan", "faults"))?;
        let entries =
            faults_v.as_map().ok_or_else(|| Error::custom("FaultPlan.faults must be an object"))?;
        let mut faults = BTreeMap::new();
        for (station, f) in entries {
            let idx: u64 = station
                .parse()
                .map_err(|_| Error::custom(format!("bad station index key {station:?}")))?;
            faults.insert(idx, StationFaults::from_json_value(f)?);
        }
        Ok(FaultPlan { seed: u64::from_json_value(seed_v)?, faults })
    }
}

impl FaultPlan {
    /// An empty plan with the given seed for its generators.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, faults: BTreeMap::new() }
    }

    /// An empty plan (seed 0). Running with it is bit-identical to a
    /// pristine run.
    pub fn empty() -> Self {
        Self::new(0)
    }

    /// Whether no station has any fault scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.values().all(StationFaults::is_benign)
    }

    /// Number of stations with a (possibly benign) fault entry.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The faults of station `i`, if any are scheduled.
    pub fn get(&self, i: u64) -> Option<&StationFaults> {
        self.faults.get(&i)
    }

    /// Builder: schedule explicit faults for station `i`.
    pub fn with_station(mut self, i: u64, faults: StationFaults) -> Self {
        self.faults.insert(i, faults);
        self
    }

    fn entry(&mut self, i: u64) -> &mut StationFaults {
        self.faults.entry(i).or_default()
    }

    fn tag_rng(&self, tag: u64) -> SmallRng {
        SmallRng::seed_from_u64(mix64(self.seed ^ mix64(tag)))
    }

    /// The seed of station `i`'s private fault RNG (sensing flips).
    pub fn station_seed(&self, i: u64) -> u64 {
        mix64(self.seed ^ mix64(i.wrapping_add(1)))
    }

    /// Builder: each of the `n` stations independently crashes with
    /// probability `prob`, at a uniform slot in `[0, window)`.
    pub fn with_random_crashes(mut self, n: u64, prob: f64, window: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "crash probability must be in [0,1]");
        let mut rng = self.tag_rng(TAG_CRASH);
        for i in 0..n {
            if prob > 0.0 && rng.gen_bool(prob) {
                let at = rng.gen_range(0..window.max(1));
                self.entry(i).crash_at = Some(at);
            }
        }
        self
    }

    /// Builder: every station already scheduled to crash reboots
    /// `downtime` slots after its crash (fresh protocol state).
    pub fn with_recoveries(mut self, downtime: u64) -> Self {
        let downtime = downtime.max(1);
        for f in self.faults.values_mut() {
            if let Some(c) = f.crash_at {
                f.recover_at = Some(c + downtime);
            }
        }
        self
    }

    /// Builder: each of the `n` stations wakes at a uniform slot in
    /// `[0, max_stagger]`.
    pub fn with_staggered_wakeups(mut self, n: u64, max_stagger: u64) -> Self {
        if max_stagger == 0 {
            return self;
        }
        let mut rng = self.tag_rng(TAG_WAKE);
        for i in 0..n {
            let at = rng.gen_range(0..=max_stagger);
            if at > 0 {
                self.entry(i).wake_at = at;
            }
        }
        self
    }

    /// Builder: each of the `n` stations independently goes deaf with
    /// probability `prob`, for `duration` slots starting at a uniform slot
    /// in `[0, onset_window)`.
    pub fn with_random_deafness(
        mut self,
        n: u64,
        prob: f64,
        onset_window: u64,
        duration: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&prob), "deafness probability must be in [0,1]");
        let duration = duration.max(1);
        let mut rng = self.tag_rng(TAG_DEAF);
        for i in 0..n {
            if prob > 0.0 && rng.gen_bool(prob) {
                let from = rng.gen_range(0..onset_window.max(1));
                self.entry(i).deaf = Some((from, from + duration));
            }
        }
        self
    }

    /// Builder: give all `n` stations the same sensing-flip probability.
    pub fn with_sensing_flips(mut self, n: u64, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "flip probability must be in [0,1]");
        if prob > 0.0 {
            for i in 0..n {
                self.entry(i).sensing_flip_prob = prob;
            }
        }
        self
    }

    /// Whether the station holding `Leader` (or the recorded winner) is
    /// crashed at the end of a run of `end_slots` slots.
    pub fn leader_crashed(&self, leader: u64, end_slots: u64) -> bool {
        self.get(leader).is_some_and(|f| f.crashed_at_end(end_slots))
    }

    /// The fault overlay's station factory: stations without a plan entry
    /// come from `factory` directly (zero overhead); planned stations are
    /// wrapped in [`FaultyStation`] seeded from
    /// [`FaultPlan::station_seed`], respawning from `factory` on recovery.
    pub(crate) fn station_factory<F>(&self, factory: F) -> impl Fn(u64) -> Box<dyn Protocol> + '_
    where
        F: Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static,
    {
        let factory = Arc::new(factory);
        move |i| match self.get(i) {
            None => factory(i),
            Some(f) => {
                let fac = Arc::clone(&factory);
                Box::new(FaultyStation::new(
                    f.clone(),
                    self.station_seed(i),
                    Box::new(move || fac(i)),
                ))
            }
        }
    }

    /// The overlay's post-run verdict: set [`RunReport::leader_crashed`]
    /// when the elected leader (or recorded winner) is crashed, and not
    /// yet recovered, at the end of the full horizon. Judged against
    /// `max_slots`, not the (possibly early) stop slot: crash schedules
    /// are wall-clock, so a winner that resolved the election at slot 40
    /// and crashes at slot 900 still leaves the network leaderless.
    pub(crate) fn judge_leader(&self, config: &SimConfig, report: &mut RunReport) {
        if report.leaders.len() <= 1 {
            if let Some(w) = report.leaders.first().copied().or(report.winner) {
                let horizon = config.max_slots.max(report.slots);
                if self.leader_crashed(w, horizon) {
                    report.leader_crashed = true;
                }
            }
        }
    }
}

/// An adapter wrapping any [`Protocol`] with a [`StationFaults`] schedule.
///
/// While down (pre-wakeup or crashed) the station sleeps: it neither
/// draws from the engine RNG nor receives observations — exactly what the
/// exact engine does for a voluntarily sleeping station. On recovery the
/// inner protocol is rebuilt from the respawn factory (crash = state
/// loss). Deaf slots drop the observation before the inner protocol sees
/// it; sensing flips exchange `Null`/`Collision` using the adapter's
/// private RNG (so the engine's stream is untouched).
pub struct FaultyStation {
    inner: Box<dyn Protocol>,
    respawn: Box<dyn FnMut() -> Box<dyn Protocol> + Send>,
    faults: StationFaults,
    rng: SmallRng,
    crashed: bool,
    rebooted: bool,
}

impl FaultyStation {
    /// Wrap the protocol built by `respawn` with the given fault schedule.
    /// `fault_seed` seeds the private sensing-flip RNG (use
    /// [`FaultPlan::station_seed`]).
    pub fn new(
        faults: StationFaults,
        fault_seed: u64,
        mut respawn: Box<dyn FnMut() -> Box<dyn Protocol> + Send>,
    ) -> Self {
        let inner = respawn();
        FaultyStation {
            inner,
            respawn,
            faults,
            rng: SmallRng::seed_from_u64(fault_seed),
            crashed: false,
            rebooted: false,
        }
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &StationFaults {
        &self.faults
    }
}

impl std::fmt::Debug for FaultyStation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyStation")
            .field("faults", &self.faults)
            .field("crashed", &self.crashed)
            .finish_non_exhaustive()
    }
}

impl Protocol for FaultyStation {
    fn act(&mut self, slot: u64, rng: &mut dyn RngCore) -> Action {
        if self.faults.down_at(slot) {
            if self.faults.crash_at.is_some_and(|c| slot >= c) {
                self.crashed = true;
            }
            return Action::Sleep;
        }
        if self.crashed || (self.faults.crash_at.is_some_and(|c| slot >= c) && !self.rebooted) {
            // Recovery: reboot with fresh protocol state. The second
            // disjunct covers the active-set backend, which (guided by
            // `wake_hint`) never calls `act` during the crash window and
            // so never sets `crashed`; `rebooted` keeps the respawn a
            // once-only event on both paths.
            self.inner = (self.respawn)();
            self.crashed = false;
            self.rebooted = true;
        }
        self.inner.act(slot, rng)
    }

    fn feedback(&mut self, slot: u64, transmitted: bool, obs: Observation) {
        if self.faults.down_at(slot) || self.faults.deaf_at(slot) {
            return; // dropped: the protocol never learns of this slot
        }
        let obs = match obs {
            Observation::State(s @ (ChannelState::Null | ChannelState::Collision))
                if self.faults.sensing_flip_prob > 0.0
                    && self.rng.gen_bool(self.faults.sensing_flip_prob) =>
            {
                Observation::State(match s {
                    ChannelState::Null => ChannelState::Collision,
                    _ => ChannelState::Null,
                })
            }
            other => other,
        };
        self.inner.feedback(slot, transmitted, obs);
    }

    fn status(&self) -> Status {
        self.inner.status()
    }

    fn finished(&self) -> bool {
        // A down station still reports its last state; `finished` only
        // matters under the exact engine's all-terminal-or-finished
        // guard, where a crashed-forever station pins the run to the cap
        // exactly as it did before `finished` existed.
        self.inner.finished()
    }

    fn estimate(&self) -> Option<f64> {
        self.inner.estimate()
    }

    fn state_probe(&self) -> Option<(&'static str, Option<f64>)> {
        if self.crashed {
            return Some(("crashed", None));
        }
        self.inner.state_probe()
    }

    fn wake_hint(&self, slot: u64) -> u64 {
        if self.faults.down_at(slot) {
            if slot < self.faults.wake_at {
                return self.faults.wake_at;
            }
            // In the crash window: sleep until recovery (or forever).
            return self.faults.recover_at.unwrap_or(u64::MAX);
        }
        let hint = self.inner.wake_hint(slot);
        match self.faults.crash_at {
            // An upcoming crash must be revisited at its boundary even if
            // the inner protocol withdrew for longer: a recovery respawns
            // *fresh* state, which may want to act again.
            Some(c) if c > slot => hint.min(c),
            _ => hint,
        }
    }
}

/// The fault overlay: a base [`StationSet`] built from the plan's
/// station factory, plus the plan's post-run leader-crash verdict. The
/// verdict lands inside [`StationSet::finalize`], so `after_run`
/// observers (telemetry outcome classification) see it.
#[derive(Debug)]
pub struct FaultyStations<'p, S = ExactStations> {
    inner: S,
    plan: &'p FaultPlan,
}

impl<'p> FaultyStations<'p> {
    /// The overlay on the exact backend ([`ExactStations`]): stations
    /// without a plan entry come from `factory` directly (zero overhead);
    /// planned stations are wrapped in [`FaultyStation`] seeded from
    /// [`FaultPlan::station_seed`].
    pub fn new<F>(config: &SimConfig, plan: &'p FaultPlan, factory: F) -> Self
    where
        F: Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static,
    {
        Self::with_base(plan, factory, |f| ExactStations::new(config, f))
    }
}

impl<'p, S: StationSet> FaultyStations<'p, S> {
    /// The overlay on the set `base` builds from the plan-wrapped
    /// `factory`, e.g.
    /// `FaultyStations::with_base(&plan, factory, |f| FastExactStations::new(&config, f))`.
    pub fn with_base<F>(
        plan: &'p FaultPlan,
        factory: F,
        base: impl FnOnce(&mut dyn FnMut(u64) -> Box<dyn Protocol>) -> S,
    ) -> Self
    where
        F: Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static,
    {
        let mut wrapped = plan.station_factory(factory);
        FaultyStations { inner: base(&mut wrapped), plan }
    }
}

impl<S: StationSet> StationSet for FaultyStations<'_, S> {
    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn act(&mut self, slot: u64, config: &SimConfig, rng: &mut SmallRng) -> SlotActions {
        self.inner.act(slot, config, rng)
    }

    fn pick_winner(
        &mut self,
        actions: &SlotActions,
        config: &SimConfig,
        rng: &mut SmallRng,
    ) -> Option<u64> {
        self.inner.pick_winner(actions, config, rng)
    }

    fn feedback(&mut self, slot: u64, truth: &SlotTruth, config: &SimConfig) {
        self.inner.feedback(slot, truth, config)
    }

    fn estimate(&self) -> Option<f64> {
        self.inner.estimate()
    }

    fn collect_probes(&self, out: &mut Vec<StateProbe>) {
        self.inner.collect_probes(out)
    }

    fn should_stop(
        &mut self,
        truth: &SlotTruth,
        config: &SimConfig,
        report: &mut RunReport,
    ) -> bool {
        self.inner.should_stop(truth, config, report)
    }

    fn finalize(&mut self, config: &SimConfig, report: &mut RunReport) {
        self.inner.finalize(config, report);
        self.plan.judge_leader(config, report);
    }
}

/// Run the exact engine with the given fault plan applied on top of
/// `factory`.
///
/// Stations without a plan entry are built by `factory` directly (zero
/// overhead); stations with one are wrapped in [`FaultyStation`]. After
/// the run the report's degradation fields are filled in: if the elected
/// leader (or recorded winner) is scheduled to be crashed — and not yet
/// recovered — at the end of the simulated horizon (`max_slots`; crashes
/// are wall-clock scheduled, so a leader elected before its crash slot
/// still goes down), [`RunReport::leader_crashed`] is set and
/// [`RunReport::outcome`](crate::report::RunReport::outcome) reports
/// [`Outcome::LeaderCrashed`](crate::report::Outcome::LeaderCrashed).
pub fn run_exact_faulty<F>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    plan: &FaultPlan,
    factory: F,
) -> RunReport
where
    F: Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static,
{
    let mut stations = FaultyStations::new(config, plan, factory);
    SimCore::new(config, adversary).run(&mut stations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopRule;
    use crate::exact::run_exact;
    use crate::protocol::{PerStation, UniformProtocol};
    use crate::report::Outcome;
    use jle_radio::CdModel;

    /// Fixed-probability transmitter (uniform).
    #[derive(Debug, Clone)]
    struct Fixed(f64);
    impl UniformProtocol for Fixed {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
    }

    fn fixed_factory(p: f64) -> impl Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static {
        move |_| Box::new(PerStation::new(Fixed(p)))
    }

    #[test]
    fn empty_plan_is_bit_identical_to_pristine_run() {
        let config = SimConfig::new(6, CdModel::Strong).with_seed(42).with_max_slots(5_000);
        let adv = AdversarySpec::passive();
        let pristine = run_exact(&config, &adv, |_| Box::new(PerStation::new(Fixed(0.3))));
        let faulty = run_exact_faulty(&config, &adv, &FaultPlan::empty(), fixed_factory(0.3));
        assert_eq!(pristine.resolved_at, faulty.resolved_at);
        assert_eq!(pristine.winner, faulty.winner);
        assert_eq!(pristine.counts, faulty.counts);
        assert_eq!(pristine.energy, faulty.energy);
    }

    #[test]
    fn benign_entry_is_bit_identical_too() {
        // A plan with explicit all-default entries must also leave the
        // engine stream untouched: the adapter draws nothing extra.
        let config = SimConfig::new(4, CdModel::Strong).with_seed(7).with_max_slots(5_000);
        let adv = AdversarySpec::passive();
        let plan = (0..4).fold(FaultPlan::new(9), |p, i| p.with_station(i, StationFaults::none()));
        let pristine = run_exact(&config, &adv, |_| Box::new(PerStation::new(Fixed(0.4))));
        let faulty = run_exact_faulty(&config, &adv, &plan, fixed_factory(0.4));
        assert_eq!(pristine.resolved_at, faulty.resolved_at);
        assert_eq!(pristine.winner, faulty.winner);
        assert_eq!(pristine.counts, faulty.counts);
    }

    #[test]
    fn crashed_station_goes_silent() {
        // Weak CD: a lone always-transmitter never learns it won (the
        // paper's Function 3) and keeps transmitting — until it crashes
        // at slot 3, after which the channel is silent to the cap.
        let config = SimConfig::new(1, CdModel::Weak)
            .with_seed(1)
            .with_max_slots(10)
            .with_stop(StopRule::AllTerminated);
        let plan = FaultPlan::new(0).with_station(0, StationFaults::none().crash(3));
        let r = run_exact_faulty(&config, &AdversarySpec::passive(), &plan, fixed_factory(1.0));
        assert_eq!(r.energy.transmissions, 3);
        assert_eq!(r.counts.singles, 3);
        assert_eq!(r.counts.nulls, 7);
    }

    #[test]
    fn recovery_reboots_with_fresh_state() {
        // Weak CD again; crash at 2, recover at 5: transmissions in slots
        // 0,1 and 5..10.
        let config = SimConfig::new(1, CdModel::Weak)
            .with_seed(1)
            .with_max_slots(10)
            .with_stop(StopRule::AllTerminated);
        let plan =
            FaultPlan::new(0).with_station(0, StationFaults::none().crash_with_recovery(2, 5));
        let r = run_exact_faulty(&config, &AdversarySpec::passive(), &plan, fixed_factory(1.0));
        assert_eq!(r.energy.transmissions, 7);
        assert_eq!(r.counts.nulls, 3);
    }

    #[test]
    fn late_wakeup_delays_first_transmission() {
        let config = SimConfig::new(1, CdModel::Strong).with_seed(1).with_max_slots(20);
        let plan = FaultPlan::new(0).with_station(0, StationFaults::none().wake_at(4));
        let r = run_exact_faulty(&config, &AdversarySpec::passive(), &plan, fixed_factory(1.0));
        assert_eq!(r.resolved_at, Some(4), "first possible Single is the wake slot");
    }

    #[test]
    fn deaf_station_misses_the_observation() {
        // Strong CD, 2 stations, station 1 deaf for the whole run. The
        // PerStation wrapper turns a heard Single into NonLeader — a deaf
        // station never hears it and stays Running.
        let config = SimConfig::new(2, CdModel::Strong)
            .with_seed(5)
            .with_max_slots(10_000)
            .with_stop(StopRule::FirstCleanSingle);
        let plan =
            FaultPlan::new(0).with_station(1, StationFaults::none().deaf_between(0, u64::MAX));
        let r = run_exact_faulty(&config, &AdversarySpec::passive(), &plan, fixed_factory(0.5));
        assert!(r.resolved_at.is_some());
        if r.winner == Some(0) {
            // The deaf loser never learned: exactly one Leader, station 0.
            assert_eq!(r.leaders, vec![0]);
        }
    }

    #[test]
    fn sensing_flips_never_touch_singles() {
        // A station with flip probability 1.0 flips every Null/Collision
        // — but Singles always get through: delivering one to a wrapped
        // PerStation must still terminate it as NonLeader.
        let mut flipped = FaultyStation::new(
            StationFaults::none().flip_prob(1.0),
            123,
            Box::new(|| Box::new(PerStation::new(Fixed(0.0))) as Box<dyn Protocol>),
        );
        flipped.feedback(0, false, Observation::State(ChannelState::Null));
        assert_eq!(flipped.status(), Status::Running, "flipped Null stays non-terminal");
        flipped.feedback(1, false, Observation::State(ChannelState::Single));
        assert_eq!(flipped.status(), Status::NonLeader);
    }

    #[test]
    fn all_crashed_run_hits_the_cap() {
        let config = SimConfig::new(3, CdModel::Strong).with_seed(2).with_max_slots(100);
        let plan = (0..3)
            .fold(FaultPlan::new(1), |p, i| p.with_station(i, StationFaults::none().crash(0)));
        let r = run_exact_faulty(&config, &AdversarySpec::passive(), &plan, fixed_factory(1.0));
        assert!(r.timed_out);
        assert!(r.cap_hit);
        assert_eq!(r.outcome(), Outcome::DeadlineExceeded);
        assert_eq!(r.energy.total(), 0, "crashed stations spend no energy");
    }

    #[test]
    fn leader_crash_is_reported() {
        // Station 0 elects itself at slot 0 and crashes at slot 2; the
        // run continues (station 1 is deaf and never terminates) so the
        // crash takes effect before the end: the network is leaderless
        // again and the taxonomy must say so — on every backend the
        // overlay runs on, and before `after_run` observers look.
        use crate::batch::run_batch_exact_faulty;
        use crate::fast::{run_fast_exact_faulty, FastExactStations};
        use crate::telemetry::{EngineMetrics, TelemetryObserver};
        use jle_telemetry::MetricRegistry;

        let config = SimConfig::new(2, CdModel::Strong)
            .with_seed(1)
            .with_max_slots(10)
            .with_stop(StopRule::AllTerminated);
        let plan = FaultPlan::new(0)
            .with_station(0, StationFaults::none().crash(2))
            .with_station(1, StationFaults::none().deaf_between(0, u64::MAX));
        let factory = move |i: u64| -> Box<dyn Protocol> {
            Box::new(PerStation::new(Fixed(if i == 0 { 1.0 } else { 0.0 })))
        };
        let passive = AdversarySpec::passive();
        let registry = MetricRegistry::new();
        let metrics = EngineMetrics::register(&registry);
        let mut telemetry = TelemetryObserver::new(&config).with_metrics(metrics.clone());
        let observed = {
            let mut stations =
                FaultyStations::with_base(&plan, factory, |f| FastExactStations::new(&config, f));
            SimCore::new(&config, &passive).observe(&mut telemetry).run(&mut stations)
        };
        assert_eq!(metrics.anomalies_total.get(), 1, "after_run saw the crashed leader");

        let mut runs = vec![
            ("exact", run_exact_faulty(&config, &passive, &plan, factory)),
            ("fast-exact", run_fast_exact_faulty(&config, &passive, &plan, factory)),
            ("fast-exact + telemetry", observed),
        ];
        let batch = run_batch_exact_faulty(&config, &passive, &plan, &[1, 2, 3], factory);
        runs.extend(batch.into_iter().map(|r| ("batch (K = 3)", r)));
        assert_eq!(runs.len(), 6);
        for (backend, r) in runs {
            assert_eq!(r.resolved_at, Some(0), "{backend}");
            assert_eq!(r.leaders, vec![0], "{backend}");
            assert!(r.leader_crashed, "{backend}");
            assert_eq!(r.outcome(), Outcome::LeaderCrashed, "{backend}");
        }
    }

    #[test]
    fn plan_generators_are_deterministic() {
        let mk = || {
            FaultPlan::new(77)
                .with_random_crashes(32, 0.5, 1000)
                .with_recoveries(100)
                .with_staggered_wakeups(32, 64)
                .with_random_deafness(32, 0.25, 500, 50)
                .with_sensing_flips(32, 0.01)
        };
        assert_eq!(mk(), mk());
        assert!(!mk().is_empty());
        // A different seed gives a different plan.
        let other = FaultPlan::new(78).with_random_crashes(32, 0.5, 1000);
        assert_ne!(mk(), other);
    }

    #[test]
    fn generator_streams_are_independent_of_call_order() {
        let a = FaultPlan::new(5).with_random_crashes(16, 0.5, 100).with_staggered_wakeups(16, 8);
        let b = FaultPlan::new(5).with_staggered_wakeups(16, 8).with_random_crashes(16, 0.5, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn down_at_and_crashed_at_end_logic() {
        let f = StationFaults::none().wake_at(3).crash_with_recovery(10, 20);
        assert!(f.down_at(0) && f.down_at(2));
        assert!(!f.down_at(3) && !f.down_at(9));
        assert!(f.down_at(10) && f.down_at(19));
        assert!(!f.down_at(20));
        assert!(f.crashed_at_end(15), "crashed, not yet recovered");
        assert!(!f.crashed_at_end(21), "recovered before the end");
        assert!(!f.crashed_at_end(10), "crash never took effect");
        let g = StationFaults::none().crash(4);
        assert!(g.crashed_at_end(5));
        assert!(!g.crashed_at_end(4));
    }
}
