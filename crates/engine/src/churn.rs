//! Churn: open-world station populations (join / leave / rejoin).
//!
//! Every other scenario in this repo fixes the station population at slot
//! 0. [`crate::faults`] can *remove* stations (crash, stagger, deafness)
//! but never add one mid-run. This module closes the gap with a
//! seed-driven, canonically-serializable [`ChurnPlan`]: stations *join*
//! the network mid-run with fresh protocol state and no history, *leave*
//! (power off), and optionally *rejoin* later — again with fresh state,
//! because a departure loses memory exactly like a crash does.
//!
//! Churn deliberately does not grow another station-set backend. A churn
//! schedule lowers onto the existing fault machinery via
//! [`ChurnPlan::overlay`]:
//!
//! * **join** at slot `j` ⇒ `wake_at = j` (the station sleeps — draws no
//!   randomness, hears nothing — until it appears, so it joins with no
//!   history);
//! * **leave** at slot `l` ⇒ `crash_at = l`;
//! * **rejoin** at slot `r` ⇒ `recover_at = r` (the existing respawn path
//!   rebuilds the protocol from the factory: fresh state).
//!
//! All three per-station backends therefore support churn unchanged,
//! through the one [`crate::FaultyStations`] overlay: the exact backend,
//! the fast backend — where [`crate::FaultyStation`]'s wake hints fold
//! joins and rejoins into the bucketed wake calendar so sleep-heavy churn
//! runs stay fast — and the batch backend's merged calendar. An empty
//! plan lowers to an empty [`FaultPlan`], which is proven bit-identical
//! to a pristine run on the exact and fast backends; batch trials carry
//! the fast backend's bits.
//!
//! `SimConfig::n` counts every station that is ever present; a joiner
//! occupies its station index from slot 0 but is indistinguishable from a
//! sleeping station until its join slot.

use crate::config::SimConfig;
use crate::faults::{FaultPlan, StationFaults};
use crate::protocol::Protocol;
use crate::report::RunReport;
use crate::streams::mix64;
use jle_adversary::AdversarySpec;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{value::Error, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// The churn schedule of one station.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StationChurn {
    /// First slot the station is part of the network (0 = founding
    /// member, present from the start).
    pub join_at: u64,
    /// Slot at which the station leaves (powers off mid-run).
    pub leave_at: Option<u64>,
    /// Slot at which a departed station rejoins — with fresh protocol
    /// state and no history. Ignored without `leave_at`.
    pub rejoin_at: Option<u64>,
}

impl StationChurn {
    /// A founding member that never churns.
    pub fn founding() -> Self {
        Self::default()
    }

    /// Builder: join the network at `slot`.
    pub fn joining_at(mut self, slot: u64) -> Self {
        self.join_at = slot;
        self
    }

    /// Builder: leave (permanently) at `slot`.
    pub fn leaving_at(mut self, slot: u64) -> Self {
        self.leave_at = Some(slot);
        self
    }

    /// Builder: leave at `slot`, rejoin (fresh state) at `rejoin`.
    pub fn leave_and_rejoin(mut self, slot: u64, rejoin: u64) -> Self {
        assert!(rejoin > slot, "rejoin must follow the departure");
        self.leave_at = Some(slot);
        self.rejoin_at = Some(rejoin);
        self
    }

    /// Whether this entry schedules no churn at all.
    pub fn is_benign(&self) -> bool {
        *self == StationChurn::default()
    }

    /// Whether the station is part of the network in `slot`.
    pub fn present_at(&self, slot: u64) -> bool {
        if slot < self.join_at {
            return false;
        }
        match self.leave_at {
            Some(l) if slot >= l => match self.rejoin_at {
                Some(r) => slot >= r,
                None => false,
            },
            _ => true,
        }
    }
}

/// Stream tags for the seed-driven generators: disjoint from the
/// fault-plan tags (`0xC1..=0xC3`) so a churn plan and a fault plan built
/// from the same seed still draw from independent streams.
const TAG_JOIN: u64 = 0xC4;
const TAG_LEAVE: u64 = 0xC5;

/// A deterministic, seed-driven schedule of station churn.
///
/// Build one explicitly ([`ChurnPlan::with_station`]) or with the random
/// generators, which draw from streams derived from the plan seed — the
/// same `(seed, parameters)` always yields the same plan, and the
/// generators compose independently of call order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnPlan {
    seed: u64,
    churn: BTreeMap<u64, StationChurn>,
}

// Hand-written (de)serialization, mirroring `FaultPlan`'s: the vendored
// derive handles neither `BTreeMap` nor the stringified keys, and churn
// plans must serialize canonically so the orchestrator can fingerprint
// them (BTreeMap iteration is already sorted by station index).
impl Serialize for StationChurn {
    fn to_json_value(&self) -> Value {
        Value::Map(vec![
            ("join_at".to_string(), self.join_at.to_json_value()),
            ("leave_at".to_string(), self.leave_at.to_json_value()),
            ("rejoin_at".to_string(), self.rejoin_at.to_json_value()),
        ])
    }
}

impl Deserialize for StationChurn {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| {
            v.get(name).ok_or_else(|| Error::missing_field("StationChurn", name)).cloned()
        };
        Ok(StationChurn {
            join_at: u64::from_json_value(&field("join_at")?)?,
            leave_at: Option::<u64>::from_json_value(&field("leave_at")?)?,
            rejoin_at: Option::<u64>::from_json_value(&field("rejoin_at")?)?,
        })
    }
}

impl Serialize for ChurnPlan {
    fn to_json_value(&self) -> Value {
        let churn = self
            .churn
            .iter()
            .map(|(station, c)| (station.to_string(), c.to_json_value()))
            .collect();
        Value::Map(vec![
            ("seed".to_string(), self.seed.to_json_value()),
            ("churn".to_string(), Value::Map(churn)),
        ])
    }
}

impl Deserialize for ChurnPlan {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        let seed_v = v.get("seed").ok_or_else(|| Error::missing_field("ChurnPlan", "seed"))?;
        let churn_v = v.get("churn").ok_or_else(|| Error::missing_field("ChurnPlan", "churn"))?;
        let entries =
            churn_v.as_map().ok_or_else(|| Error::custom("ChurnPlan.churn must be an object"))?;
        let mut churn = BTreeMap::new();
        for (station, c) in entries {
            let idx: u64 = station
                .parse()
                .map_err(|_| Error::custom(format!("bad station index key {station:?}")))?;
            churn.insert(idx, StationChurn::from_json_value(c)?);
        }
        Ok(ChurnPlan { seed: u64::from_json_value(seed_v)?, churn })
    }
}

impl ChurnPlan {
    /// An empty plan with the given seed for its generators.
    pub fn new(seed: u64) -> Self {
        ChurnPlan { seed, churn: BTreeMap::new() }
    }

    /// An empty plan (seed 0). Running with it is bit-identical to a
    /// pristine run on all three per-station backends (exact, fast-exact,
    /// batch).
    pub fn empty() -> Self {
        Self::new(0)
    }

    /// Whether no station has any churn scheduled.
    pub fn is_empty(&self) -> bool {
        self.churn.values().all(StationChurn::is_benign)
    }

    /// Number of stations with a (possibly benign) churn entry.
    pub fn len(&self) -> usize {
        self.churn.len()
    }

    /// The churn schedule of station `i`, if any.
    pub fn get(&self, i: u64) -> Option<&StationChurn> {
        self.churn.get(&i)
    }

    /// Builder: schedule explicit churn for station `i`.
    pub fn with_station(mut self, i: u64, churn: StationChurn) -> Self {
        self.churn.insert(i, churn);
        self
    }

    fn entry(&mut self, i: u64) -> &mut StationChurn {
        self.churn.entry(i).or_default()
    }

    fn tag_rng(&self, tag: u64) -> SmallRng {
        SmallRng::seed_from_u64(mix64(self.seed ^ mix64(tag)))
    }

    /// Builder: each of the `n` stations independently is a *late joiner*
    /// with probability `prob`, appearing at a uniform slot in
    /// `[1, window]` (slot 0 joiners are founding members, so the draw
    /// starts at 1).
    pub fn with_staggered_joins(mut self, n: u64, prob: f64, window: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "join probability must be in [0,1]");
        let mut rng = self.tag_rng(TAG_JOIN);
        for i in 0..n {
            if prob > 0.0 && rng.gen_bool(prob) {
                let at = rng.gen_range(1..=window.max(1));
                self.entry(i).join_at = at;
            }
        }
        self
    }

    /// Builder: each of the `n` stations independently leaves with
    /// probability `prob`, at a uniform slot in `[0, window)`. The draw
    /// is *not* clamped against the station's join slot (that would make
    /// the composed generators order-dependent); a departure scheduled at
    /// or before the join simply means the station never shows up until
    /// its rejoin slot, consistently in both [`StationChurn::present_at`]
    /// and the lowered fault plan.
    pub fn with_random_leaves(mut self, n: u64, prob: f64, window: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "leave probability must be in [0,1]");
        let mut rng = self.tag_rng(TAG_LEAVE);
        for i in 0..n {
            if prob > 0.0 && rng.gen_bool(prob) {
                let at = rng.gen_range(0..window.max(1));
                self.entry(i).leave_at = Some(at);
            }
        }
        self
    }

    /// Builder: every station scheduled to leave rejoins `downtime` slots
    /// after its departure (fresh protocol state).
    pub fn with_rejoins(mut self, downtime: u64) -> Self {
        let downtime = downtime.max(1);
        for c in self.churn.values_mut() {
            if let Some(l) = c.leave_at {
                c.rejoin_at = Some(l + downtime);
            }
        }
        self
    }

    /// Number of stations (out of `n`) present in `slot` — the ground
    /// truth a size-estimation protocol under churn is judged against.
    pub fn live_at(&self, slot: u64, n: u64) -> u64 {
        (0..n).filter(|i| self.get(*i).is_none_or(|c| c.present_at(slot))).count() as u64
    }

    /// The last slot at which any churn event (join, leave, rejoin)
    /// happens; `0` for an empty plan. After this slot the population is
    /// static — the convergence property is judged from here.
    pub fn last_event(&self) -> u64 {
        self.churn
            .values()
            .flat_map(|c| {
                [Some(c.join_at), c.leave_at, c.rejoin_at.filter(|_| c.leave_at.is_some())]
            })
            .flatten()
            .max()
            .unwrap_or(0)
    }

    /// Lower this churn schedule onto `base`, yielding the fault plan
    /// that every per-station backend already knows how to run: join ⇒ `wake_at`
    /// (kept no earlier than the base's wake), leave ⇒ `crash_at`, rejoin
    /// ⇒ `recover_at`. Where a churn entry schedules a departure it takes
    /// precedence over the base entry's crash schedule (the two encode
    /// the same mechanism); base deafness and sensing flips are kept.
    pub fn overlay(&self, base: &FaultPlan) -> FaultPlan {
        let mut plan = base.clone();
        for (&i, c) in &self.churn {
            if c.is_benign() {
                // Preserve "has an entry" (the wrapped-station topology)
                // without perturbing the base schedule.
                if plan.get(i).is_none() {
                    plan = plan.with_station(i, StationFaults::none());
                }
                continue;
            }
            let mut f = plan.get(i).cloned().unwrap_or_default();
            f.wake_at = f.wake_at.max(c.join_at);
            if let Some(l) = c.leave_at {
                f.crash_at = Some(l);
                f.recover_at = c.rejoin_at;
            }
            plan = plan.with_station(i, f);
        }
        plan
    }
}

/// Run the exact engine with `churn` lowered onto an empty fault plan.
///
/// Delegates to [`crate::run_exact_faulty`] via [`ChurnPlan::overlay`],
/// so an empty churn plan is bit-identical to a pristine
/// [`crate::run_exact`] run. To combine churn with faults, call
/// [`ChurnPlan::overlay`] on a real [`FaultPlan`] and run the overlaid
/// plan directly.
pub fn run_exact_churn<F>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    churn: &ChurnPlan,
    factory: F,
) -> RunReport
where
    F: Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static,
{
    let plan = churn.overlay(&FaultPlan::empty());
    crate::faults::run_exact_faulty(config, adversary, &plan, factory)
}

/// Run the fast exact backend with `churn` lowered onto an empty fault
/// plan; semantics match [`run_exact_churn`]. Joins and rejoins arrive
/// through [`crate::FaultyStation::wake_hint`], so absent stations fold
/// into the backend's bucketed wake calendar.
pub fn run_fast_exact_churn<F>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    churn: &ChurnPlan,
    factory: F,
) -> RunReport
where
    F: Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static,
{
    let plan = churn.overlay(&FaultPlan::empty());
    crate::fast::run_fast_exact_faulty(config, adversary, &plan, factory)
}

/// Batched twin of [`run_fast_exact_churn`]: every trial of the batch
/// runs under the same lowered churn plan, and each per-trial
/// [`RunReport`] is bit-identical to the solo fast-churn run with that
/// trial's seed.
pub fn run_batch_exact_churn<F>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    churn: &ChurnPlan,
    seeds: &[u64],
    factory: F,
) -> Vec<RunReport>
where
    F: Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static,
{
    let plan = churn.overlay(&FaultPlan::empty());
    crate::batch::run_batch_exact_faulty(config, adversary, &plan, seeds, factory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopRule;
    use crate::exact::run_exact;
    use crate::fast::run_fast_exact;
    use crate::protocol::{PerStation, UniformProtocol};
    use jle_radio::{CdModel, ChannelState};

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
    fn empty_plan_is_bit_identical_to_pristine_exact_run() {
        let config = SimConfig::new(6, CdModel::Strong).with_seed(42).with_max_slots(5_000);
        let adv = AdversarySpec::passive();
        let pristine = run_exact(&config, &adv, |_| Box::new(PerStation::new(Fixed(0.3))));
        let churned = run_exact_churn(&config, &adv, &ChurnPlan::empty(), fixed_factory(0.3));
        assert_eq!(pristine.resolved_at, churned.resolved_at);
        assert_eq!(pristine.winner, churned.winner);
        assert_eq!(pristine.counts, churned.counts);
        assert_eq!(pristine.energy, churned.energy);
    }

    #[test]
    fn empty_plan_is_bit_identical_to_pristine_fast_run() {
        let config = SimConfig::new(6, CdModel::Strong).with_seed(42).with_max_slots(5_000);
        let adv = AdversarySpec::passive();
        let pristine = run_fast_exact(&config, &adv, |_| Box::new(PerStation::new(Fixed(0.3))));
        let churned = run_fast_exact_churn(&config, &adv, &ChurnPlan::empty(), fixed_factory(0.3));
        assert_eq!(pristine.resolved_at, churned.resolved_at);
        assert_eq!(pristine.winner, churned.winner);
        assert_eq!(pristine.counts, churned.counts);
        assert_eq!(pristine.energy, churned.energy);
    }

    #[test]
    fn benign_entries_are_bit_identical_too() {
        let config = SimConfig::new(4, CdModel::Strong).with_seed(7).with_max_slots(5_000);
        let adv = AdversarySpec::passive();
        let plan =
            (0..4).fold(ChurnPlan::new(9), |p, i| p.with_station(i, StationChurn::founding()));
        let pristine = run_exact(&config, &adv, |_| Box::new(PerStation::new(Fixed(0.4))));
        let churned = run_exact_churn(&config, &adv, &plan, fixed_factory(0.4));
        assert_eq!(pristine.resolved_at, churned.resolved_at);
        assert_eq!(pristine.winner, churned.winner);
        assert_eq!(pristine.counts, churned.counts);
    }

    #[test]
    fn joiner_is_silent_until_its_join_slot() {
        // One station joining at slot 4, always transmitting once present:
        // the first possible Single is the join slot.
        let config = SimConfig::new(1, CdModel::Strong).with_seed(1).with_max_slots(20);
        let plan = ChurnPlan::new(0).with_station(0, StationChurn::founding().joining_at(4));
        let r = run_exact_churn(&config, &AdversarySpec::passive(), &plan, fixed_factory(1.0));
        assert_eq!(r.resolved_at, Some(4));
    }

    #[test]
    fn leaver_goes_silent_and_rejoins_fresh() {
        // Weak CD so the lone transmitter never terminates: present in
        // slots 0..3 and 7..10 ⇒ 6 transmissions, 4 silent slots.
        let config = SimConfig::new(1, CdModel::Weak)
            .with_seed(1)
            .with_max_slots(10)
            .with_stop(StopRule::Horizon);
        let plan =
            ChurnPlan::new(0).with_station(0, StationChurn::founding().leave_and_rejoin(3, 7));
        let r = run_exact_churn(&config, &AdversarySpec::passive(), &plan, fixed_factory(1.0));
        assert_eq!(r.slots, 10);
        assert!(!r.timed_out && !r.cap_hit, "Horizon runs do not time out");
        assert_eq!(r.energy.transmissions, 6);
        assert_eq!(r.counts.nulls, 4);
    }

    #[test]
    fn present_at_and_live_at() {
        let c = StationChurn::founding().joining_at(3).leave_and_rejoin(10, 20);
        assert!(!c.present_at(0) && !c.present_at(2));
        assert!(c.present_at(3) && c.present_at(9));
        assert!(!c.present_at(10) && !c.present_at(19));
        assert!(c.present_at(20));

        let plan = ChurnPlan::new(0)
            .with_station(0, c)
            .with_station(1, StationChurn::founding().leaving_at(5));
        assert_eq!(plan.live_at(0, 3), 2, "station 0 has not joined yet");
        assert_eq!(plan.live_at(4, 3), 3);
        assert_eq!(plan.live_at(5, 3), 2);
        assert_eq!(plan.live_at(15, 3), 1);
        assert_eq!(plan.live_at(25, 3), 2);
        assert_eq!(plan.last_event(), 20);
        assert_eq!(ChurnPlan::empty().last_event(), 0);
    }

    #[test]
    fn generators_are_deterministic_and_order_independent() {
        let mk = || {
            ChurnPlan::new(77)
                .with_staggered_joins(32, 0.5, 1000)
                .with_random_leaves(32, 0.25, 2000)
                .with_rejoins(100)
        };
        assert_eq!(mk(), mk());
        assert!(!mk().is_empty());
        let other = ChurnPlan::new(78)
            .with_staggered_joins(32, 0.5, 1000)
            .with_random_leaves(32, 0.25, 2000)
            .with_rejoins(100);
        assert_ne!(mk(), other, "a different seed gives a different plan");
        // Stream independence: joins drawn before or after leaves give
        // identical plans.
        let a =
            ChurnPlan::new(5).with_staggered_joins(16, 0.5, 100).with_random_leaves(16, 0.5, 100);
        let b =
            ChurnPlan::new(5).with_random_leaves(16, 0.5, 100).with_staggered_joins(16, 0.5, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn overlay_maps_churn_onto_faults() {
        let churn = ChurnPlan::new(0)
            .with_station(0, StationChurn::founding().joining_at(5))
            .with_station(1, StationChurn::founding().leave_and_rejoin(10, 30));
        let base = FaultPlan::new(3).with_station(0, StationFaults::none().flip_prob(0.1));
        let plan = churn.overlay(&base);
        let f0 = plan.get(0).unwrap();
        assert_eq!(f0.wake_at, 5);
        assert_eq!(f0.sensing_flip_prob, 0.1, "base faults preserved");
        let f1 = plan.get(1).unwrap();
        assert_eq!(f1.crash_at, Some(10));
        assert_eq!(f1.recover_at, Some(30));
    }

    #[test]
    fn json_round_trip_is_canonical() {
        let plan = ChurnPlan::new(0xBEEF)
            .with_staggered_joins(8, 0.5, 100)
            .with_random_leaves(8, 0.5, 200)
            .with_rejoins(50);
        let json = serde_json::to_string(&plan).unwrap();
        let back: ChurnPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        assert_eq!(json, serde_json::to_string(&back).unwrap(), "round trip is byte-stable");
    }
}
