//! The fast exact backend: active-set slot loop over counter-based
//! per-station RNG streams.
//!
//! [`ExactStations`](crate::ExactStations) calls every station's `act`
//! every slot and draws all randomness from one sequential stream — O(n)
//! per slot no matter how many stations are asleep, and draw-order-welded
//! to the iteration order. [`FastExactStations`] keeps the *semantics*
//! (same feedback filtering, same CD models, same stop rules, same report
//! fields) while changing both mechanisms:
//!
//! * **Counter-based streams** ([`crate::streams`]): station `i`'s draws
//!   in slot `t` are a pure function of `(run_seed, i, t, draw_index)`.
//!   Skipping a sleeping station — or running stations on different
//!   threads — cannot perturb anyone else's randomness.
//! * **Active-set loop**: stations live in a packed *awake prefix* of the
//!   station vector. A station whose `act` returns
//!   [`Action::Sleep`] is parked in a bucketed wake
//!   calendar keyed by [`Protocol::wake_hint`] and revisited only at its
//!   declared wake slot; terminated stations leave the loop entirely. A
//!   slot costs O(awake), so a duty-cycled million-station network pays
//!   for the stations that are actually up.
//! * **Sharded action phase**: above
//!   [`FastExactStations::DEFAULT_PAR_THRESHOLD`] awake stations, the
//!   prefix is split into per-worker chunks driven through
//!   `rayon::scope`. Because the streams are counter-based, the parallel
//!   action phase is *bit-identical* to the serial one (a unit test locks
//!   this); the transmitter-set reduction folds chunk aggregates in chunk
//!   order, deterministically.
//!
//! The fast backend is **statistically equivalent** to the legacy one —
//! same distributions, different bits. It is locked by its own golden
//! fixtures, and `crates/protocols/tests/cross_engine.rs` holds the
//! KS/chi-square cross-backend equivalence suite. See `DESIGN.md` §12.

use crate::config::SimConfig;
use crate::core::{settle_timeout, stop_rule_fires, SimArena, SimCore, SlotActions, StationSet};
use crate::faults::{FaultPlan, FaultyStations};
use crate::observer::StateProbe;
use crate::protocol::{Action, Protocol, Status};
use crate::report::RunReport;
use crate::streams::{station_key, StationRng};
use jle_adversary::AdversarySpec;
use jle_radio::{cd, SlotTruth};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;

/// Per-slot action of a prefix position, recorded for the feedback phase.
const ACT_LISTEN: u8 = 0;
const ACT_TRANSMIT: u8 = 1;
const ACT_SLEEP: u8 = 2;

/// Recyclable storage for the fast backend's permutation and wake-queue
/// buffers, held by [`SimArena`] so repeated
/// [`run_fast_exact_in`] trials allocate nothing in steady state.
#[derive(Default)]
pub struct FastScratch {
    ids: Vec<u32>,
    pos: Vec<u32>,
    acts: Vec<u8>,
    keys: Vec<u64>,
    finished: Vec<bool>,
    queue: WakeQueue,
}

/// Calendar of parked stations: one bucket of ids per distinct wake
/// slot, drained in `(wake_slot, id)` order — the same order a min-heap
/// of `(wake_slot, id)` pairs would pop, which is what pins the fast
/// backend's golden fixtures.
///
/// A periodic workload (duty cycling, bounded backoff) parks thousands
/// of stations on a handful of distinct wake slots, so the calendar does
/// O(log #distinct-slots) work per park where a binary heap pays
/// O(log #parked) sift steps through a cache-hostile array — on a
/// million-station duty-cycled network that is the difference between
/// the wake machinery dominating the slot loop and it disappearing.
#[derive(Default)]
struct WakeQueue {
    buckets: BTreeMap<u64, Vec<u32>>,
    len: usize,
    /// Drained bucket vectors, recycled so steady state allocates nothing.
    spare: Vec<Vec<u32>>,
}

impl WakeQueue {
    fn push(&mut self, wake: u64, id: u32) {
        let spare = &mut self.spare;
        self.buckets.entry(wake).or_insert_with(|| spare.pop().unwrap_or_default()).push(id);
        self.len += 1;
    }

    /// Remove every id due at or before `slot` and hand them to `f` in
    /// `(wake_slot, id)` order.
    fn drain_due(&mut self, slot: u64, mut f: impl FnMut(u32)) {
        while self.buckets.first_key_value().is_some_and(|(&wake, _)| wake <= slot) {
            let (_, mut ids) = self.buckets.pop_first().expect("peeked entry exists");
            ids.sort_unstable();
            self.len -= ids.len();
            for id in ids.drain(..) {
                f(id);
            }
            self.spare.push(ids);
        }
    }

    /// Every parked id, in no particular order.
    fn iter_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.buckets.values().flatten().copied()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        while let Some((_, mut ids)) = self.buckets.pop_first() {
            ids.clear();
            self.spare.push(ids);
        }
        self.len = 0;
    }
}

/// The incremental stop-condition counters of a station set whose
/// terminated stations leave the loop: the fast backend keeps one, the
/// batch backends one per trial.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Census {
    /// Non-terminal stations (awake or parked).
    pub(crate) active: u64,
    /// Non-terminal stations currently reporting `finished()`.
    pub(crate) finished_active: u64,
    /// All stations (terminal included) reporting `finished()`.
    pub(crate) finished_total: u64,
}

impl Census {
    /// `n` non-terminal stations, none finished.
    pub(crate) fn new(n: u64) -> Self {
        Census { active: n, finished_active: 0, finished_total: 0 }
    }

    /// Incremental form of the legacy predicate `any(finished) &&
    /// all(terminal || finished)`: some station (terminal or not)
    /// finished, and every non-terminal station has.
    pub(crate) fn finished(&self) -> bool {
        self.finished_total > 0 && self.finished_active == self.active
    }

    /// A non-terminal station's `finished()` flipped to `now`.
    pub(crate) fn flip(&mut self, now: bool) {
        if now {
            self.finished_total += 1;
            self.finished_active += 1;
        } else {
            self.finished_total -= 1;
            self.finished_active -= 1;
        }
    }

    /// A station terminated; `finished` is its (counted) `finished()`.
    pub(crate) fn terminate(&mut self, finished: bool) {
        self.active -= 1;
        if finished {
            self.finished_active -= 1;
        }
    }
}

/// Drive one chunk of awake stations through the action phase. Each
/// station draws from its own counter-based stream, so chunks are
/// mutually independent and the result does not depend on which thread
/// (or in which order) chunks run; [`SlotActions::fold`] merges them.
fn run_chunk(
    stations: &mut [Box<dyn Protocol>],
    acts: &mut [u8],
    ids: &[u32],
    keys: &[u64],
    slot: u64,
) -> SlotActions {
    let mut agg = SlotActions::default();
    for ((st, a), &id) in stations.iter_mut().zip(acts.iter_mut()).zip(ids.iter()) {
        let mut rng = StationRng::for_slot(keys[id as usize], slot);
        match st.act(slot, &mut rng) {
            Action::Transmit => {
                *a = ACT_TRANSMIT;
                agg.transmit(id as u64);
            }
            Action::Listen => {
                *a = ACT_LISTEN;
                agg.listeners += 1;
            }
            Action::Sleep => *a = ACT_SLEEP,
        }
    }
    agg
}

/// The active-set per-station [`StationSet`] backend.
///
/// Invariant: positions `[0, awake_len)` of `stations` hold exactly the
/// stations that are awake this slot (non-terminal, not parked in the
/// wake calendar). `ids[p]` is the station id at position `p` and
/// `pos[id]` its position — the permutation both directions. Parked
/// stations sit in `queue` bucketed by wake slot; terminated stations sit
/// outside the prefix and in neither structure.
pub struct FastExactStations {
    stations: Vec<Box<dyn Protocol>>,
    ids: Vec<u32>,
    pos: Vec<u32>,
    acts: Vec<u8>,
    keys: Vec<u64>,
    finished: Vec<bool>,
    queue: WakeQueue,
    awake_len: usize,
    census: Census,
    par_threshold: usize,
}

impl FastExactStations {
    /// Awake-set size at which the action phase shards across threads.
    ///
    /// The vendored rayon shim spawns scoped threads per call, so
    /// parallelism only pays once a slot's action work dwarfs thread
    /// startup; below the threshold the loop stays serial (and the two
    /// paths are bit-identical regardless).
    pub const DEFAULT_PAR_THRESHOLD: usize = 1 << 15;

    /// Build a fresh station set; `factory(i)` builds station `i`.
    pub fn new(config: &SimConfig, factory: impl FnMut(u64) -> Box<dyn Protocol>) -> Self {
        let stations: Vec<Box<dyn Protocol>> = (0..config.n).map(factory).collect();
        Self::from_parts(config, stations, FastScratch::default())
    }

    /// Like [`FastExactStations::new`], but reusing the station vector
    /// and scratch buffers held by `arena`; pair with
    /// [`FastExactStations::recycle`]. Recycling rules match
    /// [`ExactStations::new_in`](crate::ExactStations::new_in): station
    /// boxes are reused only when the count matches and every protocol
    /// supports in-place [`Protocol::reset`].
    pub fn new_in(
        config: &SimConfig,
        factory: impl FnMut(u64) -> Box<dyn Protocol>,
        arena: &mut SimArena,
    ) -> Self {
        let mut stations = std::mem::take(&mut arena.stations);
        if stations.len() != config.n as usize || !stations.iter_mut().all(|s| s.reset()) {
            stations.clear();
            stations.extend((0..config.n).map(factory));
        }
        let scratch = std::mem::take(&mut arena.fast);
        Self::from_parts(config, stations, scratch)
    }

    fn from_parts(
        config: &SimConfig,
        stations: Vec<Box<dyn Protocol>>,
        scratch: FastScratch,
    ) -> Self {
        let n = stations.len();
        assert!(n <= u32::MAX as usize, "fast backend indexes stations with u32");
        let FastScratch { mut ids, mut pos, mut acts, mut keys, mut finished, mut queue } = scratch;
        ids.clear();
        ids.extend(0..n as u32);
        pos.clear();
        pos.extend(0..n as u32);
        acts.clear();
        acts.resize(n, ACT_LISTEN);
        keys.clear();
        keys.extend((0..n as u64).map(|i| station_key(config.seed, i)));
        finished.clear();
        finished.resize(n, false);
        queue.clear();
        let mut set = FastExactStations {
            stations,
            ids,
            pos,
            acts,
            keys,
            finished,
            queue,
            awake_len: n,
            census: Census::new(n as u64),
            par_threshold: Self::DEFAULT_PAR_THRESHOLD,
        };
        // Fold in construction-time state: already-terminal stations never
        // enter the loop; already-finished ones count toward the stop
        // condition (mirrors the legacy backend evaluating `finished()`
        // before slot 0).
        for p in (0..n).rev() {
            let id = set.ids[p] as usize;
            if set.stations[p].finished() {
                set.finished[id] = true;
                set.census.flip(true);
            }
            if set.stations[p].status().terminal() {
                set.census.terminate(set.finished[id]);
                set.demote(p);
            }
        }
        set
    }

    /// Return the station boxes and scratch buffers to `arena`, restoring
    /// construction order first so a following `new_in` (fast *or*
    /// legacy) can recycle resettable boxes in place.
    pub fn recycle(self, arena: &mut SimArena) {
        let FastExactStations {
            mut stations, mut ids, pos, acts, keys, finished, mut queue, ..
        } = self;
        for p in 0..stations.len() {
            // In-place cycle sort on the permutation: each swap parks one
            // station at its home index, so the loop is O(n) total.
            while ids[p] as usize != p {
                let q = ids[p] as usize;
                stations.swap(p, q);
                ids.swap(p, q);
            }
        }
        queue.clear();
        arena.stations = stations;
        arena.fast = FastScratch { ids, pos, acts, keys, finished, queue };
    }

    /// Override the awake-set size at which the action phase goes
    /// parallel ([`FastExactStations::DEFAULT_PAR_THRESHOLD`]). The two
    /// paths are bit-identical, so this only trades thread startup
    /// against per-slot work.
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.par_threshold = threshold.max(1);
        self
    }

    /// Number of stations currently awake (in the active prefix).
    pub fn awake(&self) -> usize {
        self.awake_len
    }

    /// The station with id `id`, for post-run inspection (the internal
    /// vector is permuted; this resolves the permutation).
    pub fn station(&self, id: u64) -> &dyn Protocol {
        &*self.stations[self.pos[id as usize] as usize]
    }

    /// Move `id` (currently parked outside the prefix) into the awake
    /// prefix.
    fn promote(&mut self, id: usize) {
        let p = self.pos[id] as usize;
        let q = self.awake_len;
        debug_assert!(p >= q, "promoted station must be outside the prefix");
        self.stations.swap(p, q);
        self.acts.swap(p, q);
        self.ids.swap(p, q);
        self.pos[self.ids[p] as usize] = p as u32;
        self.pos[self.ids[q] as usize] = q as u32;
        self.awake_len = q + 1;
    }

    /// Remove position `p` from the awake prefix (swap with the last
    /// awake station).
    fn demote(&mut self, p: usize) {
        let last = self.awake_len - 1;
        self.stations.swap(p, last);
        self.acts.swap(p, last);
        self.ids.swap(p, last);
        self.pos[self.ids[p] as usize] = p as u32;
        self.pos[self.ids[last] as usize] = last as u32;
        self.awake_len = last;
    }
}

impl std::fmt::Debug for FastExactStations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastExactStations")
            .field("n", &self.stations.len())
            .field("awake", &self.awake_len)
            .field("parked", &self.queue.len())
            .field("active", &self.census.active)
            .finish_non_exhaustive()
    }
}

impl StationSet for FastExactStations {
    fn finished(&self) -> bool {
        self.census.finished()
    }

    fn act(&mut self, slot: u64, _config: &SimConfig, _rng: &mut SmallRng) -> SlotActions {
        // Wake phase: pull every station whose declared wake slot has
        // arrived back into the prefix.
        // (Take the queue so its drain closure can borrow the rest of
        // `self`; the move is a few pointer copies.)
        let mut queue = std::mem::take(&mut self.queue);
        queue.drain_due(slot, |id| self.promote(id as usize));
        self.queue = queue;

        let awake = self.awake_len;
        if awake == 0 {
            return SlotActions::default();
        }
        let workers = rayon::current_num_threads().max(1);
        if awake >= self.par_threshold && workers > 1 {
            let chunk_len = awake.div_ceil(workers);
            let n_chunks = awake.div_ceil(chunk_len);
            let mut partials = vec![SlotActions::default(); n_chunks];
            {
                let (mut st_rest, _) = self.stations.split_at_mut(awake);
                let (mut act_rest, _) = self.acts.split_at_mut(awake);
                let mut id_rest = &self.ids[..awake];
                let keys = &self.keys[..];
                rayon::scope(|s| {
                    for part in partials.iter_mut() {
                        let take = chunk_len.min(st_rest.len());
                        let (st_chunk, st_tail) = st_rest.split_at_mut(take);
                        let (act_chunk, act_tail) = act_rest.split_at_mut(take);
                        let (id_chunk, id_tail) = id_rest.split_at(take);
                        st_rest = st_tail;
                        act_rest = act_tail;
                        id_rest = id_tail;
                        s.spawn(move |_| {
                            *part = run_chunk(st_chunk, act_chunk, id_chunk, keys, slot);
                        });
                    }
                });
            }
            SlotActions::fold(&partials)
        } else {
            run_chunk(
                &mut self.stations[..awake],
                &mut self.acts[..awake],
                &self.ids[..awake],
                &self.keys,
                slot,
            )
        }
    }

    fn pick_winner(
        &mut self,
        actions: &SlotActions,
        _config: &SimConfig,
        _rng: &mut SmallRng,
    ) -> Option<u64> {
        // Identities are tracked: no randomness drawn (same as legacy).
        actions.lone_transmitter
    }

    fn feedback(&mut self, slot: u64, truth: &SlotTruth, config: &SimConfig) {
        // Pass 1: deliver observations to this slot's non-sleepers.
        for p in 0..self.awake_len {
            if self.acts[p] == ACT_SLEEP {
                continue;
            }
            let transmitted = self.acts[p] == ACT_TRANSMIT;
            let obs = cd::observe(config.cd, transmitted, truth);
            self.stations[p].feedback(slot, transmitted, obs);
        }
        // Pass 2 (descending, so swap-removal never skips an entry):
        // refresh the finished counters and demote terminated stations
        // (out of the loop) and sleepers (into the wake calendar).
        for p in (0..self.awake_len).rev() {
            let id = self.ids[p] as usize;
            let f = self.stations[p].finished();
            if f != self.finished[id] {
                self.finished[id] = f;
                self.census.flip(f);
            }
            if self.stations[p].status().terminal() {
                self.census.terminate(f);
                self.demote(p);
            } else if self.acts[p] == ACT_SLEEP {
                // `max(slot + 1)` hardens against hints in the past;
                // u64::MAX ("never again") parks the station forever while
                // keeping it in the `active` count, exactly like a legacy
                // station that sleeps every remaining slot.
                let wake = self.stations[p].wake_hint(slot).max(slot + 1);
                self.queue.push(wake, id as u32);
                self.demote(p);
            }
        }
    }

    fn estimate(&self) -> Option<f64> {
        // Legacy semantics: the estimate of the *lowest-indexed*
        // non-terminal station. O(awake + parked); only paid when an
        // observer asks for estimates (traced runs).
        let awake_min = self.ids[..self.awake_len].iter().copied().min();
        let parked_min = self.queue.iter_ids().min();
        let id = match (awake_min, parked_min) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b)?,
        };
        self.stations[self.pos[id as usize] as usize].estimate()
    }

    fn collect_probes(&self, out: &mut Vec<StateProbe>) {
        // Id order despite the permuted storage (parked and terminated
        // stations included — their probes show *why* they left the loop).
        for id in 0..self.pos.len() {
            let st = &self.stations[self.pos[id] as usize];
            if let Some((state, value)) = st.state_probe() {
                out.push(StateProbe { station: id as u64, state, value });
            }
        }
    }

    fn should_stop(
        &mut self,
        _truth: &SlotTruth,
        config: &SimConfig,
        report: &mut RunReport,
    ) -> bool {
        stop_rule_fires(config, report, || self.census.active == 0)
    }

    fn finalize(&mut self, config: &SimConfig, report: &mut RunReport) {
        settle_timeout(config, report, || self.census.finished());
        let mut leaders: Vec<u64> = self
            .stations
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status() == Status::Leader)
            .map(|(p, _)| self.ids[p] as u64)
            .collect();
        leaders.sort_unstable();
        report.leaders = leaders;
    }
}

/// Run one simulation on the fast exact backend with a fresh station set.
///
/// Semantics match [`run_exact`](crate::run_exact); bits do not (the fast
/// backend draws from counter-based per-station streams — see the module
/// docs).
pub fn run_fast_exact(
    config: &SimConfig,
    adversary: &AdversarySpec,
    factory: impl FnMut(u64) -> Box<dyn Protocol>,
) -> RunReport {
    let mut stations = FastExactStations::new(config, factory);
    SimCore::new(config, adversary).run(&mut stations)
}

/// Like [`run_fast_exact`], but reusing `arena`'s buffers across trials.
pub fn run_fast_exact_in(
    config: &SimConfig,
    adversary: &AdversarySpec,
    factory: impl FnMut(u64) -> Box<dyn Protocol>,
    arena: &mut SimArena,
) -> RunReport {
    let mut stations = FastExactStations::new_in(config, factory, arena);
    let report = SimCore::new(config, adversary).with_arena(arena).run(&mut stations);
    stations.recycle(arena);
    report
}

/// Run the fast exact backend with a [`FaultPlan`] applied on top of
/// `factory`; semantics match [`run_exact_faulty`](crate::run_exact_faulty).
pub fn run_fast_exact_faulty<F>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    plan: &FaultPlan,
    factory: F,
) -> RunReport
where
    F: Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static,
{
    let mut stations =
        FaultyStations::with_base(plan, factory, |f| FastExactStations::new(config, f));
    SimCore::new(config, adversary).run(&mut stations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopRule;
    use crate::exact::{run_exact, run_exact_in};
    use crate::faults::{run_exact_faulty, StationFaults};
    use crate::protocol::{PerStation, UniformProtocol};
    use jle_adversary::{JamStrategyKind, Rate};
    use jle_radio::{CdModel, ChannelState};

    /// Fixed-probability transmitter. With p ∈ {0, 1} its behavior is
    /// deterministic, so fast and legacy backends must agree *bit for
    /// bit* despite their unrelated streams.
    #[derive(Debug, Clone)]
    struct Fixed(f64);
    impl UniformProtocol for Fixed {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
        fn reset(&mut self) -> bool {
            true
        }
    }

    /// Deterministic duty-cycled transmitter: transmits on its phase slot
    /// once per period, sleeps otherwise, with an accurate wake hint.
    #[derive(Debug, Clone)]
    struct Pulse {
        period: u64,
        phase: u64,
        hint: bool,
        transmissions: u64,
    }

    impl Pulse {
        fn new(period: u64, phase: u64, hint: bool) -> Self {
            Pulse { period, phase, hint, transmissions: 0 }
        }
    }

    impl Protocol for Pulse {
        fn act(&mut self, slot: u64, _rng: &mut dyn rand::RngCore) -> Action {
            if slot % self.period == self.phase {
                self.transmissions += 1;
                Action::Transmit
            } else {
                Action::Sleep
            }
        }
        fn feedback(&mut self, _: u64, _: bool, _: jle_radio::cd::Observation) {}
        fn status(&self) -> Status {
            Status::Running
        }
        fn wake_hint(&self, slot: u64) -> u64 {
            if !self.hint {
                return slot + 1;
            }
            let next = slot + 1;
            let rem = next % self.period;
            next + (self.phase + self.period - rem) % self.period
        }
    }

    fn passive() -> AdversarySpec {
        AdversarySpec::passive()
    }

    #[test]
    fn deterministic_protocols_match_legacy_bit_for_bit() {
        // p=1.0 and p=0.0 stations act deterministically, so every report
        // field must agree with the legacy backend across CD models.
        for cd in [CdModel::Strong, CdModel::Weak, CdModel::NoCd] {
            let config = SimConfig::new(2, cd).with_seed(9).with_max_slots(40).with_trace(true);
            let factory = |i: u64| -> Box<dyn Protocol> {
                Box::new(PerStation::new(Fixed(if i == 0 { 1.0 } else { 0.0 })))
            };
            let legacy = run_exact(&config, &passive(), factory);
            let fast = run_fast_exact(&config, &passive(), factory);
            assert_eq!(legacy.resolved_at, fast.resolved_at, "{cd:?}");
            assert_eq!(legacy.winner, fast.winner, "{cd:?}");
            assert_eq!(legacy.leaders, fast.leaders, "{cd:?}");
            assert_eq!(legacy.counts, fast.counts, "{cd:?}");
            assert_eq!(legacy.energy, fast.energy, "{cd:?}");
            assert_eq!(legacy.timed_out, fast.timed_out, "{cd:?}");
            let (lt, ft) = (legacy.trace.unwrap(), fast.trace.unwrap());
            assert_eq!(lt.len(), ft.len(), "{cd:?}");
            assert!(lt.iter().zip(ft.iter()).all(|(a, b)| a == b), "{cd:?}");
        }
    }

    #[test]
    fn jamming_matches_legacy_on_deterministic_protocols() {
        // The adversary stream is shared engine infrastructure (same
        // SmallRng either way), so jam decisions line up exactly.
        let spec = AdversarySpec::new(Rate::from_f64(0.5), 4, JamStrategyKind::Saturating);
        let config = SimConfig::new(1, CdModel::Strong).with_seed(3).with_max_slots(20);
        let factory = |_| -> Box<dyn Protocol> { Box::new(PerStation::new(Fixed(1.0))) };
        let legacy = run_exact(&config, &spec, factory);
        let fast = run_fast_exact(&config, &spec, factory);
        assert_eq!(legacy.resolved_at, fast.resolved_at);
        assert_eq!(legacy.counts, fast.counts);
        assert_eq!(legacy.adv_budget_spent, fast.adv_budget_spent);
    }

    #[test]
    fn wake_hint_skips_are_unobservable() {
        // The same deterministic duty-cycled stations, with and without
        // accurate wake hints: identical reports, because skipped slots
        // were Sleep-without-state-change by contract.
        for stop in [StopRule::FirstCleanSingle, StopRule::AllTerminated] {
            let config = SimConfig::new(16, CdModel::Strong)
                .with_seed(5)
                .with_max_slots(300)
                .with_stop(stop)
                .with_trace(true);
            let hinted =
                run_fast_exact(&config, &passive(), |i| Box::new(Pulse::new(8, i % 8, true)));
            let unhinted =
                run_fast_exact(&config, &passive(), |i| Box::new(Pulse::new(8, i % 8, false)));
            assert_eq!(hinted.resolved_at, unhinted.resolved_at, "{stop:?}");
            assert_eq!(hinted.counts, unhinted.counts, "{stop:?}");
            assert_eq!(hinted.energy, unhinted.energy, "{stop:?}");
            let (ht, ut) = (hinted.trace.unwrap(), unhinted.trace.unwrap());
            assert!(ht.iter().zip(ut.iter()).all(|(a, b)| a == b), "{stop:?}");
        }
    }

    #[test]
    fn wake_hint_matches_legacy_engine_on_duty_cycle() {
        // Deterministic duty-cycled stations through the *legacy* engine
        // vs the fast one with hints: the active-set loop must not change
        // what the channel sees.
        let config = SimConfig::new(12, CdModel::Strong).with_seed(2).with_max_slots(200);
        let legacy = run_exact(&config, &passive(), |i| Box::new(Pulse::new(6, i % 6, false)));
        let fast = run_fast_exact(&config, &passive(), |i| Box::new(Pulse::new(6, i % 6, true)));
        assert_eq!(legacy.resolved_at, fast.resolved_at);
        assert_eq!(legacy.counts, fast.counts);
        assert_eq!(legacy.energy, fast.energy);
    }

    #[test]
    fn parallel_action_phase_is_bit_identical_to_serial() {
        // Threshold 1 forces sharding from the first slot; counter-based
        // streams make the result independent of the split.
        let config = SimConfig::new(64, CdModel::Strong)
            .with_seed(17)
            .with_max_slots(2_000)
            .with_trace(true);
        let factory = |_| -> Box<dyn Protocol> { Box::new(PerStation::new(Fixed(0.05))) };
        let serial = {
            let mut st = FastExactStations::new(&config, factory);
            SimCore::new(&config, &passive()).run(&mut st)
        };
        let parallel = {
            let mut st = FastExactStations::new(&config, factory).with_parallel_threshold(1);
            SimCore::new(&config, &passive()).run(&mut st)
        };
        assert_eq!(serial.resolved_at, parallel.resolved_at);
        assert_eq!(serial.winner, parallel.winner);
        assert_eq!(serial.leaders, parallel.leaders);
        assert_eq!(serial.counts, parallel.counts);
        assert_eq!(serial.energy, parallel.energy);
        let (st, pt) = (serial.trace.unwrap(), parallel.trace.unwrap());
        assert_eq!(st.len(), pt.len());
        assert!(st.iter().zip(pt.iter()).all(|(a, b)| a == b));
    }

    #[test]
    fn deterministic_given_seed_and_different_across_seeds() {
        let config = SimConfig::new(8, CdModel::Strong).with_seed(11).with_max_slots(100_000);
        let factory = |_| -> Box<dyn Protocol> { Box::new(PerStation::new(Fixed(0.25))) };
        let a = run_fast_exact(&config, &passive(), factory);
        let b = run_fast_exact(&config, &passive(), factory);
        assert_eq!(a.resolved_at, b.resolved_at);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.counts, b.counts);
        let other = run_fast_exact(&config.clone().with_seed(12), &passive(), factory);
        assert!(
            other.resolved_at != a.resolved_at || other.winner != a.winner,
            "different seeds should not replay the same election"
        );
    }

    #[test]
    fn coin_flip_elects_exactly_one_leader() {
        let config = SimConfig::new(2, CdModel::Strong).with_seed(5).with_max_slots(10_000);
        let report = run_fast_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.5))));
        assert!(report.leader_elected());
        let w = report.winner.unwrap();
        assert_eq!(report.leaders, vec![w]);
    }

    #[test]
    fn arena_runs_are_bit_identical_to_fresh_runs() {
        let config = SimConfig::new(8, CdModel::Strong)
            .with_seed(21)
            .with_max_slots(50_000)
            .with_trace(true);
        let spec = AdversarySpec::new(Rate::from_f64(0.5), 8, JamStrategyKind::Saturating);
        let factory = |_: u64| -> Box<dyn Protocol> { Box::new(PerStation::new(Fixed(0.2))) };
        let fresh = run_fast_exact(&config, &spec, factory);
        let mut arena = SimArena::new();
        for seed_bump in 0..3u64 {
            // Interleave other seeds so reuse carries real dirty state
            // (permuted stations, populated wake calendar, stale keys).
            let other = config.clone().with_seed(100 + seed_bump);
            let mut r = run_fast_exact_in(&other, &spec, factory, &mut arena);
            arena.reclaim_trace(&mut r);
        }
        let mut reused = run_fast_exact_in(&config, &spec, factory, &mut arena);
        assert_eq!(fresh.slots, reused.slots);
        assert_eq!(fresh.resolved_at, reused.resolved_at);
        assert_eq!(fresh.winner, reused.winner);
        assert_eq!(fresh.counts, reused.counts);
        assert_eq!(fresh.energy, reused.energy);
        let (ft, rt) = (fresh.trace.unwrap(), reused.trace.as_ref().unwrap());
        assert!(ft.iter().zip(rt.iter()).all(|(a, b)| a == b));
        arena.reclaim_trace(&mut reused);
    }

    #[test]
    fn arena_is_shareable_between_fast_and_legacy_backends() {
        // `recycle` restores construction order, so the same arena can
        // feed both backends alternately without corrupting either.
        let config = SimConfig::new(6, CdModel::Strong).with_seed(8).with_max_slots(20_000);
        let factory = |_: u64| -> Box<dyn Protocol> { Box::new(PerStation::new(Fixed(0.3))) };
        let mut arena = SimArena::new();
        for round in 0..3u64 {
            let cfg = config.clone().with_seed(8 + round);
            let fast_fresh = run_fast_exact(&cfg, &passive(), factory);
            let fast_arena = run_fast_exact_in(&cfg, &passive(), factory, &mut arena);
            assert_eq!(fast_fresh.counts, fast_arena.counts, "round {round}");
            let legacy_fresh = run_exact(&cfg, &passive(), factory);
            let legacy_arena = run_exact_in(&cfg, &passive(), factory, &mut arena);
            assert_eq!(legacy_fresh.counts, legacy_arena.counts, "round {round}");
        }
    }

    #[test]
    fn estimate_tracks_lowest_indexed_running_station() {
        #[derive(Debug)]
        struct Withdraws {
            id: u64,
            status: Status,
        }
        impl Protocol for Withdraws {
            fn act(&mut self, slot: u64, _: &mut dyn rand::RngCore) -> Action {
                // Station 0 terminates after slot 2 (via feedback below).
                let _ = slot;
                Action::Listen
            }
            fn feedback(&mut self, slot: u64, _: bool, _: jle_radio::cd::Observation) {
                if self.id == 0 && slot >= 2 {
                    self.status = Status::NonLeader;
                }
            }
            fn status(&self) -> Status {
                self.status
            }
            fn estimate(&self) -> Option<f64> {
                Some(self.id as f64)
            }
        }
        let config =
            SimConfig::new(3, CdModel::Strong).with_seed(1).with_max_slots(6).with_trace(true);
        let report = run_fast_exact(&config, &passive(), |id| {
            Box::new(Withdraws { id, status: Status::Running })
        });
        // Slots 0..=2 report station 0's estimate; once it terminates the
        // lowest running station is 1.
        assert_eq!(report.trace.unwrap().estimates, vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn faulty_deterministic_schedule_matches_legacy() {
        // Crash + recovery on a deterministic transmitter: identical
        // energy/count accounting through both faulty backends.
        let config = SimConfig::new(1, CdModel::Weak)
            .with_seed(1)
            .with_max_slots(10)
            .with_stop(StopRule::AllTerminated);
        let plan =
            FaultPlan::new(0).with_station(0, StationFaults::none().crash_with_recovery(2, 5));
        let factory = move |_| Box::new(PerStation::new(Fixed(1.0))) as Box<dyn Protocol>;
        let legacy = run_exact_faulty(&config, &passive(), &plan, factory);
        let fast = run_fast_exact_faulty(&config, &passive(), &plan, factory);
        assert_eq!(legacy.energy.transmissions, fast.energy.transmissions);
        assert_eq!(legacy.counts, fast.counts);
        assert_eq!(fast.energy.transmissions, 7, "slots 0,1 and 5..10");
    }

    #[test]
    fn faulty_leader_crash_is_reported() {
        let config = SimConfig::new(2, CdModel::Strong)
            .with_seed(1)
            .with_max_slots(10)
            .with_stop(StopRule::AllTerminated);
        let plan = FaultPlan::new(0)
            .with_station(0, StationFaults::none().crash(2))
            .with_station(1, StationFaults::none().deaf_between(0, u64::MAX));
        let r = run_fast_exact_faulty(&config, &passive(), &plan, move |i| {
            Box::new(PerStation::new(Fixed(if i == 0 { 1.0 } else { 0.0 })))
        });
        assert_eq!(r.resolved_at, Some(0));
        assert_eq!(r.leaders, vec![0]);
        assert!(r.leader_crashed);
    }

    #[test]
    fn all_crashed_run_hits_the_cap_with_empty_awake_set() {
        let config = SimConfig::new(3, CdModel::Strong).with_seed(2).with_max_slots(100);
        let plan = (0..3)
            .fold(FaultPlan::new(1), |p, i| p.with_station(i, StationFaults::none().crash(0)));
        let r = run_fast_exact_faulty(&config, &passive(), &plan, |_| {
            Box::new(PerStation::new(Fixed(1.0)))
        });
        assert!(r.timed_out);
        assert!(r.cap_hit);
        assert_eq!(r.energy.total(), 0, "crashed stations spend no energy");
    }

    #[test]
    fn late_wakeup_resolves_at_wake_slot() {
        let config = SimConfig::new(1, CdModel::Strong).with_seed(1).with_max_slots(20);
        let plan = FaultPlan::new(0).with_station(0, StationFaults::none().wake_at(4));
        let r = run_fast_exact_faulty(&config, &passive(), &plan, |_| {
            Box::new(PerStation::new(Fixed(1.0)))
        });
        assert_eq!(r.resolved_at, Some(4), "first possible Single is the wake slot");
    }

    #[test]
    fn statistical_sanity_winner_spread() {
        // Cheap in-crate check that the per-station streams do not bias
        // winner identity (the heavyweight KS/chi-square suite lives in
        // crates/protocols/tests/cross_engine.rs).
        let mut wins = [0u32; 4];
        for seed in 0..400u64 {
            let config = SimConfig::new(4, CdModel::Strong).with_seed(seed).with_max_slots(10_000);
            let r = run_fast_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.25))));
            if let Some(w) = r.winner {
                wins[w as usize] += 1;
            }
        }
        let total: u32 = wins.iter().sum();
        assert!(total >= 395, "elections should resolve well before 10k slots");
        for (i, &w) in wins.iter().enumerate() {
            let share = w as f64 / total as f64;
            assert!((share - 0.25).abs() < 0.08, "station {i} share {share}");
        }
    }
}
