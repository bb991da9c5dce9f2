//! The composable simulation core: **one** slot protocol for every loop.
//!
//! The per-slot information order the paper's bounds rest on — the
//! adversary commits, the budget clamps, the stations draw, the outcome
//! reaches the stations through the CD model — is written here once, as
//! the steps of a private `Lane` (one run's jammer, budget, streams,
//! history, and report). Two drivers play those steps:
//!
//! * [`SimCore::run`] drives one lane through any [`StationSet`], the
//!   per-slot station-side questions — who transmits, who listens, who
//!   is the lone transmitter, what feedback the stations receive, when
//!   the run stops, and how the final report fields are computed. The
//!   exact, fast-exact, cohort, multihop, and fault-overlay backends are
//!   implementations, not loops.
//! * The lockstep entry beside it drives K lanes — K trials of one
//!   experiment — through a private lane-stations trait whose action and
//!   feedback phases cover every live trial at once; `crate::batch`'s
//!   structure-of-arrays backends implement it.
//!
//! [`crate::observer::SlotObserver`] is opt-in per-slot instrumentation
//! (trace recording, energy accounting, live throughput) layered on the
//! single-lane loop without touching it.
//!
//! # The RNG draw-order contract
//!
//! Bit-for-bit reproducibility (and the golden-seed suite locking it)
//! rests on a fixed per-slot draw order on exactly two `SmallRng` streams:
//!
//! 1. **adversary stream** (`seed ^ ADV_SEED_XOR`): the commit-first
//!    strategy's `decide` draws, if any;
//! 2. **station stream** (`seed`): the backend's action draws — per-station
//!    Bernoullis in index order (exact) or one binomial (cohort);
//! 3. **station stream**: the noise Bernoulli, drawn only when
//!    `noise_prob > 0`;
//! 4. **station stream**: the backend's winner draw on the first clean
//!    `Single` (cohort draws `gen_range(0..n)`; exact draws nothing).
//!
//! Counter-based backends (fast-exact, batch, multihop `Counter`) draw
//! their actions from per-station streams instead, so on their runs the
//! station stream carries the noise draws only.
//!
//! Budget updates, history pushes, observer calls, and feedback delivery
//! consume no randomness and may not be reordered around the draws above.

use crate::config::{SimConfig, StopRule};
use crate::observer::{EnergyObserver, SlotObserver, StateProbe, TraceObserver};
use crate::protocol::Protocol;
use crate::report::RunReport;
use jle_adversary::{AdversarySpec, JamBudget, JamStrategy, Rate};
use jle_radio::{ChannelHistory, HistoryView, SlotTruth, Trace};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Seed-stream separator so station randomness and adversary randomness
/// are independent. This is *the* definition — both engines used to carry
/// a private copy that could silently drift.
pub const ADV_SEED_XOR: u64 = 0x9E37_79B9_7F4A_7C15;

/// Trace preallocation, bounded so absurd `max_slots` caps do not reserve
/// gigabytes up front.
pub(crate) fn trace_capacity(config: &SimConfig) -> usize {
    config.max_slots.min(1 << 20) as usize
}

/// Word-packed per-station slot flags: the `transmitted`/`asleep` pair
/// every per-station backend needs for its feedback phase, two bits per
/// station in one `u64` word array.
///
/// Replaces the historical pair of `Vec<bool>` buffers: clearing is one
/// `memset` over `⌈n/32⌉` words per slot ([`SlotFlags::begin_slot`])
/// instead of two O(n) byte fills, and both flags for a station land on
/// the same cache line. Used by [`crate::ExactStations`] (and therefore
/// by the [`crate::FaultyStations`] overlay on it) and reusable across
/// runs through [`SimArena`].
#[derive(Debug, Clone, Default)]
pub struct SlotFlags {
    words: Vec<u64>,
    len: usize,
}

impl SlotFlags {
    /// Flags for `n` stations, all clear.
    pub fn new(n: usize) -> Self {
        SlotFlags { words: vec![0; n.div_ceil(32)], len: n }
    }

    /// Resize for `n` stations and clear everything (arena reuse).
    pub fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(32), 0);
        self.len = n;
    }

    /// Number of stations tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the flag set tracks zero stations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clear both flags of every station — the per-slot reset, one memset.
    #[inline]
    pub fn begin_slot(&mut self) {
        self.words.fill(0);
    }

    #[inline]
    fn word_bit(i: usize) -> (usize, u32) {
        (i / 32, (i % 32) as u32 * 2)
    }

    /// Mark station `i` as having transmitted this slot.
    #[inline]
    pub fn set_transmitted(&mut self, i: usize) {
        let (w, b) = Self::word_bit(i);
        self.words[w] |= 1u64 << b;
    }

    /// Mark station `i` as asleep (or terminated) this slot.
    #[inline]
    pub fn set_asleep(&mut self, i: usize) {
        let (w, b) = Self::word_bit(i);
        self.words[w] |= 2u64 << b;
    }

    /// Whether station `i` transmitted this slot.
    #[inline]
    pub fn transmitted(&self, i: usize) -> bool {
        let (w, b) = Self::word_bit(i);
        self.words[w] >> b & 1 != 0
    }

    /// Whether station `i` slept this slot.
    #[inline]
    pub fn asleep(&self, i: usize) -> bool {
        let (w, b) = Self::word_bit(i);
        self.words[w] >> b & 2 != 0
    }
}

/// What a station set did in one slot, aggregated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotActions {
    /// Number of transmitting stations.
    pub transmitters: u64,
    /// Number of listening stations (excludes sleepers and terminated
    /// stations on the exact engine; `n − k` on the cohort engine).
    pub listeners: u64,
    /// Index of the sole transmitter when `transmitters == 1` and the
    /// backend tracks identities (exact engine); `None` otherwise.
    pub lone_transmitter: Option<u64>,
}

impl SlotActions {
    /// Count transmitter `id`; the lone-transmitter identity survives
    /// only while it is the slot's single transmitter.
    #[inline]
    pub(crate) fn transmit(&mut self, id: u64) {
        self.transmitters += 1;
        self.lone_transmitter = if self.transmitters == 1 { Some(id) } else { None };
    }

    /// Fold per-chunk aggregates in chunk order (deterministic): totals
    /// add up, and the lone transmitter exists only when exactly one
    /// chunk saw exactly one.
    pub(crate) fn fold(parts: &[SlotActions]) -> SlotActions {
        let transmitters = parts.iter().map(|p| p.transmitters).sum();
        SlotActions {
            transmitters,
            listeners: parts.iter().map(|p| p.listeners).sum(),
            lone_transmitter: if transmitters == 1 {
                parts.iter().find_map(|p| p.lone_transmitter)
            } else {
                None
            },
        }
    }
}

/// The station side of the simulation: everything that differs between
/// the single-lane backends.
///
/// [`SimCore::run`] calls these hooks in a fixed per-slot order — see the
/// module docs for the draw-order contract each implementation must
/// respect. To add a backend, implement this trait; do **not** write
/// another slot loop.
pub trait StationSet {
    /// Whether the protocol has finished without a resolution (checked at
    /// the top of every slot; a `true` ends the run before the slot is
    /// played).
    fn finished(&self) -> bool {
        false
    }

    /// Play the action phase of `slot`: draw station randomness (in
    /// station-index order on the exact engine) and report the aggregate.
    fn act(&mut self, slot: u64, config: &SimConfig, rng: &mut SmallRng) -> SlotActions;

    /// Identify the winner of the run-resolving first clean `Single`.
    /// Called at most once per run. The cohort backend draws the uniform
    /// winner here; the exact backend returns the lone transmitter without
    /// touching the RNG.
    fn pick_winner(
        &mut self,
        actions: &SlotActions,
        config: &SimConfig,
        rng: &mut SmallRng,
    ) -> Option<u64>;

    /// Deliver end-of-slot observations. The backend applies its own CD
    /// filtering and decides which stations hear anything (the cohort
    /// backend skips the update on a run-ending clean `Single`).
    fn feedback(&mut self, slot: u64, truth: &SlotTruth, config: &SimConfig);

    /// Protocol-internal scalar for traces (LESK's estimate `u`), queried
    /// only when an observer wants it, after `act` and before `feedback`.
    fn estimate(&self) -> Option<f64> {
        None
    }

    /// Collect every station's [`StateProbe`] (post-feedback state) into
    /// `out`, in station-id order; stations whose protocol exposes no
    /// probe are skipped. Queried only when an attached observer asked
    /// via [`SlotObserver::wants_probes`] — the default no-op keeps
    /// probe-less backends free. Must not mutate state or draw
    /// randomness.
    fn collect_probes(&self, out: &mut Vec<StateProbe>) {
        let _ = out;
    }

    /// Whether the run stops after this slot. May record stop-rule state
    /// on the report (the exact backend sets
    /// [`RunReport::all_terminated`] here).
    fn should_stop(
        &mut self,
        truth: &SlotTruth,
        config: &SimConfig,
        report: &mut RunReport,
    ) -> bool;

    /// Fill in the backend-specific report fields (`timed_out`, `cap_hit`,
    /// `leaders`, …) after the loop ends.
    fn finalize(&mut self, config: &SimConfig, report: &mut RunReport);
}

/// Reusable per-thread simulation storage.
///
/// The Monte-Carlo hot path used to allocate the station vector, the
/// `transmitted`/`asleep` buffers, the history ring, and (when tracing)
/// the trace storage afresh for every trial. Passing one `SimArena` to
/// [`crate::run_exact_in`] / [`crate::run_cohort_in`] (or
/// [`SimCore::with_arena`]) across repeated runs reuses those allocations.
/// Station boxes whose protocols support in-place
/// [`Protocol::reset`] are recycled too, so the steady state of a
/// resettable exact-engine trial loop allocates nothing at all.
///
/// An arena is plain storage — runs leave no observable difference other
/// than speed, which the golden-seed suite and `engine_throughput` bench
/// both check.
#[derive(Default)]
pub struct SimArena {
    pub(crate) stations: Vec<Box<dyn Protocol>>,
    pub(crate) flags: SlotFlags,
    pub(crate) history: Option<ChannelHistory>,
    pub(crate) trace: Option<Trace>,
    pub(crate) fast: crate::fast::FastScratch,
}

impl SimArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Take a report's trace back into the arena so the next traced run
    /// reuses its allocation. Call after harvesting what you need from the
    /// trace; a report without one is a no-op.
    pub fn reclaim_trace(&mut self, report: &mut RunReport) {
        if let Some(trace) = report.trace.take() {
            self.trace = Some(trace);
        }
    }
}

impl std::fmt::Debug for SimArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimArena")
            .field("stations", &self.stations.len())
            .field("capacity", &self.flags.len())
            .field("history", &self.history.is_some())
            .field("trace", &self.trace.is_some())
            .finish()
    }
}

/// The jam-decision side of a slot: either the paper's commit-first
/// adversary, or the model-violating oracle used as a negative control.
enum Jammer {
    /// Decides before seeing the slot's actions (the paper's model).
    CommitFirst { strategy: Box<dyn JamStrategy>, budget: JamBudget, adv_rng: SmallRng },
    /// Decides *after* seeing the transmitter count — deliberately
    /// violates the model (see [`crate::run_cohort_against_oracle`]).
    Oracle { budget: JamBudget },
}

impl Jammer {
    /// The paper's adversary for the run seeded `seed`.
    fn commit_first(adversary: &AdversarySpec, seed: u64) -> Self {
        Jammer::CommitFirst {
            strategy: adversary.strategy(),
            budget: adversary.budget(),
            adv_rng: SmallRng::seed_from_u64(seed ^ ADV_SEED_XOR),
        }
    }

    /// The pre-action decision (commit-first strategies draw their
    /// randomness here; the oracle abstains).
    #[inline]
    fn pre_decide(&mut self, history: &ChannelHistory) -> bool {
        match self {
            Jammer::CommitFirst { strategy, budget, adv_rng } => {
                strategy.decide(history, budget, adv_rng)
            }
            Jammer::Oracle { .. } => false,
        }
    }

    /// Clamp the request against the budget and advance the window. The
    /// oracle makes its (cheating) decision here, transmitter count in
    /// hand. Consumes no randomness.
    #[inline]
    fn commit(&mut self, want: bool, transmitters: u64) -> bool {
        let (budget, request) = match self {
            Jammer::CommitFirst { budget, .. } => (budget, want),
            Jammer::Oracle { budget } => (budget, transmitters == 1),
        };
        if request {
            budget.try_jam()
        } else {
            budget.skip();
            false
        }
    }

    /// The enforcer, for post-run budget accounting (read-only).
    fn budget(&self) -> &JamBudget {
        match self {
            Jammer::CommitFirst { budget, .. } | Jammer::Oracle { budget } => budget,
        }
    }
}

/// One run's side of the slot protocol: the jammer with its budget, the
/// station/noise stream, the channel history, and the accumulating
/// report, energy, and trace. [`SimCore::run`] drives one lane; the
/// lockstep driver ([`run_lockstep`]) drives one per trial. The methods
/// are the slot steps in their normative order — [`Lane::decide`], then
/// the stations act, then [`Lane::commit`], then feedback, then
/// [`Lane::end_slot`] — so the draw-order contract in the module docs is
/// written here once.
struct Lane {
    jammer: Jammer,
    /// Station stream (seed `seed`): the backend's sequential action
    /// draws, the noise Bernoulli, and the winner draw.
    rng: SmallRng,
    history: ChannelHistory,
    report: RunReport,
    energy: EnergyObserver,
    trace: Option<TraceObserver>,
}

impl Lane {
    /// A fresh lane for the run seeded `seed`, recycling the history ring
    /// and trace storage held by `arena`, if any.
    fn new(
        config: &SimConfig,
        jammer: Jammer,
        t_window: u64,
        seed: u64,
        mut arena: Option<&mut SimArena>,
    ) -> Self {
        let retention = config.effective_retention(t_window);
        let history = match arena.as_mut().and_then(|a| a.history.take()) {
            Some(mut h) => {
                h.reset(retention);
                h
            }
            None => ChannelHistory::new(retention),
        };
        let trace = config.record_trace.then(|| {
            TraceObserver::new(match arena.as_mut().and_then(|a| a.trace.take()) {
                Some(mut t) => {
                    t.reset();
                    t
                }
                None => Trace::with_capacity(trace_capacity(config)),
            })
        });
        Lane {
            jammer,
            rng: SmallRng::seed_from_u64(seed),
            history,
            report: RunReport::default(),
            energy: EnergyObserver::default(),
            trace,
        }
    }

    /// Step 1: the commit-first adversary decides before any action draw.
    #[inline]
    fn decide(&mut self) -> bool {
        self.jammer.pre_decide(&self.history)
    }

    /// Steps 3–5, after the stations acted: budget clamp (the oracle
    /// decides here), the noise draw, the ground truth, energy and trace
    /// accounting, and — on the first clean `Single` — resolution, where
    /// `winner` names the winner (the cohort backend draws it from the
    /// station stream it is handed).
    #[inline]
    fn commit(
        &mut self,
        config: &SimConfig,
        slot: u64,
        want: bool,
        actions: &SlotActions,
        estimate: Option<f64>,
        winner: impl FnOnce(&mut SmallRng) -> Option<u64>,
    ) -> SlotTruth {
        let jam = self.jammer.commit(want, actions.transmitters);
        let noisy = config.noise_prob > 0.0 && self.rng.gen_bool(config.noise_prob);
        if noisy {
            self.report.noise_slots += 1;
        }
        let truth = SlotTruth::new(actions.transmitters, jam || noisy);
        self.energy.on_slot(slot, &truth, actions, estimate);
        if let Some(t) = self.trace.as_mut() {
            t.on_slot(slot, &truth, actions, estimate);
        }
        if truth.is_clean_single() && self.report.resolved_at.is_none() {
            self.report.resolved_at = Some(slot);
            self.report.winner = winner(&mut self.rng);
        }
        truth
    }

    /// Step 6, after feedback: history and slot count.
    #[inline]
    fn end_slot(&mut self, slot: u64, truth: &SlotTruth) {
        self.history.push(truth);
        self.report.slots = slot + 1;
    }

    /// Post-loop report assembly (channel counts, budget, energy, trace);
    /// hands the history ring back to `arena`.
    fn finish(mut self, arena: Option<&mut SimArena>) -> RunReport {
        self.report.counts = self.history.counts();
        self.report.adv_budget_spent = self.jammer.budget().spent_fraction();
        self.energy.finish(&mut self.report);
        if let Some(mut t) = self.trace {
            t.finish(&mut self.report);
        }
        if let Some(arena) = arena {
            arena.history = Some(self.history);
        }
        self.report
    }
}

/// The per-station stop rules, checked after every slot's bookkeeping.
/// `all_terminal` is asked only under [`StopRule::AllTerminated`], whose
/// firing is recorded as [`RunReport::all_terminated`]. Shared by every
/// per-station backend; the cohort backend keeps its own rule
/// (`continue_past_singles`).
#[inline]
pub(crate) fn stop_rule_fires(
    config: &SimConfig,
    report: &mut RunReport,
    all_terminal: impl FnOnce() -> bool,
) -> bool {
    match config.stop {
        StopRule::FirstCleanSingle => report.resolved_at.is_some(),
        StopRule::AllTerminated => {
            report.all_terminated = all_terminal();
            report.all_terminated
        }
        StopRule::Horizon => false,
    }
}

/// The per-station backends' post-run `timed_out`/`cap_hit` verdict;
/// `finished` is the set's [`StationSet::finished`].
pub(crate) fn settle_timeout(
    config: &SimConfig,
    report: &mut RunReport,
    finished: impl FnOnce() -> bool,
) {
    report.timed_out = match config.stop {
        StopRule::FirstCleanSingle => report.resolved_at.is_none() && !finished(),
        StopRule::AllTerminated => !report.all_terminated,
        StopRule::Horizon => false,
    };
    report.cap_hit = report.timed_out && report.slots == config.max_slots;
}

/// The unified slot loop, configured and ready to drive any
/// [`StationSet`].
///
/// ```
/// use jle_adversary::AdversarySpec;
/// use jle_engine::{CohortStations, SimConfig, SimCore, UniformProtocol};
/// use jle_radio::{CdModel, ChannelState};
///
/// struct Fixed(f64);
/// impl UniformProtocol for Fixed {
///     fn tx_prob(&mut self, _: u64) -> f64 {
///         self.0
///     }
///     fn on_state(&mut self, _: u64, _: ChannelState) {}
/// }
///
/// let config = SimConfig::new(1, CdModel::Strong).with_max_slots(10);
/// let mut stations = CohortStations::new(Fixed(1.0));
/// let report = SimCore::new(&config, &AdversarySpec::passive()).run(&mut stations);
/// assert_eq!(report.resolved_at, Some(0));
/// ```
pub struct SimCore<'a> {
    config: &'a SimConfig,
    jammer: Jammer,
    t_window: u64,
    arena: Option<&'a mut SimArena>,
    observers: Vec<&'a mut dyn SlotObserver>,
}

impl<'a> SimCore<'a> {
    /// A core playing `config` against the paper's commit-first adversary.
    pub fn new(config: &'a SimConfig, adversary: &AdversarySpec) -> Self {
        SimCore {
            config,
            jammer: Jammer::commit_first(adversary, config.seed),
            t_window: adversary.t_window,
            arena: None,
            observers: Vec::new(),
        }
    }

    /// A core playing against the model-violating oracle jammer, which
    /// sees the slot's transmitter count before deciding (negative
    /// control; see [`crate::run_cohort_against_oracle`]).
    pub fn oracle(config: &'a SimConfig, eps: Rate, t_window: u64) -> Self {
        SimCore {
            config,
            jammer: Jammer::Oracle { budget: JamBudget::new(eps, t_window) },
            t_window,
            arena: None,
            observers: Vec::new(),
        }
    }

    /// Reuse buffers from (and return them to) `arena`.
    pub fn with_arena(mut self, arena: &'a mut SimArena) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Attach an external per-slot observer (may be called repeatedly;
    /// observers fire in attachment order after the built-in energy and
    /// trace layers).
    pub fn observe(mut self, observer: &'a mut dyn SlotObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Drive `stations` through the slot loop and produce the report.
    ///
    /// Every public `run_*` entry point is a thin shim over this loop or,
    /// for batches, over the lockstep driver that plays the same lane
    /// steps for K trials at once.
    pub fn run<S: StationSet>(mut self, stations: &mut S) -> RunReport {
        let config = self.config;
        assert!(config.n >= 1, "need at least one station");
        let mut lane =
            Lane::new(config, self.jammer, self.t_window, config.seed, self.arena.as_deref_mut());
        let wants_estimate =
            lane.trace.is_some() || self.observers.iter().any(|o| o.wants_estimate());
        let wants_probes = self.observers.iter().any(|o| o.wants_probes());
        let mut probes: Vec<StateProbe> = Vec::new();

        for slot in 0..config.max_slots {
            if stations.finished() {
                break;
            }
            let want = lane.decide();
            // Stations act (station-stream draws, index order).
            let actions = stations.act(slot, config, &mut lane.rng);
            let estimate = if wants_estimate { stations.estimate() } else { None };
            let truth = lane.commit(config, slot, want, &actions, estimate, |rng| {
                stations.pick_winner(&actions, config, rng)
            });
            for obs in self.observers.iter_mut() {
                obs.on_slot(slot, &truth, &actions, estimate);
            }

            // Feedback, then bookkeeping and stop rules. Probes sample the
            // *post-feedback* state (consuming no randomness), so a
            // timeline shows the transition each slot caused.
            stations.feedback(slot, &truth, config);
            if wants_probes {
                probes.clear();
                stations.collect_probes(&mut probes);
                for obs in self.observers.iter_mut() {
                    if obs.wants_probes() {
                        obs.on_probes(slot, &probes);
                    }
                }
            }
            lane.end_slot(slot, &truth);
            if stations.should_stop(&truth, config, &mut lane.report) {
                break;
            }
        }

        let mut report = lane.finish(self.arena);
        for obs in self.observers.iter_mut() {
            obs.finish(&mut report);
        }
        stations.finalize(config, &mut report);
        // Post-finalization pass: observers see the settled report (no
        // randomness, no mutation — telemetry classification lives here).
        for obs in self.observers.iter_mut() {
            obs.after_run(&report);
        }
        report
    }
}

/// The station side of a lockstep batch: K trials of one experiment whose
/// stations act and hear feedback together, one trial per [`Lane`].
/// Trials are indexed `0..K`; `live` masks carry one bit per trial (64
/// per word) and name the trials still playing. Implementations draw only
/// from coordinate-pure [`crate::streams`], so one trial's retirement
/// cannot shift another's randomness.
pub(crate) trait LaneStations {
    /// [`StationSet::finished`] for trial `t`.
    fn finished(&self, t: usize) -> bool;

    /// Whether every station of trial `t` has terminated.
    fn all_terminal(&self, t: usize) -> bool;

    /// Play the action phase of `slot` for every live trial, accumulating
    /// trial `t`'s aggregate into `actions[t]` (zeroed by the driver).
    fn act(&mut self, slot: u64, live: &[u64], actions: &mut [SlotActions]);

    /// [`StationSet::estimate`] for trial `t`, after its action phase.
    fn estimate(&self, t: usize) -> Option<f64>;

    /// Deliver every live trial's end-of-slot feedback.
    fn feedback(
        &mut self,
        slot: u64,
        config: &SimConfig,
        live: &[u64],
        actions: &[SlotActions],
        truths: &[SlotTruth],
    );

    /// Trial `t`'s `Leader` stations in id order, after the run.
    fn leaders(&self, t: usize) -> Vec<u64>;
}

/// The set bits of `word`, ascending.
#[inline]
pub(crate) fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// A mask with bits `0..k` set.
pub(crate) fn full_mask(k: usize) -> Vec<u64> {
    let mut mask = vec![u64::MAX; k.div_ceil(64)];
    if let Some(last) = mask.last_mut().filter(|_| !k.is_multiple_of(64)) {
        *last = (1u64 << (k % 64)) - 1;
    }
    mask
}

/// The trials set in `mask`, ascending.
fn trials(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| bits(word).map(move |b| (w << 6) | b))
}

/// Clear every trial of `mask` for which `keep` says no.
fn retain(mask: &mut [u64], mut keep: impl FnMut(usize) -> bool) {
    for (w, word) in mask.iter_mut().enumerate() {
        for b in bits(*word) {
            if !keep((w << 6) | b) {
                *word &= !(1u64 << b);
            }
        }
    }
}

/// The lockstep entry: drive one [`Lane`] per seed through the same slot
/// steps as [`SimCore::run`], with `stations` acting for all live trials
/// at once. A trial retires (leaves the live mask) when its stations all
/// finish or a stop rule fires; the winner of a resolving slot is its
/// lone transmitter. Returns the reports in seed order — trial `t`'s
/// equals a solo run with `seeds[t]` whose backend follows the same
/// per-station semantics.
pub(crate) fn run_lockstep<S: LaneStations>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    seeds: &[u64],
    stations: &mut S,
) -> Vec<RunReport> {
    assert!(config.n >= 1, "need at least one station");
    let k = seeds.len();
    let mut lanes: Vec<Lane> = seeds
        .iter()
        .map(|&seed| {
            let jammer = Jammer::commit_first(adversary, seed);
            Lane::new(config, jammer, adversary.t_window, seed, None)
        })
        .collect();
    let mut live = full_mask(k);
    let mut wants = vec![false; k];
    let mut actions = vec![SlotActions::default(); k];
    let mut truths = vec![SlotTruth::IDLE; k];

    for slot in 0..config.max_slots {
        // `SimCore::run`'s top-of-slot check: finished trials retire
        // before the slot is played.
        retain(&mut live, |t| !stations.finished(t));
        if live.iter().all(|&w| w == 0) {
            break;
        }
        for t in trials(&live) {
            wants[t] = lanes[t].decide();
            actions[t] = SlotActions::default();
        }
        stations.act(slot, &live, &mut actions);
        for t in trials(&live) {
            let estimate = if lanes[t].trace.is_some() { stations.estimate(t) } else { None };
            let lone = actions[t].lone_transmitter;
            truths[t] = lanes[t].commit(config, slot, wants[t], &actions[t], estimate, |_| lone);
        }
        stations.feedback(slot, config, &live, &actions, &truths);
        retain(&mut live, |t| {
            let lane = &mut lanes[t];
            lane.end_slot(slot, &truths[t]);
            !stop_rule_fires(config, &mut lane.report, || stations.all_terminal(t))
        });
    }

    lanes
        .into_iter()
        .enumerate()
        .map(|(t, lane)| {
            let mut report = lane.finish(None);
            settle_timeout(config, &mut report, || stations.finished(t));
            report.leaders = stations.leaders(t);
            report
        })
        .collect()
}
