//! The composable simulation core: **one** slot loop for every engine.
//!
//! Historically the exact, cohort, and faulty engines each hand-rolled the
//! same slot loop (adversary commit → action sampling → noise → resolution
//! → bookkeeping → stop rules) with visible drift between the copies. The
//! core inverts that: [`SimCore`] owns the loop once, and everything that
//! varies between engines lives behind two small interfaces:
//!
//! * [`StationSet`] answers the per-slot station-side questions — who
//!   transmits, who listens, who is the lone transmitter, what feedback
//!   the stations receive, when the run stops, and how the final report
//!   fields are computed. `exact::ExactStations`,
//!   `cohort::CohortStations`, and `faults::FaultyStations` are the three
//!   backends; a multi-hop backend would be a fourth implementation, not a
//!   fourth loop.
//! * [`crate::observer::SlotObserver`] is opt-in per-slot instrumentation
//!   (trace recording, energy accounting, live throughput) layered on the
//!   loop without touching it.
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
//! Budget updates, history pushes, observer calls, and feedback delivery
//! consume no randomness and may not be reordered around the draws above.

use crate::config::SimConfig;
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
/// the same cache line. Shared by [`crate::ExactStations`] (and therefore
/// [`crate::FaultyStations`], which delegates to it) and reusable across
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

/// The station side of the simulation: everything that differs between
/// the exact, cohort, and faulty engines.
///
/// [`SimCore::run`] calls these hooks in a fixed per-slot order — see the
/// module docs for the draw-order contract each implementation must
/// respect. To add a fourth backend, implement this trait; do **not**
/// write another slot loop.
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
    /// The pre-action decision (commit-first strategies draw their
    /// randomness here; the oracle abstains).
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
            jammer: Jammer::CommitFirst {
                strategy: adversary.strategy(),
                budget: adversary.budget(),
                adv_rng: SmallRng::seed_from_u64(config.seed ^ ADV_SEED_XOR),
            },
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
    /// This is the only slot loop in the crate; every public `run_*`
    /// entry point is a thin shim over it.
    pub fn run<S: StationSet>(mut self, stations: &mut S) -> RunReport {
        let config = self.config;
        assert!(config.n >= 1, "need at least one station");
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let retention = config.effective_retention(self.t_window);
        let mut history = match self.arena.as_mut().and_then(|a| a.history.take()) {
            Some(mut h) => {
                h.reset(retention);
                h
            }
            None => ChannelHistory::new(retention),
        };
        let mut energy = EnergyObserver::default();
        let mut trace_obs = if config.record_trace {
            let trace = match self.arena.as_mut().and_then(|a| a.trace.take()) {
                Some(mut t) => {
                    t.reset();
                    t
                }
                None => Trace::with_capacity(trace_capacity(config)),
            };
            Some(TraceObserver::new(trace))
        } else {
            None
        };
        let wants_estimate =
            trace_obs.is_some() || self.observers.iter().any(|o| o.wants_estimate());
        let wants_probes = self.observers.iter().any(|o| o.wants_probes());
        let mut probes: Vec<StateProbe> = Vec::new();
        let mut report = RunReport::default();

        for slot in 0..config.max_slots {
            if stations.finished() {
                break;
            }
            // 1. Commit-first adversaries decide before any action draw.
            let want = self.jammer.pre_decide(&history);

            // 2. Stations act (station-stream draws, index order).
            let actions = stations.act(slot, config, &mut rng);

            // 3. Budget clamp (oracle decides here), then the noise draw.
            let jam = self.jammer.commit(want, actions.transmitters);
            let noisy = config.noise_prob > 0.0 && rng.gen_bool(config.noise_prob);
            if noisy {
                report.noise_slots += 1;
            }
            let truth = SlotTruth::new(actions.transmitters, jam || noisy);

            // 4. Observers (energy, trace, external layers).
            let estimate = if wants_estimate { stations.estimate() } else { None };
            energy.on_slot(slot, &truth, &actions, estimate);
            if let Some(t) = trace_obs.as_mut() {
                t.on_slot(slot, &truth, &actions, estimate);
            }
            for obs in self.observers.iter_mut() {
                obs.on_slot(slot, &truth, &actions, estimate);
            }

            // 5. Resolution: the first clean Single selects the winner.
            if truth.is_clean_single() && report.resolved_at.is_none() {
                report.resolved_at = Some(slot);
                report.winner = stations.pick_winner(&actions, config, &mut rng);
            }

            // 6. Feedback, bookkeeping, stop rules. Probes sample the
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
            history.push(&truth);
            report.slots = slot + 1;
            if stations.should_stop(&truth, config, &mut report) {
                break;
            }
        }

        report.counts = history.counts();
        report.adv_budget_spent = self.jammer.budget().spent_fraction();
        energy.finish(&mut report);
        if let Some(mut t) = trace_obs {
            t.finish(&mut report);
        }
        for obs in self.observers.iter_mut() {
            obs.finish(&mut report);
        }
        stations.finalize(config, &mut report);
        // Post-finalization pass: observers see the settled report (no
        // randomness, no mutation — telemetry classification lives here).
        for obs in self.observers.iter_mut() {
            obs.after_run(&report);
        }
        if let Some(arena) = self.arena {
            arena.history = Some(history);
        }
        report
    }
}
