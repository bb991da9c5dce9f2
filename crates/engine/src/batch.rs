//! Batched lockstep trials: K runs of the same experiment per slot pass.
//!
//! Monte-Carlo sweeps over election-scale configurations are dominated by
//! *short* runs — a few dozen slots of work wrapped in per-trial setup
//! (station boxes, scratch vectors, key derivation) that the
//! [`FastExactStations`](crate::FastExactStations) backend pays once per
//! trial. The counter-based streams of [`crate::streams`] make every draw
//! a pure function of `(run_seed, station, slot, draw_index)`, so nothing
//! couples one trial's randomness to another's — K trials of the same
//! experiment can advance through the *same* slot loop together:
//!
//! * **Structure-of-arrays state.** Protocol states live in one
//!   `[station-major × trial]` vector; per-station trial membership
//!   (awake / engaged / finished / transmitted / asleep) lives in
//!   bitplanes where one `u64` word covers 64 trials, so the per-slot
//!   bookkeeping walks words, not stations × trials.
//! * **One pass per slot.** Station iteration, `station_key` material
//!   ([`slot_material`] is mixed once per slot for the whole batch), and
//!   protocol-state touching amortize across every live trial.
//! * **Early retirement.** A trial that resolves (or stops) leaves the
//!   live set by clearing one bit; because draws are coordinate-pure,
//!   retirement cannot shift any other trial's streams — the survivors'
//!   bits are identical to what a solo run would produce.
//!
//! **Bit-identity contract:** trial `k` of a batch over `seeds` produces
//! exactly the [`RunReport`] of
//! `run_fast_exact(&config.with_seed(seeds[k]), …)`. The `seed` field of
//! the config handed to the batch entry points is *ignored* — the seed
//! slice is the per-trial authority. The fast backend's awake-prefix
//! permutation order is unobservable (all of its per-slot effects are
//! set-level: transmitter counts, lone-transmitter identity, per-station
//! feedback independence, min-id estimates, sorted leader lists), which
//! is what lets the batch backend fuse the two feedback passes and walk
//! stations in id order while staying on the fast backend's exact bits.
//! Because the bits agree, batch results may share the fast backend's
//! cache entries (the orchestrator aliases the engine salt — see
//! `DESIGN.md` §17).
//!
//! Two entry families share the lockstep loop:
//!
//! * [`run_batch_exact`] / [`run_batch_exact_with`] /
//!   [`run_batch_exact_faulty`] — the general backend
//!   ([`BatchExactStations`]), one protocol state per `(station, trial)`;
//!   correct for *any* [`Protocol`], including fault-wrapped and
//!   duty-cycled stations (a merged wake calendar buckets
//!   `(station, trial)` pairs by wake slot).
//! * [`run_batch_uniform`] — the uniform-protocol fast path
//!   ([`BatchUniformStations`]): every running station of a trial
//!   provably carries *identical* [`PerStation`](crate::PerStation)-wrapped state (the same
//!   invariant the cohort backend rests on), so the batch keeps **one**
//!   shared state per trial, touches it once per slot, and resolves
//!   degenerate transmission probabilities (`p ∈ {0, 1}`) at word
//!   granularity with no per-station draw at all — the `≥10×` sweep
//!   throughput lever on the `exact_short_runs`-scale workloads.

use crate::config::{SimConfig, StopRule};
use crate::core::{trace_capacity, ADV_SEED_XOR};
use crate::faults::{FaultPlan, FaultyStation};
use crate::protocol::{Action, Protocol, Status, UniformProtocol};
use crate::report::{EnergyStats, RunReport};
use crate::streams::{slot_material, station_key, StationRng};
use jle_adversary::AdversarySpec;
use jle_radio::{cd, ChannelHistory, ChannelState, HistoryView, SlotTruth, Trace};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything one trial owns that is *not* station state: the adversary
/// instruments, the channel history, the accumulating report, and the
/// per-slot scratch the station passes fill in. Field-for-field this is
/// the per-run state `SimCore::run` keeps on its stack, so the per-slot
/// methods below replay the core loop's draw order exactly.
struct TrialLane {
    strategy: Box<dyn jle_adversary::JamStrategy>,
    budget: jle_adversary::JamBudget,
    adv_rng: SmallRng,
    noise_rng: SmallRng,
    history: ChannelHistory,
    report: RunReport,
    energy: EnergyStats,
    trace: Option<Trace>,
    /// Non-terminal stations (awake or parked).
    active: u64,
    /// Non-terminal stations currently reporting `finished()`.
    finished_active: u64,
    /// All stations (terminal included) reporting `finished()`.
    finished_total: u64,
    // Per-slot scratch.
    want: bool,
    tx_count: u64,
    listen_count: u64,
    lone: Option<u64>,
    truth: SlotTruth,
}

impl TrialLane {
    fn new(config: &SimConfig, adversary: &AdversarySpec, seed: u64) -> Self {
        TrialLane {
            strategy: adversary.strategy(),
            budget: adversary.budget(),
            adv_rng: SmallRng::seed_from_u64(seed ^ ADV_SEED_XOR),
            noise_rng: SmallRng::seed_from_u64(seed),
            history: ChannelHistory::new(config.effective_retention(adversary.t_window)),
            report: RunReport::default(),
            energy: EnergyStats::default(),
            trace: if config.record_trace {
                Some(Trace::with_capacity(trace_capacity(config)))
            } else {
                None
            },
            active: config.n,
            finished_active: 0,
            finished_total: 0,
            want: false,
            tx_count: 0,
            listen_count: 0,
            lone: None,
            truth: SlotTruth::IDLE,
        }
    }

    /// The stop-before-playing predicate `SimCore` checks at the top of
    /// every slot (incremental form, same as the fast backend).
    fn finished(&self) -> bool {
        self.finished_total > 0 && self.finished_active == self.active
    }

    /// Top-of-slot: the commit-first adversary decides before any action
    /// draw; per-slot scratch resets.
    fn begin_slot(&mut self) {
        self.want = self.strategy.decide(&self.history, &self.budget, &mut self.adv_rng);
        self.tx_count = 0;
        self.listen_count = 0;
        self.lone = None;
    }

    /// Post-action: budget clamp, noise draw, ground truth, energy/trace
    /// accounting, and first-clean-single resolution — steps 3–5 of the
    /// core loop, in its exact draw order.
    fn commit_slot(&mut self, config: &SimConfig, slot: u64, estimate: Option<f64>) {
        let jam = if self.want {
            self.budget.try_jam()
        } else {
            self.budget.skip();
            false
        };
        let noisy = config.noise_prob > 0.0 && self.noise_rng.gen_bool(config.noise_prob);
        if noisy {
            self.report.noise_slots += 1;
        }
        self.truth = SlotTruth::new(self.tx_count, jam || noisy);
        self.energy.transmissions += self.tx_count;
        self.energy.listens += self.listen_count;
        if let Some(t) = self.trace.as_mut() {
            match estimate {
                Some(u) => t.push_with_estimate(&self.truth, u),
                None => t.push(&self.truth),
            }
        }
        if self.truth.is_clean_single() && self.report.resolved_at.is_none() {
            self.report.resolved_at = Some(slot);
            self.report.winner = self.lone;
        }
    }

    /// End-of-slot bookkeeping and stop rules; returns whether the trial
    /// retires after this slot.
    fn end_slot(&mut self, config: &SimConfig, slot: u64) -> bool {
        self.history.push(&self.truth);
        self.report.slots = slot + 1;
        match config.stop {
            StopRule::FirstCleanSingle => self.report.resolved_at.is_some(),
            StopRule::AllTerminated => {
                if self.active == 0 {
                    self.report.all_terminated = true;
                    true
                } else {
                    false
                }
            }
            StopRule::Horizon => false,
        }
    }

    /// Post-loop report assembly (core finalization + the fast backend's
    /// `timed_out`/`cap_hit` rules); `leaders` is filled by the caller.
    fn finalize(&mut self, config: &SimConfig) -> RunReport {
        self.report.counts = self.history.counts();
        self.report.adv_budget_spent = self.budget.spent_fraction();
        self.report.energy = self.energy;
        if let Some(t) = self.trace.take() {
            self.report.trace = Some(t);
        }
        let fin = self.finished();
        self.report.timed_out = match config.stop {
            StopRule::FirstCleanSingle => self.report.resolved_at.is_none() && !fin,
            StopRule::AllTerminated => !self.report.all_terminated,
            StopRule::Horizon => false,
        };
        self.report.cap_hit = self.report.timed_out && self.report.slots == config.max_slots;
        std::mem::take(&mut self.report)
    }
}

/// Estimate semantics shared with the fast backend: the estimate of the
/// lowest-indexed non-terminal station of `trial`.
fn min_engaged_estimate<P: Protocol>(
    engaged: &[u64],
    protos: &[P],
    words: usize,
    k: usize,
    trial: usize,
) -> Option<f64> {
    let (w, bit) = (trial / 64, trial % 64);
    let n = protos.len().checked_div(k).unwrap_or(0);
    for i in 0..n {
        if engaged[i * words + w] >> bit & 1 != 0 {
            return protos[i * k + trial].estimate();
        }
    }
    None
}

/// The general batched lockstep backend: K trials of the same experiment
/// advance through one slot loop over structure-of-arrays state.
///
/// Layout: `protos`/`keys` are station-major (`[station * K + trial]`);
/// the `awake`/`engaged`/`finished`/`tx`/`sleep` bitplanes are indexed
/// `[station * words + word]` with one bit per trial; `live` is one word
/// row of still-running trials. Padding bits (trial ≥ K in the last
/// word) stay clear in every plane.
///
/// See the module docs for the bit-identity contract. Construct with
/// [`BatchExactStations::new`] and drive to completion with
/// [`BatchExactStations::run`]; the `run_batch_*` shims do both.
pub struct BatchExactStations<P> {
    config: SimConfig,
    n: usize,
    k: usize,
    words: usize,
    protos: Vec<P>,
    keys: Vec<u64>,
    awake: Vec<u64>,
    engaged: Vec<u64>,
    finished: Vec<u64>,
    tx: Vec<u64>,
    sleep: Vec<u64>,
    live: Vec<u64>,
    /// Merged wake calendar: `(station, trial)` pairs bucketed by wake
    /// slot — the batch-wide image of the fast backend's per-run
    /// `WakeQueue` (drain order within a bucket is unobservable because
    /// waking only sets membership bits).
    calendar: BTreeMap<u64, Vec<(u32, u32)>>,
    lanes: Vec<TrialLane>,
}

impl<P: Protocol> BatchExactStations<P> {
    /// Build the lockstep state for one trial per entry of `seeds`.
    /// `factory(trial, station)` builds each protocol instance; it must
    /// construct the same station identically for every trial (the
    /// per-trial variation comes from the seeds, not the factory), which
    /// every pure factory does by construction.
    pub fn new(
        config: &SimConfig,
        adversary: &AdversarySpec,
        seeds: &[u64],
        mut factory: impl FnMut(u64, u64) -> P,
    ) -> Self {
        assert!(config.n >= 1, "need at least one station");
        let n = config.n as usize;
        assert!(n <= u32::MAX as usize, "batch backend indexes stations with u32");
        let k = seeds.len();
        assert!(k <= u32::MAX as usize, "batch backend indexes trials with u32");
        let words = k.div_ceil(64);

        let mut protos = Vec::with_capacity(n * k);
        let mut keys = Vec::with_capacity(n * k);
        for station in 0..n as u64 {
            for (trial, &seed) in seeds.iter().enumerate() {
                protos.push(factory(trial as u64, station));
                keys.push(station_key(seed, station));
            }
        }
        let lanes: Vec<TrialLane> =
            seeds.iter().map(|&s| TrialLane::new(config, adversary, s)).collect();

        let mut live = vec![u64::MAX; words];
        if let Some(last) = live.last_mut() {
            if !k.is_multiple_of(64) {
                *last = (1u64 << (k % 64)) - 1;
            }
        }
        let planes = |full: bool| -> Vec<u64> {
            if full {
                (0..n).flat_map(|_| live.iter().copied()).collect()
            } else {
                vec![0u64; n * words]
            }
        };
        let (awake, engaged) = (planes(true), planes(true));
        let (finished, tx, sleep) = (planes(false), planes(false), planes(false));

        let mut set = BatchExactStations {
            config: config.clone(),
            n,
            k,
            words,
            protos,
            keys,
            awake,
            engaged,
            finished,
            tx,
            sleep,
            live,
            calendar: BTreeMap::new(),
            lanes,
        };
        // Construction-time fold, mirroring the fast backend: stations
        // already `finished()` count toward the stop condition; stations
        // already terminal never enter the loop.
        for i in 0..n {
            let base = i * set.words;
            for trial in 0..k {
                let (w, b) = (trial / 64, trial % 64);
                let idx = i * k + trial;
                let mut fin = false;
                if set.protos[idx].finished() {
                    fin = true;
                    set.finished[base + w] |= 1u64 << b;
                    set.lanes[trial].finished_total += 1;
                    set.lanes[trial].finished_active += 1;
                }
                if set.protos[idx].status().terminal() {
                    let lane = &mut set.lanes[trial];
                    lane.active -= 1;
                    if fin {
                        lane.finished_active -= 1;
                    }
                    set.awake[base + w] &= !(1u64 << b);
                    set.engaged[base + w] &= !(1u64 << b);
                }
            }
        }
        set
    }

    /// Drive every trial to completion and return the per-trial reports
    /// in seed order. Each is bit-identical to the corresponding solo
    /// fast-exact run.
    pub fn run(mut self) -> Vec<RunReport> {
        let config = self.config.clone();
        let (n, k, words) = (self.n, self.k, self.words);
        for slot in 0..config.max_slots {
            // 0. Retire trials whose stations all finished — before the
            // slot is played, like the core loop's top-of-slot check.
            let mut any_live = false;
            for w in 0..words {
                let mut m = self.live[w];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if self.lanes[(w << 6) | b].finished() {
                        self.live[w] &= !(1u64 << b);
                    } else {
                        any_live = true;
                    }
                }
            }
            if !any_live {
                break;
            }

            // 1. Adversary pre-decisions + scratch reset per live trial.
            for w in 0..words {
                let mut m = self.live[w];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.lanes[(w << 6) | b].begin_slot();
                }
            }
            self.tx.fill(0);
            self.sleep.fill(0);

            // 2. Wake phase: pull every (station, trial) whose declared
            // wake slot has arrived back into the awake planes. Bits of
            // retired trials are masked by `live` everywhere they could
            // be read, so the calendar need not know about retirement.
            loop {
                match self.calendar.first_key_value() {
                    Some((&wake, _)) if wake <= slot => {
                        let (_, entries) = self.calendar.pop_first().expect("peeked entry exists");
                        for (station, trial) in entries {
                            let (w, b) = (trial as usize / 64, trial as usize % 64);
                            self.awake[station as usize * words + w] |= 1u64 << b;
                        }
                    }
                    _ => break,
                }
            }

            // 3. Action phase, station-major: the slot's key material is
            // mixed once for the whole batch.
            let slot_mat = slot_material(slot);
            for i in 0..n {
                let base = i * words;
                for w in 0..words {
                    let mut m = self.awake[base + w] & self.live[w];
                    while m != 0 {
                        let b = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let kk = (w << 6) | b;
                        let idx = i * k + kk;
                        let mut rng = StationRng::with_slot_material(self.keys[idx], slot_mat);
                        match self.protos[idx].act(slot, &mut rng) {
                            Action::Transmit => {
                                self.tx[base + w] |= 1u64 << b;
                                let lane = &mut self.lanes[kk];
                                lane.tx_count += 1;
                                lane.lone = if lane.tx_count == 1 { Some(i as u64) } else { None };
                            }
                            Action::Listen => self.lanes[kk].listen_count += 1,
                            Action::Sleep => self.sleep[base + w] |= 1u64 << b,
                        }
                    }
                }
            }

            // 4. Commit + noise + truth + observers + resolution.
            for w in 0..words {
                let mut m = self.live[w];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let kk = (w << 6) | b;
                    let estimate = if self.lanes[kk].trace.is_some() {
                        min_engaged_estimate(&self.engaged, &self.protos, words, k, kk)
                    } else {
                        None
                    };
                    self.lanes[kk].commit_slot(&config, slot, estimate);
                }
            }

            // 5. Feedback, station-major, with the fast backend's two
            // passes fused per (station, trial) — legal because every
            // per-station effect is independent of the pass order.
            for i in 0..n {
                let base = i * words;
                for w in 0..words {
                    let mut m = self.awake[base + w] & self.live[w];
                    while m != 0 {
                        let b = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let bit = 1u64 << b;
                        let kk = (w << 6) | b;
                        let idx = i * k + kk;
                        let slept = self.sleep[base + w] & bit != 0;
                        if !slept {
                            let transmitted = self.tx[base + w] & bit != 0;
                            let obs = cd::observe(config.cd, transmitted, &self.lanes[kk].truth);
                            self.protos[idx].feedback(slot, transmitted, obs);
                        }
                        let fin = self.protos[idx].finished();
                        if fin != (self.finished[base + w] & bit != 0) {
                            self.finished[base + w] ^= bit;
                            let lane = &mut self.lanes[kk];
                            if fin {
                                lane.finished_total += 1;
                                lane.finished_active += 1;
                            } else {
                                lane.finished_total -= 1;
                                lane.finished_active -= 1;
                            }
                        }
                        if self.protos[idx].status().terminal() {
                            let lane = &mut self.lanes[kk];
                            lane.active -= 1;
                            if fin {
                                lane.finished_active -= 1;
                            }
                            self.awake[base + w] &= !bit;
                            self.engaged[base + w] &= !bit;
                        } else if slept {
                            // `max(slot + 1)` hardens against hints in the
                            // past; u64::MAX parks the pair forever — it
                            // stays engaged (and in `active`) without ever
                            // re-entering the calendar.
                            let wake = self.protos[idx].wake_hint(slot).max(slot + 1);
                            self.awake[base + w] &= !bit;
                            if wake != u64::MAX {
                                self.calendar.entry(wake).or_default().push((i as u32, kk as u32));
                            }
                        }
                    }
                }
            }

            // 6. History, slot count, stop rules; stopping trials retire.
            for w in 0..words {
                let mut m = self.live[w];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if self.lanes[(w << 6) | b].end_slot(&config, slot) {
                        self.live[w] &= !(1u64 << b);
                    }
                }
            }
        }

        // Finalization: statuses are frozen once a trial retires, so one
        // pass at the end serves every trial.
        let mut reports = Vec::with_capacity(k);
        for trial in 0..k {
            let mut leaders = Vec::new();
            for i in 0..n {
                if self.protos[i * k + trial].status() == Status::Leader {
                    leaders.push(i as u64);
                }
            }
            let mut report = self.lanes[trial].finalize(&config);
            report.leaders = leaders;
            reports.push(report);
        }
        reports
    }
}

impl<P> std::fmt::Debug for BatchExactStations<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchExactStations")
            .field("n", &self.n)
            .field("trials", &self.k)
            .field("live", &self.live.iter().map(|w| w.count_ones()).sum::<u32>())
            .finish_non_exhaustive()
    }
}

/// Run `seeds.len()` lockstep trials with statically-dispatched stations
/// (`factory(trial, station)` builds each one). Returns per-trial reports
/// in seed order, each bit-identical to
/// `run_fast_exact(&config.with_seed(seeds[trial]), …)`; the config's own
/// `seed` field is ignored.
pub fn run_batch_exact_with<P: Protocol>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    seeds: &[u64],
    factory: impl FnMut(u64, u64) -> P,
) -> Vec<RunReport> {
    BatchExactStations::new(config, adversary, seeds, factory).run()
}

/// Boxed-factory shim over [`run_batch_exact_with`] — the same factory
/// shape as [`run_fast_exact`](crate::run_fast_exact), applied to every
/// trial of the batch.
pub fn run_batch_exact(
    config: &SimConfig,
    adversary: &AdversarySpec,
    seeds: &[u64],
    factory: impl Fn(u64) -> Box<dyn Protocol>,
) -> Vec<RunReport> {
    run_batch_exact_with(config, adversary, seeds, |_trial, station| factory(station))
}

/// Batched twin of [`run_fast_exact_faulty`](crate::run_fast_exact_faulty):
/// planned stations are wrapped in [`FaultyStation`] per `(station,
/// trial)` and the post-run leader-crash verdict comes from the plan.
pub fn run_batch_exact_faulty<F>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    plan: &FaultPlan,
    seeds: &[u64],
    factory: F,
) -> Vec<RunReport>
where
    F: Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static,
{
    let factory = Arc::new(factory);
    let mut reports =
        run_batch_exact_with(config, adversary, seeds, |_trial, i| match plan.get(i) {
            None => factory(i),
            Some(f) => {
                let fac = Arc::clone(&factory);
                Box::new(FaultyStation::new(
                    f.clone(),
                    plan.station_seed(i),
                    Box::new(move || fac(i)),
                )) as Box<dyn Protocol>
            }
        });
    for report in &mut reports {
        if report.leaders.len() <= 1 {
            if let Some(w) = report.leaders.first().copied().or(report.winner) {
                // Same full-horizon judgement as the per-trial faulty
                // backends: crash schedules are wall-clock.
                let horizon = config.max_slots.max(report.slots);
                if plan.leader_crashed(w, horizon) {
                    report.leader_crashed = true;
                }
            }
        }
    }
    reports
}

/// The uniform-protocol fast path: K trials of a [`PerStation`](crate::PerStation)-wrapped
/// [`UniformProtocol`] with **one** shared protocol state per trial.
///
/// # The uniform-path invariant
///
/// Running a uniform protocol through [`FastExactStations`] gives every
/// station its own `PerStation<U>` copy, but those copies can never
/// diverge while their stations run: per slot each running copy receives
/// exactly one `tx_prob` call (identical mutation) and then either
/// (a) a non-clean-single slot, where every running station — transmitter
/// or listener, under all three CD models — applies the *same* single
/// `on_state` update (a weak/no-CD transmitter's `TxAssumedCollision`
/// collapses to `Collision`, which is also what every listener hears on
/// any slot with transmitters or jamming; no-CD listeners collapse `Null`
/// to `Collision` too), or (b) a clean single, where every
/// divergently-updated station *terminates on the spot* (strong CD: the
/// transmitter becomes `Leader`, listeners `NonLeader`; weak/no-CD:
/// listeners become `NonLeader` and the transmitter — the only survivor —
/// absorbs one `on_state(Collision)`). Divergence and termination
/// coincide, so one shared `U` plus per-station status bitplanes
/// reproduce the fast backend's bits exactly; a terminating station's
/// `finished()` freezes at the shared state's pre-`on_state` value.
///
/// # Degenerate-probability word path
///
/// With the state shared, `tx_prob` is called once per trial per slot.
/// When it returns `p ≤ 0` every running station listens and when it
/// returns `p ≥ 1` every running station transmits — in both cases
/// *without consuming a draw*: `PerStation::act` skips the draw at
/// `p = 0`, and at `p = 1` the vendored `gen_bool(1.0)` is
/// unconditionally `true` while the per-slot [`StationRng`] stream is
/// discarded at slot end, so the skipped draw is unobservable. The
/// election-scale workloads (`AlwaysCollide`-style saturation phases)
/// spend almost every slot here, which is where the batch backend's
/// `≥10×` sweep throughput comes from: per-slot cost collapses from
/// `O(n)` draws to word-granularity bookkeeping.
///
/// Bit-identity contract: trial `k` matches
/// `run_fast_exact(&config.with_seed(seeds[k]), adversary, |_| PerStation::new(factory()))`
/// exactly, for any pure `factory` (same initial state per call).
pub struct BatchUniformStations<U> {
    config: SimConfig,
    n: usize,
    k: usize,
    words: usize,
    keys: Vec<u64>,
    /// Non-terminal membership, `[station * words + word]`.
    running: Vec<u64>,
    /// Elected leaders (strong-CD clean singles), same layout.
    leader: Vec<u64>,
    live: Vec<u64>,
    lanes: Vec<TrialLane>,
    /// One shared protocol state per trial — the invariant above is what
    /// makes this sufficient.
    shared: Vec<U>,
    /// Per trial: terminal stations whose frozen `finished()` was `true`.
    frozen_finished: Vec<u64>,
    /// Per-slot scratch: per-trial transmission probability, and the
    /// word-mask of trials needing per-station draws (`0 < p < 1`).
    ps: Vec<f64>,
    mid: Vec<u64>,
}

/// Lowest-indexed station still running in `trial` (only called when the
/// trial has exactly one).
fn find_single_running(running: &[u64], n: usize, words: usize, trial: usize) -> u64 {
    let (w, bit) = (trial / 64, trial % 64);
    for i in 0..n {
        if running[i * words + w] >> bit & 1 != 0 {
            return i as u64;
        }
    }
    unreachable!("caller guarantees a running station exists");
}

impl<U: UniformProtocol> BatchUniformStations<U> {
    /// Build the lockstep state; `factory()` must yield the same initial
    /// protocol state on every call (one call per trial).
    pub fn new(
        config: &SimConfig,
        adversary: &AdversarySpec,
        seeds: &[u64],
        mut factory: impl FnMut() -> U,
    ) -> Self {
        assert!(config.n >= 1, "need at least one station");
        let n = config.n as usize;
        assert!(n <= u32::MAX as usize, "batch backend indexes stations with u32");
        let k = seeds.len();
        assert!(k <= u32::MAX as usize, "batch backend indexes trials with u32");
        let words = k.div_ceil(64);

        let mut keys = Vec::with_capacity(n * k);
        for station in 0..n as u64 {
            for &seed in seeds {
                keys.push(station_key(seed, station));
            }
        }
        let shared: Vec<U> = (0..k).map(|_| factory()).collect();
        let mut lanes: Vec<TrialLane> =
            seeds.iter().map(|&s| TrialLane::new(config, adversary, s)).collect();
        // Construction-time fold: every station of a finished-at-birth
        // uniform protocol reports finished (and Running), so the trial
        // retires before slot 0 — exactly the fast backend's fold.
        for (lane, state) in lanes.iter_mut().zip(shared.iter()) {
            if state.finished() {
                lane.finished_active = config.n;
                lane.finished_total = config.n;
            }
        }

        let mut live = vec![u64::MAX; words];
        if let Some(last) = live.last_mut() {
            if !k.is_multiple_of(64) {
                *last = (1u64 << (k % 64)) - 1;
            }
        }
        let running: Vec<u64> = (0..n).flat_map(|_| live.iter().copied()).collect();

        BatchUniformStations {
            config: config.clone(),
            n,
            k,
            words,
            keys,
            running,
            leader: vec![0u64; n * words],
            live,
            lanes,
            shared,
            frozen_finished: vec![0u64; k],
            ps: vec![0.0; k],
            mid: vec![0u64; words],
        }
    }

    /// Drive every trial to completion; per-trial reports in seed order,
    /// bit-identical to solo fast-exact runs over `PerStation`.
    pub fn run(mut self) -> Vec<RunReport> {
        let config = self.config.clone();
        let (n, k, words) = (self.n, self.k, self.words);
        for slot in 0..config.max_slots {
            // 0. Retire all-finished trials before playing the slot.
            let mut any_live = false;
            for w in 0..words {
                let mut m = self.live[w];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if self.lanes[(w << 6) | b].finished() {
                        self.live[w] &= !(1u64 << b);
                    } else {
                        any_live = true;
                    }
                }
            }
            if !any_live {
                break;
            }

            // 1. Adversary pre-decisions + scratch reset.
            for w in 0..words {
                let mut m = self.live[w];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.lanes[(w << 6) | b].begin_slot();
                }
            }

            // 2. Action phase. One `tx_prob` call per trial resolves the
            // degenerate probabilities at word granularity; only trials
            // with 0 < p < 1 fall through to per-station draws.
            let slot_mat = slot_material(slot);
            let mut any_mid = false;
            self.mid.fill(0);
            for w in 0..words {
                let mut m = self.live[w];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let kk = (w << 6) | b;
                    if self.lanes[kk].active == 0 {
                        continue; // no running stations: nobody acts
                    }
                    // Same clamp-then-gate as PerStation::act, so NaN and
                    // negative probabilities take the no-draw listen path.
                    let p = self.shared[kk].tx_prob(slot).clamp(0.0, 1.0);
                    self.ps[kk] = p;
                    let lane = &mut self.lanes[kk];
                    if p == 1.0 {
                        lane.tx_count = lane.active;
                        if lane.active == 1 {
                            lane.lone = Some(find_single_running(&self.running, n, words, kk));
                        }
                    } else if p > 0.0 {
                        self.mid[w] |= 1u64 << b;
                        any_mid = true;
                    } else {
                        // NaN falls through `p > 0.0` to land here too.
                        lane.listen_count = lane.active;
                    }
                }
            }
            if any_mid {
                for i in 0..n {
                    let (base, ik) = (i * words, i * k);
                    for w in 0..words {
                        let mut m = self.running[base + w] & self.live[w] & self.mid[w];
                        while m != 0 {
                            let b = m.trailing_zeros() as usize;
                            m &= m - 1;
                            let kk = (w << 6) | b;
                            let mut rng =
                                StationRng::with_slot_material(self.keys[ik + kk], slot_mat);
                            let p = self.ps[kk];
                            let lane = &mut self.lanes[kk];
                            if rng.gen_bool(p) {
                                lane.tx_count += 1;
                                lane.lone = if lane.tx_count == 1 { Some(i as u64) } else { None };
                            } else {
                                lane.listen_count += 1;
                            }
                        }
                    }
                }
            }

            // 3. Commit + noise + truth + observers + resolution. The
            // estimate of the lowest-indexed non-terminal station is the
            // shared state's estimate (all running copies are identical).
            for w in 0..words {
                let mut m = self.live[w];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let kk = (w << 6) | b;
                    let estimate = if self.lanes[kk].trace.is_some() && self.lanes[kk].active > 0 {
                        self.shared[kk].estimate()
                    } else {
                        None
                    };
                    self.lanes[kk].commit_slot(&config, slot, estimate);
                }
            }

            // 4. Feedback: one shared-state update per trial, except on
            // clean singles where the divergently-updated stations all
            // terminate (see the invariant in the type docs).
            for w in 0..words {
                let mut m = self.live[w];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let kk = (w << 6) | b;
                    let active = self.lanes[kk].active;
                    if active == 0 {
                        continue; // nobody listens; nothing updates
                    }
                    let truth = self.lanes[kk].truth;
                    let bit = 1u64 << b;
                    if truth.is_clean_single() {
                        // Terminating stations freeze `finished()` at the
                        // shared state's pre-on_state value.
                        let pre_sf = self.shared[kk].finished();
                        let tx =
                            self.lanes[kk].lone.expect("clean single has exactly one transmitter")
                                as usize;
                        if matches!(config.cd, jle_radio::CdModel::Strong) {
                            if pre_sf {
                                self.frozen_finished[kk] += active;
                            }
                            for i in 0..n {
                                self.running[i * words + w] &= !bit;
                            }
                            self.leader[tx * words + w] |= bit;
                            self.lanes[kk].active = 0;
                        } else {
                            // Weak/no-CD: listeners terminate NonLeader;
                            // the transmitter absorbs one Collision.
                            if pre_sf {
                                self.frozen_finished[kk] += active - 1;
                            }
                            for i in 0..n {
                                if i != tx {
                                    self.running[i * words + w] &= !bit;
                                }
                            }
                            self.lanes[kk].active = 1;
                            self.shared[kk].on_state(slot, ChannelState::Collision);
                        }
                    } else {
                        // Every running station hears the same effective
                        // state: Null only on empty unjammed slots under
                        // a CD model that can tell (no-CD collapses Null
                        // to Collision).
                        let state = if !truth.jammed
                            && truth.transmitters == 0
                            && !matches!(config.cd, jle_radio::CdModel::NoCd)
                        {
                            ChannelState::Null
                        } else {
                            ChannelState::Collision
                        };
                        self.shared[kk].on_state(slot, state);
                    }
                    let sf = self.shared[kk].finished();
                    let lane = &mut self.lanes[kk];
                    lane.finished_active = if sf { lane.active } else { 0 };
                    lane.finished_total = self.frozen_finished[kk] + lane.finished_active;
                }
            }

            // 5. History, slot count, stop rules.
            for w in 0..words {
                let mut m = self.live[w];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if self.lanes[(w << 6) | b].end_slot(&config, slot) {
                        self.live[w] &= !(1u64 << b);
                    }
                }
            }
        }

        let mut reports = Vec::with_capacity(k);
        for trial in 0..k {
            let (w, b) = (trial / 64, trial % 64);
            let mut leaders = Vec::new();
            for i in 0..n {
                if self.leader[i * words + w] >> b & 1 != 0 {
                    leaders.push(i as u64);
                }
            }
            let mut report = self.lanes[trial].finalize(&config);
            report.leaders = leaders;
            reports.push(report);
        }
        reports
    }
}

impl<U> std::fmt::Debug for BatchUniformStations<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchUniformStations")
            .field("n", &self.n)
            .field("trials", &self.k)
            .field("live", &self.live.iter().map(|w| w.count_ones()).sum::<u32>())
            .finish_non_exhaustive()
    }
}

/// Run `seeds.len()` lockstep trials of a uniform protocol with one
/// shared state per trial. Bit-identical per trial to
/// `run_fast_exact(&config.with_seed(seeds[k]), adversary, |_| Box::new(PerStation::new(factory())))`
/// for any pure `factory`; this is the `≥10×` sweep path the
/// `batch_throughput` bench group and sweepd's `exact_election` units
/// ride.
pub fn run_batch_uniform<U: UniformProtocol>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    seeds: &[u64],
    factory: impl FnMut() -> U,
) -> Vec<RunReport> {
    BatchUniformStations::new(config, adversary, seeds, factory).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopRule;
    use crate::fast::{run_fast_exact, run_fast_exact_faulty};
    use crate::protocol::PerStation;
    use jle_adversary::{JamStrategyKind, Rate};
    use jle_radio::CdModel;

    /// Uniform fixed-probability protocol with state-update counters, so
    /// identity checks cover the `on_state` path, plus a working reset.
    #[derive(Debug, Clone)]
    struct Fixed {
        p: f64,
        nulls: u64,
        collisions: u64,
    }

    impl Fixed {
        fn new(p: f64) -> Self {
            Fixed { p, nulls: 0, collisions: 0 }
        }
    }

    impl UniformProtocol for Fixed {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.p
        }
        fn on_state(&mut self, _: u64, state: ChannelState) {
            match state {
                ChannelState::Null => self.nulls += 1,
                ChannelState::Collision => self.collisions += 1,
                ChannelState::Single => {}
            }
        }
        fn estimate(&self) -> Option<f64> {
            Some((self.nulls as f64) - (self.collisions as f64))
        }
    }

    /// Duty-cycled non-uniform protocol exercising the sleep/wake
    /// calendar: transmit on its own phase, sleep through a stride.
    #[derive(Debug)]
    struct Pulse {
        phase: u64,
        stride: u64,
        status: Status,
    }

    impl Protocol for Pulse {
        fn act(&mut self, slot: u64, _rng: &mut dyn rand::RngCore) -> Action {
            if slot % self.stride == self.phase {
                Action::Transmit
            } else {
                Action::Sleep
            }
        }
        fn feedback(&mut self, _slot: u64, transmitted: bool, obs: jle_radio::Observation) {
            if obs.heard_single() {
                self.status = if transmitted { Status::Leader } else { Status::NonLeader };
            }
        }
        fn status(&self) -> Status {
            self.status
        }
        fn wake_hint(&self, slot: u64) -> u64 {
            let next = slot + 1;
            let offset = (self.phase + self.stride - next % self.stride) % self.stride;
            next + offset
        }
    }

    fn jammer() -> AdversarySpec {
        AdversarySpec::new(Rate::from_f64(0.4), 16, JamStrategyKind::Random { prob: 0.6 })
    }

    fn seeds(k: usize) -> Vec<u64> {
        (0..k as u64).map(|t| crate::streams::mix64(t ^ 0xBA7C_4EED)).collect()
    }

    fn assert_reports_match_fast(
        config: &SimConfig,
        adv: &AdversarySpec,
        seeds: &[u64],
        reports: &[RunReport],
        factory: impl Fn(u64) -> Box<dyn Protocol>,
    ) {
        assert_eq!(reports.len(), seeds.len());
        for (trial, (&seed, got)) in seeds.iter().zip(reports.iter()).enumerate() {
            let want = run_fast_exact(&config.clone().with_seed(seed), adv, &factory);
            assert_eq!(got, &want, "trial {trial} (seed {seed:#x}) diverged from fast-exact");
        }
    }

    #[test]
    fn general_path_matches_fast_exact_across_cd_models() {
        for cd in [CdModel::Strong, CdModel::Weak, CdModel::NoCd] {
            let config = SimConfig::new(9, cd).with_max_slots(600).with_trace(true);
            let adv = jammer();
            let seeds = seeds(10);
            let reports = run_batch_exact(&config, &adv, &seeds, |_| {
                Box::new(PerStation::new(Fixed::new(0.22)))
            });
            assert_reports_match_fast(&config, &adv, &seeds, &reports, |_| {
                Box::new(PerStation::new(Fixed::new(0.22)))
            });
        }
    }

    #[test]
    fn general_path_matches_fast_exact_with_noise_and_horizon() {
        let config = SimConfig::new(5, CdModel::Weak)
            .with_max_slots(96)
            .with_stop(StopRule::Horizon)
            .with_noise(0.15)
            .with_trace(true);
        let adv = jammer();
        let seeds = seeds(7);
        let reports =
            run_batch_exact(&config, &adv, &seeds, |_| Box::new(PerStation::new(Fixed::new(0.3))));
        assert_reports_match_fast(&config, &adv, &seeds, &reports, |_| {
            Box::new(PerStation::new(Fixed::new(0.3)))
        });
    }

    #[test]
    fn sleep_wake_calendar_matches_fast_exact() {
        // Duty-cycled stations route through the merged wake calendar;
        // station 0 never wins (phase collision with station 3).
        let config = SimConfig::new(6, CdModel::Strong)
            .with_max_slots(64)
            .with_stop(StopRule::FirstCleanSingle);
        let adv = AdversarySpec::passive();
        let seeds = seeds(5);
        let factory = |i: u64| -> Box<dyn Protocol> {
            Box::new(Pulse { phase: i % 3, stride: 3, status: Status::Running })
        };
        let reports = run_batch_exact(&config, &adv, &seeds, factory);
        assert_reports_match_fast(&config, &adv, &seeds, &reports, factory);
    }

    #[test]
    fn uniform_path_matches_fast_exact_across_cd_models_and_probs() {
        for cd in [CdModel::Strong, CdModel::Weak, CdModel::NoCd] {
            for p in [0.0_f64, 0.18, 0.5, 1.0] {
                let config = SimConfig::new(7, cd)
                    .with_max_slots(200)
                    .with_stop(StopRule::FirstCleanSingle)
                    .with_trace(true);
                let adv = jammer();
                let seeds = seeds(9);
                let reports = run_batch_uniform(&config, &adv, &seeds, || Fixed::new(p));
                assert_reports_match_fast(&config, &adv, &seeds, &reports, |_| {
                    Box::new(PerStation::new(Fixed::new(p)))
                });
            }
        }
    }

    #[test]
    fn uniform_path_matches_fast_exact_under_horizon_and_noise() {
        // Horizon runs continue past the election; the post-single tail
        // (zero or one running station) must stay in lockstep too.
        for cd in [CdModel::Strong, CdModel::Weak] {
            let config = SimConfig::new(4, cd)
                .with_max_slots(80)
                .with_stop(StopRule::Horizon)
                .with_noise(0.1)
                .with_trace(true);
            let adv = jammer();
            let seeds = seeds(6);
            let reports = run_batch_uniform(&config, &adv, &seeds, || Fixed::new(0.45));
            assert_reports_match_fast(&config, &adv, &seeds, &reports, |_| {
                Box::new(PerStation::new(Fixed::new(0.45)))
            });
        }
    }

    #[test]
    fn uniform_path_single_station_weak_cd() {
        // n = 1 exercises the "transmitter is the only survivor" branch
        // with zero listeners on the clean single.
        let config =
            SimConfig::new(1, CdModel::Weak).with_max_slots(50).with_stop(StopRule::Horizon);
        let adv = AdversarySpec::passive();
        let seeds = seeds(3);
        let reports = run_batch_uniform(&config, &adv, &seeds, || Fixed::new(1.0));
        assert_reports_match_fast(&config, &adv, &seeds, &reports, |_| {
            Box::new(PerStation::new(Fixed::new(1.0)))
        });
    }

    #[test]
    fn faulty_batch_matches_fast_exact_faulty_per_trial() {
        let config = SimConfig::new(8, CdModel::Strong).with_max_slots(400);
        let adv = jammer();
        let plan = FaultPlan::new(0xFA_57);
        let seeds = seeds(6);
        let factory = |_i: u64| -> Box<dyn Protocol> { Box::new(PerStation::new(Fixed::new(0.3))) };
        let reports = run_batch_exact_faulty(&config, &adv, &plan, &seeds, factory);
        assert_eq!(reports.len(), seeds.len());
        for (trial, (&seed, got)) in seeds.iter().zip(reports.iter()).enumerate() {
            let want = run_fast_exact_faulty(&config.clone().with_seed(seed), &adv, &plan, factory);
            assert_eq!(got, &want, "faulty trial {trial} diverged");
        }
    }

    #[test]
    fn empty_seed_slice_yields_no_reports() {
        let config = SimConfig::new(3, CdModel::Strong);
        let reports = run_batch_exact(&config, &AdversarySpec::passive(), &[], |_| {
            Box::new(PerStation::new(Fixed::new(0.5)))
        });
        assert!(reports.is_empty());
        let reports =
            run_batch_uniform(&config, &AdversarySpec::passive(), &[], || Fixed::new(0.5));
        assert!(reports.is_empty());
    }
}
