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
//!   protocol-state touching amortize across every live trial. The slot
//!   loop itself is the core's lockstep driver (`DESIGN.md` §10): one
//!   lane per trial plays the adversary commit, noise, resolution, and
//!   stop rules exactly as a solo run does, and the backends here supply
//!   only the action and feedback phases.
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
//! Two entry families share the lockstep driver:
//!
//! * [`run_batch_exact`] / [`run_batch_exact_with`] /
//!   [`run_batch_exact_faulty`] — the general backend
//!   (`BatchExactStations`), one protocol state per `(station, trial)`;
//!   correct for *any* [`Protocol`], including fault-wrapped and
//!   duty-cycled stations (a merged wake calendar buckets
//!   `(station, trial)` pairs by wake slot).
//! * [`run_batch_uniform`] — the uniform-protocol fast path
//!   (`BatchUniformStations`): every running station of a trial
//!   provably carries *identical* [`PerStation`](crate::PerStation)-wrapped state (the same
//!   invariant the cohort backend rests on), so the batch keeps **one**
//!   shared state per trial, touches it once per slot, and resolves
//!   degenerate transmission probabilities (`p ∈ {0, 1}`) at word
//!   granularity with no per-station draw at all — the `≥10×` sweep
//!   throughput lever on the `exact_short_runs`-scale workloads.

use crate::config::SimConfig;
use crate::core::{bits, full_mask, run_lockstep, LaneStations, SlotActions};
use crate::fast::Census;
use crate::faults::FaultPlan;
use crate::protocol::{Action, Protocol, Status, UniformProtocol};
use crate::report::RunReport;
use crate::streams::{slot_material, station_key, StationRng};
use jle_adversary::AdversarySpec;
use jle_radio::{cd, CdModel, ChannelState, SlotTruth};
use rand::Rng;
use std::collections::BTreeMap;

/// A station-major bitplane in which every station's word row is `row`.
fn replicate(row: &[u64], n: usize) -> Vec<u64> {
    (0..n).flat_map(|_| row.iter().copied()).collect()
}

/// The general batched lockstep backend: K trials of the same experiment
/// over structure-of-arrays state.
///
/// Layout: `protos`/`keys` are station-major (`[station * K + trial]`);
/// the `awake`/`engaged`/`finished`/`tx`/`sleep` bitplanes are indexed
/// `[station * words + word]` with one bit per trial. Padding bits
/// (trial ≥ K in the last word) stay clear in every plane, and bits of
/// retired trials are masked by the driver's live mask wherever they
/// could be read.
///
/// See the module docs for the bit-identity contract.
pub(crate) struct BatchExactStations<P> {
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
    /// Merged wake calendar: `(station, trial)` pairs bucketed by wake
    /// slot — the batch-wide image of the fast backend's per-run
    /// `WakeQueue` (drain order within a bucket is unobservable because
    /// waking only sets membership bits).
    calendar: BTreeMap<u64, Vec<(u32, u32)>>,
    census: Vec<Census>,
}

impl<P: Protocol> BatchExactStations<P> {
    /// Build the lockstep state for one trial per entry of `seeds`.
    /// `factory(trial, station)` builds each protocol instance; it must
    /// construct the same station identically for every trial (the
    /// per-trial variation comes from the seeds, not the factory), which
    /// every pure factory does by construction.
    fn new(config: &SimConfig, seeds: &[u64], mut factory: impl FnMut(u64, u64) -> P) -> Self {
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
        let all = full_mask(k);
        let mut set = BatchExactStations {
            n,
            k,
            words,
            protos,
            keys,
            awake: replicate(&all, n),
            engaged: replicate(&all, n),
            finished: vec![0; n * words],
            tx: vec![0; n * words],
            sleep: vec![0; n * words],
            calendar: BTreeMap::new(),
            census: vec![Census::new(config.n); k],
        };
        // Construction-time fold, mirroring the fast backend: stations
        // already `finished()` count toward the stop condition; stations
        // already terminal never enter the loop.
        for i in 0..n {
            for trial in 0..k {
                let (at, bit) = (i * words + trial / 64, 1u64 << (trial % 64));
                let proto = &set.protos[i * k + trial];
                let fin = proto.finished();
                if fin {
                    set.finished[at] |= bit;
                    set.census[trial].flip(true);
                }
                if proto.status().terminal() {
                    set.census[trial].terminate(fin);
                    set.awake[at] &= !bit;
                    set.engaged[at] &= !bit;
                }
            }
        }
        set
    }
}

impl<P: Protocol> LaneStations for BatchExactStations<P> {
    fn finished(&self, t: usize) -> bool {
        self.census[t].finished()
    }

    fn all_terminal(&self, t: usize) -> bool {
        self.census[t].active == 0
    }

    fn act(&mut self, slot: u64, live: &[u64], actions: &mut [SlotActions]) {
        let (k, words) = (self.k, self.words);
        self.tx.fill(0);
        self.sleep.fill(0);
        // Wake phase: pull every (station, trial) whose declared wake slot
        // has arrived back into the awake planes.
        while let Some(entry) = self.calendar.first_entry().filter(|e| *e.key() <= slot) {
            for (station, trial) in entry.remove() {
                let (w, b) = (trial as usize / 64, trial as usize % 64);
                self.awake[station as usize * words + w] |= 1u64 << b;
            }
        }
        // Action phase, station-major: the slot's key material is mixed
        // once for the whole batch.
        let slot_mat = slot_material(slot);
        for i in 0..self.n {
            let base = i * words;
            for (w, &live_w) in live.iter().enumerate() {
                for b in bits(self.awake[base + w] & live_w) {
                    let t = (w << 6) | b;
                    let idx = i * k + t;
                    let mut rng = StationRng::with_slot_material(self.keys[idx], slot_mat);
                    let a = &mut actions[t];
                    match self.protos[idx].act(slot, &mut rng) {
                        Action::Transmit => {
                            self.tx[base + w] |= 1u64 << b;
                            a.transmit(i as u64);
                        }
                        Action::Listen => a.listeners += 1,
                        Action::Sleep => self.sleep[base + w] |= 1u64 << b,
                    }
                }
            }
        }
    }

    /// Estimate semantics shared with the fast backend: the estimate of
    /// the lowest-indexed non-terminal station.
    fn estimate(&self, t: usize) -> Option<f64> {
        let (w, bit) = (t / 64, 1u64 << (t % 64));
        (0..self.n)
            .find(|i| self.engaged[i * self.words + w] & bit != 0)
            .and_then(|i| self.protos[i * self.k + t].estimate())
    }

    /// Station-major, with the fast backend's two feedback passes fused
    /// per `(station, trial)` — legal because every per-station effect is
    /// independent of the pass order.
    fn feedback(
        &mut self,
        slot: u64,
        config: &SimConfig,
        live: &[u64],
        _actions: &[SlotActions],
        truths: &[SlotTruth],
    ) {
        let (k, words) = (self.k, self.words);
        for i in 0..self.n {
            let base = i * words;
            for (w, &live_w) in live.iter().enumerate() {
                for b in bits(self.awake[base + w] & live_w) {
                    let bit = 1u64 << b;
                    let t = (w << 6) | b;
                    let proto = &mut self.protos[i * k + t];
                    let slept = self.sleep[base + w] & bit != 0;
                    if !slept {
                        let transmitted = self.tx[base + w] & bit != 0;
                        proto.feedback(
                            slot,
                            transmitted,
                            cd::observe(config.cd, transmitted, &truths[t]),
                        );
                    }
                    let fin = proto.finished();
                    if fin != (self.finished[base + w] & bit != 0) {
                        self.finished[base + w] ^= bit;
                        self.census[t].flip(fin);
                    }
                    if proto.status().terminal() {
                        self.census[t].terminate(fin);
                        self.awake[base + w] &= !bit;
                        self.engaged[base + w] &= !bit;
                    } else if slept {
                        // `max(slot + 1)` hardens against hints in the
                        // past; u64::MAX parks the pair forever — it stays
                        // engaged (and in `active`) without ever
                        // re-entering the calendar.
                        let wake = proto.wake_hint(slot).max(slot + 1);
                        self.awake[base + w] &= !bit;
                        if wake != u64::MAX {
                            self.calendar.entry(wake).or_default().push((i as u32, t as u32));
                        }
                    }
                }
            }
        }
    }

    /// Statuses are frozen once a trial retires, so one pass at the end
    /// serves every trial.
    fn leaders(&self, t: usize) -> Vec<u64> {
        (0..self.n as u64)
            .filter(|&i| self.protos[i as usize * self.k + t].status() == Status::Leader)
            .collect()
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
    let mut stations = BatchExactStations::new(config, seeds, factory);
    run_lockstep(config, adversary, seeds, &mut stations)
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
/// the plan's station factory builds every `(station, trial)`, and each
/// trial's report gets the plan's leader-crash verdict — the same two
/// halves the [`FaultyStations`](crate::FaultyStations) overlay uses.
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
    let factory = plan.station_factory(factory);
    let mut reports = run_batch_exact_with(config, adversary, seeds, |_trial, i| factory(i));
    for report in &mut reports {
        plan.judge_leader(config, report);
    }
    reports
}

/// The uniform-protocol fast path: K trials of a [`PerStation`](crate::PerStation)-wrapped
/// [`UniformProtocol`] with **one** shared protocol state per trial.
///
/// # The uniform-path invariant
///
/// Running a uniform protocol through [`FastExactStations`](crate::FastExactStations) gives every
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
pub(crate) struct BatchUniformStations<U> {
    n: usize,
    k: usize,
    words: usize,
    keys: Vec<u64>,
    /// Non-terminal membership, `[station * words + word]`.
    running: Vec<u64>,
    /// Elected leaders (strong-CD clean singles), same layout.
    leader: Vec<u64>,
    /// One shared protocol state per trial — the invariant above is what
    /// makes this sufficient.
    shared: Vec<U>,
    census: Vec<Census>,
    /// Per trial: terminal stations whose frozen `finished()` was `true`.
    frozen_finished: Vec<u64>,
    /// Per-slot scratch: per-trial transmission probability, and the
    /// word-mask of trials needing per-station draws (`0 < p < 1`).
    ps: Vec<f64>,
    mid: Vec<u64>,
}

impl<U: UniformProtocol> BatchUniformStations<U> {
    /// Build the lockstep state; `factory()` must yield the same initial
    /// protocol state on every call (one call per trial).
    fn new(config: &SimConfig, seeds: &[u64], mut factory: impl FnMut() -> U) -> Self {
        let n = config.n as usize;
        assert!(n <= u32::MAX as usize, "batch backend indexes stations with u32");
        let k = seeds.len();
        assert!(k <= u32::MAX as usize, "batch backend indexes trials with u32");
        let words = k.div_ceil(64);

        let mut keys = Vec::with_capacity(n * k);
        for station in 0..n as u64 {
            keys.extend(seeds.iter().map(|&seed| station_key(seed, station)));
        }
        let shared: Vec<U> = (0..k).map(|_| factory()).collect();
        // Construction-time fold: every station of a finished-at-birth
        // uniform protocol reports finished (and Running), so the trial
        // retires before slot 0 — exactly the fast backend's fold.
        let census = shared
            .iter()
            .map(|state| {
                let fin = if state.finished() { config.n } else { 0 };
                Census { active: config.n, finished_active: fin, finished_total: fin }
            })
            .collect();
        BatchUniformStations {
            n,
            k,
            words,
            keys,
            running: replicate(&full_mask(k), n),
            leader: vec![0; n * words],
            shared,
            census,
            frozen_finished: vec![0; k],
            ps: vec![0.0; k],
            mid: vec![0; words],
        }
    }

    /// Lowest-indexed station still running in trial `t` (only called when
    /// the trial has exactly one).
    fn single_running(&self, t: usize) -> u64 {
        let (w, bit) = (t / 64, 1u64 << (t % 64));
        (0..self.n as u64)
            .find(|&i| self.running[i as usize * self.words + w] & bit != 0)
            .expect("caller guarantees a running station exists")
    }
}

impl<U: UniformProtocol> LaneStations for BatchUniformStations<U> {
    fn finished(&self, t: usize) -> bool {
        self.census[t].finished()
    }

    fn all_terminal(&self, t: usize) -> bool {
        self.census[t].active == 0
    }

    /// One `tx_prob` call per trial resolves the degenerate probabilities
    /// at word granularity; only trials with 0 < p < 1 fall through to
    /// per-station draws.
    fn act(&mut self, slot: u64, live: &[u64], actions: &mut [SlotActions]) {
        let (k, words) = (self.k, self.words);
        self.mid.fill(0);
        let mut any_mid = false;
        for (w, &live_w) in live.iter().enumerate() {
            for b in bits(live_w) {
                let t = (w << 6) | b;
                let active = self.census[t].active;
                if active == 0 {
                    continue; // no running stations: nobody acts
                }
                // Same clamp-then-gate as PerStation::act, so NaN and
                // negative probabilities take the no-draw listen path.
                let p = self.shared[t].tx_prob(slot).clamp(0.0, 1.0);
                self.ps[t] = p;
                if p == 1.0 {
                    actions[t].transmitters = active;
                    if active == 1 {
                        actions[t].lone_transmitter = Some(self.single_running(t));
                    }
                } else if p > 0.0 {
                    self.mid[w] |= 1u64 << b;
                    any_mid = true;
                } else {
                    // NaN falls through `p > 0.0` to land here too.
                    actions[t].listeners = active;
                }
            }
        }
        if !any_mid {
            return;
        }
        let slot_mat = slot_material(slot);
        for i in 0..self.n {
            let base = i * words;
            for (w, &live_w) in live.iter().enumerate() {
                for b in bits(self.running[base + w] & live_w & self.mid[w]) {
                    let t = (w << 6) | b;
                    let mut rng = StationRng::with_slot_material(self.keys[i * k + t], slot_mat);
                    let a = &mut actions[t];
                    if rng.gen_bool(self.ps[t]) {
                        a.transmit(i as u64);
                    } else {
                        a.listeners += 1;
                    }
                }
            }
        }
    }

    /// The estimate of the lowest-indexed non-terminal station is the
    /// shared state's estimate (all running copies are identical).
    fn estimate(&self, t: usize) -> Option<f64> {
        if self.census[t].active > 0 {
            self.shared[t].estimate()
        } else {
            None
        }
    }

    /// One shared-state update per trial, except on clean singles where
    /// the divergently-updated stations all terminate (see the invariant
    /// in the type docs).
    fn feedback(
        &mut self,
        slot: u64,
        config: &SimConfig,
        live: &[u64],
        actions: &[SlotActions],
        truths: &[SlotTruth],
    ) {
        let (n, words) = (self.n, self.words);
        for (w, &live_w) in live.iter().enumerate() {
            for b in bits(live_w) {
                let t = (w << 6) | b;
                let active = self.census[t].active;
                if active == 0 {
                    continue; // nobody listens; nothing updates
                }
                let truth = truths[t];
                let bit = 1u64 << b;
                if truth.is_clean_single() {
                    // Terminating stations freeze `finished()` at the
                    // shared state's pre-on_state value.
                    let pre_sf = self.shared[t].finished();
                    let tx = actions[t]
                        .lone_transmitter
                        .expect("clean single has exactly one transmitter")
                        as usize;
                    if config.cd == CdModel::Strong {
                        if pre_sf {
                            self.frozen_finished[t] += active;
                        }
                        for i in 0..n {
                            self.running[i * words + w] &= !bit;
                        }
                        self.leader[tx * words + w] |= bit;
                        self.census[t].active = 0;
                    } else {
                        // Weak/no-CD: listeners terminate NonLeader; the
                        // transmitter absorbs one Collision.
                        if pre_sf {
                            self.frozen_finished[t] += active - 1;
                        }
                        for i in (0..n).filter(|&i| i != tx) {
                            self.running[i * words + w] &= !bit;
                        }
                        self.census[t].active = 1;
                        self.shared[t].on_state(slot, ChannelState::Collision);
                    }
                } else {
                    // Every running station hears the same effective
                    // state: Null only on empty unjammed slots under a CD
                    // model that can tell (no-CD collapses Null to
                    // Collision).
                    let state =
                        if !truth.jammed && truth.transmitters == 0 && config.cd != CdModel::NoCd {
                            ChannelState::Null
                        } else {
                            ChannelState::Collision
                        };
                    self.shared[t].on_state(slot, state);
                }
                let census = &mut self.census[t];
                census.finished_active = if self.shared[t].finished() { census.active } else { 0 };
                census.finished_total = self.frozen_finished[t] + census.finished_active;
            }
        }
    }

    fn leaders(&self, t: usize) -> Vec<u64> {
        let (w, bit) = (t / 64, 1u64 << (t % 64));
        (0..self.n as u64)
            .filter(|&i| self.leader[i as usize * self.words + w] & bit != 0)
            .collect()
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
    let mut stations = BatchUniformStations::new(config, seeds, factory);
    run_lockstep(config, adversary, seeds, &mut stations)
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
    /// identity checks cover the `on_state` path.
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
