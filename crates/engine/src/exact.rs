//! The exact per-station backend.
//!
//! Faithful to the model slot by slot: the adversary commits its jam
//! decision first (it never sees current-slot actions), every running
//! station then draws its action *in station-index order*, the ground
//! truth is resolved, and each station receives its CD-model-specific
//! observation. Cost is O(n) per slot — use [`crate::cohort`] for uniform
//! protocols at large `n`.
//!
//! The slot loop itself lives in [`crate::core::SimCore`];
//! [`ExactStations`] supplies the per-station action/feedback semantics
//! and [`run_exact`] / [`run_exact_in`] are thin shims.

use crate::config::SimConfig;
use crate::core::{
    settle_timeout, stop_rule_fires, SimArena, SimCore, SlotActions, SlotFlags, StationSet,
};
use crate::observer::StateProbe;
use crate::protocol::{Action, Protocol, Status};
use crate::report::RunReport;
use jle_adversary::AdversarySpec;
use jle_radio::{cd, SlotTruth};
use rand::rngs::SmallRng;

/// The per-station [`StationSet`] backend: a vector of independent
/// [`Protocol`] state machines plus the word-packed per-slot
/// `transmitted`/`asleep` bookkeeping ([`SlotFlags`]) the feedback phase
/// needs.
pub struct ExactStations {
    stations: Vec<Box<dyn Protocol>>,
    flags: SlotFlags,
}

impl ExactStations {
    /// Build a fresh station set; `factory(i)` builds station `i`.
    pub fn new(config: &SimConfig, factory: impl FnMut(u64) -> Box<dyn Protocol>) -> Self {
        let stations: Vec<Box<dyn Protocol>> = (0..config.n).map(factory).collect();
        let n = stations.len();
        ExactStations { stations, flags: SlotFlags::new(n) }
    }

    /// Like [`ExactStations::new`], but reusing the station vector and
    /// flag buffers held by `arena`. Pair with
    /// [`ExactStations::recycle`] to return them after the run.
    ///
    /// If the arena holds exactly `config.n` stations from a previous run
    /// and every one of them supports [`Protocol::reset`], the boxes are
    /// recycled in place and `factory` is never called — the
    /// allocation-free steady state. Otherwise the set is rebuilt from
    /// `factory`. Recycled stations resurrect their own construction-time
    /// parameters, so share an arena only across runs whose factories
    /// build equivalently-initialized stations (see [`Protocol::reset`]).
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
        let n = stations.len();
        let mut flags = std::mem::take(&mut arena.flags);
        flags.reset(n);
        ExactStations { stations, flags }
    }

    /// Return the backing buffers to `arena` for the next run. Station
    /// boxes are kept intact so a following [`ExactStations::new_in`] can
    /// recycle resettable ones in place; non-resettable stations are
    /// dropped there when the set is rebuilt.
    pub fn recycle(self, arena: &mut SimArena) {
        arena.stations = self.stations;
        arena.flags = self.flags;
    }

    /// The stations, for post-run inspection.
    pub fn stations(&self) -> &[Box<dyn Protocol>] {
        &self.stations
    }
}

impl std::fmt::Debug for ExactStations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactStations").field("n", &self.stations.len()).finish_non_exhaustive()
    }
}

impl StationSet for ExactStations {
    fn finished(&self) -> bool {
        // Guarded by `any`: protocols that never implement `finished()`
        // (the default) keep the historical behavior of running until a
        // stop rule or the cap. When some station *does* finish (an
        // `Estimation`-style protocol returning its answer), the run ends
        // once every station has either terminated or finished — the
        // cohort engine's semantics, now honored per-station.
        self.stations.iter().any(|s| s.finished())
            && self.stations.iter().all(|s| s.status().terminal() || s.finished())
    }

    fn act(&mut self, slot: u64, _config: &SimConfig, rng: &mut SmallRng) -> SlotActions {
        let mut actions = SlotActions::default();
        self.flags.begin_slot(); // one memset instead of 2n bool stores
        for (i, st) in self.stations.iter_mut().enumerate() {
            if st.status().terminal() {
                self.flags.set_asleep(i); // terminated stations observe nothing
                continue;
            }
            match st.act(slot, rng) {
                Action::Transmit => {
                    self.flags.set_transmitted(i);
                    actions.transmit(i as u64);
                }
                Action::Listen => actions.listeners += 1,
                Action::Sleep => self.flags.set_asleep(i),
            }
        }
        actions
    }

    fn pick_winner(
        &mut self,
        actions: &SlotActions,
        _config: &SimConfig,
        _rng: &mut SmallRng,
    ) -> Option<u64> {
        // The exact engine knows the identity: no randomness drawn.
        actions.lone_transmitter
    }

    fn feedback(&mut self, slot: u64, truth: &SlotTruth, config: &SimConfig) {
        // Sleeping and terminated stations observe nothing.
        for (i, st) in self.stations.iter_mut().enumerate() {
            let transmitted = self.flags.transmitted(i);
            if self.flags.asleep(i) && !transmitted {
                continue;
            }
            let obs = cd::observe(config.cd, transmitted, truth);
            st.feedback(slot, transmitted, obs);
        }
    }

    fn estimate(&self) -> Option<f64> {
        self.stations.iter().find(|s| !s.status().terminal()).and_then(|s| s.estimate())
    }

    fn collect_probes(&self, out: &mut Vec<StateProbe>) {
        for (i, st) in self.stations.iter().enumerate() {
            if let Some((state, value)) = st.state_probe() {
                out.push(StateProbe { station: i as u64, state, value });
            }
        }
    }

    fn should_stop(
        &mut self,
        _truth: &SlotTruth,
        config: &SimConfig,
        report: &mut RunReport,
    ) -> bool {
        stop_rule_fires(config, report, || self.stations.iter().all(|s| s.status().terminal()))
    }

    fn finalize(&mut self, config: &SimConfig, report: &mut RunReport) {
        settle_timeout(config, report, || self.finished());
        report.leaders = self
            .stations
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status() == Status::Leader)
            .map(|(i, _)| i as u64)
            .collect();
    }
}

/// Run one simulation with a fresh station set from `factory`.
///
/// `factory(i)` builds the protocol instance of station `i`; protocols
/// needing distinct roles can inspect `i`, while symmetric protocols
/// ignore it.
pub fn run_exact(
    config: &SimConfig,
    adversary: &AdversarySpec,
    factory: impl FnMut(u64) -> Box<dyn Protocol>,
) -> RunReport {
    let mut stations = ExactStations::new(config, factory);
    SimCore::new(config, adversary).run(&mut stations)
}

/// Like [`run_exact`], but reusing `arena`'s buffers — the allocation-free
/// steady state for tight Monte-Carlo trial loops on one thread.
pub fn run_exact_in(
    config: &SimConfig,
    adversary: &AdversarySpec,
    factory: impl FnMut(u64) -> Box<dyn Protocol>,
    arena: &mut SimArena,
) -> RunReport {
    let mut stations = ExactStations::new_in(config, factory, arena);
    let report = SimCore::new(config, adversary).with_arena(arena).run(&mut stations);
    stations.recycle(arena);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopRule;
    use crate::protocol::{PerStation, UniformProtocol};
    use jle_adversary::{JamStrategyKind, Rate};
    use jle_radio::{CdModel, ChannelState};

    /// Uniform protocol transmitting with fixed probability forever.
    #[derive(Debug, Clone)]
    struct Fixed(f64);
    impl UniformProtocol for Fixed {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
    }

    fn passive() -> AdversarySpec {
        AdversarySpec::passive()
    }

    #[test]
    fn single_station_wins_immediately_strong_cd() {
        let config = SimConfig::new(1, CdModel::Strong).with_seed(3).with_max_slots(10);
        let report = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(1.0))));
        assert_eq!(report.resolved_at, Some(0));
        assert_eq!(report.winner, Some(0));
        assert_eq!(report.leaders, vec![0]);
        assert!(report.leader_elected());
        assert!(!report.timed_out);
    }

    #[test]
    fn two_always_transmitters_never_resolve() {
        let config = SimConfig::new(2, CdModel::Strong).with_seed(3).with_max_slots(50);
        let report = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(1.0))));
        assert!(report.timed_out);
        assert_eq!(report.resolved_at, None);
        assert_eq!(report.counts.collisions, 50);
        assert_eq!(report.energy.transmissions, 100);
    }

    #[test]
    fn coin_flip_eventually_resolves() {
        let config = SimConfig::new(2, CdModel::Strong).with_seed(5).with_max_slots(10_000);
        let report = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.5))));
        assert!(report.leader_elected());
        let w = report.winner.unwrap();
        assert_eq!(report.leaders, vec![w]);
    }

    #[test]
    fn weak_cd_winner_does_not_learn() {
        // Under weak-CD the winner keeps Running: no station ends Leader.
        let config = SimConfig::new(2, CdModel::Weak).with_seed(5).with_max_slots(10_000);
        let report = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.5))));
        assert!(report.resolved_at.is_some());
        assert!(report.leaders.is_empty());
        // Selection still counts as "elected" under FirstCleanSingle: the
        // clean Single happened.
        assert!(report.leader_elected());
    }

    #[test]
    fn deterministic_given_seed() {
        let config = SimConfig::new(8, CdModel::Strong).with_seed(11).with_max_slots(100_000);
        let a = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.25))));
        let b = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(0.25))));
        assert_eq!(a.resolved_at, b.resolved_at);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn jamming_suppresses_singles() {
        // eps=1/2, T=2: adversary can jam every other slot. A lone
        // always-transmitter resolves only in an unjammed slot.
        let spec = AdversarySpec::new(Rate::from_f64(0.5), 2, JamStrategyKind::Saturating);
        let config = SimConfig::new(1, CdModel::Strong).with_seed(1).with_max_slots(10);
        let report = run_exact(&config, &spec, |_| Box::new(PerStation::new(Fixed(1.0))));
        // Slot 0 is jammed (budget allows one of the first two), slot 1
        // cannot be, so resolution happens at slot 1.
        assert_eq!(report.resolved_at, Some(1));
        assert_eq!(report.counts.jammed, 1);
    }

    #[test]
    fn trace_recording_includes_estimates() {
        #[derive(Debug, Clone)]
        struct WithEstimate(f64);
        impl UniformProtocol for WithEstimate {
            fn tx_prob(&mut self, _: u64) -> f64 {
                0.0
            }
            fn on_state(&mut self, _: u64, _: ChannelState) {
                self.0 += 1.0;
            }
            fn estimate(&self) -> Option<f64> {
                Some(self.0)
            }
        }
        let config =
            SimConfig::new(3, CdModel::Strong).with_seed(1).with_max_slots(5).with_trace(true);
        let report =
            run_exact(&config, &passive(), |_| Box::new(PerStation::new(WithEstimate(0.0))));
        let trace = report.trace.expect("trace requested");
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.estimates.len(), 5);
        assert_eq!(trace.estimates, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn all_terminated_stop_rule_reports_leaders() {
        let config = SimConfig::new(1, CdModel::Strong)
            .with_seed(3)
            .with_max_slots(10)
            .with_stop(StopRule::AllTerminated);
        let report = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Fixed(1.0))));
        assert!(report.all_terminated);
        assert!(!report.timed_out);
        assert_eq!(report.leaders, vec![0]);
    }

    #[test]
    fn resettable_stations_are_recycled_without_calling_the_factory() {
        /// `Fixed` plus in-place reset (it carries no run state).
        #[derive(Debug, Clone)]
        struct ResettableFixed(f64);
        impl UniformProtocol for ResettableFixed {
            fn tx_prob(&mut self, _: u64) -> f64 {
                self.0
            }
            fn on_state(&mut self, _: u64, _: ChannelState) {}
            fn reset(&mut self) -> bool {
                true
            }
        }

        let spec = AdversarySpec::new(Rate::from_f64(0.5), 8, JamStrategyKind::Saturating);
        let mut arena = SimArena::new();
        let mut factory_calls = 0u64;
        for round in 0..4u64 {
            let config = SimConfig::new(8, CdModel::Strong).with_seed(round).with_max_slots(500);
            let fresh =
                run_exact(&config, &spec, |_| Box::new(PerStation::new(ResettableFixed(0.3))));
            let reused = run_exact_in(
                &config,
                &spec,
                |_| {
                    factory_calls += 1;
                    Box::new(PerStation::new(ResettableFixed(0.3)))
                },
                &mut arena,
            );
            assert_eq!(fresh.slots, reused.slots, "round {round}");
            assert_eq!(fresh.resolved_at, reused.resolved_at, "round {round}");
            assert_eq!(fresh.winner, reused.winner, "round {round}");
            assert_eq!(fresh.counts, reused.counts, "round {round}");
            assert_eq!(fresh.energy, reused.energy, "round {round}");
        }
        assert_eq!(factory_calls, 8, "only the first arena run may build stations");
    }

    #[test]
    fn station_count_change_rebuilds_instead_of_recycling() {
        #[derive(Debug, Clone)]
        struct Resettable;
        impl UniformProtocol for Resettable {
            fn tx_prob(&mut self, _: u64) -> f64 {
                0.5
            }
            fn on_state(&mut self, _: u64, _: ChannelState) {}
            fn reset(&mut self) -> bool {
                true
            }
        }

        let mut arena = SimArena::new();
        for n in [4u64, 16, 4] {
            let config = SimConfig::new(n, CdModel::Strong).with_seed(2).with_max_slots(200);
            let fresh = run_exact(&config, &passive(), |_| Box::new(PerStation::new(Resettable)));
            let reused = run_exact_in(
                &config,
                &passive(),
                |_| Box::new(PerStation::new(Resettable)),
                &mut arena,
            );
            assert_eq!(fresh.resolved_at, reused.resolved_at, "n = {n}");
            assert_eq!(fresh.counts, reused.counts, "n = {n}");
        }
    }

    #[test]
    fn arena_runs_are_bit_identical_to_fresh_runs() {
        let config = SimConfig::new(8, CdModel::Strong)
            .with_seed(21)
            .with_max_slots(50_000)
            .with_trace(true);
        let spec = AdversarySpec::new(Rate::from_f64(0.5), 8, JamStrategyKind::Saturating);
        let fresh = run_exact(&config, &spec, |_| Box::new(PerStation::new(Fixed(0.2))));
        let mut arena = SimArena::new();
        for seed_bump in 0..3u64 {
            // Interleave other seeds so reuse carries real dirty state.
            let other = config.clone().with_seed(100 + seed_bump);
            let mut r =
                run_exact_in(&other, &spec, |_| Box::new(PerStation::new(Fixed(0.2))), &mut arena);
            arena.reclaim_trace(&mut r);
        }
        let mut reused =
            run_exact_in(&config, &spec, |_| Box::new(PerStation::new(Fixed(0.2))), &mut arena);
        assert_eq!(fresh.slots, reused.slots);
        assert_eq!(fresh.resolved_at, reused.resolved_at);
        assert_eq!(fresh.winner, reused.winner);
        assert_eq!(fresh.counts, reused.counts);
        assert_eq!(fresh.energy, reused.energy);
        let (ft, rt) = (fresh.trace.unwrap(), reused.trace.as_ref().unwrap());
        assert_eq!(ft.len(), rt.len());
        assert!(ft.iter().zip(rt.iter()).all(|(a, b)| a == b));
        assert_eq!(ft.estimates, rt.estimates);
        arena.reclaim_trace(&mut reused);
    }
}
