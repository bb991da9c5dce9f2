//! # jle-engine — discrete-slot simulation engine
//!
//! Drives protocols from `jle-protocols` against adversaries from
//! `jle-adversary` over the channel model of `jle-radio`, one slot at a
//! time, with the paper's information flow: the adversary commits its jam
//! decision *before* station actions are drawn, stations receive
//! observations filtered by the collision-detection model, and jammed
//! slots are indistinguishable from collisions.
//!
//! ## Architecture: one slot protocol, two drivers, six backends
//!
//! The slot protocol — adversary commit, budget clamp, noise, resolution,
//! stop rules — is written exactly once, in [`crate::core`] (see `DESIGN.md`
//! §10). [`SimCore::run`] plays it for one run; a lockstep driver beside
//! it plays it for K trials at once. What varies between simulators is
//! *who the stations are*, captured by the [`StationSet`] trait (and, for
//! lockstep batches, by its private per-trial twin):
//!
//! * [`ExactStations`] / [`run_exact`] — per-station, O(n) per slot;
//!   required for role-split protocols (`Notification`).
//! * [`FastExactStations`] / [`run_fast_exact`] — the same per-station
//!   semantics on an active-set slot loop: sleeping and withdrawn
//!   stations leave the loop until their [`Protocol::wake_hint`] slot,
//!   and every draw comes from a counter-based per-station stream
//!   ([`StationRng`]) so the action phase is order-independent and can be
//!   sharded across threads. O(awake) per slot — million-station exact
//!   sweeps. Statistically equivalent to [`ExactStations`], not
//!   bit-identical (see `DESIGN.md` §12).
//! * [`CohortStations`] / [`run_cohort`] — for the paper's *uniform*
//!   protocol class; tracks one shared state and samples transmitter
//!   counts binomially, O(1) per slot (n-independent), enabling sweeps to
//!   millions of stations.
//! * [`run_batch_exact`] / [`run_batch_uniform`] ([`batch`]) — K trials
//!   of the same experiment on the lockstep driver, with
//!   structure-of-arrays station state: per-trial bitplanes (one `u64`
//!   word covers 64 trials per station), a merged wake calendar, and one
//!   action and one feedback pass per slot over all live trials. Per
//!   trial **bit-identical** to [`FastExactStations`], so batch results
//!   share the fast backend's cache entries; resolved trials retire
//!   early without perturbing the others (draws are coordinate-pure).
//!   The uniform entry keeps one shared state per trial (see
//!   `DESIGN.md` §17).
//! * [`FaultyStations`] / [`run_exact_faulty`] — the [`faults`] overlay on
//!   any base set ([`ExactStations`] by default, [`FastExactStations`]
//!   via [`FaultyStations::with_base`], and the batch backend through
//!   [`run_batch_exact_faulty`]): station crashes, staggered wakeups,
//!   deafness, and sensing errors, with failures classified by the
//!   [`Outcome`] degradation taxonomy.
//! * [`MultihopStations`] / [`run_multihop`] — per-*neighborhood* slot
//!   resolution over an interference [`Topology`](jle_radio::Topology)
//!   (complete / unit-disk / explicit), with message delivery on clean
//!   local `Single`s, per-component rayon sharding, and cluster-election
//!   tracking ([`MultihopReport`]). On `Topology::Complete` it is
//!   bit-identical to [`ExactStations`] (`Shared` discipline) and
//!   [`FastExactStations`] (`Counter` discipline) — single-hop is just
//!   the complete-graph special case (see `DESIGN.md` §15).
//!
//! Instrumentation (energy accounting, trace recording, live throughput)
//! attaches as composable [`SlotObserver`] layers rather than being inlined
//! in the loop. Every run builds its stations and buffers fresh and drops
//! them when it ends.
//!
//! Plus the deterministic Rayon-parallel [`MonteCarlo`] driver used by all
//! experiments (with a panic-isolating [`MonteCarlo::run_caught`]
//! variant).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod churn;
pub mod cohort;
pub mod config;
pub mod core;
pub mod exact;
pub mod fast;
pub mod faults;
pub mod leadership;
pub mod multihop;
pub mod observer;
pub mod protocol;
pub mod report;
pub mod runner;
pub mod streams;
pub mod telemetry;

pub use crate::core::{SimCore, SlotActions, StationSet, ADV_SEED_XOR};
pub use batch::{run_batch_exact, run_batch_exact_faulty, run_batch_exact_with, run_batch_uniform};
pub use churn::{
    run_batch_exact_churn, run_exact_churn, run_fast_exact_churn, ChurnPlan, StationChurn,
};
pub use cohort::{
    run_cohort, run_cohort_against_oracle, run_cohort_with, sample_transmitters, CohortStations,
};
pub use config::{SimConfig, StopRule};
pub use exact::{run_exact, ExactStations};
pub use fast::{run_fast_exact, run_fast_exact_faulty, FastExactStations};
pub use faults::{run_exact_faulty, FaultPlan, FaultyStation, FaultyStations, StationFaults};
pub use leadership::{LeaderLedger, SplitBrainObserver, SplitInterval};
pub use multihop::{
    run_multihop, run_multihop_std, run_multihop_with, MeshMessage, MeshProtocol, MeshStatus,
    MultihopStations, RngDiscipline, StdMesh,
};
pub use observer::{EnergyObserver, SlotObserver, StateProbe, ThroughputObserver, TraceObserver};
pub use protocol::{Action, PerStation, Protocol, Status, UniformProtocol};
pub use report::{
    ClusterOutcome, EnergyStats, MultihopReport, Outcome, RunReport, SlotCost, SplitBrainStats,
};
pub use runner::{catch_trial, panic_count, MonteCarlo, TrialOutcome};
pub use streams::{mix64, slot_material, station_key, StationRng};
pub use telemetry::{EngineMetrics, TelemetryObserver};
