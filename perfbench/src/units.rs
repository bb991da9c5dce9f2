//! Work units: one orchestrator submission each, described twice — as the
//! parameter tree the orchestrator fingerprints and as the direct engine
//! call that computes one trial. The direct call is also the reference
//! the output checks compare against.

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_engine::{
    run_batch_uniform, run_cohort, run_exact, run_exact_churn, run_exact_faulty, run_fast_exact,
    run_multihop, ChurnPlan, FaultPlan, LeaderLedger, PerStation, Protocol, RunReport, SimConfig,
    StopRule,
};
use jle_protocols::{
    BackoffProtocol, ClusterElection, LeaseConfig, LeaseProtocol, LeskProtocol, LesuProtocol,
    WillardProtocol,
};
use jle_radio::{CdModel, Topology};
use serde::{Serialize, Value};
use serde_json::json;
use std::sync::Arc;

/// Lease knobs of the open-world (fault and churn) units, as in E25.
const BEACON: u64 = 8;
const MISS_TOL: u32 = 10;
const LEASE_TIMEOUT: u64 = 512;
const WATCHDOG: u64 = 16_384;
/// Salt separating fault/churn plan streams from the engine seed.
const PLAN_SALT: u64 = 0xC4C4;
/// Spread-phase quiet horizon of the cluster elections, as in E26.
const QUIET: u64 = 1_024;

/// A uniform election protocol with its parameters.
#[derive(Debug, Clone, Copy)]
pub enum Proto {
    Lesk(f64),
    Lesu,
    Willard,
    Backoff,
}

impl Proto {
    /// The `proto` subtree, in the spelling the sweep service parses.
    pub fn tree(self) -> Value {
        match self {
            Proto::Lesk(eps) => json!({"proto": "lesk", "eps": eps}),
            Proto::Lesu => json!({"proto": "lesu"}),
            Proto::Willard => json!({"proto": "willard"}),
            Proto::Backoff => json!({"proto": "backoff"}),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Proto::Lesk(_) => "lesk",
            Proto::Lesu => "lesu",
            Proto::Willard => "willard",
            Proto::Backoff => "backoff",
        }
    }

    fn station(self) -> Box<dyn Protocol> {
        match self {
            Proto::Lesk(eps) => Box::new(PerStation::new(LeskProtocol::new(eps))),
            Proto::Lesu => Box::new(PerStation::new(LesuProtocol::new())),
            Proto::Willard => Box::new(PerStation::new(WillardProtocol::new())),
            Proto::Backoff => Box::new(PerStation::new(BackoffProtocol::new())),
        }
    }
}

/// Which engine entry point a unit's trials run on.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `run_cohort`.
    Cohort(Proto),
    /// `run_exact` over per-station copies of a uniform protocol.
    Exact(Proto),
    /// `run_fast_exact` over per-station copies of a uniform protocol.
    FastExact(Proto),
    /// `run_batch_uniform`, submitted through `run_trials_batched`.
    Batch(Proto),
    /// `run_exact_faulty` with leases over supervised LESK, crash and
    /// recovery plans, stop at the horizon.
    Faulty { crash_prob: f64, eps: f64 },
    /// `run_exact_churn` with leases over supervised LESK, join/leave/
    /// rejoin plans, stop at the horizon.
    Churn { churn_prob: f64, eps: f64 },
    /// `run_multihop` cluster elections on an interference graph.
    Multihop { topo: Arc<Topology>, clusters: Arc<Vec<u32>>, eps: f64 },
}

/// One orchestrator submission.
#[derive(Debug, Clone)]
pub struct Unit {
    pub point: String,
    pub kind: Kind,
    pub n: u64,
    pub cd: CdModel,
    pub adv: AdversarySpec,
    pub max_slots: u64,
    pub trials: u64,
    pub base_seed: u64,
}

/// A saturating `(T, 1-eps)` jammer.
pub fn saturating(eps: f64, t_window: u64) -> AdversarySpec {
    AdversarySpec::new(Rate::from_f64(eps), t_window, JamStrategyKind::Saturating)
}

impl Unit {
    /// The engine layer label used in per-layer metrics.
    pub fn backend(&self) -> &'static str {
        match self.kind {
            Kind::Cohort(_) => "cohort",
            Kind::Exact(_) => "exact",
            Kind::FastExact(_) => "fast_exact",
            Kind::Batch(_) => "batch",
            Kind::Faulty { .. } => "faulty",
            Kind::Churn { .. } => "churn",
            Kind::Multihop { .. } => "multihop",
        }
    }

    pub fn is_batched(&self) -> bool {
        matches!(self.kind, Kind::Batch(_))
    }

    /// The parameter tree the orchestrator fingerprints. Cohort trees are
    /// key for key the experiments' `election_params`, and fast-exact
    /// trees are the sweep service's `exact_election`, so both kinds can be
    /// submitted to the service unchanged.
    pub fn params(&self) -> Value {
        let election = |kind: &str, proto: Proto| {
            json!({
                "kind": kind,
                "n": self.n,
                "cd": self.cd,
                "adv": self.adv.to_json_value(),
                "max_slots": self.max_slots,
                "proto": proto.tree(),
            })
        };
        let with_engine = |mut tree: Value, engine: &str| {
            if let Value::Map(m) = &mut tree {
                m.push(("engine".to_string(), Value::Str(engine.to_string())));
            }
            tree
        };
        let lease = |eps: f64| {
            json!({
                "proto": "lease/supervised-lesk",
                "eps": eps,
                "beacon": BEACON,
                "miss_tol": MISS_TOL,
                "lease_timeout": LEASE_TIMEOUT,
                "watchdog": WATCHDOG,
            })
        };
        match &self.kind {
            Kind::Cohort(p) => election("cohort_election", *p),
            Kind::FastExact(p) => election("exact_election", *p),
            Kind::Exact(p) => with_engine(election("exact_election", *p), "exact"),
            Kind::Batch(p) => with_engine(election("exact_election", *p), "batch"),
            Kind::Faulty { crash_prob, eps } => json!({
                "kind": "faulty_election",
                "n": self.n,
                "adv": self.adv.to_json_value(),
                "horizon": self.max_slots,
                "faults": {
                    "crash_prob": *crash_prob,
                    "crash_window": self.max_slots / 4,
                    "downtime": self.max_slots / 8,
                    "salt": PLAN_SALT,
                },
                "proto": lease(*eps),
            }),
            Kind::Churn { churn_prob, eps } => json!({
                "kind": "open_world_election",
                "n": self.n,
                "adv": self.adv.to_json_value(),
                "horizon": self.max_slots,
                "churn": {
                    "prob": *churn_prob,
                    "join_window": self.max_slots / 8,
                    "leave_window": self.max_slots / 4,
                    "rejoin_after": self.max_slots / 8,
                    "salt": PLAN_SALT,
                },
                "proto": lease(*eps),
            }),
            Kind::Multihop { topo, clusters, eps } => json!({
                "kind": "cluster_election",
                "topology": topo.descriptor(),
                "n": self.n,
                "clusters": clusters.iter().copied().max().map_or(0, |m| m + 1),
                "cd": format!("{:?}", self.cd),
                "adv": self.adv.to_json_value(),
                "horizon": self.max_slots,
                "proto": { "proto": "cluster-election/lesk", "eps": *eps, "quiet": QUIET },
            }),
        }
    }

    fn config(&self, seed: u64) -> SimConfig {
        let stop = match self.kind {
            Kind::Faulty { .. } | Kind::Churn { .. } => StopRule::Horizon,
            Kind::Multihop { .. } => StopRule::AllTerminated,
            _ => StopRule::FirstCleanSingle,
        };
        SimConfig::new(self.n, self.cd)
            .with_seed(seed)
            .with_max_slots(self.max_slots)
            .with_stop(stop)
    }

    /// Run one trial with a direct engine call. For batched units this is
    /// the per-trial fast-exact run their batches must equal bit for bit.
    pub fn run_trial(&self, seed: u64) -> RunReport {
        let config = self.config(seed);
        let adv = &self.adv;
        match &self.kind {
            Kind::Cohort(p) => match *p {
                Proto::Lesk(eps) => run_cohort(&config, adv, || LeskProtocol::new(eps)),
                Proto::Lesu => run_cohort(&config, adv, LesuProtocol::new),
                Proto::Willard => run_cohort(&config, adv, WillardProtocol::new),
                Proto::Backoff => run_cohort(&config, adv, BackoffProtocol::new),
            },
            Kind::Exact(p) => run_exact(&config, adv, |_| p.station()),
            Kind::FastExact(p) | Kind::Batch(p) => run_fast_exact(&config, adv, |_| p.station()),
            Kind::Faulty { crash_prob, eps } => {
                let h = self.max_slots;
                let plan = FaultPlan::new(seed ^ PLAN_SALT)
                    .with_random_crashes(self.n, *crash_prob, h / 4)
                    .with_recoveries(h / 8);
                run_exact_faulty(&config, adv, &plan, lease_factory(*eps))
            }
            Kind::Churn { churn_prob, eps } => {
                let h = self.max_slots;
                let plan = ChurnPlan::new(seed ^ PLAN_SALT)
                    .with_staggered_joins(self.n, *churn_prob, h / 8)
                    .with_random_leaves(self.n, *churn_prob, h / 4)
                    .with_rejoins(h / 8);
                run_exact_churn(&config, adv, &plan, lease_factory(*eps))
            }
            Kind::Multihop { topo, clusters, eps } => {
                run_multihop(&config, adv, topo, Some(clusters), |i| {
                    Box::new(
                        ClusterElection::for_assignment(i, clusters, *eps).with_quiet_target(QUIET),
                    )
                })
            }
        }
    }

    /// Run a batch of trials in one lockstep pass. Batch and fast-exact
    /// units only: the batch backend is bit-identical per trial to
    /// fast-exact, which is also how the sweep service runs fast-exact
    /// trees.
    pub fn run_batch(&self, seeds: &[u64]) -> Vec<RunReport> {
        let (Kind::Batch(p) | Kind::FastExact(p)) = self.kind else {
            panic!("run_batch on a unit without a batch backend");
        };
        let config = self.config(0);
        match p {
            Proto::Lesk(eps) => {
                run_batch_uniform(&config, &self.adv, seeds, || LeskProtocol::new(eps))
            }
            Proto::Lesu => run_batch_uniform(&config, &self.adv, seeds, LesuProtocol::new),
            Proto::Willard => run_batch_uniform(&config, &self.adv, seeds, WillardProtocol::new),
            Proto::Backoff => run_batch_uniform(&config, &self.adv, seeds, BackoffProtocol::new),
        }
    }

    /// Simulated work in the unit of the backend's cost model: slots for
    /// the cohort engine (O(1) per slot), station-slots for per-station
    /// backends, trial-slots for the batch backend.
    pub fn work_units(&self, report: &RunReport) -> u64 {
        match self.kind {
            Kind::Cohort(_) | Kind::Batch(_) => report.slots,
            _ => report.slots * self.n,
        }
    }
}

fn lease_factory(eps: f64) -> impl Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static {
    let ledger = LeaderLedger::new(LEASE_TIMEOUT);
    move |i| {
        Box::new(LeaseProtocol::over_supervised_lesk(
            i,
            eps,
            WATCHDOG,
            LeaseConfig::new(BEACON, MISS_TOL, LEASE_TIMEOUT),
            Arc::clone(&ledger),
        ))
    }
}

/// The canonical serialized form checks compare byte for byte.
pub fn report_bytes(report: &RunReport) -> String {
    serde_json::to_string(&report.to_json_value()).expect("report serialization")
}
