//! Replayable run specifications: parameter tree → deterministic run.
//!
//! A [`LensSpec`] is the lens's contract with the rest of the workspace:
//! it names *exactly one* deterministic simulation — engine backend,
//! protocol, adversary, plans — such that `spec + seed` re-derives a
//! recorded trial bit-for-bit. Two tree shapes parse:
//!
//! * `kind == "cohort_election"` / `kind == "exact_election"` — the
//!   exact trees `jle-sweepd` caches under content fingerprints (see
//!   `jle_sweepd::work`). Parsing here is key-for-key identical to the
//!   server's, so any spec recovered from a result-store `spec.json`
//!   replays on the same engine path the server used. `exact_election`
//!   trees replay on the fast-exact path regardless of whether the
//!   server computed them per-trial or through the batched backend —
//!   the two are bit-identical per trial, which is exactly why the
//!   server caches them under one fingerprint.
//! * `kind == "election_run"` — the lens's superset: explicit engine
//!   selection (`cohort`/`exact`/`fast-exact`/`batch`/`multihop`), stop
//!   rules, noise, fault/churn plans, topologies, and RNG disciplines.
//!
//! Parsing is strict in the same way the server's is: an unrecognized key
//! anywhere in the tree is an error, never ignored — a replay that
//! silently dropped a knob would "reproduce" a different run than the one
//! recorded.

use jle_adversary::AdversarySpec;
use jle_engine::{
    ChurnPlan, CohortStations, ExactStations, FastExactStations, FaultPlan, FaultyStations,
    MeshProtocol, MultihopStations, PerStation, Protocol, RngDiscipline, RunReport, SimConfig,
    SimCore, SlotObserver, StdMesh, StopRule,
};
use jle_protocols::{
    BackoffProtocol, ClusterElection, LeskProtocol, LesuProtocol, WillardProtocol,
};
use jle_radio::{CdModel, Topology};
use serde::{Deserialize, Serialize, Value};

/// Why a parameter tree could not be turned into a replayable run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Well-formed but names something this lens cannot faithfully
    /// re-derive (unknown kind/engine/protocol, or an unrecognized key
    /// that may change behaviour).
    Unsupported(String),
    /// Malformed (missing or ill-typed required fields, impossible
    /// combinations like a fault plan on the cohort engine).
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Unsupported(msg) => write!(f, "unsupported spec: {msg}"),
            SpecError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Which simulation backend re-derives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Uniform-cohort engine (`run_cohort` path — what `jle-sweepd`
    /// executes for `cohort_election` trees).
    Cohort,
    /// Per-station exact engine ([`ExactStations`]; [`FaultyStations`]
    /// when a fault or churn plan is attached).
    Exact,
    /// Bitset fast path ([`FastExactStations`]; the same
    /// [`FaultyStations`] overlay on it when a fault or churn plan is
    /// attached).
    FastExact,
    /// Batched lockstep backend ([`jle_engine::run_batch_exact`]). The batch engine
    /// is bit-identical per trial to the fast-exact path by contract
    /// (DESIGN.md §17), and it cannot host a per-slot observer — so a
    /// replay under this engine *dispatches onto the fast-exact
    /// stations*. A trial produced by the batched backend replays
    /// bit-exactly here; that is the contract, not a coincidence.
    Batch,
    /// Topology-aware multi-hop engine ([`MultihopStations`]).
    Multihop,
}

impl EngineKind {
    /// Parse the spec-tree name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cohort" => Some(EngineKind::Cohort),
            "exact" => Some(EngineKind::Exact),
            "fast-exact" => Some(EngineKind::FastExact),
            "batch" => Some(EngineKind::Batch),
            "multihop" => Some(EngineKind::Multihop),
            _ => None,
        }
    }

    /// The spec-tree name (inverse of [`EngineKind::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Cohort => "cohort",
            EngineKind::Exact => "exact",
            EngineKind::FastExact => "fast-exact",
            EngineKind::Batch => "batch",
            EngineKind::Multihop => "multihop",
        }
    }
}

/// Which protocol every station runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtoSpec {
    /// [`LeskProtocol`] with jamming tolerance `eps`.
    Lesk {
        /// The protocol's ε parameter.
        eps: f64,
    },
    /// [`LesuProtocol`].
    Lesu,
    /// [`BackoffProtocol`].
    Backoff,
    /// [`WillardProtocol`].
    Willard,
    /// [`ClusterElection`] (multi-hop engine only; runs one election per
    /// topology cluster).
    Cluster {
        /// The per-cluster LESK ε parameter.
        eps: f64,
    },
}

impl ProtoSpec {
    /// Human-readable protocol name for timeline headers.
    pub fn label(&self) -> &'static str {
        match self {
            ProtoSpec::Lesk { .. } => "lesk",
            ProtoSpec::Lesu => "lesu",
            ProtoSpec::Backoff => "backoff",
            ProtoSpec::Willard => "willard",
            ProtoSpec::Cluster { .. } => "cluster",
        }
    }
}

/// One fully-specified deterministic run (see the module docs).
#[derive(Debug, Clone)]
pub struct LensSpec {
    /// Backend that re-derives the run.
    pub engine: EngineKind,
    /// Station count.
    pub n: u64,
    /// Collision-detection model.
    pub cd: CdModel,
    /// Adversary specification.
    pub adv: AdversarySpec,
    /// Slot cap.
    pub max_slots: u64,
    /// Stop rule.
    pub stop: StopRule,
    /// Environmental noise probability.
    pub noise: f64,
    /// Protocol.
    pub proto: ProtoSpec,
    /// Fault plan (exact/fast-exact engines only).
    pub faults: Option<FaultPlan>,
    /// Churn plan, lowered onto the faulty backends via
    /// [`ChurnPlan::overlay`] (exact/fast-exact engines only).
    pub churn: Option<ChurnPlan>,
    /// Topology descriptor in CLI form (`complete`, `dense-linear:K,M`,
    /// `core-tail:C,T`, `unit-disk:N,R,SEED`; multihop engine only).
    pub topology: Option<String>,
    /// Multi-hop RNG discipline.
    pub discipline: RngDiscipline,
}

fn keys_of(v: &Value) -> Vec<&str> {
    v.as_map().map(|m| m.iter().map(|(k, _)| k.as_str()).collect()).unwrap_or_default()
}

fn check_keys(v: &Value, what: &str, allowed: &[&str]) -> Result<(), SpecError> {
    for k in keys_of(v) {
        if !allowed.contains(&k) {
            return Err(SpecError::Unsupported(format!(
                "{what}: unrecognized key `{k}` (the lens cannot guarantee a faithful replay)"
            )));
        }
    }
    Ok(())
}

fn req_u64(v: &Value, k: &str, what: &str) -> Result<u64, SpecError> {
    v.get(k)
        .and_then(Value::as_u64)
        .ok_or_else(|| SpecError::Invalid(format!("{what}: missing u64 `{k}`")))
}

fn req_f64(v: &Value, k: &str, what: &str) -> Result<f64, SpecError> {
    v.get(k)
        .and_then(Value::as_f64)
        .ok_or_else(|| SpecError::Invalid(format!("{what}: missing f64 `{k}`")))
}

fn parse_proto(proto: &Value, cluster_ok: bool) -> Result<ProtoSpec, SpecError> {
    let name = proto
        .get("proto")
        .and_then(Value::as_str)
        .ok_or_else(|| SpecError::Invalid("proto: missing string `proto`".into()))?;
    match name {
        "lesk" => {
            check_keys(proto, "proto:lesk", &["proto", "eps"])?;
            Ok(ProtoSpec::Lesk { eps: req_f64(proto, "eps", "proto:lesk")? })
        }
        "lesu" => {
            check_keys(proto, "proto:lesu", &["proto"])?;
            Ok(ProtoSpec::Lesu)
        }
        "backoff" => {
            check_keys(proto, "proto:backoff", &["proto"])?;
            Ok(ProtoSpec::Backoff)
        }
        "willard" => {
            check_keys(proto, "proto:willard", &["proto"])?;
            Ok(ProtoSpec::Willard)
        }
        "cluster" if cluster_ok => {
            check_keys(proto, "proto:cluster", &["proto", "eps"])?;
            Ok(ProtoSpec::Cluster { eps: req_f64(proto, "eps", "proto:cluster")? })
        }
        other => Err(SpecError::Unsupported(format!("unknown protocol `{other}`"))),
    }
}

fn parse_stop(s: &str) -> Result<StopRule, SpecError> {
    match s {
        "first-clean-single" => Ok(StopRule::FirstCleanSingle),
        "all-terminated" => Ok(StopRule::AllTerminated),
        "horizon" => Ok(StopRule::Horizon),
        other => Err(SpecError::Invalid(format!("unknown stop rule `{other}`"))),
    }
}

fn stop_label(stop: StopRule) -> &'static str {
    match stop {
        StopRule::FirstCleanSingle => "first-clean-single",
        StopRule::AllTerminated => "all-terminated",
        StopRule::Horizon => "horizon",
    }
}

/// Parse a CLI-form topology descriptor into a [`Topology`] plus the
/// natural cluster assignment, when the generator defines one.
///
/// `complete` yields [`Topology::Complete`] and no assignment.
pub fn parse_topology(spec: &str) -> Result<(Topology, Option<Vec<u32>>), SpecError> {
    if spec == "complete" {
        return Ok((Topology::Complete, None));
    }
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| SpecError::Invalid(format!("topology: expected KIND:ARGS, got `{spec}`")))?;
    let nums: Vec<&str> = rest.split(',').collect();
    let int = |s: &str, what: &str| -> Result<u64, SpecError> {
        s.trim()
            .parse::<u64>()
            .map_err(|e| SpecError::Invalid(format!("topology {kind}: {what}: {e}")))
    };
    match kind {
        "dense-linear" => {
            if nums.len() != 2 {
                return Err(SpecError::Invalid(
                    "topology dense-linear:K,M takes two integers".into(),
                ));
            }
            let (k, m) = (int(nums[0], "K")?, int(nums[1], "M")?);
            if k == 0 || m == 0 || k > 4_096 || m > 4_096 {
                return Err(SpecError::Invalid(
                    "topology dense-linear: K and M must be in 1..=4096".into(),
                ));
            }
            let (topo, clusters) = Topology::dense_linear(k as u32, m as u32);
            Ok((topo, Some(clusters)))
        }
        "core-tail" => {
            if nums.len() != 2 {
                return Err(SpecError::Invalid("topology core-tail:C,T takes two integers".into()));
            }
            let (c, t) = (int(nums[0], "C")?, int(nums[1], "T")?);
            if c == 0 || c > 4_096 || t > 4_096 {
                return Err(SpecError::Invalid(
                    "topology core-tail: C must be in 1..=4096, T in 0..=4096".into(),
                ));
            }
            let (topo, clusters) = Topology::core_tail(c as u32, t as u32);
            Ok((topo, Some(clusters)))
        }
        "unit-disk" => {
            if nums.len() != 3 {
                return Err(SpecError::Invalid(
                    "topology unit-disk:N,R,SEED takes three values".into(),
                ));
            }
            let n = int(nums[0], "N")?;
            let r: f64 = nums[1]
                .trim()
                .parse()
                .map_err(|e| SpecError::Invalid(format!("topology unit-disk: R: {e}")))?;
            let seed = int(nums[2], "SEED")?;
            if n == 0 || n > 16_384 {
                return Err(SpecError::Invalid(
                    "topology unit-disk: N must be in 1..=16384".into(),
                ));
            }
            let topo = Topology::unit_disk(n, r, seed)
                .map_err(|e| SpecError::Invalid(format!("topology unit-disk: {e}")))?;
            Ok((topo, None))
        }
        other => Err(SpecError::Unsupported(format!("unknown topology kind `{other}`"))),
    }
}

impl LensSpec {
    /// Parse a parameter tree (either supported `kind`; module docs).
    pub fn from_params(params: &Value) -> Result<Self, SpecError> {
        let kind = params
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| SpecError::Invalid("params: missing string `kind`".into()))?;
        match kind {
            "cohort_election" => Self::from_cohort_params(params),
            "exact_election" => Self::from_exact_params(params),
            "election_run" => Self::from_run_params(params),
            other => Err(SpecError::Unsupported(format!("unknown work kind `{other}`"))),
        }
    }

    /// Parse the `jle-sweepd` `exact_election` cache tree (strictly,
    /// like the server). These trees are cached under the fast-exact
    /// engine salt whether the server executed them per-trial or
    /// through the batched backend, so the replay engine is
    /// [`EngineKind::FastExact`] — the path both producers are
    /// bit-identical to.
    fn from_exact_params(params: &Value) -> Result<Self, SpecError> {
        check_keys(params, "exact_election", &["kind", "n", "cd", "adv", "max_slots", "proto"])?;
        let n = req_u64(params, "n", "exact_election")?;
        let max_slots = req_u64(params, "max_slots", "exact_election")?;
        let cd_value = params
            .get("cd")
            .ok_or_else(|| SpecError::Invalid("exact_election: missing `cd`".into()))?;
        let cd = CdModel::from_json_value(cd_value)
            .map_err(|e| SpecError::Invalid(format!("exact_election: bad `cd`: {e}")))?;
        let adv_value = params
            .get("adv")
            .ok_or_else(|| SpecError::Invalid("exact_election: missing `adv`".into()))?;
        let adv = AdversarySpec::from_json_value(adv_value)
            .map_err(|e| SpecError::Invalid(format!("exact_election: bad `adv`: {e}")))?;
        let proto = params
            .get("proto")
            .ok_or_else(|| SpecError::Invalid("exact_election: missing `proto`".into()))?;
        Ok(LensSpec {
            engine: EngineKind::FastExact,
            n,
            cd,
            adv,
            max_slots,
            stop: StopRule::FirstCleanSingle,
            noise: 0.0,
            proto: parse_proto(proto, false)?,
            faults: None,
            churn: None,
            topology: None,
            discipline: RngDiscipline::Shared,
        })
    }

    /// Parse the `jle-sweepd` cache tree shape (strictly, like the server).
    fn from_cohort_params(params: &Value) -> Result<Self, SpecError> {
        check_keys(params, "cohort_election", &["kind", "n", "cd", "adv", "max_slots", "proto"])?;
        let n = req_u64(params, "n", "cohort_election")?;
        let max_slots = req_u64(params, "max_slots", "cohort_election")?;
        let cd_value = params
            .get("cd")
            .ok_or_else(|| SpecError::Invalid("cohort_election: missing `cd`".into()))?;
        let cd = CdModel::from_json_value(cd_value)
            .map_err(|e| SpecError::Invalid(format!("cohort_election: bad `cd`: {e}")))?;
        let adv_value = params
            .get("adv")
            .ok_or_else(|| SpecError::Invalid("cohort_election: missing `adv`".into()))?;
        let adv = AdversarySpec::from_json_value(adv_value)
            .map_err(|e| SpecError::Invalid(format!("cohort_election: bad `adv`: {e}")))?;
        let proto = params
            .get("proto")
            .ok_or_else(|| SpecError::Invalid("cohort_election: missing `proto`".into()))?;
        Ok(LensSpec {
            engine: EngineKind::Cohort,
            n,
            cd,
            adv,
            max_slots,
            stop: StopRule::FirstCleanSingle,
            noise: 0.0,
            proto: parse_proto(proto, false)?,
            faults: None,
            churn: None,
            topology: None,
            discipline: RngDiscipline::Shared,
        })
    }

    /// Parse the lens's extended tree shape.
    fn from_run_params(params: &Value) -> Result<Self, SpecError> {
        check_keys(
            params,
            "election_run",
            &[
                "kind",
                "engine",
                "n",
                "cd",
                "adv",
                "max_slots",
                "proto",
                "stop",
                "noise",
                "faults",
                "churn",
                "topology",
                "discipline",
            ],
        )?;
        let engine_name = params
            .get("engine")
            .and_then(Value::as_str)
            .ok_or_else(|| SpecError::Invalid("election_run: missing string `engine`".into()))?;
        let engine = EngineKind::parse(engine_name)
            .ok_or_else(|| SpecError::Unsupported(format!("unknown engine `{engine_name}`")))?;
        let n = req_u64(params, "n", "election_run")?;
        let max_slots = req_u64(params, "max_slots", "election_run")?;
        let cd_value = params
            .get("cd")
            .ok_or_else(|| SpecError::Invalid("election_run: missing `cd`".into()))?;
        let cd = CdModel::from_json_value(cd_value)
            .map_err(|e| SpecError::Invalid(format!("election_run: bad `cd`: {e}")))?;
        let adv_value = params
            .get("adv")
            .ok_or_else(|| SpecError::Invalid("election_run: missing `adv`".into()))?;
        let adv = AdversarySpec::from_json_value(adv_value)
            .map_err(|e| SpecError::Invalid(format!("election_run: bad `adv`: {e}")))?;
        let stop = match params.get("stop") {
            Some(v) => parse_stop(v.as_str().ok_or_else(|| {
                SpecError::Invalid("election_run: `stop` must be a string".into())
            })?)?,
            None => StopRule::FirstCleanSingle,
        };
        let noise = match params.get("noise") {
            Some(v) => v
                .as_f64()
                .ok_or_else(|| SpecError::Invalid("election_run: `noise` must be an f64".into()))?,
            None => 0.0,
        };
        if !(0.0..=1.0).contains(&noise) {
            return Err(SpecError::Invalid("election_run: `noise` must be in [0, 1]".into()));
        }
        let faults = match params.get("faults") {
            Some(v) => Some(
                FaultPlan::from_json_value(v)
                    .map_err(|e| SpecError::Invalid(format!("election_run: bad `faults`: {e}")))?,
            ),
            None => None,
        };
        let churn = match params.get("churn") {
            Some(v) => Some(
                ChurnPlan::from_json_value(v)
                    .map_err(|e| SpecError::Invalid(format!("election_run: bad `churn`: {e}")))?,
            ),
            None => None,
        };
        let topology = match params.get("topology") {
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| {
                        SpecError::Invalid("election_run: `topology` must be a string".into())
                    })?
                    .to_string(),
            ),
            None => None,
        };
        let discipline = match params.get("discipline") {
            Some(v) => match v.as_str() {
                Some("shared") => RngDiscipline::Shared,
                Some("counter") => RngDiscipline::Counter,
                _ => {
                    return Err(SpecError::Invalid(
                        "election_run: `discipline` must be \"shared\" or \"counter\"".into(),
                    ))
                }
            },
            None => RngDiscipline::Shared,
        };
        let cluster_ok = engine == EngineKind::Multihop;
        let proto = parse_proto(
            params
                .get("proto")
                .ok_or_else(|| SpecError::Invalid("election_run: missing `proto`".into()))?,
            cluster_ok,
        )?;
        let spec = LensSpec {
            engine,
            n,
            cd,
            adv,
            max_slots,
            stop,
            noise,
            proto,
            faults,
            churn,
            topology,
            discipline,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-field consistency (impossible engine/knob combinations).
    fn validate(&self) -> Result<(), SpecError> {
        let has_plans = self.faults.is_some() || self.churn.is_some();
        match self.engine {
            EngineKind::Cohort => {
                if has_plans || self.topology.is_some() {
                    return Err(SpecError::Invalid(
                        "cohort engine takes no fault/churn plans or topology".into(),
                    ));
                }
            }
            EngineKind::Exact | EngineKind::FastExact | EngineKind::Batch => {
                if self.topology.is_some() {
                    return Err(SpecError::Invalid(format!(
                        "{} engine takes no topology (use engine=multihop)",
                        self.engine.label()
                    )));
                }
            }
            EngineKind::Multihop => {
                if has_plans {
                    return Err(SpecError::Invalid(
                        "multihop engine takes no fault/churn plans".into(),
                    ));
                }
                let desc = self.topology.as_deref().unwrap_or("complete");
                let (topo, _) = parse_topology(desc)?;
                topo.validate_for(self.n).map_err(|e| {
                    SpecError::Invalid(format!("topology does not fit n={}: {e}", self.n))
                })?;
            }
        }
        if matches!(self.proto, ProtoSpec::Cluster { .. }) && self.engine != EngineKind::Multihop {
            return Err(SpecError::Invalid("proto `cluster` requires engine=multihop".into()));
        }
        Ok(())
    }

    /// Serialize back to a parameter tree. Cohort-engine specs with all
    /// lens-only knobs at their defaults round-trip to the exact
    /// `cohort_election` shape `jle-sweepd` fingerprints, so a spec
    /// recovered from the result store re-emits its own cache key.
    pub fn to_params(&self) -> Value {
        let proto = match self.proto {
            ProtoSpec::Lesk { eps } => Value::Map(vec![
                ("proto".into(), Value::Str("lesk".into())),
                ("eps".into(), Value::F64(eps)),
            ]),
            ProtoSpec::Lesu => Value::Map(vec![("proto".into(), Value::Str("lesu".into()))]),
            ProtoSpec::Backoff => Value::Map(vec![("proto".into(), Value::Str("backoff".into()))]),
            ProtoSpec::Willard => Value::Map(vec![("proto".into(), Value::Str("willard".into()))]),
            ProtoSpec::Cluster { eps } => Value::Map(vec![
                ("proto".into(), Value::Str("cluster".into())),
                ("eps".into(), Value::F64(eps)),
            ]),
        };
        let cohort_shape = self.engine == EngineKind::Cohort
            && self.stop == StopRule::FirstCleanSingle
            && self.noise == 0.0;
        if cohort_shape {
            return Value::Map(vec![
                ("kind".into(), Value::Str("cohort_election".into())),
                ("n".into(), Value::U64(self.n)),
                ("cd".into(), self.cd.to_json_value()),
                ("adv".into(), self.adv.to_json_value()),
                ("max_slots".into(), Value::U64(self.max_slots)),
                ("proto".into(), proto),
            ]);
        }
        let mut map = vec![
            ("kind".into(), Value::Str("election_run".into())),
            ("engine".into(), Value::Str(self.engine.label().into())),
            ("n".into(), Value::U64(self.n)),
            ("cd".into(), self.cd.to_json_value()),
            ("adv".into(), self.adv.to_json_value()),
            ("max_slots".into(), Value::U64(self.max_slots)),
            ("stop".into(), Value::Str(stop_label(self.stop).into())),
            ("proto".into(), proto),
        ];
        if self.noise != 0.0 {
            map.push(("noise".into(), Value::F64(self.noise)));
        }
        if let Some(f) = &self.faults {
            map.push(("faults".into(), f.to_json_value()));
        }
        if let Some(c) = &self.churn {
            map.push(("churn".into(), c.to_json_value()));
        }
        if let Some(t) = &self.topology {
            map.push(("topology".into(), Value::Str(t.clone())));
        }
        if self.discipline == RngDiscipline::Counter {
            map.push(("discipline".into(), Value::Str("counter".into())));
        }
        Value::Map(map)
    }

    /// The same run re-targeted at a different backend (for `--diff`);
    /// re-validated, so e.g. moving a fault-plan run onto `multihop`
    /// fails loudly instead of replaying something else.
    pub fn with_engine(
        &self,
        engine: EngineKind,
        discipline: RngDiscipline,
    ) -> Result<Self, SpecError> {
        let mut spec = self.clone();
        spec.engine = engine;
        spec.discipline = discipline;
        if engine != EngineKind::Multihop {
            spec.topology = None;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Build the per-station protocol factory for the single-channel
    /// engines.
    fn protocol_factory(&self) -> impl Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static {
        let proto = self.proto;
        move |_i| match proto {
            ProtoSpec::Lesk { eps } => Box::new(PerStation::new(LeskProtocol::new(eps))),
            ProtoSpec::Lesu => Box::new(PerStation::new(LesuProtocol::new())),
            ProtoSpec::Backoff => Box::new(PerStation::new(BackoffProtocol::new())),
            ProtoSpec::Willard => Box::new(PerStation::new(WillardProtocol::new())),
            ProtoSpec::Cluster { .. } => unreachable!("validated: cluster implies multihop"),
        }
    }

    /// The [`SimConfig`] for `seed` (the workspace convention is
    /// `seed = base_seed + trial_index`; the caller resolves that).
    pub fn config(&self, seed: u64) -> SimConfig {
        let mut config = SimConfig::new(self.n, self.cd)
            .with_seed(seed)
            .with_max_slots(self.max_slots)
            .with_stop(self.stop);
        if self.noise > 0.0 {
            config = config.with_noise(self.noise);
        }
        config
    }

    /// Re-derive the run for `seed` with `obs` attached.
    ///
    /// This constructs the same station sets the workspace's `run_*`
    /// entry points construct — same factories, same plan lowering
    /// ([`ChurnPlan::overlay`] onto a [`FaultPlan`]), same disciplines —
    /// so the report and the per-slot stream are bit-identical to the
    /// original unobserved run (observers are passive by the engine's
    /// golden-seed contract).
    pub fn run(&self, seed: u64, obs: &mut dyn SlotObserver) -> Result<RunReport, SpecError> {
        let config = self.config(seed);
        let report = match self.engine {
            EngineKind::Cohort => {
                let core = SimCore::new(&config, &self.adv);
                match self.proto {
                    ProtoSpec::Lesk { eps } => {
                        core.observe(obs).run(&mut CohortStations::new(LeskProtocol::new(eps)))
                    }
                    ProtoSpec::Lesu => {
                        core.observe(obs).run(&mut CohortStations::new(LesuProtocol::new()))
                    }
                    ProtoSpec::Backoff => {
                        core.observe(obs).run(&mut CohortStations::new(BackoffProtocol::new()))
                    }
                    ProtoSpec::Willard => {
                        core.observe(obs).run(&mut CohortStations::new(WillardProtocol::new()))
                    }
                    ProtoSpec::Cluster { .. } => {
                        unreachable!("validated: cluster implies multihop")
                    }
                }
            }
            // `Batch` dispatches onto the fast-exact stations: the batched
            // backend is bit-identical per trial by contract (DESIGN.md
            // §17) and cannot host an observer, so the fast path IS its
            // replay path.
            EngineKind::Exact | EngineKind::FastExact | EngineKind::Batch => {
                let plan = match (&self.faults, &self.churn) {
                    (None, None) => None,
                    (Some(f), None) => Some(f.clone()),
                    (f, Some(c)) => Some(c.overlay(f.as_ref().unwrap_or(&FaultPlan::empty()))),
                };
                match (self.engine, plan) {
                    (EngineKind::Exact, None) => {
                        let mut stations = ExactStations::new(&config, self.protocol_factory());
                        SimCore::new(&config, &self.adv).observe(obs).run(&mut stations)
                    }
                    (EngineKind::Exact, Some(plan)) => {
                        let mut stations =
                            FaultyStations::new(&config, &plan, self.protocol_factory());
                        SimCore::new(&config, &self.adv).observe(obs).run(&mut stations)
                    }
                    (EngineKind::FastExact | EngineKind::Batch, None) => {
                        let mut stations = FastExactStations::new(&config, self.protocol_factory());
                        SimCore::new(&config, &self.adv).observe(obs).run(&mut stations)
                    }
                    (EngineKind::FastExact | EngineKind::Batch, Some(plan)) => {
                        let mut stations =
                            FaultyStations::with_base(&plan, self.protocol_factory(), |f| {
                                FastExactStations::new(&config, f)
                            });
                        SimCore::new(&config, &self.adv).observe(obs).run(&mut stations)
                    }
                    _ => unreachable!("match is over Exact | FastExact | Batch"),
                }
            }
            EngineKind::Multihop => {
                let desc = self.topology.as_deref().unwrap_or("complete");
                let (topo, natural_clusters) = parse_topology(desc)?;
                topo.validate_for(self.n).map_err(|e| {
                    SpecError::Invalid(format!("topology does not fit n={}: {e}", self.n))
                })?;
                match self.proto {
                    ProtoSpec::Cluster { eps } => {
                        let assign =
                            natural_clusters.unwrap_or_else(|| vec![0u32; self.n as usize]);
                        let factory = |i: u64| -> Box<dyn MeshProtocol> {
                            Box::new(ClusterElection::for_assignment(i, &assign, eps))
                        };
                        let mut stations = MultihopStations::new(&config, &topo, factory)
                            .with_discipline(self.discipline)
                            .with_clusters(&assign);
                        SimCore::new(&config, &self.adv).observe(obs).run(&mut stations)
                    }
                    _ => {
                        let single = self.protocol_factory();
                        let factory =
                            |i: u64| -> Box<dyn MeshProtocol> { Box::new(StdMesh::new(single(i))) };
                        let mut stations = MultihopStations::new(&config, &topo, factory)
                            .with_discipline(self.discipline);
                        SimCore::new(&config, &self.adv).observe(obs).run(&mut stations)
                    }
                }
            }
        };
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn cohort_params() -> Value {
        json!({
            "kind": "cohort_election",
            "n": 32u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 100_000u64,
            "proto": {"proto": "lesk", "eps": 0.5f64},
        })
    }

    #[test]
    fn cohort_tree_parses_and_round_trips() {
        let spec = LensSpec::from_params(&cohort_params()).unwrap();
        assert_eq!(spec.engine, EngineKind::Cohort);
        assert_eq!(spec.n, 32);
        // Round-trip preserves the cache-compatible shape bit-for-bit
        // (canonicalized, since map order is not semantic).
        let back = jle_orchestrator::canonicalize(&spec.to_params());
        assert_eq!(back, jle_orchestrator::canonicalize(&cohort_params()));
    }

    #[test]
    fn unknown_keys_are_rejected_not_ignored() {
        let mut v = cohort_params();
        if let Value::Map(m) = &mut v {
            m.push(("warm_start".into(), Value::U64(1)));
        }
        assert!(matches!(LensSpec::from_params(&v), Err(SpecError::Unsupported(_))));
    }

    #[test]
    fn run_tree_round_trips_through_to_params() {
        let v = json!({
            "kind": "election_run",
            "engine": "multihop",
            "n": 6u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 50_000u64,
            "stop": "all-terminated",
            "proto": {"proto": "cluster", "eps": 0.5f64},
            "topology": "dense-linear:3,2",
            "discipline": "counter",
        });
        let spec = LensSpec::from_params(&v).unwrap();
        let reparsed = LensSpec::from_params(&spec.to_params()).unwrap();
        assert_eq!(reparsed.engine, EngineKind::Multihop);
        assert_eq!(reparsed.discipline, RngDiscipline::Counter);
        assert_eq!(
            jle_orchestrator::canonicalize(&reparsed.to_params()),
            jle_orchestrator::canonicalize(&spec.to_params())
        );
    }

    #[test]
    fn impossible_combinations_fail_validation() {
        // Cluster protocol outside multihop.
        let v = json!({
            "kind": "election_run",
            "engine": "exact",
            "n": 8u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 1000u64,
            "proto": {"proto": "cluster", "eps": 0.5f64},
        });
        assert!(LensSpec::from_params(&v).is_err());
        // Topology on the exact engine.
        let v = json!({
            "kind": "election_run",
            "engine": "exact",
            "n": 8u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 1000u64,
            "proto": {"proto": "lesu"},
            "topology": "dense-linear:2,4",
        });
        assert!(LensSpec::from_params(&v).is_err());
        // Topology that does not fit n.
        let v = json!({
            "kind": "election_run",
            "engine": "multihop",
            "n": 5u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 1000u64,
            "proto": {"proto": "lesu"},
            "topology": "dense-linear:3,2",
        });
        assert!(LensSpec::from_params(&v).is_err());
    }

    #[test]
    fn topology_parser_accepts_all_cli_forms() {
        assert!(matches!(parse_topology("complete").unwrap().0, Topology::Complete));
        let (_, clusters) = parse_topology("dense-linear:3,4").unwrap();
        assert_eq!(clusters.unwrap().len(), 12);
        let (_, clusters) = parse_topology("core-tail:4,3").unwrap();
        assert_eq!(clusters.unwrap().len(), 7);
        assert!(parse_topology("unit-disk:16,0.5,7").is_ok());
        assert!(parse_topology("moebius:4").is_err());
    }
}
