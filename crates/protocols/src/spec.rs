//! One run description: parameter tree ⇄ [`RunSpec`] → deterministic run.
//!
//! A [`RunSpec`] names *exactly one* deterministic simulation — engine
//! backend, protocol, adversary, plans — such that `spec + seed` derives
//! a trial bit-for-bit. It is the single grammar of the workspace's
//! cacheable election units: the experiments build one and submit its
//! [`RunSpec::to_params`] tree as the fingerprint input, `jle-sweepd`
//! parses the same tree back with [`RunSpec::from_params`] to execute it,
//! and `jle-lens` parses it again to replay a trial. Because the tree the
//! cache keys and the run it executes come from one value, a unit cannot
//! be keyed as one run and computed as another.
//!
//! Three tree shapes parse:
//!
//! * `kind == "cohort_election"` — the O(1)-per-slot cohort engine.
//! * `kind == "exact_election"` — the same protocol per station on the
//!   fast-exact engine; [`RunSpec::run_batch`] runs it through the
//!   batched backend, which is bit-identical per trial (DESIGN.md §17),
//!   so both routes share one cache entry.
//! * `kind == "election_run"` — the lens's superset: explicit engine
//!   selection (`cohort`/`exact`/`fast-exact`/`batch`/`multihop`), stop
//!   rules, noise, fault/churn plans, topologies, and RNG disciplines.
//!
//! All three share the keys `n`, `cd`, `adv`, `max_slots`, and a `proto`
//! subtree naming one protocol:
//!
//! * `{"proto": "lesk", "eps": ε}`, optionally with `"divisor": d`
//!   ([`LeskProtocol::with_increment_divisor`]) and `"u0": u`
//!   ([`LeskProtocol::starting_at`]);
//! * `{"proto": "lesu"}`, `{"proto": "backoff"}`, `{"proto": "willard"}`;
//! * `{"proto": "arss", "gamma": γ}` ([`ArssMacProtocol::new`]);
//! * `{"proto": "cluster", "eps": ε}` ([`ClusterElection`]; multihop
//!   `election_run` trees only).
//!
//! Parsing is strict: an unrecognized key anywhere in the tree is
//! [`SpecError::Unsupported`], never ignored — dropping a knob would
//! compute *something* under a fingerprint that promises something else.
//! Values the constructors would panic on (`n < 1`, ε ∉ (0,1), a
//! non-positive divisor, γ ∉ (0,1], `T < 1`) are [`SpecError::Invalid`]
//! at parse time.

use crate::{
    ArssMacProtocol, BackoffProtocol, ClusterElection, LeskProtocol, LesuProtocol, WillardProtocol,
};
use jle_adversary::AdversarySpec;
use jle_engine::{
    run_batch_uniform, ChurnPlan, CohortStations, ExactStations, FastExactStations, FaultPlan,
    FaultyStations, MeshProtocol, MultihopStations, PerStation, Protocol, RngDiscipline, RunReport,
    SimConfig, SimCore, SlotObserver, StdMesh, StopRule,
};
use jle_radio::{CdModel, Topology};
use serde::{Deserialize, Serialize, Value};

/// Why a parameter tree could not be turned into a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Well-formed but names something that cannot be faithfully derived
    /// (unknown kind/engine/protocol, or an unrecognized key that may
    /// change behaviour). Service clients compute such units locally.
    Unsupported(String),
    /// Malformed: missing or ill-typed fields, out-of-range values, or
    /// impossible combinations like a fault plan on the cohort engine.
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

fn invalid(msg: impl Into<String>) -> SpecError {
    SpecError::Invalid(msg.into())
}

/// Which simulation backend derives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Uniform-cohort engine ([`CohortStations`]).
    Cohort,
    /// Per-station exact engine ([`ExactStations`]; [`FaultyStations`]
    /// when a fault or churn plan is attached).
    Exact,
    /// Bitset fast path ([`FastExactStations`]; the same
    /// [`FaultyStations`] overlay on it when a fault or churn plan is
    /// attached).
    FastExact,
    /// Batched lockstep backend ([`jle_engine::run_batch_exact`]). It is
    /// bit-identical per trial to the fast-exact path by contract
    /// (DESIGN.md §17) and cannot host a per-slot observer, so single
    /// runs under this engine *dispatch onto the fast-exact stations*.
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

    /// The orchestrator engine-mode tag results of this engine are cached
    /// under (`jle_orchestrator::Orchestrator::engine_mode`).
    ///
    /// `Batch` aliases the fast-exact salt: its per-trial reports are
    /// bit-identical, so batched and per-trial sweeps warm each other's
    /// caches instead of forking the store. Every other engine stays on
    /// the default (`"exact"`) salt, leaving existing caches untouched.
    pub fn cache_tag(self) -> &'static str {
        match self {
            EngineKind::FastExact | EngineKind::Batch => "fast-exact",
            EngineKind::Cohort | EngineKind::Exact | EngineKind::Multihop => "exact",
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
        /// Increment divisor `d` (increment ε/d instead of the paper's
        /// ε/8); `None` is the paper's protocol.
        divisor: Option<f64>,
        /// Starting estimate `u`; `None` starts cold at 0.
        u0: Option<f64>,
    },
    /// [`LesuProtocol`].
    Lesu,
    /// [`BackoffProtocol`].
    Backoff,
    /// [`WillardProtocol`].
    Willard,
    /// [`ArssMacProtocol`] with global parameter `gamma`.
    Arss {
        /// The ARSS γ.
        gamma: f64,
    },
    /// [`ClusterElection`] (multi-hop engine only; runs one election per
    /// topology cluster).
    Cluster {
        /// The per-cluster LESK ε parameter.
        eps: f64,
    },
}

/// Bind `$mk` to a factory of the uniform protocol `$proto` names and
/// evaluate `$body` — once per protocol type, so every engine the body
/// drives stays monomorphized.
macro_rules! with_uniform {
    ($proto:expr, |$mk:ident| $body:expr) => {
        match $proto {
            ProtoSpec::Lesk { eps, divisor, u0 } => {
                let $mk = move || ProtoSpec::lesk_protocol(eps, divisor, u0);
                $body
            }
            ProtoSpec::Lesu => {
                let $mk = LesuProtocol::new;
                $body
            }
            ProtoSpec::Backoff => {
                let $mk = BackoffProtocol::new;
                $body
            }
            ProtoSpec::Willard => {
                let $mk = WillardProtocol::new;
                $body
            }
            ProtoSpec::Arss { gamma } => {
                let $mk = move || ArssMacProtocol::new(gamma);
                $body
            }
            ProtoSpec::Cluster { .. } => unreachable!("validated: cluster implies multihop"),
        }
    };
}

impl ProtoSpec {
    /// The paper's LESK(ε): cold start, increment ε/8.
    pub fn lesk(eps: f64) -> Self {
        ProtoSpec::Lesk { eps, divisor: None, u0: None }
    }

    /// Human-readable protocol name (the tree's `proto` value).
    pub fn label(&self) -> &'static str {
        match self {
            ProtoSpec::Lesk { .. } => "lesk",
            ProtoSpec::Lesu => "lesu",
            ProtoSpec::Backoff => "backoff",
            ProtoSpec::Willard => "willard",
            ProtoSpec::Arss { .. } => "arss",
            ProtoSpec::Cluster { .. } => "cluster",
        }
    }

    fn lesk_protocol(eps: f64, divisor: Option<f64>, u0: Option<f64>) -> LeskProtocol {
        let p = match divisor {
            Some(d) => LeskProtocol::with_increment_divisor(eps, d),
            None => LeskProtocol::new(eps),
        };
        match u0 {
            Some(u) => p.starting_at(u),
            None => p,
        }
    }

    fn parse(v: &Value, cluster_ok: bool) -> Result<Self, SpecError> {
        let name = v
            .get("proto")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("proto: missing string `proto`"))?;
        let what = format!("proto:{name}");
        let keys: &[&str] = match name {
            "lesk" => &["proto", "eps", "divisor", "u0"],
            "lesu" | "backoff" | "willard" => &["proto"],
            "arss" => &["proto", "gamma"],
            "cluster" if cluster_ok => &["proto", "eps"],
            other => return Err(SpecError::Unsupported(format!("unknown protocol `{other}`"))),
        };
        check_keys(v, &what, keys)?;
        Ok(match name {
            "lesk" => ProtoSpec::Lesk {
                eps: req_f64(v, "eps", &what)?,
                divisor: opt_f64(v, "divisor", &what)?,
                u0: opt_f64(v, "u0", &what)?,
            },
            "lesu" => ProtoSpec::Lesu,
            "backoff" => ProtoSpec::Backoff,
            "willard" => ProtoSpec::Willard,
            "arss" => ProtoSpec::Arss { gamma: req_f64(v, "gamma", &what)? },
            _ => ProtoSpec::Cluster { eps: req_f64(v, "eps", &what)? },
        })
    }

    /// Reject the values the protocol constructors would panic on (or,
    /// for a non-finite `u0`, that a tree cannot carry).
    fn validate(&self) -> Result<(), SpecError> {
        let unit_open = |eps: f64| eps > 0.0 && eps < 1.0;
        match *self {
            ProtoSpec::Lesk { eps, divisor, u0 } => {
                if !unit_open(eps) {
                    return Err(invalid(format!("proto:lesk: `eps` must be in (0, 1), got {eps}")));
                }
                if divisor.is_some_and(|d| !(d.is_finite() && d > 0.0)) {
                    return Err(invalid("proto:lesk: `divisor` must be a positive number"));
                }
                if u0.is_some_and(|u| !u.is_finite()) {
                    return Err(invalid("proto:lesk: `u0` must be finite"));
                }
            }
            ProtoSpec::Arss { gamma } if !(gamma > 0.0 && gamma <= 1.0) => {
                return Err(invalid(format!("proto:arss: `gamma` must be in (0, 1], got {gamma}")));
            }
            ProtoSpec::Cluster { eps } if !unit_open(eps) => {
                return Err(invalid(format!("proto:cluster: `eps` must be in (0, 1), got {eps}")));
            }
            _ => {}
        }
        Ok(())
    }

    fn to_params(self) -> Value {
        let mut map = vec![("proto".to_string(), Value::Str(self.label().into()))];
        match self {
            ProtoSpec::Lesk { eps, divisor, u0 } => {
                map.push(("eps".into(), Value::F64(eps)));
                if let Some(d) = divisor {
                    map.push(("divisor".into(), Value::F64(d)));
                }
                if let Some(u) = u0 {
                    map.push(("u0".into(), Value::F64(u)));
                }
            }
            ProtoSpec::Arss { gamma } => map.push(("gamma".into(), Value::F64(gamma))),
            ProtoSpec::Cluster { eps } => map.push(("eps".into(), Value::F64(eps))),
            ProtoSpec::Lesu | ProtoSpec::Backoff | ProtoSpec::Willard => {}
        }
        Value::Map(map)
    }
}

/// One fully-specified deterministic run (see the module docs).
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Backend that derives the run.
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
    /// Fault plan (exact/fast-exact/batch engines only).
    pub faults: Option<FaultPlan>,
    /// Churn plan, lowered onto the faulty backends via
    /// [`ChurnPlan::overlay`] (exact/fast-exact/batch engines only).
    pub churn: Option<ChurnPlan>,
    /// Topology descriptor in CLI form (see [`parse_topology`]; multihop
    /// engine only).
    pub topology: Option<String>,
    /// Multi-hop RNG discipline.
    pub discipline: RngDiscipline,
}

fn check_keys(v: &Value, what: &str, allowed: &[&str]) -> Result<(), SpecError> {
    let map = v.as_map().ok_or_else(|| invalid(format!("{what}: expected an object")))?;
    match map.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        Some((k, _)) => Err(SpecError::Unsupported(format!(
            "{what}: unrecognized key `{k}` (a faithful run cannot be guaranteed)"
        ))),
        None => Ok(()),
    }
}

fn req<'v>(v: &'v Value, k: &str, what: &str) -> Result<&'v Value, SpecError> {
    v.get(k).ok_or_else(|| invalid(format!("{what}: missing `{k}`")))
}

fn req_u64(v: &Value, k: &str, what: &str) -> Result<u64, SpecError> {
    req(v, k, what)?.as_u64().ok_or_else(|| invalid(format!("{what}: `{k}` must be a u64")))
}

fn req_f64(v: &Value, k: &str, what: &str) -> Result<f64, SpecError> {
    req(v, k, what)?.as_f64().ok_or_else(|| invalid(format!("{what}: `{k}` must be a number")))
}

fn opt_f64(v: &Value, k: &str, what: &str) -> Result<Option<f64>, SpecError> {
    v.get(k).map(|_| req_f64(v, k, what)).transpose()
}

fn opt_str<'v>(v: &'v Value, k: &str, what: &str) -> Result<Option<&'v str>, SpecError> {
    v.get(k)
        .map(|x| x.as_str().ok_or_else(|| invalid(format!("{what}: `{k}` must be a string"))))
        .transpose()
}

fn req_de<T: Deserialize>(v: &Value, k: &str, what: &str) -> Result<T, SpecError> {
    T::from_json_value(req(v, k, what)?).map_err(|e| invalid(format!("{what}: bad `{k}`: {e}")))
}

fn opt_de<T: Deserialize>(v: &Value, k: &str, what: &str) -> Result<Option<T>, SpecError> {
    v.get(k).map(|_| req_de(v, k, what)).transpose()
}

const STOP_RULES: [(&str, StopRule); 3] = [
    ("first-clean-single", StopRule::FirstCleanSingle),
    ("all-terminated", StopRule::AllTerminated),
    ("horizon", StopRule::Horizon),
];

/// Parse a CLI-form topology descriptor into a [`Topology`] plus the
/// natural cluster assignment, when the generator defines one:
/// `complete` ([`Topology::Complete`], no assignment), `dense-linear:K,M`
/// and `core-tail:C,T` (each of K, M, C, T at most 4096; K, M, C ≥ 1),
/// or `unit-disk:N,R,SEED` (N in 1..=16384, no assignment).
pub fn parse_topology(spec: &str) -> Result<(Topology, Option<Vec<u32>>), SpecError> {
    if spec == "complete" {
        return Ok((Topology::Complete, None));
    }
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| invalid(format!("topology: expected KIND:ARGS, got `{spec}`")))?;
    let nums: Vec<&str> = rest.split(',').collect();
    let int = |s: &str, what: &str| -> Result<u64, SpecError> {
        s.trim().parse::<u64>().map_err(|e| invalid(format!("topology {kind}: {what}: {e}")))
    };
    match kind {
        "dense-linear" => {
            if nums.len() != 2 {
                return Err(invalid("topology dense-linear:K,M takes two integers"));
            }
            let (k, m) = (int(nums[0], "K")?, int(nums[1], "M")?);
            if k == 0 || m == 0 || k > 4_096 || m > 4_096 {
                return Err(invalid("topology dense-linear: K and M must be in 1..=4096"));
            }
            let (topo, clusters) = Topology::dense_linear(k as u32, m as u32);
            Ok((topo, Some(clusters)))
        }
        "core-tail" => {
            if nums.len() != 2 {
                return Err(invalid("topology core-tail:C,T takes two integers"));
            }
            let (c, t) = (int(nums[0], "C")?, int(nums[1], "T")?);
            if c == 0 || c > 4_096 || t > 4_096 {
                return Err(invalid("topology core-tail: C must be in 1..=4096, T in 0..=4096"));
            }
            let (topo, clusters) = Topology::core_tail(c as u32, t as u32);
            Ok((topo, Some(clusters)))
        }
        "unit-disk" => {
            if nums.len() != 3 {
                return Err(invalid("topology unit-disk:N,R,SEED takes three values"));
            }
            let n = int(nums[0], "N")?;
            let r: f64 = nums[1]
                .trim()
                .parse()
                .map_err(|e| invalid(format!("topology unit-disk: R: {e}")))?;
            let seed = int(nums[2], "SEED")?;
            if n == 0 || n > 16_384 {
                return Err(invalid("topology unit-disk: N must be in 1..=16384"));
            }
            let topo = Topology::unit_disk(n, r, seed)
                .map_err(|e| invalid(format!("topology unit-disk: {e}")))?;
            Ok((topo, None))
        }
        other => Err(SpecError::Unsupported(format!(
            "unknown topology kind `{other}` (expected complete, dense-linear, core-tail, or \
             unit-disk)"
        ))),
    }
}

impl RunSpec {
    /// A plain cohort election — the `cohort_election` unit every
    /// experiment sweep point of that kind submits.
    pub fn cohort(
        n: u64,
        cd: CdModel,
        adv: &AdversarySpec,
        max_slots: u64,
        proto: ProtoSpec,
    ) -> Self {
        RunSpec {
            engine: EngineKind::Cohort,
            n,
            cd,
            adv: adv.clone(),
            max_slots,
            stop: StopRule::FirstCleanSingle,
            noise: 0.0,
            proto,
            faults: None,
            churn: None,
            topology: None,
            discipline: RngDiscipline::Shared,
        }
    }

    /// Parse a parameter tree (any of the three kinds; module docs).
    pub fn from_params(params: &Value) -> Result<Self, SpecError> {
        let kind = params
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("params: missing string `kind`"))?;
        const COMMON: [&str; 6] = ["kind", "n", "cd", "adv", "max_slots", "proto"];
        const RUN_ONLY: [&str; 7] =
            ["engine", "stop", "noise", "faults", "churn", "topology", "discipline"];
        let run_only: &[&str] = match kind {
            "cohort_election" | "exact_election" => &[],
            "election_run" => &RUN_ONLY,
            other => return Err(SpecError::Unsupported(format!("unknown work kind `{other}`"))),
        };
        let allowed: Vec<&str> = COMMON.iter().chain(run_only).copied().collect();
        check_keys(params, kind, &allowed)?;
        let engine = match kind {
            "cohort_election" => EngineKind::Cohort,
            "exact_election" => EngineKind::FastExact,
            _ => {
                let name = opt_str(params, "engine", kind)?
                    .ok_or_else(|| invalid("election_run: missing string `engine`"))?;
                EngineKind::parse(name)
                    .ok_or_else(|| SpecError::Unsupported(format!("unknown engine `{name}`")))?
            }
        };
        let stop = match opt_str(params, "stop", kind)? {
            Some(s) => STOP_RULES
                .iter()
                .find(|(name, _)| *name == s)
                .map(|&(_, rule)| rule)
                .ok_or_else(|| invalid(format!("unknown stop rule `{s}`")))?,
            None => StopRule::FirstCleanSingle,
        };
        let discipline = match opt_str(params, "discipline", kind)? {
            None | Some("shared") => RngDiscipline::Shared,
            Some("counter") => RngDiscipline::Counter,
            Some(_) => {
                return Err(invalid("election_run: `discipline` must be \"shared\" or \"counter\""))
            }
        };
        let spec = RunSpec {
            engine,
            n: req_u64(params, "n", kind)?,
            cd: req_de(params, "cd", kind)?,
            adv: req_de(params, "adv", kind)?,
            max_slots: req_u64(params, "max_slots", kind)?,
            stop,
            noise: opt_f64(params, "noise", kind)?.unwrap_or(0.0),
            proto: ProtoSpec::parse(req(params, "proto", kind)?, engine == EngineKind::Multihop)?,
            faults: opt_de(params, "faults", kind)?,
            churn: opt_de(params, "churn", kind)?,
            topology: opt_str(params, "topology", kind)?.map(str::to_string),
            discipline,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Range checks and cross-field consistency (impossible engine/knob
    /// combinations).
    fn validate(&self) -> Result<(), SpecError> {
        if self.n < 1 {
            return Err(invalid("`n` must be at least 1"));
        }
        if self.adv.t_window < 1 {
            return Err(invalid("`adv.t_window` must be at least 1"));
        }
        if !(0.0..=1.0).contains(&self.noise) {
            return Err(invalid("election_run: `noise` must be in [0, 1]"));
        }
        self.proto.validate()?;
        let has_plans = self.faults.is_some() || self.churn.is_some();
        match self.engine {
            EngineKind::Cohort if has_plans || self.topology.is_some() => {
                return Err(invalid("cohort engine takes no fault/churn plans or topology"));
            }
            EngineKind::Exact | EngineKind::FastExact | EngineKind::Batch
                if self.topology.is_some() =>
            {
                return Err(invalid(format!(
                    "{} engine takes no topology (use engine=multihop)",
                    self.engine.label()
                )));
            }
            EngineKind::Multihop if has_plans => {
                return Err(invalid("multihop engine takes no fault/churn plans"));
            }
            EngineKind::Multihop => {
                self.topology()?;
            }
            _ => {}
        }
        if matches!(self.proto, ProtoSpec::Cluster { .. }) && self.engine != EngineKind::Multihop {
            return Err(invalid("proto `cluster` requires engine=multihop"));
        }
        Ok(())
    }

    /// The parsed topology, checked against `n`.
    fn topology(&self) -> Result<(Topology, Option<Vec<u32>>), SpecError> {
        let parsed = parse_topology(self.topology.as_deref().unwrap_or("complete"))?;
        parsed
            .0
            .validate_for(self.n)
            .map_err(|e| invalid(format!("topology does not fit n={}: {e}", self.n)))?;
        Ok(parsed)
    }

    /// The service tree kind this spec is, when every lens-only knob is
    /// at its default: `cohort_election` on the cohort engine,
    /// `exact_election` on the fast-exact engine.
    fn election_kind(&self) -> Option<&'static str> {
        let plain = self.stop == StopRule::FirstCleanSingle
            && self.noise == 0.0
            && self.faults.is_none()
            && self.churn.is_none()
            && self.topology.is_none()
            && self.discipline == RngDiscipline::Shared;
        match self.engine {
            EngineKind::Cohort if plain => Some("cohort_election"),
            EngineKind::FastExact if plain => Some("exact_election"),
            _ => None,
        }
    }

    /// Serialize to the parameter tree — the fingerprint input. Plain
    /// cohort and fast-exact specs emit the `cohort_election` and
    /// `exact_election` shapes, so a spec recovered from the result store
    /// re-emits its own cache key; everything else is an `election_run`.
    pub fn to_params(&self) -> Value {
        let mut map = vec![
            ("kind".to_string(), Value::Str(self.election_kind().unwrap_or("election_run").into())),
            ("n".into(), Value::U64(self.n)),
            ("cd".into(), self.cd.to_json_value()),
            ("adv".into(), self.adv.to_json_value()),
            ("max_slots".into(), Value::U64(self.max_slots)),
            ("proto".into(), self.proto.to_params()),
        ];
        if self.election_kind().is_some() {
            return Value::Map(map);
        }
        let stop = STOP_RULES.iter().find(|(_, rule)| *rule == self.stop).expect("every rule");
        map.push(("engine".into(), Value::Str(self.engine.label().into())));
        map.push(("stop".into(), Value::Str(stop.0.into())));
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

    /// The same run re-targeted at a different backend (for lens
    /// `--diff`); re-validated, so e.g. moving a fault-plan run onto
    /// `multihop` fails loudly instead of running something else.
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

    /// The per-station protocol factory for the single-channel engines.
    fn station_factory(&self) -> impl Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static {
        let proto = self.proto;
        move |_| with_uniform!(proto, |mk| Box::new(PerStation::new(mk())) as Box<dyn Protocol>)
    }

    /// Run the trial for `seed`.
    pub fn run(&self, seed: u64) -> Result<RunReport, SpecError> {
        self.dispatch(seed, None)
    }

    /// Run the trial for `seed` with `obs` attached. Observers are
    /// passive (the engine's golden-seed contract), so the report is
    /// bit-identical to [`RunSpec::run`]'s.
    pub fn run_observed(
        &self,
        seed: u64,
        obs: &mut dyn SlotObserver,
    ) -> Result<RunReport, SpecError> {
        self.dispatch(seed, Some(obs))
    }

    /// Run one trial per seed through the batched lockstep backend, in
    /// seed order; see [`RunSpec::check_batchable`] for which specs
    /// qualify.
    pub fn run_batch(&self, seeds: &[u64]) -> Result<Vec<RunReport>, SpecError> {
        self.check_batchable()?;
        let config = self.config(0);
        Ok(with_uniform!(self.proto, |mk| run_batch_uniform(&config, &self.adv, seeds, mk)))
    }

    /// Whether [`RunSpec::run_batch`] serves this spec: `exact_election`
    /// specs only. Per trial their batch bits are exactly
    /// [`RunSpec::run`]'s fast-exact bits, which is what lets batched and
    /// per-trial chunks share cache entries; anything else — cohort bits
    /// in particular — is [`SpecError::Unsupported`].
    pub fn check_batchable(&self) -> Result<(), SpecError> {
        if self.election_kind() == Some("exact_election") {
            return Ok(());
        }
        Err(SpecError::Unsupported(format!(
            "only exact_election specs have a bit-identical batch backend, not {} on the {} \
             engine (aliasing other bits would poison the shared cache)",
            self.proto.label(),
            self.engine.label()
        )))
    }

    /// The one engine dispatch: the same station sets the workspace's
    /// `run_*` entry points construct — same factories, same plan
    /// lowering ([`ChurnPlan::overlay`] onto a [`FaultPlan`]), same
    /// disciplines — monomorphized per station set (and, on the cohort
    /// engine, per protocol).
    fn dispatch(
        &self,
        seed: u64,
        obs: Option<&mut dyn SlotObserver>,
    ) -> Result<RunReport, SpecError> {
        let config = self.config(seed);
        let core = match obs {
            Some(obs) => SimCore::new(&config, &self.adv).observe(obs),
            None => SimCore::new(&config, &self.adv),
        };
        let plan = match (&self.faults, &self.churn) {
            (None, None) => None,
            (Some(f), None) => Some(f.clone()),
            (f, Some(c)) => Some(c.overlay(f.as_ref().unwrap_or(&FaultPlan::empty()))),
        };
        Ok(match (self.engine, plan) {
            (EngineKind::Cohort, _) => {
                with_uniform!(self.proto, |mk| core.run(&mut CohortStations::new(mk())))
            }
            (EngineKind::Exact, None) => {
                core.run(&mut ExactStations::new(&config, self.station_factory()))
            }
            (EngineKind::Exact, Some(plan)) => {
                core.run(&mut FaultyStations::new(&config, &plan, self.station_factory()))
            }
            // `Batch` runs on the fast-exact stations: the batched backend
            // is bit-identical per trial and cannot host an observer.
            (EngineKind::FastExact | EngineKind::Batch, None) => {
                core.run(&mut FastExactStations::new(&config, self.station_factory()))
            }
            (EngineKind::FastExact | EngineKind::Batch, Some(plan)) => {
                core.run(&mut FaultyStations::with_base(&plan, self.station_factory(), |f| {
                    FastExactStations::new(&config, f)
                }))
            }
            (EngineKind::Multihop, _) => {
                let (topo, natural_clusters) = self.topology()?;
                match self.proto {
                    ProtoSpec::Cluster { eps } => {
                        let assign =
                            natural_clusters.unwrap_or_else(|| vec![0u32; self.n as usize]);
                        let factory = |i: u64| -> Box<dyn MeshProtocol> {
                            Box::new(ClusterElection::for_assignment(i, &assign, eps))
                        };
                        core.run(
                            &mut MultihopStations::new(&config, &topo, factory)
                                .with_discipline(self.discipline)
                                .with_clusters(&assign),
                        )
                    }
                    _ => {
                        let single = self.station_factory();
                        let factory =
                            |i: u64| -> Box<dyn MeshProtocol> { Box::new(StdMesh::new(single(i))) };
                        core.run(
                            &mut MultihopStations::new(&config, &topo, factory)
                                .with_discipline(self.discipline),
                        )
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::{JamStrategyKind, Rate};
    use jle_orchestrator::canonicalize;
    use proptest::prelude::*;
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

    fn with_key(mut v: Value, k: &str, x: Value) -> Value {
        if let Value::Map(m) = &mut v {
            m.retain(|(key, _)| key != k);
            m.push((k.to_string(), x));
        }
        v
    }

    fn run_params(engine: &str, n: u64, proto: Value) -> Value {
        json!({
            "kind": "election_run",
            "engine": engine,
            "n": n,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 1000u64,
            "proto": proto,
        })
    }

    #[test]
    fn cohort_tree_parses_and_round_trips() {
        let spec = RunSpec::from_params(&cohort_params()).unwrap();
        assert_eq!(spec.engine, EngineKind::Cohort);
        assert_eq!(spec.n, 32);
        // Round-trip preserves the cache-compatible shape bit-for-bit
        // (canonicalized, since map order is not semantic).
        assert_eq!(canonicalize(&spec.to_params()), canonicalize(&cohort_params()));
        let exact = with_key(cohort_params(), "kind", json!("exact_election"));
        let spec = RunSpec::from_params(&exact).unwrap();
        assert_eq!(spec.engine, EngineKind::FastExact);
        assert_eq!(canonicalize(&spec.to_params()), canonicalize(&exact));
    }

    #[test]
    fn unknown_keys_are_rejected_not_ignored() {
        let v = with_key(cohort_params(), "warm_start", Value::U64(1));
        assert!(matches!(RunSpec::from_params(&v), Err(SpecError::Unsupported(_))));
        // Lens-only knobs are unknown keys in the service shapes.
        let v = with_key(cohort_params(), "stop", json!("horizon"));
        assert!(matches!(RunSpec::from_params(&v), Err(SpecError::Unsupported(_))));
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
        let spec = RunSpec::from_params(&v).unwrap();
        let reparsed = RunSpec::from_params(&spec.to_params()).unwrap();
        assert_eq!(reparsed.engine, EngineKind::Multihop);
        assert_eq!(reparsed.discipline, RngDiscipline::Counter);
        assert_eq!(canonicalize(&reparsed.to_params()), canonicalize(&spec.to_params()));
    }

    #[test]
    fn impossible_combinations_fail_validation() {
        let lesu = json!({"proto": "lesu"});
        let invalid = [
            // Cluster protocol outside multihop.
            run_params("exact", 8, json!({"proto": "cluster", "eps": 0.5f64})),
            // Topology on the exact engine.
            with_key(run_params("exact", 8, lesu.clone()), "topology", json!("dense-linear:2,4")),
            // Topology that does not fit n.
            with_key(
                run_params("multihop", 5, lesu.clone()),
                "topology",
                json!("dense-linear:3,2"),
            ),
        ];
        for v in &invalid {
            assert!(RunSpec::from_params(v).is_err(), "{v:?}");
        }
        // Out-of-range values the constructors would panic on.
        let out_of_range = [
            run_params("exact", 0, lesu.clone()),
            with_key(cohort_params(), "n", Value::U64(0)),
            run_params("cohort", 8, json!({"proto": "lesk", "eps": 1.5f64})),
            run_params("cohort", 8, json!({"proto": "lesk", "eps": 0.0f64})),
            run_params("cohort", 8, json!({"proto": "lesk", "eps": 0.5f64, "divisor": 0.0f64})),
            run_params("cohort", 8, json!({"proto": "lesk", "eps": 0.5f64, "divisor": -2.0f64})),
            run_params("cohort", 8, json!({"proto": "lesk", "eps": 0.5f64, "divisor": f64::NAN})),
            run_params("cohort", 8, json!({"proto": "arss", "gamma": 0.0f64})),
            run_params("cohort", 8, json!({"proto": "arss", "gamma": 1.5f64})),
            run_params("multihop", 6, json!({"proto": "cluster", "eps": 1.0f64})),
        ];
        for v in &out_of_range {
            assert!(matches!(RunSpec::from_params(v), Err(SpecError::Invalid(_))), "{v:?}");
        }
    }

    #[test]
    fn topology_parser_accepts_all_cli_forms() {
        assert!(matches!(parse_topology("complete").unwrap().0, Topology::Complete));
        let (_, clusters) = parse_topology("dense-linear:3,4").unwrap();
        assert_eq!(clusters.unwrap().len(), 12);
        let (_, clusters) = parse_topology("core-tail:4,3").unwrap();
        assert_eq!(clusters.unwrap().len(), 7);
        assert!(parse_topology("unit-disk:16,0.5,7").is_ok());
        assert!(parse_topology("unit-disk:16385,0.5,7").is_err());
        assert!(parse_topology("moebius:4").is_err());
    }

    #[test]
    fn batch_is_exact_election_only_and_bit_identical() {
        let exact =
            RunSpec::from_params(&with_key(cohort_params(), "kind", json!("exact_election")))
                .unwrap();
        let seeds = [3u64, 41, 77];
        let batched = exact.run_batch(&seeds).unwrap();
        for (seed, got) in seeds.iter().zip(&batched) {
            assert_eq!(got, &exact.run(*seed).unwrap(), "seed {seed}");
        }
        let cohort = RunSpec::from_params(&cohort_params()).unwrap();
        assert!(cohort.check_batchable().is_err());
        assert!(matches!(cohort.run_batch(&seeds), Err(SpecError::Unsupported(_))));
    }

    #[test]
    fn salt_rule() {
        assert_eq!(EngineKind::Cohort.cache_tag(), "exact");
        assert_eq!(EngineKind::Exact.cache_tag(), "exact");
        assert_eq!(EngineKind::FastExact.cache_tag(), "fast-exact");
        assert_eq!(EngineKind::Batch.cache_tag(), "fast-exact", "batch aliases fast-exact");
    }

    fn arb_proto() -> impl Strategy<Value = ProtoSpec> {
        prop_oneof![
            (0.01f64..0.99, 0usize..3, 0usize..3).prop_map(|(eps, d, u)| ProtoSpec::Lesk {
                eps,
                divisor: [None, Some(0.6), Some(8.0)][d],
                u0: [None, Some(0.0), Some(6.5)][u],
            }),
            Just(ProtoSpec::Lesu),
            Just(ProtoSpec::Backoff),
            Just(ProtoSpec::Willard),
            (0.01f64..1.0).prop_map(|gamma| ProtoSpec::Arss { gamma }),
        ]
    }

    fn arb_adv() -> impl Strategy<Value = AdversarySpec> {
        prop_oneof![
            Just(AdversarySpec::passive()),
            (0.1f64..0.9, 1u64..16).prop_map(|(eps, t)| AdversarySpec::new(
                Rate::from_f64(eps),
                t,
                JamStrategyKind::Saturating
            )),
            Just(AdversarySpec::new(
                Rate::from_f64(0.5),
                8,
                JamStrategyKind::AdaptiveEstimator {
                    n: 8,
                    protocol_eps: 0.5,
                    band: 3.0,
                    initial_u: 0.0
                }
            )),
        ]
    }

    /// Tiny valid specs on every single-channel engine, in all three tree
    /// shapes.
    fn arb_spec() -> impl Strategy<Value = RunSpec> {
        let engines =
            [EngineKind::Cohort, EngineKind::Exact, EngineKind::FastExact, EngineKind::Batch];
        let cds = [CdModel::Strong, CdModel::Weak, CdModel::NoCd];
        let stops = [StopRule::FirstCleanSingle, StopRule::AllTerminated, StopRule::Horizon];
        (
            (arb_proto(), arb_adv()),
            (0usize..4, 0usize..3, 0usize..3),
            (1u64..9, 1u64..65, prop_oneof![Just(0.0f64), 0.0f64..0.5]),
        )
            .prop_map(move |((proto, adv), (e, c, s), (n, max_slots, noise))| RunSpec {
                stop: stops[s],
                noise,
                ..RunSpec::with_engine(
                    &RunSpec::cohort(n, cds[c], &adv, max_slots, proto),
                    engines[e],
                    RngDiscipline::Shared,
                )
                .expect("single-channel engines take every protocol but cluster")
            })
    }

    /// Top-level or `proto`-level keys no tree shape knows.
    const STRAY_KEYS: [&str; 5] = ["warm_start", "batch_width", "seed", "u1", "gama"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A valid spec re-emits the same tree after a parse, and runs.
        #[test]
        fn valid_specs_round_trip_and_run(spec in arb_spec(), seed in 0u64..1_000) {
            let tree = spec.to_params();
            let reparsed = RunSpec::from_params(&tree);
            prop_assert!(reparsed.is_ok(), "{tree:?}: {:?}", reparsed.err());
            prop_assert_eq!(reparsed.unwrap().to_params(), tree);
            prop_assert!(spec.run(seed).is_ok());
        }

        /// An unknown key, at the top level or inside `proto`, is refused.
        #[test]
        fn unknown_keys_are_always_unsupported(
            spec in arb_spec(),
            pick in (0usize..5, any::<bool>()),
        ) {
            let (key, in_proto) = (STRAY_KEYS[pick.0], pick.1);
            let mut tree = spec.to_params();
            if in_proto {
                let proto = with_key(tree.get("proto").unwrap().clone(), key, Value::U64(1));
                tree = with_key(tree, "proto", proto);
            } else {
                tree = with_key(tree, key, Value::U64(1));
            }
            let got = RunSpec::from_params(&tree);
            prop_assert!(matches!(got, Err(SpecError::Unsupported(_))), "{tree:?}: {got:?}");
        }

        /// Replacing any value with one of the wrong JSON type is an
        /// error, never a panic.
        #[test]
        fn ill_typed_values_are_always_rejected(
            spec in arb_spec(),
            pick in (0usize..64, 0usize..5, any::<bool>()),
        ) {
            let bad = [
                Value::Str("?".into()),
                Value::Bool(true),
                Value::Null,
                Value::Seq(vec![]),
                Value::I64(-1),
            ][pick.1]
                .clone();
            let tree = spec.to_params();
            let target = if pick.2 { tree.get("proto").unwrap().clone() } else { tree.clone() };
            let keys: Vec<String> =
                target.as_map().unwrap().iter().map(|(k, _)| k.clone()).collect();
            let key = &keys[pick.0 % keys.len()];
            let tree = if pick.2 {
                with_key(tree, "proto", with_key(target, key, bad))
            } else {
                with_key(tree, key, bad)
            };
            prop_assert!(RunSpec::from_params(&tree).is_err(), "{tree:?}");
        }

        /// Out-of-range numbers are `Invalid` at parse time, not a later
        /// constructor panic.
        #[test]
        fn out_of_range_values_are_always_invalid(
            spec in arb_spec(),
            low in -10.0f64..0.0,
            high in 1.0f64..10.0,
            pick in 0usize..7,
        ) {
            let lesk = |k: &str, x: f64| {
                let proto = json!({"proto": "lesk", "eps": 0.5f64});
                with_key(proto, k, Value::F64(x))
            };
            let tree = spec.to_params();
            let tree = match pick {
                0 => with_key(tree, "n", Value::U64(0)),
                1 => with_key(tree, "proto", lesk("eps", high)),
                2 => with_key(tree, "proto", lesk("eps", low)),
                3 => with_key(tree, "proto", lesk("divisor", low)),
                4 => with_key(tree, "proto", lesk("divisor", f64::NAN)),
                5 => with_key(tree, "proto", json!({"proto": "arss", "gamma": high + 1e-9})),
                _ => with_key(tree, "proto", json!({"proto": "arss", "gamma": low})),
            };
            let got = RunSpec::from_params(&tree);
            prop_assert!(matches!(got, Err(SpecError::Invalid(_))), "{tree:?}: {got:?}");
        }
    }
}
