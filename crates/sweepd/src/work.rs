//! Server-side work registry: parameter tree → trial closure.
//!
//! A submitted [`jle_orchestrator::WorkSpec`] carries only data; the
//! closure that runs a trial is rebuilt here from `spec.params` through
//! the workspace's one run grammar, [`RunSpec`] (`jle_protocols::spec`).
//! The experiments key their units with [`RunSpec::to_params`] and this
//! registry executes [`RunSpec::from_params`] of the same tree, so a
//! served unit is bit-identical to the local run that shares its
//! [`jle_orchestrator::ResultStore`] entry.
//!
//! The service runs two kinds: `cohort_election` and `exact_election`
//! (the latter through the batched backend when [`build_batch_fn`]
//! allows). Parsing is strict — an unknown key is
//! [`SpecError::Unsupported`], never ignored, and an out-of-range value
//! is [`SpecError::Invalid`] at admission — and clients fall back to
//! local computation for unsupported trees.

use jle_engine::RunReport;
use jle_protocols::spec::{RunSpec, SpecError};
use serde::Value;

/// A reconstructed per-trial closure: seed → report.
pub type TrialFn = Box<dyn Fn(u64) -> RunReport + Send + Sync>;

/// A reconstructed batch closure: seed slice → one report per seed, in
/// seed order, each bit-identical to what the [`TrialFn`] for the same
/// tree returns for that seed — the contract that lets batch-computed
/// chunks share cache entries with per-trial ones.
pub type BatchFn = Box<dyn Fn(&[u64]) -> Vec<RunReport> + Send + Sync>;

/// Parse a tree of a kind this service runs. `election_run` trees are
/// the lens's replay superset and stay local.
fn parse(params: &Value) -> Result<RunSpec, SpecError> {
    if params.get("kind").and_then(Value::as_str) == Some("election_run") {
        return Err(SpecError::Unsupported("election_run trees are replayed, not served".into()));
    }
    RunSpec::from_params(params)
}

/// Turn a submitted parameter tree into a runnable trial closure.
pub fn build_trial_fn(params: &Value) -> Result<TrialFn, SpecError> {
    let spec = parse(params)?;
    Ok(Box::new(move |seed| spec.run(seed).expect("single-channel specs always run")))
}

/// Turn a parameter tree into a batch closure, when the kind has a batch
/// backend whose per-trial output is bit-identical to its [`TrialFn`]:
/// `exact_election` only ([`RunSpec::check_batchable`]). `cohort_election` is
/// refused — cohort bits are not fast-exact bits.
pub fn build_batch_fn(params: &Value) -> Result<BatchFn, SpecError> {
    let spec = parse(params)?;
    spec.check_batchable()?;
    Ok(Box::new(move |seeds| spec.run_batch(seeds).expect("batchable: checked at build")))
}

/// The orchestrator engine-mode tag a tree's results are cached under:
/// [`jle_protocols::EngineKind::cache_tag`] of its engine (`fast-exact`
/// for `exact_election`, the default `exact` otherwise).
pub fn engine_mode_of(params: &Value) -> &'static str {
    parse(params).map_or("exact", |spec| spec.engine.cache_tag())
}

/// Whether a parameter tree names work this server type can execute —
/// the client-side routing predicate behind the bench CLIs' `--server`
/// mode (supported trees go to the service, the rest run locally).
pub fn is_supported(params: &Value) -> bool {
    parse(params).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jle_adversary::AdversarySpec;
    use jle_engine::{run_cohort, SimConfig};
    use jle_protocols::LeskProtocol;
    use jle_radio::CdModel;
    use serde::Serialize;
    use serde_json::json;

    fn params(proto: Value) -> Value {
        json!({
            "kind": "cohort_election",
            "n": 32u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 100_000u64,
            "proto": proto,
        })
    }

    #[test]
    fn reconstructed_closure_matches_direct_run_bit_for_bit() {
        let f = build_trial_fn(&params(json!({"proto": "lesk", "eps": 0.5f64}))).unwrap();
        for seed in [1u64, 7, 99] {
            let direct = run_cohort(
                &SimConfig::new(32, CdModel::Strong).with_seed(seed).with_max_slots(100_000),
                &AdversarySpec::passive(),
                || LeskProtocol::new(0.5),
            );
            assert_eq!(
                serde_json::to_string(&f(seed)).unwrap(),
                serde_json::to_string(&direct).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn all_uniform_protocols_are_supported() {
        for proto in [
            json!({"proto": "lesk", "eps": 0.3f64}),
            json!({"proto": "lesu"}),
            json!({"proto": "backoff"}),
            json!({"proto": "willard"}),
            json!({"proto": "lesk", "eps": 0.3f64, "u0": 4.5f64}),
            json!({"proto": "lesk", "eps": 0.3f64, "divisor": 2.0f64, "u0": 0.0f64}),
            json!({"proto": "arss", "gamma": 0.25f64}),
        ] {
            let p = params(proto.clone());
            assert!(is_supported(&p), "{proto:?}");
            let f = build_trial_fn(&p).unwrap();
            let report = f(5);
            assert!(report.slots > 0);
        }
    }

    #[test]
    fn unknown_keys_are_unsupported_not_ignored() {
        // A knob the server does not know must not be silently
        // dropped — that would poison the shared cache.
        let p = params(json!({"proto": "lesk", "eps": 0.5f64, "warm_start": 6u64}));
        assert!(matches!(build_trial_fn(&p), Err(SpecError::Unsupported(_))));
        let mut top = params(json!({"proto": "lesu"}));
        if let Value::Map(m) = &mut top {
            m.push(("faults".into(), json!({"crash": 1u64})));
        }
        assert!(matches!(build_trial_fn(&top), Err(SpecError::Unsupported(_))));
    }

    fn exact_params(proto: Value) -> Value {
        json!({
            "kind": "exact_election",
            "n": 12u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 4_000u64,
            "proto": proto,
        })
    }

    #[test]
    fn exact_election_batch_is_bit_identical_to_its_trial_fn() {
        // The routing contract: for every supported protocol, the batch
        // closure's per-seed reports equal the per-trial closure's — this
        // is what makes sharing cache entries between the two safe.
        for proto in [
            json!({"proto": "lesk", "eps": 0.3f64}),
            json!({"proto": "lesu"}),
            json!({"proto": "backoff"}),
            json!({"proto": "willard"}),
            json!({"proto": "lesk", "eps": 0.3f64, "u0": 4.5f64}),
            json!({"proto": "lesk", "eps": 0.3f64, "divisor": 2.0f64, "u0": 0.0f64}),
            json!({"proto": "arss", "gamma": 0.25f64}),
        ] {
            let p = exact_params(proto.clone());
            assert!(is_supported(&p), "{proto:?}");
            let trial_fn = build_trial_fn(&p).unwrap();
            let batch_fn = build_batch_fn(&p).unwrap();
            let seeds = [3u64, 41, 77, 500];
            let batched = batch_fn(&seeds);
            assert_eq!(batched.len(), seeds.len());
            for (seed, got) in seeds.iter().zip(batched.iter()) {
                assert_eq!(
                    serde_json::to_string(got).unwrap(),
                    serde_json::to_string(&trial_fn(*seed)).unwrap(),
                    "{proto:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn cohort_units_never_route_through_the_batch_backend() {
        // Cohort bits are not fast-exact bits; offering them a batch
        // path would cache wrong results under the cohort fingerprint.
        let p = params(json!({"proto": "lesu"}));
        assert!(matches!(build_batch_fn(&p), Err(SpecError::Unsupported(_))));
        assert_eq!(engine_mode_of(&p), "exact", "cohort caches keep their existing salt");
        assert_eq!(engine_mode_of(&exact_params(json!({"proto": "lesu"}))), "fast-exact");
    }

    #[test]
    fn exact_election_rejects_unknown_keys_like_cohort_does() {
        let p = exact_params(json!({"proto": "lesk", "eps": 0.5f64, "warm_start": 6u64}));
        assert!(matches!(build_trial_fn(&p), Err(SpecError::Unsupported(_))));
        assert!(matches!(build_batch_fn(&p), Err(SpecError::Unsupported(_))));
    }

    #[test]
    fn malformed_trees_are_invalid() {
        assert!(matches!(
            build_trial_fn(&json!({"kind": "cohort_election"})),
            Err(SpecError::Invalid(_))
        ));
        assert!(matches!(
            build_trial_fn(&json!({"kind": "estimation"})),
            Err(SpecError::Unsupported(_))
        ));
        assert!(matches!(
            build_trial_fn(&params(json!({"proto": "aloha"}))),
            Err(SpecError::Unsupported(_))
        ));
        // Values the protocol constructors or the engine would panic on
        // are refused at admission instead of costing a worker.
        let mut zero_n = params(json!({"proto": "lesu"}));
        if let Value::Map(m) = &mut zero_n {
            m.retain(|(k, _)| k != "n");
            m.push(("n".into(), Value::U64(0)));
        }
        for p in [
            zero_n,
            params(json!({"proto": "arss"})),
            params(json!({"proto": "lesk", "eps": 1.5f64})),
            params(json!({"proto": "lesk", "eps": 0.0f64})),
            params(json!({"proto": "lesk", "eps": 0.5f64, "divisor": 0.0f64})),
            params(json!({"proto": "lesk", "eps": 0.5f64, "divisor": f64::NAN})),
            params(json!({"proto": "arss", "gamma": 0.0f64})),
            params(json!({"proto": "arss", "gamma": 1.5f64})),
        ] {
            assert!(matches!(build_trial_fn(&p), Err(SpecError::Invalid(_))), "{p:?}");
        }
    }
}
