//! E25 — open-world elections: churn, leader leases, and split brain.
//!
//! E24 relaxed the perfect-station assumption; E25 drops the closed-world
//! one. Stations *join* mid-run with fresh state, *leave*, and *rejoin*
//! with history lost ([`jle_engine::ChurnPlan`]), and the run never
//! terminates on its own — [`StopRule::Horizon`] makes the horizon the
//! measurement window. A one-shot election is useless here, so every
//! station runs [`LeaseProtocol`]: the winner keeps a lease alive with
//! periodic beacons, followers run missed-beacon loss detection, and on
//! lease loss the cohort re-enters election (each station's inner
//! election is a [`Supervisor`](jle_protocols::Supervisor)-wrapped LESK, so E24's restart machinery
//! guards each attempt). A shared [`LeaderLedger`] plus
//! [`SplitBrainObserver`] measures what the protocol cannot see: slot
//! windows with two or more concurrent leadership believers, and how
//! long they take to resolve.
//!
//! Claims measured (not proven — the paper's theorems say nothing about
//! churn): (1) *convergence* — once churn stops, the cohort converges
//! back to exactly one live believer well before the horizon, and every
//! split-brain window resolves (the tables report the worst observed
//! resolution time as the measured bound); (2) *churn pricing* — re-
//! election count and split-brain exposure grow with churn rate and with
//! jamming strength; (3) *estimation drift* — joiners start from a fresh
//! estimate, so LESK's estimate error against the *live* station count
//! grows with churn even though the closed-world dynamics are unbiased.

use std::sync::{Arc, Mutex};

use crate::common::{median, saturating, ExpContext, ExperimentResult};
use jle_adversary::AdversarySpec;
use jle_analysis::{fmt, Figure, Series, Table};
use jle_engine::{
    catch_trial, run_exact_churn, ChurnPlan, FaultPlan, FaultyStations, LeaderLedger, Outcome,
    PerStation, Protocol, RunReport, SimConfig, SimCore, SplitBrainObserver, StopRule,
    TelemetryObserver, TrialOutcome,
};
use jle_orchestrator::WorkSpec;
use jle_protocols::{
    LeaseConfig, LeaseLossCause, LeaseProtocol, LeskProtocol, ReElectionRecord, ReElectionSink,
};
use jle_radio::CdModel;
use jle_telemetry::AnomalyKind;
use serde::{Serialize, Value};

const N: u64 = 24;
const T_WINDOW: u64 = 32;
/// Inner-election watchdog (same sane default as E24).
const WATCHDOG: u64 = 16_384;
/// Salt decoupling churn-plan streams from the engine seed.
const PLAN_SALT: u64 = 0xC4C4;
/// Leader beacon period.
const BEACON: u64 = 8;
/// Consecutive jammed beacons tolerated before the leader steps down.
/// The saturating jammer's burst is `(1-eps)·T` slots, i.e. at most
/// three consecutive beacons at the swept `eps`, so honest leaders
/// survive jamming alone and step-downs signal real contention.
const MISS_TOL: u32 = 10;
/// Follower missed-beacon watchdog (initial; doubles per firing) and the
/// ledger's belief TTL.
const LEASE_TIMEOUT: u64 = 512;

fn lease_config() -> LeaseConfig {
    LeaseConfig::new(BEACON, MISS_TOL, LEASE_TIMEOUT)
}

/// Churn plan for one seed: joiners staggered into the first eighth of
/// the horizon, leaves in the first quarter, optionally rejoining one
/// eighth later — so all churn is over by `3/8 · horizon` and the tail
/// tests convergence. Without rejoins, departures are permanent (the
/// *exodus* mode): a departed leader leaves nobody mid-election, so the
/// follower silence watchdog is the only recovery path and every leader
/// departure forces a measurable re-election.
fn churn_of(seed: u64, prob: f64, horizon: u64, rejoin: bool) -> ChurnPlan {
    let plan = ChurnPlan::new(seed ^ PLAN_SALT)
        .with_staggered_joins(N, prob, horizon / 8)
        .with_random_leaves(N, prob, horizon / 4);
    if rejoin {
        plan.with_rejoins(horizon / 8)
    } else {
        plan
    }
}

/// Canonical parameter tree of one open-world arm. The churn *descriptor*
/// (per-seed plans are derived from it) is part of the cache key, so a
/// cached sweep can never mix plans.
fn arm_params(
    adv: &AdversarySpec,
    horizon: u64,
    churn_prob: f64,
    rejoin: bool,
    proto: Value,
) -> Value {
    serde_json::json!({
        "kind": "open_world_election",
        "n": N,
        "adv": adv.to_json_value(),
        "horizon": horizon,
        "churn": {
            "prob": churn_prob,
            "join_window": horizon / 8,
            "leave_window": horizon / 4,
            "rejoin_after": if rejoin { horizon / 8 } else { 0 },
            "salt": PLAN_SALT,
        },
        "proto": proto,
    })
}

/// Measured statistics of one lease arm.
struct LeaseArmStats {
    /// Fraction of runs ending with exactly one live believer.
    converged: f64,
    med_latency: f64,
    mean_reelections: f64,
    mean_split_windows: f64,
    mean_split_slots: f64,
    /// Worst observed split-brain window (slots) — the measured
    /// resolution bound.
    max_split: u64,
    panics: u64,
}

/// One line summarizing a trial's lease losses, for the flight-recorder
/// detail field.
fn summarize_losses(log: &[ReElectionRecord]) -> String {
    let count = |c: LeaseLossCause| log.iter().filter(|r| r.cause == c).count();
    format!(
        "{} lease loss(es): {} silence, {} beacon contention; first at slot {} (station {})",
        log.len(),
        count(LeaseLossCause::Silence),
        count(LeaseLossCause::BeaconContention),
        log[0].slot,
        log[0].station,
    )
}

/// Run one lease arm as a cacheable work unit: `trials` open-world runs
/// at churn probability `churn_prob`, each with its own ledger and
/// split-brain observer. Returns per-trial `(report, lease_losses)`.
#[allow(clippy::too_many_arguments)]
fn run_lease_arm(
    ctx: &ExpContext,
    point: &str,
    params: Value,
    trials: u64,
    base_seed: u64,
    horizon: u64,
    adv: &AdversarySpec,
    eps: f64,
    churn_prob: f64,
    rejoin: bool,
) -> LeaseArmStats {
    let recorder = ctx.flight_recorder().cloned();
    let metrics = recorder
        .as_ref()
        .map(|_| jle_engine::EngineMetrics::register(ctx.orchestrator().stats().registry()));
    let fingerprint = recorder.as_ref().map(|_| {
        ctx.orchestrator().fingerprint_hex::<(TrialOutcome<RunReport>, u64)>(&WorkSpec::new(
            "e25",
            point,
            params.clone(),
            base_seed,
        ))
    });
    let outcomes: Vec<(TrialOutcome<RunReport>, u64)> =
        ctx.run_trials("e25", point, params, base_seed, trials, |seed| {
            let ledger = LeaderLedger::new(LEASE_TIMEOUT);
            let losses: Arc<Mutex<Vec<ReElectionRecord>>> = Arc::new(Mutex::new(Vec::new()));
            let sink: ReElectionSink = {
                let log = Arc::clone(&losses);
                Arc::new(move |r: &ReElectionRecord| log.lock().expect("loss log").push(*r))
            };
            let factory = {
                let ledger = Arc::clone(&ledger);
                move |i: u64| -> Box<dyn Protocol> {
                    Box::new(
                        LeaseProtocol::over_supervised_lesk(
                            i,
                            eps,
                            WATCHDOG,
                            lease_config(),
                            Arc::clone(&ledger),
                        )
                        .with_reelection_sink(Arc::clone(&sink)),
                    )
                }
            };
            let out = catch_trial(|| {
                let config = SimConfig::new(N, CdModel::Strong)
                    .with_seed(seed)
                    .with_max_slots(horizon)
                    .with_stop(StopRule::Horizon);
                let plan = churn_of(seed, churn_prob, horizon, rejoin).overlay(&FaultPlan::empty());
                let mut split = SplitBrainObserver::new(Arc::clone(&ledger));
                let mut stations = FaultyStations::new(&config, &plan, factory);
                match &recorder {
                    None => SimCore::new(&config, adv).observe(&mut split).run(&mut stations),
                    Some(rec) => {
                        let mut obs = TelemetryObserver::new(&config)
                            .with_flight_recorder(Arc::clone(rec))
                            .with_context("experiment", "e25")
                            .with_context("point", point);
                        if let Some(m) = &metrics {
                            obs = obs.with_metrics(m.clone());
                        }
                        if let Some(fp) = &fingerprint {
                            obs = obs.with_fingerprint(fp.clone());
                        }
                        // The split observer deposits its stats in
                        // `finish`, before the telemetry observer's
                        // `after_run` classifies the outcome — so
                        // unresolved splits dump `split_brain` anomalies.
                        let report = SimCore::new(&config, adv)
                            .observe(&mut split)
                            .observe(&mut obs)
                            .run(&mut stations);
                        let log = losses.lock().expect("loss log");
                        if !log.is_empty() {
                            obs.dump_anomaly(AnomalyKind::LeaseLost, summarize_losses(&log));
                        }
                        report
                    }
                }
            });
            if let (Some(rec), Some(msg)) = (&recorder, out.panic_message()) {
                let _ = jle_engine::telemetry::dump_panic(rec, seed, fingerprint.as_deref(), msg);
            }
            let n_losses = losses.lock().expect("loss log").len() as u64;
            (out, n_losses)
        });
    let panics = outcomes.iter().filter(|(o, _)| o.is_panicked()).count() as u64;
    let reports: Vec<&RunReport> = outcomes.iter().filter_map(|(o, _)| o.as_ok()).collect();
    let done = reports.len().max(1) as f64;
    let latencies: Vec<f64> =
        reports.iter().filter_map(|r| r.resolved_at).map(|s| s as f64).collect();
    let mean =
        |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r) as f64).sum::<f64>() / done;
    LeaseArmStats {
        converged: reports.iter().filter(|r| r.outcome() == Outcome::Elected).count() as f64 / done,
        med_latency: if latencies.is_empty() { f64::NAN } else { median(&latencies) },
        mean_reelections: mean(&|r| r.split_brain.reelections),
        mean_split_windows: mean(&|r| r.split_brain.windows),
        mean_split_slots: mean(&|r| r.split_brain.split_slots),
        max_split: reports.iter().map(|r| r.split_brain.longest_split).max().unwrap_or(0),
        panics,
    }
}

/// Run one estimation-drift arm: plain LESK to first clean `Single`
/// under churn, measuring the final estimate `u` against `log2` of the
/// stations actually live at resolution. Returns per-trial
/// `(report, u − log2(live))`.
#[allow(clippy::too_many_arguments)]
fn run_estimate_arm(
    ctx: &ExpContext,
    point: &str,
    params: Value,
    trials: u64,
    base_seed: u64,
    horizon: u64,
    adv: &AdversarySpec,
    eps: f64,
    churn_prob: f64,
) -> (f64, f64) {
    let outcomes: Vec<(TrialOutcome<RunReport>, f64)> =
        ctx.run_trials("e25", point, params, base_seed, trials, |seed| {
            let out = catch_trial(|| {
                let config = SimConfig::new(N, CdModel::Strong)
                    .with_seed(seed)
                    .with_max_slots(horizon)
                    .with_trace(true);
                let plan = churn_of(seed, churn_prob, horizon, true);
                let mut report = run_exact_churn(&config, adv, &plan, move |_| {
                    Box::new(PerStation::new(LeskProtocol::new(eps)))
                });
                let u_final = report.trace.as_ref().and_then(|t| t.estimates.last().copied());
                let at = report.resolved_at.unwrap_or(report.slots);
                let live = plan.live_at(at, N).max(1) as f64;
                // Strip the trace before the report enters the cache:
                // only the drift number is needed downstream.
                report.trace = None;
                let drift = u_final.map(|u| u - live.log2()).unwrap_or(f64::NAN);
                (report, drift)
            });
            match out {
                TrialOutcome::Ok((report, drift)) => (TrialOutcome::Ok(report), drift),
                TrialOutcome::Panicked(msg) => (TrialOutcome::Panicked(msg), f64::NAN),
            }
        });
    let drifts: Vec<f64> = outcomes
        .iter()
        .filter(|(o, d)| o.as_ok().is_some() && d.is_finite())
        .map(|(_, d)| *d)
        .collect();
    let abs: Vec<f64> = drifts.iter().map(|d| d.abs()).collect();
    if drifts.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (median(&drifts), median(&abs))
    }
}

/// Run E25.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e25",
        "open-world elections: churn, leader leases, and split brain",
        "outside the formal model (closed-world assumption relaxed)",
    );
    let trials = if quick { 10 } else { 50 };
    let horizon: u64 = if quick { 16_384 } else { 65_536 };
    let lease_proto = serde_json::json!({
        "proto": "lease/supervised-lesk",
        "beacon": BEACON,
        "miss_tol": MISS_TOL,
        "lease_timeout": LEASE_TIMEOUT,
        "watchdog": WATCHDOG,
    });

    // ── Table 1: churn-rate × churn-mode × jamming sweep ───────────────
    //
    // Two churn modes: *rejoin* (departed stations come back fresh — the
    // returning electors' Singles quietly hand leadership over, so
    // explicit re-elections are rare) and *exodus* (departures are
    // permanent — a departed leader leaves only settled followers behind,
    // so the silence watchdog is the sole recovery path and re-elections
    // are the measurement).
    let eps_sweep: Vec<f64> = if quick { vec![0.5] } else { vec![0.5, 0.25] };
    let modes: Vec<(&str, f64, bool)> = if quick {
        vec![("closed", 0.0, true), ("rejoin", 0.5, true), ("exodus", 0.5, false)]
    } else {
        vec![
            ("closed", 0.0, true),
            ("rejoin", 0.25, true),
            ("rejoin", 0.5, true),
            ("exodus", 0.25, false),
            ("exodus", 0.5, false),
        ]
    };
    let mut t1 = Table::new([
        "eps",
        "churn mode",
        "churn prob",
        "converged",
        "median latency",
        "re-elections/run",
        "split windows/run",
        "split slots/run",
        "max split (slots)",
        "panicked trials",
    ]);
    let mut fig = Figure::new(
        "split-brain exposure vs churn rate",
        "per-station churn probability",
        "mean split-brain slots per run",
    );
    let mut all_converged = true;
    let mut worst_split = 0u64;
    // (eps, mode, churn, mean re-elections) for the data-derived notes.
    let mut reelect_log: Vec<(f64, &str, f64, f64)> = Vec::new();
    for (ei, &eps) in eps_sweep.iter().enumerate() {
        let adv = saturating(eps, T_WINDOW);
        let mut series = Series::new(format!("eps={eps} (rejoin)"));
        for (ci, &(mode, churn, rejoin)) in modes.iter().enumerate() {
            let base_seed = 250_000 + (ei * 10 + ci) as u64 * 101;
            let a = run_lease_arm(
                ctx,
                &format!("lease/eps={eps}/{mode}/churn={churn}"),
                arm_params(&adv, horizon, churn, rejoin, lease_proto.clone()),
                trials,
                base_seed,
                horizon,
                &adv,
                eps,
                churn,
                rejoin,
            );
            all_converged &= a.converged >= 0.9;
            worst_split = worst_split.max(a.max_split);
            reelect_log.push((eps, mode, churn, a.mean_reelections));
            if rejoin {
                series.push(churn, a.mean_split_slots);
            }
            t1.push_row([
                format!("{eps}"),
                mode.to_string(),
                format!("{churn:.2}"),
                format!("{:.2}", a.converged),
                fmt(a.med_latency),
                format!("{:.2}", a.mean_reelections),
                format!("{:.2}", a.mean_split_windows),
                format!("{:.1}", a.mean_split_slots),
                format!("{}", a.max_split),
                format!("{}", a.panics),
            ]);
        }
        fig = fig.with_series(series);
    }
    result.add_table(
        &format!(
            "leases under churn (n={N}, beacon {BEACON}, miss tolerance {MISS_TOL}, \
             lease timeout {LEASE_TIMEOUT}, horizon {horizon}, churn quiet after \
             3/8 of the horizon)"
        ),
        t1,
    );
    result.add_figure(fig);
    result.note(format!(
        "convergence (>= 90% of runs end with exactly one live believer): {}",
        if all_converged { "HELD" } else { "VIOLATED" }
    ));
    result.note(format!(
        "worst observed split-brain window: {worst_split} slot(s) — every split resolved \
         within {} lease timeout(s); abdication-on-rival-beacon resolves phase-distinct \
         splits in at most one beacon period once jamming relents",
        (worst_split / LEASE_TIMEOUT) + 1,
    ));
    // The exodus-vs-rejoin contrast is only attributable to *churn* at an
    // eps where the closed-world baseline barely re-elects (the lease is
    // provisioned for the jamming rate); where even the closed world
    // thrashes, the jammer — not the churn mode — owns the count.
    let closed_at = |eps: f64| {
        reelect_log
            .iter()
            .find(|(e, m, _, _)| *e == eps && *m == "closed")
            .map(|&(_, _, _, r)| r)
            .unwrap_or(0.0)
    };
    let peak_at = |eps: f64, mode: &str| {
        reelect_log
            .iter()
            .filter(|(e, m, _, _)| *e == eps && *m == mode)
            .map(|&(_, _, _, r)| r)
            .fold(0.0f64, f64::max)
    };
    for &eps in &eps_sweep {
        let (closed, rejoin, exodus) =
            (closed_at(eps), peak_at(eps, "rejoin"), peak_at(eps, "exodus"));
        if closed < 1.0 {
            result.note(format!(
                "eps={eps}: the lease is provisioned for the jamming rate (closed-world \
                 baseline {closed:.2} re-elections/run), so the re-election count is governed \
                 by *how* stations leave — permanent departures force the silence watchdog \
                 ({exodus:.1}/run) roughly {:.1}x more often than departures that rejoin \
                 ({rejoin:.1}/run), whose returning electors' Singles hand leadership over \
                 without the watchdog firing",
                if rejoin > 0.0 { exodus / rejoin } else { f64::NAN },
            ));
        } else {
            result.note(format!(
                "eps={eps}: lease constants are a function of the jamming rate — the \
                 saturating jammer erases beacons faster than miss tolerance {MISS_TOL} \
                 forgives, so even the closed world thrashes ({closed:.0} re-elections/run, \
                 ~one per step-down + election cycle) and churn mode no longer matters \
                 (rejoin {rejoin:.0}, exodus {exodus:.0}); availability degrades to repeated \
                 re-election while safety holds (every run still converges to one believer)"
            ));
        }
    }

    // ── Table 2: estimation drift as n drifts ──────────────────────────
    let adv = saturating(0.5, T_WINDOW);
    let lesk_proto = serde_json::json!({"proto": "lesk", "eps": 0.5});
    let mut t2 = Table::new(["churn prob", "median drift (u - log2 live)", "median |drift|"]);
    let drift_probs: Vec<f64> = if quick { vec![0.0, 0.5] } else { vec![0.0, 0.25, 0.5] };
    for (ci, &churn) in drift_probs.iter().enumerate() {
        let (drift, abs) = run_estimate_arm(
            ctx,
            &format!("estimate/churn={churn}"),
            arm_params(&adv, horizon, churn, true, lesk_proto.clone()),
            trials,
            251_000 + ci as u64 * 101,
            horizon,
            &adv,
            0.5,
            churn,
        );
        t2.push_row([format!("{churn:.2}"), format!("{drift:+.2}"), format!("{abs:.2}")]);
    }
    result.add_table(
        "LESK estimate vs live station count under churn (eps=0.5): joiners restart from \
         a fresh estimate, so error against the drifting ground truth grows with churn",
        t2,
    );
    result.note(
        "open-world runs use StopRule::Horizon: reaching the horizon is the expected \
         outcome, and Outcome classification is delegated to the leader ledger \
         (exactly one live believer = Elected, two or more = SplitBrain)"
            .to_string(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_consistent() {
        let r = super::run(&crate::common::ExpContext::ephemeral(true));
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.figures.len(), 1);
        assert!(
            r.notes.iter().any(|n| n.contains("HELD")),
            "open-world convergence must hold: {:?}",
            r.notes
        );
    }

    /// The convergence property, directly: a single churned run ends
    /// with exactly one live believer, and the report says so.
    #[test]
    fn churned_run_converges_to_one_believer() {
        let horizon = 16_384;
        let eps = 0.5;
        let adv = saturating(eps, T_WINDOW);
        let config = SimConfig::new(N, CdModel::Strong)
            .with_seed(0xE25)
            .with_max_slots(horizon)
            .with_stop(StopRule::Horizon);
        let plan = churn_of(0xE25, 0.5, horizon, true).overlay(&FaultPlan::empty());
        let ledger = LeaderLedger::new(LEASE_TIMEOUT);
        let factory = {
            let ledger = Arc::clone(&ledger);
            move |i: u64| -> Box<dyn Protocol> {
                Box::new(LeaseProtocol::over_supervised_lesk(
                    i,
                    eps,
                    WATCHDOG,
                    lease_config(),
                    Arc::clone(&ledger),
                ))
            }
        };
        let mut split = SplitBrainObserver::new(Arc::clone(&ledger));
        let mut stations = FaultyStations::new(&config, &plan, factory);
        let report = SimCore::new(&config, &adv).observe(&mut split).run(&mut stations);
        assert_eq!(report.slots, horizon, "horizon runs go the distance");
        assert!(!report.timed_out && !report.cap_hit, "the horizon is not a timeout");
        assert!(report.split_brain.tracked);
        assert_eq!(
            report.split_brain.believers.len(),
            1,
            "exactly one live believer once churn stops: {:?}",
            report.split_brain
        );
        assert_eq!(report.outcome(), Outcome::Elected);
    }
}
