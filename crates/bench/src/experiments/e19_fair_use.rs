//! E19 — fair channel use after election (paper §4 building block), and
//! its limits under jamming.
//!
//! Rank assignment by n-selection, then deterministic TDMA. Against
//! budget-equal adversaries:
//!
//! * oblivious/saturating jamming degrades *throughput* but not
//!   *fairness* (everyone loses equally, Jain ≈ 1);
//! * a **targeted** jammer that spends its budget on one rank's slots
//!   needs only a `1/n` jam rate to starve that station — the public
//!   schedule is the vulnerability, echoing why the reactive-jamming
//!   fairness literature (Richa et al., §1.3 ref \[24\]) is nontrivial.

use crate::common::{saturating, ExpContext, ExperimentResult};
use jle_adversary::AdversarySpec;
use jle_analysis::{fairness, fmt, Table};
use jle_engine::SimConfig;
use jle_protocols::{run_fair_use, targeted_tdma_jammer};
use jle_radio::CdModel;
use serde::Serialize;

#[allow(clippy::type_complexity)] // inline row-projection closures read better than aliases
/// Run E19.
pub fn run(ctx: &ExpContext) -> ExperimentResult {
    let quick = ctx.quick;
    let mut result = ExperimentResult::new(
        "e19",
        "fair use via rank TDMA: throughput vs fairness across adversaries",
        "Section 4 (building blocks); extension — exposes the targeted-jamming limit",
    );
    let eps = 0.5;
    let n = 16u64;
    let rounds = if quick { 30 } else { 200 };
    let trials = if quick { 8 } else { 40 };

    let base = saturating(eps, 8);
    let advs: Vec<(&str, AdversarySpec)> = vec![
        ("none", AdversarySpec::passive()),
        ("saturating", base.clone()),
        ("targeted (rank 0)", targeted_tdma_jammer(&base, n, 0)),
    ];
    let mut table = Table::new([
        "adversary",
        "throughput (deliveries/slot)",
        "Jain index",
        "min share",
        "victim deliveries",
        "median others",
    ]);
    for (i, (name, adv)) in advs.iter().enumerate() {
        let params = serde_json::json!({
            "kind": "fair_use",
            "n": n,
            "eps": eps,
            "rounds": rounds,
            "adv": adv.to_json_value(),
            "max_slots": 2_000_000u64,
        });
        let rows: Vec<(f64, f64, f64, f64, f64)> = ctx.run_trials(
            "e19",
            &format!("adv={name}"),
            params,
            190_000 + i as u64 * 13,
            trials,
            |seed| {
                let config =
                    SimConfig::new(n, CdModel::Strong).with_seed(seed).with_max_slots(2_000_000);
                let r = run_fair_use(&config, adv, rounds, eps);
                assert!(r.setup_completed, "rank assignment must finish");
                let d = r.deliveries_f64();
                let mut others: Vec<f64> = d[1..].to_vec();
                others.sort_by(f64::total_cmp);
                (
                    r.throughput(),
                    fairness::jain_index(&d),
                    fairness::min_share(&d),
                    d[0],
                    others[others.len() / 2],
                )
            },
        );
        let med = |f: &dyn Fn(&(f64, f64, f64, f64, f64)) -> f64| {
            let mut v: Vec<f64> = rows.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        table.push_row([
            name.to_string(),
            format!("{:.3}", med(&|r| r.0)),
            format!("{:.3}", med(&|r| r.1)),
            format!("{:.3}", med(&|r| r.2)),
            fmt(med(&|r| r.3)),
            fmt(med(&|r| r.4)),
        ]);
    }
    result.add_table(&format!("fair use (n={n}, {rounds} TDMA rounds)"), table);
    result.note(
        "budget-equal adversaries split cleanly: saturation halves throughput but keeps the \
         Jain index near 1, while the targeted jammer — spending a mere 1/n jam rate — drives \
         the victim's deliveries to zero; post-election TDMA is fair *on average* but not \
         fair *despite jamming*, which is exactly why the paper lists fair use as an open \
         building-block direction rather than a corollary"
            .to_string(),
    );
    result
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_is_consistent() {
        let r = super::run(&crate::common::ExpContext::ephemeral(true));
        assert_eq!(r.tables.len(), 1);
        assert!(!r.notes.is_empty());
    }
}
