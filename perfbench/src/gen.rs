//! Seeded workload generators. The seed is the only input: the same seed
//! gives the same units in the same order, and the program under test
//! sees nothing but the generated units.
//!
//! The shapes of the units (protocol, n, jammer, trial count) are fixed;
//! the seed draws every unit's base seed, the order of the units and, for
//! the service mix, each client's schedule. So runs with different seeds
//! simulate different trials but measure the same amount of work.

use crate::units::{saturating, Kind, Proto, Unit};
use jle_adversary::AdversarySpec;
use jle_radio::{CdModel, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// How big a generated workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few small units, for self-tests.
    Tiny,
}

pub fn rng_for(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Accumulates units; only their base seeds (and, in `finish`, their
/// order) come from the seed.
struct UnitList {
    rng: SmallRng,
    units: Vec<Unit>,
}

impl UnitList {
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        point: String,
        kind: Kind,
        n: u64,
        cd: CdModel,
        adv: AdversarySpec,
        max_slots: u64,
        trials: u64,
    ) {
        let base_seed = self.rng.gen_range(0..1u64 << 48);
        self.units.push(Unit { point, kind, n, cd, adv, max_slots, trials, base_seed });
    }

    fn finish(mut self) -> Vec<Unit> {
        let mut units = std::mem::take(&mut self.units);
        shuffle(&mut units, &mut self.rng);
        units
    }
}

fn jam_name(adv: &AdversarySpec) -> String {
    if matches!(adv.kind, jle_adversary::JamStrategyKind::None) {
        "none".to_string()
    } else {
        format!("sat(eps={:.2},T={})", adv.eps.as_f64(), adv.t_window)
    }
}

/// Slots per cap-bound cohort unit (`trials × max_slots`).
const CAP_UNIT_SLOTS: u64 = 2_000_000;

/// E1–E14-shaped cohort elections: LESK, LESU, Willard and backoff under
/// strong and weak CD, passive and saturating jammers, n from 64 to
/// 16384, 40 to 200 trials per unit. Most units are cap-bound Willard
/// elections under a saturating jammer, which carry most of the slots, as
/// in E7 and E13; the median unit is therefore simulation-bound, not
/// store-bound.
pub fn cohort_units(seed: u64, scale: Scale) -> Vec<Unit> {
    let mut b = UnitList { rng: rng_for(seed, 1), units: Vec::new() };
    let tiny = scale == Scale::Tiny;
    let trials = |t: u64| if tiny { t / 10 } else { t };
    let cap = 1_000_000;
    let none = AdversarySpec::passive();
    let (strong, weak) = (CdModel::Strong, CdModel::Weak);
    let small: Vec<(Proto, CdModel, AdversarySpec, u64, u64)> = vec![
        (Proto::Lesk(0.3), strong, none.clone(), 64, 200),
        (Proto::Lesk(0.5), strong, none.clone(), 1024, 120),
        (Proto::Lesk(0.4), strong, none.clone(), 16_384, 40),
        (Proto::Lesk(0.3), strong, saturating(0.3, 32), 256, 160),
        (Proto::Lesk(0.5), strong, saturating(0.5, 16), 4096, 80),
        (Proto::Lesk(0.5), weak, none.clone(), 4096, 120),
        (Proto::Lesk(0.5), weak, saturating(0.5, 32), 256, 80),
        (Proto::Lesu, strong, none.clone(), 1024, 80),
        (Proto::Lesu, strong, saturating(0.5, 32), 16_384, 40),
        (Proto::Backoff, strong, none.clone(), 256, 120),
        (Proto::Backoff, strong, saturating(0.3, 32), 4096, 80),
        (Proto::Willard, strong, none.clone(), 16_384, 100),
    ];
    for (p, cd, adv, n, t) in small.into_iter().take(if tiny { 3 } else { usize::MAX }) {
        let weak_tag = if cd == weak { "-weak" } else { "" };
        let point = format!("{}{weak_tag}/{}/n={n}", p.label(), jam_name(&adv));
        b.push(point, Kind::Cohort(p), n, cd, adv, cap, trials(t));
    }
    // The cap-bound arms: ε = 0.3 as in E7, under which Willard never
    // elects, so every trial runs to `max_slots` and each unit simulates
    // exactly its slot budget whatever the seed. The first is four times
    // the others, like E7's big units, and sets the sweep's p99.
    let ns = [64u64, 256, 1024, 4096, 16_384];
    let units = if tiny { 1 } else { 16 };
    for i in 0..units {
        let (n, t_window) = (ns[i % 5], [16u64, 32, 64][i % 3]);
        let t = if tiny { 4 } else { [40u64, 80, 120, 160, 200, 60][i % 6] };
        let budget = if tiny {
            100_000
        } else if i == 0 {
            4 * CAP_UNIT_SLOTS
        } else {
            CAP_UNIT_SLOTS
        };
        let adv = saturating(0.3, t_window);
        let point = format!("willard/{}/n={n}/cap{i}", jam_name(&adv));
        b.push(point, Kind::Cohort(Proto::Willard), n, strong, adv, budget / t, t);
    }
    b.finish()
}

/// Per-station units: LESK on the exact, fast-exact and batch backends,
/// E24/E25-shaped lease runs under crash and churn plans, and E26-shaped
/// cluster elections on dense-linear and core-tail graphs.
pub fn station_units(seed: u64, scale: Scale) -> Vec<Unit> {
    let mut b = UnitList { rng: rng_for(seed, 2), units: Vec::new() };
    let tiny = scale == Scale::Tiny;
    let trials = |t: u64| if tiny { (t / 10).max(2) } else { t };
    let none = AdversarySpec::passive();
    let strong = CdModel::Strong;
    let cap = 200_000;
    // (n, eps, jammer, trials); fast-exact runs the same arm at 2n.
    let arms = [
        (64u64, 0.5, none.clone(), 60u64),
        (256, 0.3, none.clone(), 40),
        (64, 0.4, saturating(0.5, 32), 80),
        (256, 0.5, saturating(0.3, 16), 50),
    ];
    for (n, e, j, t) in arms.iter().take(if tiny { 2 } else { 4 }) {
        let jam = jam_name(j);
        b.push(
            format!("exact/lesk/{jam}/n={n}"),
            Kind::Exact(Proto::Lesk(*e)),
            *n,
            strong,
            j.clone(),
            cap,
            trials(*t),
        );
        let m = 2 * n;
        b.push(
            format!("fast-exact/lesk/{jam}/n={m}"),
            Kind::FastExact(Proto::Lesk(*e)),
            m,
            strong,
            j.clone(),
            cap,
            trials(*t),
        );
    }
    let batch = [(256u64, 160u64), (1024, 100), (2048, 80)];
    for (i, &(n, t)) in batch.iter().take(if tiny { 1 } else { 3 }).enumerate() {
        let e = [0.3, 0.4, 0.5][i];
        let j = saturating(0.5, 32);
        b.push(
            format!("batch/lesk/none/n={n}"),
            Kind::Batch(Proto::Lesk(e)),
            n,
            strong,
            none.clone(),
            cap,
            trials(t),
        );
        b.push(
            format!("batch/lesk/{}/n={n}", jam_name(&j)),
            Kind::Batch(Proto::Lesk(e)),
            n,
            strong,
            j,
            cap,
            trials(t * 3 / 4),
        );
    }
    let horizon = if tiny { 2_048 } else { 8_192 };
    for (prob, e) in [(0.1, 0.5), (0.2, 0.6)].into_iter().take(if tiny { 1 } else { 2 }) {
        let kind = Kind::Faulty { crash_prob: prob, eps: e };
        b.push(
            format!("faulty/lease/crash={prob}"),
            kind,
            24,
            strong,
            saturating(e, 32),
            horizon,
            trials(40),
        );
        let kind = Kind::Churn { churn_prob: 2.5 * prob, eps: e };
        b.push(
            format!("churn/lease/churn={}", 2.5 * prob),
            kind,
            24,
            strong,
            saturating(e, 32),
            horizon,
            trials(40),
        );
    }
    let graphs: Vec<(&str, (Topology, Vec<u32>))> = if tiny {
        vec![("dense-linear", Topology::dense_linear(2, 4))]
    } else {
        vec![
            ("dense-linear", Topology::dense_linear(4, 6)),
            ("core-tail", Topology::core_tail(6, 6)),
        ]
    };
    for (name, (topo, clusters)) in graphs {
        let (topo, clusters) = (Arc::new(topo), Arc::new(clusters));
        let n = clusters.len() as u64;
        for (cd, j, t) in [(strong, none.clone(), 16), (CdModel::Weak, saturating(0.6, 32), 12)] {
            let kind = Kind::Multihop {
                topo: Arc::clone(&topo),
                clusters: Arc::clone(&clusters),
                eps: 0.4,
            };
            b.push(
                format!("multihop/{name}/{cd:?}/{}", jam_name(&j)),
                kind,
                n,
                cd,
                j,
                400_000,
                trials(t),
            );
        }
    }
    b.finish()
}

/// One client operation of the service mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Submit pool unit `i` (warm in the pre-filled store).
    Warm(usize),
    /// Submit fresh unit `i` (never seen: executes and writes chunks).
    Fresh(usize),
    /// Both clients submit shared unit `i` at once (in-flight dedup).
    Dedup(usize),
}

/// The service mix: a warm pool, fresh units, shared dedup units, and one
/// closed-loop schedule per client. Dedup operations sit at the same
/// step of every schedule.
pub struct Mix {
    pub pool: Vec<Unit>,
    pub fresh: Vec<Unit>,
    pub dedup: Vec<Unit>,
    pub schedules: Vec<Vec<Op>>,
}

pub fn mix(seed: u64, scale: Scale, clients: usize) -> Mix {
    let mut b = UnitList { rng: rng_for(seed, 3), units: Vec::new() };
    let tiny = scale == Scale::Tiny;
    let (pool_cohort, pool_exact) = if tiny { (6, 2) } else { (36, 12) };
    let ns = [64u64, 1024, 16_384, 256, 4096];
    let none = AdversarySpec::passive();
    let protos = [Proto::Lesk(0.3), Proto::Lesu, Proto::Lesk(0.5), Proto::Backoff];
    // Experiment-sized pool units with trial counts spread over 40..=200.
    for i in 0..pool_cohort {
        let t = 40 + (160 * i as u64) / (pool_cohort as u64 - 1);
        let (proto, n) = (protos[i % 4], ns[(i / 4) % 5]);
        let adv = if (i / 2) % 2 == 0 { none.clone() } else { saturating(0.5, 32) };
        let point = format!("pool/{}/{}/n={n}", proto.label(), jam_name(&adv));
        b.push(point, Kind::Cohort(proto), n, CdModel::Strong, adv, 1_000_000, t);
    }
    for i in 0..pool_exact {
        let t = 40 + (80 * i as u64) / (pool_exact as u64 - 1);
        let n = [64u64, 128, 256][i % 3];
        let proto = if i % 4 == 3 { Proto::Backoff } else { Proto::Lesk(0.5) };
        b.push(
            format!("pool/exact/{}/n={n}", proto.label()),
            Kind::FastExact(proto),
            n,
            CdModel::Strong,
            none.clone(),
            100_000,
            t,
        );
    }
    let pool = std::mem::take(&mut b.units);

    let steps = if tiny { 24 } else { 400 };
    let fresh_per_client = steps / 12;
    let dedup_rounds = if tiny { 2 } else { 8 };
    for c in 0..clients * fresh_per_client {
        let n = [64u64, 256, 1024][c % 3];
        let t = 40 + (c as u64 * 7) % 41;
        b.push(
            format!("fresh/lesk/n={n}/{c}"),
            Kind::Cohort(Proto::Lesk(0.5)),
            n,
            CdModel::Strong,
            none.clone(),
            100_000,
            t,
        );
    }
    let fresh = std::mem::take(&mut b.units);
    for d in 0..dedup_rounds {
        b.push(
            format!("dedup/exact/lesk/n=256/{d}"),
            Kind::FastExact(Proto::Lesk(0.5)),
            256,
            CdModel::Strong,
            none.clone(),
            100_000,
            64,
        );
    }
    let dedup = std::mem::take(&mut b.units);

    // Dedup rounds sit at the same seed-drawn steps for every client. The
    // warm operations visit the pool in shuffled rounds, so every pool
    // unit is hit equally often whatever the seed.
    let mut dedup_at: Vec<usize> = (0..steps).collect();
    shuffle(&mut dedup_at, &mut b.rng);
    dedup_at.truncate(dedup_rounds);
    dedup_at.sort_unstable();
    let mut warm_order: Vec<usize> = Vec::new();
    let schedules = (0..clients)
        .map(|c| {
            let mut ops: Vec<Op> =
                (0..fresh_per_client).map(|i| Op::Fresh(c * fresh_per_client + i)).collect();
            while ops.len() < steps - dedup_rounds {
                if warm_order.is_empty() {
                    warm_order = (0..pool.len()).collect();
                    shuffle(&mut warm_order, &mut b.rng);
                }
                ops.push(Op::Warm(warm_order.pop().expect("refilled above")));
            }
            shuffle(&mut ops, &mut b.rng);
            for (d, &at) in dedup_at.iter().enumerate() {
                ops.insert(at, Op::Dedup(d));
            }
            ops
        })
        .collect();
    Mix { pool, fresh, dedup, schedules }
}
