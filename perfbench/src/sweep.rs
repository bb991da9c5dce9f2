//! The two cold-sweep workloads: every unit goes through
//! `Orchestrator::run_trials` (or `run_trials_batched`) into an empty
//! on-disk store, one unit after another, the way the experiments CLI
//! submits a sweep.

use crate::gen::{self, rng_for};
use crate::stats::{dir_bytes, median, Counts};
use crate::trace::{events, id_of, put, span, union_len, Ev, MarkReporter, Metrics, SelfTimes};
use crate::units::{report_bytes, Unit};
use crate::{PassCtx, PassOutcome, Tamper};
use jle_engine::RunReport;
use jle_orchestrator::{
    Fingerprint, Orchestrator, ResultStore, WorkSpec, DEFAULT_CHUNK_SIZE, DEFAULT_CODE_SALT,
};
use jle_telemetry::SpanRecorder;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Trials per unit re-derived by a direct engine call and compared.
const SAMPLES_PER_UNIT: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    Cohort,
    Station,
}

impl Sweep {
    pub fn name(self) -> &'static str {
        match self {
            Sweep::Cohort => "cohort_sweep",
            Sweep::Station => "station_sweep",
        }
    }
}

fn spec_of(sweep: Sweep, u: &Unit) -> WorkSpec {
    WorkSpec::new(sweep.name(), u.point.as_str(), u.params(), u.base_seed)
}

/// Submit one unit; `count` sees every trial the orchestrator executes.
fn submit(
    orch: &Orchestrator,
    spec: &WorkSpec,
    u: &Unit,
    rec: &SpanRecorder,
    parent: u64,
    count: &AtomicU64,
) -> Vec<RunReport> {
    if u.is_batched() {
        orch.run_trials_batched(spec, u.trials, |seeds| {
            count.fetch_add(seeds.len() as u64, Ordering::Relaxed);
            let _engine = span(rec, "engine", "batch", parent);
            u.run_batch(seeds)
        })
    } else {
        orch.run_trials(spec, u.trials, |seed| {
            count.fetch_add(1, Ordering::Relaxed);
            let _engine = span(rec, "engine", u.backend(), parent);
            u.run_trial(seed)
        })
    }
}

pub fn pass(sweep: Sweep, ctx: &PassCtx) -> Result<PassOutcome, String> {
    // ── set-up: inputs, references, empty store ─────────────────────────
    let setup_started = Instant::now();
    let units = match sweep {
        Sweep::Cohort => gen::cohort_units(ctx.seed, ctx.scale),
        Sweep::Station => gen::station_units(ctx.seed, ctx.scale),
    };
    let mut pick = rng_for(ctx.seed, 100);
    let samples: Vec<Vec<(usize, String)>> = units
        .iter()
        .map(|u| {
            (0..SAMPLES_PER_UNIT.min(u.trials))
                .map(|_| {
                    let i = pick.gen_range(0..u.trials);
                    (i as usize, report_bytes(&u.run_trial(u.base_seed + i)))
                })
                .collect()
        })
        .collect();
    let store_dir = ctx.scratch_dir(sweep.name());
    let rec = if ctx.traced { SpanRecorder::new() } else { SpanRecorder::disabled() };
    let current_unit = Arc::new(AtomicU64::new(0));
    let mut orch = Orchestrator::with_cache_dir(&store_dir)
        .map_err(|e| format!("open store {}: {e}", store_dir.display()))?;
    if ctx.traced {
        orch = orch.reporter(MarkReporter { rec: rec.clone(), unit: Arc::clone(&current_unit) });
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    // ── the measured sweep ──────────────────────────────────────────────
    let started = Instant::now();
    let pass_span = span(&rec, "bench", "pass", 0);
    let mut results: Vec<(Vec<RunReport>, u64)> = Vec::with_capacity(units.len());
    let mut latencies_ms = Vec::with_capacity(units.len());
    let mut executed = Vec::with_capacity(units.len());
    for u in &units {
        let spec = spec_of(sweep, u);
        let slots_before = orch.stats_snapshot().simulated_slots;
        let t = Instant::now();
        let unit_span = span(&rec, "orchestrator", u.backend(), id_of(&pass_span));
        current_unit.store(id_of(&unit_span), Ordering::Relaxed);
        let ran = AtomicU64::new(0);
        let reports = submit(&orch, &spec, u, &rec, id_of(&unit_span), &ran);
        drop(unit_span);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        executed.push(ran.into_inner());
        results.push((reports, orch.stats_snapshot().simulated_slots - slots_before));
    }
    drop(pass_span);
    let wall_s = started.elapsed().as_secs_f64();

    // ── checks, counts and layer metrics (not timed) ────────────────────
    let snap = orch.stats_snapshot();
    let mut layer = Metrics::new();
    put(&mut layer, "store.bytes_written", dir_bytes(&store_dir) as f64, "bytes");
    put(&mut layer, "orchestrator.chunk_hits", snap.chunk_hits as f64, "count");
    put(&mut layer, "orchestrator.chunk_misses", snap.chunk_misses as f64, "count");
    match ctx.tamper {
        Tamper::Report => results[0].0[0].slots += 1,
        Tamper::Chunk => tamper_chunk(&store_dir, &spec_of(sweep, &units[0]), units[0].trials)?,
        _ => {}
    }
    let warm = Orchestrator::with_cache_dir(&store_dir)
        .map_err(|e| format!("reopen store {}: {e}", store_dir.display()))?;
    let mut failures = Vec::new();
    let mut counts = Counts::default();
    let mut per_backend: BTreeMap<&'static str, (Counts, u64)> = BTreeMap::new();
    for (((u, (reports, counted)), sampled), ran) in
        units.iter().zip(&results).zip(&samples).zip(&executed)
    {
        let mut why = Vec::new();
        if *ran != u.trials {
            why.push(format!("cold sweep executed {ran} of {} trials", u.trials));
        }
        if reports.len() as u64 != u.trials {
            why.push(format!("{} reports for {} trials", reports.len(), u.trials));
        }
        let slots: u64 = reports.iter().map(|r| r.slots).sum();
        if slots != *counted {
            why.push(format!("orchestrator counted {counted} slots, the reports hold {slots}"));
        }
        for (i, bytes) in sampled {
            if reports.get(*i).map(report_bytes).as_ref() != Some(bytes) {
                why.push(format!("trial {i} differs from its direct engine call"));
            }
        }
        let rerun = AtomicU64::new(0);
        let again = submit(&warm, &spec_of(sweep, u), u, &SpanRecorder::disabled(), 0, &rerun);
        if rerun.load(Ordering::Relaxed) > 0 {
            why.push(format!("warm re-read executed {} trials", rerun.load(Ordering::Relaxed)));
        }
        if !again.iter().map(report_bytes).eq(reports.iter().map(report_bytes)) {
            why.push("warm re-read differs from the cold result".to_string());
        }
        if !why.is_empty() {
            failures.push(format!("{}: {}", u.point, why.join("; ")));
        }
        let entry = per_backend.entry(u.backend()).or_default();
        for r in reports {
            counts.add(r);
            entry.0.add(r);
            entry.1 += u.work_units(r);
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    let self_times = ctx.traced.then(|| {
        let evs = events(&rec);
        sweep_layers(&evs, &per_backend, &mut layer, wall_s)
    });
    if let Some((c, _)) = per_backend.get("cohort") {
        let frac = c.cap_hits as f64 / c.trials.max(1) as f64;
        put(&mut layer, "engine.cohort.cap_hit_frac", frac, "ratio");
    }
    Ok(PassOutcome {
        setup_s,
        wall_s,
        latencies_ms,
        attempted: units.len() as u64,
        failures,
        counts,
        layer,
        self_times,
        recorder: rec,
        notes: Vec::new(),
    })
}

/// Self times and per-backend busy times from one traced pass.
fn sweep_layers(
    evs: &[Ev],
    per_backend: &BTreeMap<&'static str, (Counts, u64)>,
    layer: &mut Metrics,
    wall_s: f64,
) -> SelfTimes {
    let Some(pass) = evs.iter().find(|e| e.cat == "bench" && e.name == "pass") else {
        return SelfTimes::default();
    };
    let units: Vec<&Ev> =
        evs.iter().filter(|e| e.cat == "orchestrator" && e.parent == pass.id).collect();
    let mut by_parent: BTreeMap<u64, Vec<&Ev>> = BTreeMap::new();
    for e in evs.iter().filter(|e| e.cat == "engine" || e.cat == "mark") {
        by_parent.entry(e.parent).or_default().push(e);
    }
    let mut busy: BTreeMap<String, f64> = BTreeMap::new();
    let mut covered: BTreeMap<String, f64> = BTreeMap::new();
    let (mut orch_self, mut lookups, mut commits) = (0.0, Vec::new(), Vec::new());
    for u in &units {
        let kids = by_parent.get(&u.id).map(Vec::as_slice).unwrap_or(&[]);
        let mut iv: Vec<(f64, f64)> = Vec::new();
        for e in kids.iter().filter(|e| e.cat == "engine") {
            *busy.entry(e.name.clone()).or_default() += e.end - e.ts;
            iv.push((e.ts, e.end));
        }
        let engine_wall = union_len(&mut iv);
        *covered.entry(u.name.clone()).or_default() += engine_wall;
        orch_self += (u.end - u.ts) - engine_wall;
        if let Some(m) = kids.iter().find(|e| e.name == "unit_started") {
            lookups.push((m.ts - u.ts) / 1e3);
        }
        if let Some(m) =
            kids.iter().filter(|e| e.name == "chunk_finished").map(|e| e.ts).reduce(f64::max)
        {
            commits.push((u.end - m) / 1e3);
        }
    }
    let mut unit_iv: Vec<(f64, f64)> = units.iter().map(|u| (u.ts, u.end)).collect();
    let bench_self = (pass.end - pass.ts) - union_len(&mut unit_iv);

    let mut rows = vec![
        ("bench".to_string(), bench_self / 1e6),
        ("orchestrator".to_string(), orch_self / 1e6),
    ];
    let mut busy_total = 0.0;
    for (backend, wall_us) in &covered {
        rows.push((format!("engine.{backend}"), wall_us / 1e6));
    }
    for (backend, us) in &busy {
        busy_total += us;
        let work = per_backend.get(backend.as_str()).map_or(0, |b| b.1);
        put(layer, &format!("engine.{backend}.busy_s"), us / 1e6, "s");
        let name = match backend.as_str() {
            "cohort" => "ns_per_slot",
            "batch" => "ns_per_trial_slot",
            _ => "ns_per_station_slot",
        };
        put(layer, &format!("engine.{backend}.{name}"), us * 1e3 / work.max(1) as f64, "ns");
    }
    let slots: u64 = per_backend.values().map(|(c, _)| c.slots).sum();
    put(layer, "engine.busy_s", busy_total / 1e6, "s");
    put(layer, "engine.ns_per_slot", busy_total * 1e3 / slots.max(1) as f64, "ns");
    put(layer, "orchestrator.self_s", orch_self / 1e6, "s");
    put(layer, "orchestrator.lookup_ms", median(&lookups), "ms");
    put(layer, "orchestrator.commit_ms", median(&commits), "ms");
    put(layer, "bench.self_s", bench_self / 1e6, "s");
    SelfTimes { rows, budget_s: wall_s }
}

/// Rewrite the first stored chunk of `spec` with one report's slot count
/// changed — still valid JSON, so the store serves it as intact.
fn tamper_chunk(store_dir: &std::path::Path, spec: &WorkSpec, trials: u64) -> Result<(), String> {
    let key = Fingerprint::of(spec, DEFAULT_CODE_SALT, std::any::type_name::<RunReport>());
    tamper_chunk_at(&ResultStore::open(store_dir).map_err(|e| e.to_string())?, &key, trials)
}

/// [`tamper_chunk`] for a known cache key.
pub fn tamper_chunk_at(store: &ResultStore, key: &Fingerprint, trials: u64) -> Result<(), String> {
    let path = store.chunk_path(key, 0, trials.min(DEFAULT_CHUNK_SIZE));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let at = text.find("\"slots\":").ok_or("chunk holds no slots field")? + "\"slots\":".len();
    let digits = text[at..].chars().take_while(char::is_ascii_digit).count();
    let slots: u64 = text[at..at + digits].parse().map_err(|e| format!("slots field: {e}"))?;
    let tampered = format!("{}{}{}", &text[..at], slots + 1, &text[at + digits..]);
    std::fs::write(&path, tampered).map_err(|e| format!("write {}: {e}", path.display()))
}
