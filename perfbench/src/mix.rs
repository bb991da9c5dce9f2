//! The service workload: a closed loop of clients talking to an
//! in-process `SweepServer` over a Unix socket. Each client sends its next
//! submission only after the previous result arrived. Set-up pre-fills
//! the store with a pool of experiment-sized units, so most submissions
//! are warm hits; a minority are never-seen units that execute and write
//! chunks, and at a few steps every client submits the same never-seen
//! unit at once, which the server coalesces.

use crate::gen::{self, Op};
use crate::stats::{dir_bytes, fnv1a, histogram_quantile, quantile, Counts};
use crate::trace::{id_of, mark, put, span, Metrics, SelfTimes};
use crate::units::{Kind, Unit};
use crate::{PassCtx, PassOutcome, Tamper};
use jle_engine::RunReport;
use jle_orchestrator::{Fingerprint, ResultStore, WorkSpec, DEFAULT_CODE_SALT};
use jle_sweepd::{ClientError, Endpoint, ServerConfig, SweepClient, SweepServer};
use jle_telemetry::SpanRecorder;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections, one per core of the two-core reference machine.
pub const CLIENTS: usize = 2;
/// Backpressure retries before a refusal counts as a failure.
const MAX_RETRIES: u32 = 32;

/// What a unit's results must look like, computed locally in set-up.
struct Reference {
    spec: WorkSpec,
    trials: u64,
    digest: u64,
    counts: Counts,
    /// Engine time of the direct computation, seconds.
    engine_s: f64,
}

fn payload_digest(reports: &[RunReport]) -> u64 {
    let v = Value::Seq(reports.iter().map(Serialize::to_json_value).collect());
    fnv1a(serde_json::to_string(&v).expect("payload serialization").as_bytes())
}

fn reference(u: &Unit) -> Reference {
    let seeds: Vec<u64> = (0..u.trials).map(|i| u.base_seed + i).collect();
    let t = Instant::now();
    // The service runs fast-exact trees through the batch backend, so the
    // reference does too; per trial the bits are fast-exact's.
    let reports: Vec<RunReport> = match u.kind {
        Kind::FastExact(_) => u.run_batch(&seeds),
        _ => seeds.iter().map(|&s| u.run_trial(s)).collect(),
    };
    let engine_s = t.elapsed().as_secs_f64();
    let mut counts = Counts::default();
    reports.iter().for_each(|r| counts.add(r));
    Reference {
        spec: WorkSpec::new("sweepd_mix", u.point.as_str(), u.params(), u.base_seed),
        trials: u.trials,
        digest: payload_digest(&reports),
        counts,
        engine_s,
    }
}

/// One submission as the client saw it.
#[derive(Debug, Default)]
struct Sample {
    latency_ms: f64,
    accept_ms: f64,
    first_event_ms: f64,
    result_bytes: usize,
    retries: u32,
    error: Option<String>,
}

/// Submit with bounded backpressure retries, wait for the terminal frame,
/// and check the payload.
fn round_trip(
    client: &mut SweepClient,
    r: &Reference,
    expect_executed: Option<u64>,
    tamper: bool,
    rec: &SpanRecorder,
    parent: u64,
) -> Sample {
    let mut s = Sample::default();
    let sub_span = span(rec, "sweepd", "submission", parent);
    let t0 = Instant::now();
    let submission = loop {
        match client.submit(&r.spec, r.trials) {
            Err(ClientError::Rejected { retry_after_ms, .. }) if s.retries < MAX_RETRIES => {
                s.retries += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 2_000)));
            }
            other => break other,
        }
    };
    s.accept_ms = t0.elapsed().as_secs_f64() * 1e3;
    mark(rec, "accepted", id_of(&sub_span));
    let mut first: Option<f64> = None;
    let outcome = submission.and_then(|sub| {
        client.wait(&sub, |_| {
            first.get_or_insert(t0.elapsed().as_secs_f64() * 1e3);
        })
    });
    s.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    s.first_event_ms = first.unwrap_or(s.latency_ms);
    drop(sub_span);
    match outcome {
        Err(e) => s.error = Some(e.to_string()),
        Ok(out) => {
            let mut text = serde_json::to_string(&out.results).expect("payload serialization");
            if tamper {
                text.push(' ');
            }
            s.result_bytes = text.len();
            if fnv1a(text.as_bytes()) != r.digest {
                s.error = Some("payload differs from the local reference".to_string());
            } else if let Some(want) = expect_executed.filter(|&w| w != out.executed_trials) {
                s.error = Some(format!("executed {} trials, expected {want}", out.executed_trials));
            }
        }
    }
    s
}

/// Counters and histograms of the server's `metrics` snapshot.
#[derive(Debug, Default, Clone)]
struct Scrape {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, Vec<u64>)>,
}

impl Scrape {
    fn take(client: &mut SweepClient) -> Result<Scrape, String> {
        let (server, _) = client.metrics().map_err(|e| format!("metrics scrape: {e}"))?;
        let mut out = Scrape::default();
        for m in server.get("metrics").and_then(Value::as_seq).unwrap_or(&[]) {
            let Some(name) = m.get("name").and_then(Value::as_str) else { continue };
            if let Some(v) = m.get("value").and_then(Value::as_u64) {
                out.counters.insert(name.to_string(), v);
            }
            if let Some(b) = m.get("buckets").and_then(Value::as_seq) {
                let sum = m.get("sum").and_then(Value::as_u64).unwrap_or(0);
                out.hists
                    .insert(name.to_string(), (sum, b.iter().filter_map(Value::as_u64).collect()));
            }
        }
        Ok(out)
    }

    fn counter(&self, before: &Scrape, name: &str) -> u64 {
        let get = |s: &Scrape| s.counters.get(name).copied().unwrap_or(0);
        get(self) - get(before)
    }

    /// `(sum, buckets)` accumulated since `before`.
    fn hist(&self, before: &Scrape, name: &str) -> (u64, Vec<u64>) {
        let (sum, b) = self.hists.get(name).cloned().unwrap_or_default();
        let (sum0, b0) = before.hists.get(name).cloned().unwrap_or_default();
        let b = b.iter().enumerate().map(|(i, &c)| c - b0.get(i).copied().unwrap_or(0)).collect();
        (sum - sum0, b)
    }
}

fn connect(endpoint: &Endpoint) -> Result<SweepClient, String> {
    SweepClient::connect(endpoint).map_err(|e| format!("connect {endpoint}: {e}"))
}

pub fn pass(ctx: &PassCtx) -> Result<PassOutcome, String> {
    // ── set-up: inputs, references, server, pre-filled store ───────────
    let setup_started = Instant::now();
    let mix = gen::mix(ctx.seed, ctx.scale, CLIENTS);
    let pool: Vec<Reference> = mix.pool.iter().map(reference).collect();
    let fresh: Vec<Reference> = mix.fresh.iter().map(reference).collect();
    let dedup: Vec<Reference> = mix.dedup.iter().map(reference).collect();
    let store_dir = ctx.scratch_dir("sweepd_mix");
    let endpoint = Endpoint::Unix(store_dir.with_extension("sock"));
    let config = ServerConfig { cache_dir: Some(store_dir.clone()), ..ServerConfig::default() };
    let server =
        SweepServer::bind(&endpoint, config).map_err(|e| format!("bind {endpoint}: {e}"))?.spawn();
    let mut admin = connect(&endpoint)?;
    let mut failures = Vec::new();
    for r in &pool {
        let s = round_trip(&mut admin, r, Some(r.trials), false, &SpanRecorder::disabled(), 0);
        if let Some(e) = s.error {
            failures.push(format!("pre-fill {}: {e}", r.spec.point));
        }
    }
    let first_warm = mix.schedules[0].iter().find_map(|op| match op {
        Op::Warm(i) => Some(*i),
        _ => None,
    });
    if let (Tamper::Chunk, Some(i)) = (ctx.tamper, first_warm) {
        let salt = match jle_sweepd::work::engine_mode_of(&pool[i].spec.params) {
            "exact" => DEFAULT_CODE_SALT.to_string(),
            mode => format!("{DEFAULT_CODE_SALT}+engine={mode}"),
        };
        let key = Fingerprint::of(&pool[i].spec, &salt, std::any::type_name::<RunReport>());
        crate::sweep::tamper_chunk_at(
            &ResultStore::open(&store_dir).map_err(|e| e.to_string())?,
            &key,
            pool[i].trials,
        )?;
    }
    let mut clients: Vec<SweepClient> =
        (0..CLIENTS).map(|_| connect(&endpoint)).collect::<Result<_, _>>()?;
    let before = Scrape::take(&mut admin)?;
    let bytes_before = dir_bytes(&store_dir);
    let rec = if ctx.traced { SpanRecorder::new() } else { SpanRecorder::disabled() };
    let setup_s = setup_started.elapsed().as_secs_f64();

    // ── the measured closed loop ────────────────────────────────────────
    let barrier = Barrier::new(CLIENTS);
    let started = Instant::now();
    let pass_span = span(&rec, "bench", "pass", 0);
    let pass_id = id_of(&pass_span);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&mix.schedules)
            .enumerate()
            .map(|(c, (client, schedule))| {
                let (pool, fresh, dedup, barrier, rec) = (&pool, &fresh, &dedup, &barrier, &rec);
                let tamper = ctx.tamper == Tamper::Report && c == 0;
                scope.spawn(move || {
                    schedule
                        .iter()
                        .enumerate()
                        .map(|(step, op)| {
                            let (r, expect) = match *op {
                                Op::Warm(i) => (&pool[i], Some(0)),
                                Op::Fresh(i) => (&fresh[i], Some(fresh[i].trials)),
                                Op::Dedup(i) => {
                                    barrier.wait();
                                    (&dedup[i], None)
                                }
                            };
                            round_trip(client, r, expect, tamper && step == 0, rec, pass_id)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    drop(pass_span);
    let wall_s = started.elapsed().as_secs_f64();

    // ── scrape, tear down, check (not timed) ────────────────────────────
    let after = Scrape::take(&mut admin)?;
    let bytes_written = dir_bytes(&store_dir).saturating_sub(bytes_before);
    drop(clients);
    drop(admin);
    server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut counts = Counts::default();
    let mut latencies_ms = Vec::new();
    let (mut accept, mut first, mut bytes, mut retries) = (Vec::new(), Vec::new(), 0usize, 0u32);
    for (schedule, samples) in mix.schedules.iter().zip(&per_client) {
        for (op, s) in schedule.iter().zip(samples) {
            let r = match *op {
                Op::Warm(i) => &pool[i],
                Op::Fresh(i) => &fresh[i],
                Op::Dedup(i) => &dedup[i],
            };
            if let Some(e) = &s.error {
                failures.push(format!("{}: {e}", r.spec.point));
            }
            counts.merge(&r.counts);
            latencies_ms.push(s.latency_ms);
            accept.push(s.accept_ms);
            first.push(s.first_event_ms);
            bytes += s.result_bytes;
            retries += s.retries;
        }
    }
    let submissions = latencies_ms.len() as u64;
    // Every never-seen unit executes exactly once, whoever submitted it;
    // the server's slot counter must agree with the reports exactly.
    let executed: Vec<&Reference> = fresh.iter().chain(&dedup).collect();
    let expected_slots: u64 = executed.iter().map(|r| r.counts.slots).sum();
    let counted_slots = after.counter(&before, "jle_orchestrator_simulated_slots");
    if counted_slots != expected_slots {
        failures.push(format!(
            "slot accounting: server counted {counted_slots} simulated slots, the executed reports hold {expected_slots}"
        ));
    }
    let engine_s: f64 = executed.iter().map(|r| r.engine_s).sum();
    let (execute_sum_us, _) = after.hist(&before, "jle_sweepd_execute_us");
    let latency_sum_s: f64 = latencies_ms.iter().sum::<f64>() / 1e3;

    let mut layer = Metrics::new();
    put(&mut layer, "engine.busy_s", engine_s, "s");
    put(&mut layer, "engine.ns_per_slot", engine_s * 1e9 / expected_slots.max(1) as f64, "ns");
    put(&mut layer, "orchestrator.self_s", execute_sum_us as f64 / 1e6 - engine_s, "s");
    put(
        &mut layer,
        "orchestrator.chunk_hits",
        after.counter(&before, "jle_orchestrator_chunk_hits") as f64,
        "count",
    );
    put(
        &mut layer,
        "orchestrator.chunk_misses",
        after.counter(&before, "jle_orchestrator_chunk_misses") as f64,
        "count",
    );
    put(&mut layer, "store.bytes_written", bytes_written as f64, "bytes");
    put(&mut layer, "sweepd.accept_ms_p50", quantile(&accept, 0.5), "ms");
    put(&mut layer, "sweepd.accept_ms_p99", quantile(&accept, 0.99), "ms");
    put(&mut layer, "sweepd.first_event_ms_p50", quantile(&first, 0.5), "ms");
    put(&mut layer, "sweepd.first_event_ms_p99", quantile(&first, 0.99), "ms");
    put(&mut layer, "sweepd.result_bytes", bytes as f64 / submissions.max(1) as f64, "bytes");
    for (hist, name) in [
        ("jle_sweepd_queue_wait_us", "queue_wait_us"),
        ("jle_sweepd_execute_us", "execute_us"),
        ("jle_sweepd_deliver_us", "deliver_us"),
        ("jle_sweepd_dedup_shortcircuit_us", "dedup_shortcircuit_us"),
    ] {
        let (_, b) = after.hist(&before, hist);
        put(&mut layer, &format!("sweepd.{name}_p50"), histogram_quantile(&b, 0.5), "us");
        put(&mut layer, &format!("sweepd.{name}_p99"), histogram_quantile(&b, 0.99), "us");
    }
    put(
        &mut layer,
        "sweepd.dedup_hits",
        after.counter(&before, "jle_sweepd_dedup_hits_total") as f64,
        "count",
    );
    put(
        &mut layer,
        "sweepd.unit_cache_hits",
        after.counter(&before, "jle_sweepd_unit_cache_hits_total") as f64,
        "count",
    );
    let refused = after.counter(&before, "jle_sweepd_rejected_queue_full_total")
        + after.counter(&before, "jle_sweepd_rejected_fair_share_total");
    put(&mut layer, "sweepd.rejected", (refused + u64::from(retries)) as f64, "count");

    // Thread-seconds of the client loop: each client is always either in a
    // submission or in benchmark code between submissions.
    let self_times = ctx.traced.then(|| SelfTimes {
        rows: vec![
            ("bench".to_string(), CLIENTS as f64 * wall_s - latency_sum_s),
            ("sweepd".to_string(), latency_sum_s - execute_sum_us as f64 / 1e6),
            ("orchestrator".to_string(), execute_sum_us as f64 / 1e6 - engine_s),
            ("engine (estimate)".to_string(), engine_s),
        ],
        budget_s: CLIENTS as f64 * wall_s,
    });
    Ok(PassOutcome {
        setup_s,
        wall_s,
        latencies_ms,
        attempted: submissions + pool.len() as u64 + 1,
        failures,
        counts,
        layer,
        self_times,
        recorder: rec,
        notes: vec![format!("{submissions} submissions by {CLIENTS} closed-loop clients, {} never-seen units executed", executed.len())],
    })
}
