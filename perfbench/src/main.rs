//! End-to-end and per-layer benchmark of the jamming-leader-election
//! stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cohort_sweep|station_sweep|sweepd_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! One run repeats *passes* of the chosen workload for `--seconds`. A
//! pass is a fresh set-up (inputs generated from the seed, references
//! computed, empty store, service started and pre-filled) followed by the
//! measured work, then output checks that are not timed. The first pass
//! warms the process up and is checked but not reported.
//!
//! `--trace 0` prints the end-to-end metrics (medians over passes, latency
//! percentiles over every operation of the run). `--trace 1` alternates
//! untraced and traced passes, records spans around each call into a
//! layer, writes the last traced pass as a Chrome trace, prints a
//! per-layer self-time table, and reports the per-layer metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed check makes
//! `correct` false and the exit code 1.

mod gen;
mod mix;
mod stats;
mod sweep;
mod trace;
mod units;

use gen::Scale;
use jle_telemetry::SpanRecorder;
use serde::Value;
use stats::{fnv1a, median, peak_rss_mib, quantile, Counts};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use sweep::Sweep;
use trace::{Metrics, SelfTimes};

/// A deliberate defect, for the benchmark's own mutation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    None,
    /// Change one returned report (a service payload for the mix).
    Report,
    /// Change one stored chunk on disk.
    Chunk,
}

/// Everything one pass needs to know.
pub struct PassCtx {
    pub seed: u64,
    pub scale: Scale,
    pub work: PathBuf,
    pub pass: usize,
    pub traced: bool,
    pub tamper: Tamper,
}

impl PassCtx {
    /// A fresh, empty path under the work directory for this pass.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(format!("{name}-{}-{}", std::process::id(), self.pass));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// What one pass measured and found.
pub struct PassOutcome {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Per operation (unit or submission): call to result.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub counts: Counts,
    pub layer: Metrics,
    pub self_times: Option<SelfTimes>,
    pub recorder: SpanRecorder,
    pub notes: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CohortSweep,
    StationSweep,
    SweepdMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "cohort_sweep" => Some(Workload::CohortSweep),
            "station_sweep" => Some(Workload::StationSweep),
            "sweepd_mix" => Some(Workload::SweepdMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CohortSweep => "cohort_sweep",
            Workload::StationSweep => "station_sweep",
            Workload::SweepdMix => "sweepd_mix",
        }
    }

    fn pass(self, ctx: &PassCtx) -> Result<PassOutcome, String> {
        match self {
            Workload::CohortSweep => sweep::pass(Sweep::Cohort, ctx),
            Workload::StationSweep => sweep::pass(Sweep::Station, ctx),
            Workload::SweepdMix => mix::pass(ctx),
        }
    }
}

/// The per-layer metrics every workload reports in the JSON line.
/// Backend- and service-specific ones are printed only where they apply.
const PER_LAYER: &[&str] = &[
    "engine.busy_s",
    "engine.ns_per_slot",
    "engine.slots",
    "engine.trials",
    "orchestrator.self_s",
    "orchestrator.chunk_hits",
    "orchestrator.chunk_misses",
    "store.bytes_written",
    "adversary.jammed_slots",
    "adversary.budget_spent_mean",
    "protocols.transmissions",
    "radio.singles",
    "radio.collisions",
    "telemetry.trace_overhead_frac",
];

/// A run never measures past this, whatever `--seconds` asks, so it ends
/// well inside the three minutes a run may take.
const MAX_RUN_SECONDS: f64 = 120.0;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub work: PathBuf,
    pub tamper: Tamper,
    pub min_passes: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::CohortSweep,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        work: PathBuf::from("perfbench/work"),
        tamper: Tamper::None,
        min_passes: 3,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--work-dir" => args.work = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// A finished run: every pass, the warm-up first.
pub struct Run {
    pub passes: Vec<PassOutcome>,
    pub traced: Vec<bool>,
}

impl Run {
    fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> =
            self.passes.iter().flat_map(|p| p.failures.iter().cloned()).collect();
        let first = self.passes[0].counts;
        if self.passes.iter().any(|p| p.counts != first) {
            out.push("simulated statistics differ between passes of one seed".to_string());
        }
        for p in &self.passes {
            if let Some(Err(e)) = p.self_times.as_ref().map(SelfTimes::check) {
                out.push(format!("per-layer attribution: {e}"));
            }
        }
        out
    }

    fn attempted(&self) -> u64 {
        self.passes.iter().map(|p| p.attempted).sum()
    }

    /// Measured (non-warm-up) passes with the given tracing state.
    fn measured(&self, traced: bool) -> impl Iterator<Item = &PassOutcome> {
        self.passes
            .iter()
            .zip(&self.traced)
            .skip(1)
            .filter(move |(_, &t)| t == traced)
            .map(|(p, _)| p)
    }
}

pub fn run(args: &Args) -> Result<Run, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("create {}: {e}", args.work.display()))?;
    let started = Instant::now();
    let mut run = Run { passes: Vec::new(), traced: Vec::new() };
    loop {
        let pass = run.passes.len();
        // After the warm-up, trace runs alternate untraced and traced passes.
        let traced = args.trace && pass.is_multiple_of(2) && pass > 0;
        let ctx = PassCtx {
            seed: args.seed,
            scale: args.scale,
            work: args.work.clone(),
            pass,
            traced,
            tamper: if pass == 0 { args.tamper } else { Tamper::None },
        };
        run.passes.push(args.workload.pass(&ctx)?);
        run.traced.push(traced);
        let elapsed = started.elapsed().as_secs_f64();
        let measured = run.passes.len() - 1;
        let enough = measured >= args.min_passes && (!args.trace || measured >= 2);
        if (enough && elapsed >= args.seconds) || elapsed >= MAX_RUN_SECONDS.max(args.seconds) {
            break;
        }
    }
    Ok(run)
}

fn per_pass(passes: &[&PassOutcome], f: impl Fn(&PassOutcome) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

fn end_to_end(run: &Run) -> Metrics {
    let passes: Vec<&PassOutcome> = run.measured(false).collect();
    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.iter().copied()).collect();
    let mut m = Metrics::new();
    trace::put(&mut m, "setup_s", per_pass(&passes, |p| p.setup_s), "s");
    trace::put(&mut m, "wall_s", per_pass(&passes, |p| p.wall_s), "s");
    trace::put(
        &mut m,
        "slots_per_s",
        per_pass(&passes, |p| p.counts.slots as f64 / p.wall_s),
        "slots/s",
    );
    trace::put(
        &mut m,
        "trials_per_s",
        per_pass(&passes, |p| p.counts.trials as f64 / p.wall_s),
        "trials/s",
    );
    trace::put(&mut m, "result_p50_ms", quantile(&latencies, 0.5), "ms");
    trace::put(&mut m, "result_p99_ms", quantile(&latencies, 0.99), "ms");
    trace::put(
        &mut m,
        "submissions_per_s",
        per_pass(&passes, |p| p.latencies_ms.len() as f64 / p.wall_s),
        "1/s",
    );
    trace::put(&mut m, "peak_rss_mb", peak_rss_mib(), "MiB");
    m
}

fn per_layer(run: &Run) -> Metrics {
    let traced: Vec<&PassOutcome> = run.measured(true).collect();
    let untraced: Vec<&PassOutcome> = run.measured(false).collect();
    let mut m = Metrics::new();
    for name in
        traced.first().map(|p| p.layer.keys().cloned().collect::<Vec<_>>()).unwrap_or_default()
    {
        let unit = traced[0].layer[&name].unit;
        let values: Vec<f64> =
            traced.iter().filter_map(|p| p.layer.get(&name)).map(|x| x.value).collect();
        trace::put(&mut m, &name, median(&values), unit);
    }
    let c = run.passes[0].counts;
    trace::put(&mut m, "engine.slots", c.slots as f64, "count");
    trace::put(&mut m, "engine.trials", c.trials as f64, "count");
    trace::put(&mut m, "adversary.jammed_slots", c.jammed_slots as f64, "count");
    trace::put(&mut m, "adversary.budget_spent_mean", c.budget_spent_mean(), "ratio");
    trace::put(&mut m, "protocols.transmissions", c.transmissions as f64, "count");
    trace::put(&mut m, "radio.singles", c.singles as f64, "count");
    trace::put(&mut m, "radio.collisions", c.collisions as f64, "count");
    let overhead = per_pass(&traced, |p| p.wall_s) / per_pass(&untraced, |p| p.wall_s) - 1.0;
    trace::put(&mut m, "telemetry.trace_overhead_frac", overhead, "ratio");
    m
}

fn metrics_json(m: &Metrics, names: impl IntoIterator<Item = String>) -> Value {
    Value::Map(
        names
            .into_iter()
            .filter_map(|name| {
                let x = m.get(&name)?;
                let v = Value::Map(vec![
                    ("value".into(), Value::F64(x.value)),
                    ("unit".into(), Value::Str(x.unit.to_string())),
                ]);
                Some((name, v))
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} trace={} passes={} (first is warm-up) nproc={nproc}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        run.passes.len()
    );
    for (i, (p, traced)) in run.passes.iter().zip(&run.traced).enumerate() {
        println!(
            "  pass {i}{}: setup_s={:.4} wall_s={:.4} ops={} op_p50_ms={:.3}",
            if *traced { " (traced)" } else { "" },
            p.setup_s,
            p.wall_s,
            p.latencies_ms.len(),
            median(&p.latencies_ms)
        );
    }
    for note in &run.passes[0].notes {
        println!("  {note}");
    }
    let counts = run.passes[0].counts.render();
    println!("counts: {counts}");
    println!("counts_digest: {:016x}", fnv1a(counts.as_bytes()));
    let failures = run.failures();
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    let failed = failures.len() as u64;
    let attempted = run.attempted().max(1);
    println!("failed_frac = {} ratio ({failed} of {attempted})", failed as f64 / attempted as f64);

    let (metrics, names): (Metrics, Vec<String>) = if args.trace {
        let m = per_layer(&run);
        if let Some((p, _)) = run.passes.iter().zip(&run.traced).rev().find(|(_, &t)| t) {
            if let Some(st) = &p.self_times {
                println!("per-layer self time, last traced pass:\n{}", st.render());
            }
            let path =
                args.work.join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed));
            match p.recorder.write_chrome_trace(&path) {
                Ok(()) => println!("chrome trace: {}", path.display()),
                Err(e) => eprintln!("perfbench: write {}: {e}", path.display()),
            }
        }
        for (name, x) in &m {
            println!("{name} = {} {}", x.value, x.unit);
        }
        (m, PER_LAYER.iter().map(|s| s.to_string()).collect())
    } else {
        let m = end_to_end(&run);
        for (name, x) in &m {
            println!("{name} = {} {}", x.value, x.unit);
        }
        let p99 = m["result_p99_ms"].value;
        let lat: Vec<f64> =
            run.measured(false).flat_map(|p| p.latencies_ms.iter().copied()).collect();
        println!(
            "  (latency percentiles over {} operations, {} above p99)",
            lat.len(),
            lat.iter().filter(|&&x| x > p99).count()
        );
        let names = m.keys().cloned().collect();
        (m, names)
    };
    let out = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics_json(&metrics, names)),
    ]);
    println!("{}", serde_json::to_string(&out).expect("result serialization"));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [Workload::CohortSweep, Workload::StationSweep, Workload::SweepdMix];

    fn tiny(workload: Workload, tamper: Tamper, trace: bool, dir: &str) -> Run {
        let args = Args {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            scale: Scale::Tiny,
            work: PathBuf::from("work").join(format!("selftest-{dir}")),
            tamper,
            min_passes: 1,
        };
        let run = run(&args).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        let _ = std::fs::remove_dir_all(&args.work);
        run
    }

    #[test]
    fn tiny_runs_pass_their_checks_and_report_every_metric() {
        for w in ALL {
            let run = tiny(w, Tamper::None, false, "plain");
            assert!(run.failures().is_empty(), "{}: {:?}", w.name(), run.failures());
            let m = end_to_end(&run);
            assert_eq!(m.len(), 8, "{}", w.name());
            for (name, x) in &m {
                assert!(x.value.is_finite() && x.value > 0.0, "{} {name} = {}", w.name(), x.value);
            }
        }
    }

    #[test]
    fn one_seed_gives_identical_counts() {
        for w in ALL {
            let a = tiny(w, Tamper::None, false, "repeat-a").passes[0].counts;
            let b = tiny(w, Tamper::None, false, "repeat-b").passes[0].counts;
            assert_eq!(a, b, "{}", w.name());
            assert!(a.slots > 0 && a.trials > 0, "{}", w.name());
        }
    }

    #[test]
    fn traced_runs_account_for_wall_time() {
        for w in ALL {
            let run = tiny(w, Tamper::None, true, "traced");
            assert!(run.failures().is_empty(), "{}: {:?}", w.name(), run.failures());
            let traced: Vec<&PassOutcome> = run.measured(true).collect();
            assert!(!traced.is_empty(), "{}", w.name());
            for p in traced {
                let st = p.self_times.as_ref().expect("traced pass has self times");
                st.check().unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            }
            let m = per_layer(&run);
            for name in PER_LAYER {
                assert!(m.contains_key(*name), "{} lacks {name}", w.name());
            }
        }
    }

    #[test]
    fn a_tampered_report_is_caught() {
        for w in ALL {
            let run = tiny(w, Tamper::Report, false, "tamper-report");
            assert!(!run.failures().is_empty(), "{}: tampering went unnoticed", w.name());
        }
    }

    #[test]
    fn a_tampered_stored_chunk_is_caught() {
        for w in ALL {
            let run = tiny(w, Tamper::Chunk, false, "tamper-chunk");
            assert!(!run.failures().is_empty(), "{}: tampering went unnoticed", w.name());
        }
    }
}
