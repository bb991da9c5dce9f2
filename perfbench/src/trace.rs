//! Benchmark-side tracing: spans around each call into a layer, recorded
//! on a `jle_telemetry::SpanRecorder` (so the recorder's own cost is the
//! tracing overhead the traced run measures), orchestrator events as
//! zero-length marks, and the interval arithmetic behind self times.

use jle_orchestrator::{Event, Reporter};
use jle_telemetry::{SpanGuard, SpanRecorder};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Open a span under `parent` when the recorder is enabled. A disabled
/// recorder allocates nothing.
pub fn span(rec: &SpanRecorder, cat: &'static str, name: &str, parent: u64) -> Option<SpanGuard> {
    rec.is_enabled().then(|| rec.child_span(cat, name, parent))
}

pub fn id_of(guard: &Option<SpanGuard>) -> u64 {
    guard.as_ref().map_or(0, SpanGuard::id)
}

/// A zero-length span: a point event on the timeline.
pub fn mark(rec: &SpanRecorder, name: &str, parent: u64) {
    drop(span(rec, "mark", name, parent));
}

/// Records the orchestrator's `Reporter` events as marks under the unit
/// span the benchmark has open.
pub struct MarkReporter {
    pub rec: SpanRecorder,
    pub unit: Arc<AtomicU64>,
}

impl Reporter for MarkReporter {
    fn report(&self, event: &Event<'_>) {
        let name = match event {
            Event::UnitStarted { .. } => "unit_started",
            Event::ChunkFinished { .. } => "chunk_finished",
            Event::UnitFinished { .. } => "unit_finished",
            _ => return,
        };
        mark(&self.rec, name, self.unit.load(Ordering::Relaxed));
    }
}

/// One recorded span, times in microseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Ev {
    pub name: String,
    pub cat: String,
    pub ts: f64,
    pub end: f64,
    pub id: u64,
    pub parent: u64,
}

pub fn events(rec: &SpanRecorder) -> Vec<Ev> {
    let exported = rec.export_events();
    let Some(seq) = exported.as_seq() else { return Vec::new() };
    seq.iter()
        .filter_map(|e| {
            let ts = e.get("ts")?.as_u64()? as f64;
            let dur = e.get("dur").and_then(Value::as_u64).unwrap_or(0) as f64;
            let args = e.get("args")?;
            Some(Ev {
                name: e.get("name")?.as_str()?.to_string(),
                cat: e.get("cat")?.as_str()?.to_string(),
                ts,
                end: ts + dur,
                id: args.get("span").and_then(Value::as_u64).unwrap_or(0),
                parent: args.get("parent").and_then(Value::as_u64).unwrap_or(0),
            })
        })
        .collect()
}

/// Total length covered by a set of intervals.
pub fn union_len(iv: &mut [(f64, f64)]) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in iv.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

pub type Metrics = BTreeMap<String, Metric>;

pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), Metric { value, unit });
}

/// Self time per layer over one traced pass. The rows must add up to the
/// pass's wall time (times the number of client threads for the service
/// mix, whose rows are thread-seconds).
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    pub rows: Vec<(String, f64)>,
    /// What the rows must account for, in seconds.
    pub budget_s: f64,
}

impl SelfTimes {
    pub fn total(&self) -> f64 {
        self.rows.iter().map(|r| r.1).sum()
    }

    /// The rows close on the budget within 2%, and no row is negative
    /// beyond timer resolution.
    pub fn check(&self) -> Result<(), String> {
        let total = self.total();
        if (total - self.budget_s).abs() > 0.02 * self.budget_s {
            return Err(format!(
                "self-time rows sum to {total:.4} s, wall budget is {:.4} s",
                self.budget_s
            ));
        }
        if let Some((name, v)) = self.rows.iter().find(|r| r.1 < -0.01 * self.budget_s) {
            return Err(format!("self-time row {name} is negative ({v:.4} s)"));
        }
        Ok(())
    }

    pub fn render(&self) -> String {
        let mut out = String::from("  layer                          self_s     share\n");
        for (name, v) in &self.rows {
            out.push_str(&format!(
                "  {name:<28} {v:>9.4} {:>8.1}%\n",
                100.0 * v / self.budget_s.max(1e-12)
            ));
        }
        out.push_str(&format!(
            "  {:<28} {:>9.4}   (wall budget {:.4} s)\n",
            "total",
            self.total(),
            self.budget_s
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let mut iv = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)];
        assert_eq!(union_len(&mut iv), 4.0);
    }

    #[test]
    fn spans_nest_and_export() {
        let rec = SpanRecorder::new();
        let outer = span(&rec, "bench", "pass", 0);
        mark(&rec, "m", id_of(&outer));
        drop(outer);
        let evs = events(&rec);
        assert_eq!(evs.len(), 2);
        let pass = evs.iter().find(|e| e.name == "pass").unwrap();
        assert!(evs.iter().any(|e| e.name == "m" && e.parent == pass.id));
        assert!(span(&SpanRecorder::disabled(), "bench", "x", 0).is_none());
    }
}
