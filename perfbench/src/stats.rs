//! Small statistics helpers and the simulated-statistics counts.

use jle_engine::RunReport;
use std::path::Path;

/// Simulated statistics summed over the reports a workload returns. They
/// depend only on the generated inputs, so one seed must always give the
/// same counts, and a change that only makes the program faster must
/// leave them identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub trials: u64,
    pub slots: u64,
    pub jammed_slots: u64,
    pub transmissions: u64,
    pub singles: u64,
    pub collisions: u64,
    pub cap_hits: u64,
    /// Sum of the adversaries' spent-budget fractions (the field is not
    /// serialized, so it comes from in-memory reports).
    pub budget_spent_sum: f64,
}

impl Counts {
    pub fn add(&mut self, r: &RunReport) {
        self.trials += 1;
        self.slots += r.slots;
        self.jammed_slots += r.counts.jammed;
        self.transmissions += r.energy.transmissions;
        self.singles += r.counts.singles;
        self.collisions += r.counts.collisions;
        self.cap_hits += u64::from(r.cap_hit && r.resolved_at.is_none() && r.leaders.is_empty());
        self.budget_spent_sum += r.adv_budget_spent;
    }

    pub fn merge(&mut self, o: &Counts) {
        self.trials += o.trials;
        self.slots += o.slots;
        self.jammed_slots += o.jammed_slots;
        self.transmissions += o.transmissions;
        self.singles += o.singles;
        self.collisions += o.collisions;
        self.cap_hits += o.cap_hits;
        self.budget_spent_sum += o.budget_spent_sum;
    }

    pub fn budget_spent_mean(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.budget_spent_sum / self.trials as f64
        }
    }

    /// One line with every count, exact.
    pub fn render(&self) -> String {
        format!(
            "engine.trials={} engine.slots={} adversary.jammed_slots={} \
             adversary.budget_spent_mean={:.17e} protocols.transmissions={} radio.singles={} \
             radio.collisions={} engine.cap_hits={}",
            self.trials,
            self.slots,
            self.jammed_slots,
            self.budget_spent_mean(),
            self.transmissions,
            self.singles,
            self.collisions,
            self.cap_hits
        )
    }
}

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile of a power-of-two bucket histogram (bucket 0 holds zeros,
/// bucket `i` holds `[2^(i-1), 2^i)`), interpolated linearly within the
/// bucket that holds the rank.
pub fn histogram_quantile(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if (seen + c) as f64 >= rank {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let frac = (rank - seen as f64) / c as f64;
            return lo + lo * frac.clamp(0.0, 1.0);
        }
        seen += c;
    }
    0.0
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// 64-bit FNV-1a, for cheap payload digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn histogram_quantile_stays_in_bucket() {
        // 10 observations in [8, 16).
        let mut b = vec![0u64; 65];
        b[4] = 10;
        let p50 = histogram_quantile(&b, 0.5);
        assert!((8.0..=16.0).contains(&p50), "{p50}");
    }
}
