//! The protocol-aware adaptive attacker.

use crate::budget::JamBudget;
use crate::traits::JamStrategy;
use jle_radio::{ChannelState, HistoryView};
use rand::RngCore;

/// Mirrors LESK's public estimate `u` and spends jamming budget only when
/// a `Single` is plausible.
///
/// The paper grants the adversary the protocol code, the channel history
/// and the true `n` (Section 1.1). Because LESK is *uniform*, its estimate
/// `u` is a deterministic function of the observed channel prefix, so the
/// adversary can track it exactly: `Null → u ← max(u−1, 0)`,
/// `Collision → u ← u + ε/8` (jammed slots read as Collision to the
/// stations, hence also bump the mirror). It then requests a jam exactly
/// when `u` is within `band` of `log₂ n` — the region where
/// `P[Single]` is non-negligible (Lemma 2.4) — and saves budget elsewhere,
/// which lets it jam the danger zone *continuously* for stretches up to
/// its banked allowance.
#[derive(Debug, Clone)]
pub struct AdaptiveEstimatorJammer {
    log2_n: f64,
    increment: f64,
    band: f64,
    u: f64,
    slots_seen: u64,
}

impl AdaptiveEstimatorJammer {
    /// `n` — true network size; `protocol_eps` — the ε the attacked LESK
    /// instance uses (increment `ε/8`); `band` — half-width of the danger
    /// band around `log₂ n`.
    pub fn new(n: u64, protocol_eps: f64, band: f64) -> Self {
        Self::with_initial_u(n, protocol_eps, band, 0.0)
    }

    /// Like [`AdaptiveEstimatorJammer::new`] but starting the mirror at
    /// `initial_u` (for attacking warm-started protocol instances).
    pub fn with_initial_u(n: u64, protocol_eps: f64, band: f64, initial_u: f64) -> Self {
        AdaptiveEstimatorJammer {
            log2_n: (n.max(1) as f64).log2(),
            increment: protocol_eps / 8.0,
            band,
            u: initial_u.max(0.0),
            slots_seen: 0,
        }
    }

    /// The adversary's current mirror of LESK's estimate.
    pub fn mirrored_u(&self) -> f64 {
        self.u
    }

    fn catch_up(&mut self, history: &dyn HistoryView) {
        // Replay any slots completed since the last decision. With the
        // engine calling decide() every slot this loop runs at most once.
        while self.slots_seen < history.now() {
            let Some(p) = history.slot(self.slots_seen) else {
                // Slot fell out of retention (cannot happen with the
                // engine's retention >= 1 slot lag); skip conservatively.
                self.slots_seen += 1;
                continue;
            };
            match p.state() {
                ChannelState::Null => self.u = (self.u - 1.0).max(0.0),
                ChannelState::Collision => self.u += self.increment,
                ChannelState::Single => {} // election ends; mirror freezes
            }
            self.slots_seen += 1;
        }
    }
}

impl JamStrategy for AdaptiveEstimatorJammer {
    fn name(&self) -> &'static str {
        "adaptive-estimator"
    }

    fn decide(
        &mut self,
        history: &dyn HistoryView,
        _budget: &JamBudget,
        _rng: &mut dyn RngCore,
    ) -> bool {
        self.catch_up(history);
        (self.u - self.log2_n).abs() <= self.band
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::Rate;
    use jle_radio::{ChannelHistory, SlotTruth};
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn mirrors_lesk_updates() {
        let mut s = AdaptiveEstimatorJammer::new(16, 0.5, 1.0);
        let b = JamBudget::new(Rate::from_f64(0.5), 8);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut h = ChannelHistory::new(64);
        // Two collisions then a null.
        h.push(&SlotTruth::new(3, false));
        h.push(&SlotTruth::new(0, true)); // jammed → Collision to stations
        s.decide(&h, &b, &mut rng);
        assert!((s.mirrored_u() - 2.0 * 0.5 / 8.0).abs() < 1e-12);
        h.push(&SlotTruth::new(0, false));
        s.decide(&h, &b, &mut rng);
        assert!((s.mirrored_u() - 0.0f64.max(2.0 * 0.0625 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn fires_only_in_band() {
        // n = 4 → log2 n = 2; band 0.25. Drive u to ~2 with collisions.
        let mut s = AdaptiveEstimatorJammer::new(4, 0.5, 0.25);
        let b = JamBudget::new(Rate::from_f64(0.5), 8);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut h = ChannelHistory::new(4096);
        // u increments by 1/16 per collision; after 32 collisions u = 2.
        let mut fired_before_band = false;
        let mut fired_in_band = false;
        for i in 0..32 {
            let d = s.decide(&h, &b, &mut rng);
            if i < 28 && d {
                fired_before_band = true;
            }
            h.push(&SlotTruth::new(5, false));
        }
        if s.decide(&h, &b, &mut rng) {
            fired_in_band = true;
        }
        assert!(!fired_before_band, "must save budget below the band");
        assert!(fired_in_band, "must spend budget inside the band");
    }
}
