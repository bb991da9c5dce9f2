//! Piecewise composition of strategies.

use crate::budget::JamBudget;
use crate::traits::JamStrategy;
use jle_radio::HistoryView;
use rand::RngCore;

/// Runs a different sub-strategy in each slot range: the entry with the
/// largest `from_slot ≤ now` is active. Useful for modelling adversaries
/// that change tactics (e.g. sleep through `Estimation`, then attack the
/// LESK phase).
pub struct PhasedJammer {
    phases: Vec<(u64, Box<dyn JamStrategy>)>,
}

impl PhasedJammer {
    /// `phases` must be sorted by `from_slot` ascending; the first phase
    /// should start at 0 (slots before the first phase are idle).
    pub fn new(mut phases: Vec<(u64, Box<dyn JamStrategy>)>) -> Self {
        phases.sort_by_key(|(from, _)| *from);
        PhasedJammer { phases }
    }
}

impl JamStrategy for PhasedJammer {
    fn name(&self) -> &'static str {
        "phased"
    }

    fn decide(
        &mut self,
        history: &dyn HistoryView,
        budget: &JamBudget,
        rng: &mut dyn RngCore,
    ) -> bool {
        let now = history.now();
        let active = self.phases.iter_mut().rev().find(|(from, _)| *from <= now);
        match active {
            Some((_, strategy)) => strategy.decide(history, budget, rng),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::Rate;
    use crate::strategies::{NoJammer, SaturatingJammer};
    use jle_radio::{ChannelHistory, SlotTruth};
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn switches_at_boundaries() {
        let mut s = PhasedJammer::new(vec![
            (0, Box::new(NoJammer) as Box<dyn JamStrategy>),
            (3, Box::new(SaturatingJammer)),
            (5, Box::new(NoJammer)),
        ]);
        let b = JamBudget::new(Rate::from_f64(0.5), 4);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut h = ChannelHistory::new(16);
        let mut pat = Vec::new();
        for _ in 0..7 {
            pat.push(s.decide(&h, &b, &mut rng));
            h.push(&SlotTruth::IDLE);
        }
        assert_eq!(pat, vec![false, false, false, true, true, false, false]);
    }

    #[test]
    fn empty_is_idle() {
        let mut s = PhasedJammer::new(vec![]);
        let b = JamBudget::new(Rate::from_f64(0.5), 4);
        let mut rng = SmallRng::seed_from_u64(1);
        let h = ChannelHistory::new(16);
        assert!(!s.decide(&h, &b, &mut rng));
    }
}
