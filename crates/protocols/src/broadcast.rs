//! The `Broadcast(u)` primitive (Functions 1 and 3 of the paper).
//!
//! Both the strong-CD and weak-CD variants "transmit with probability
//! `2^{-u}`"; the difference is only in the returned feedback, which in
//! this codebase is handled by the engine's observation model
//! (`jle_radio::cd::observe`): a weak-CD transmitter receives
//! `TxAssumedCollision`, exactly Function 3's "if transmitted then return
//! Collision".

/// Memoized integer ladder: `POW2_NEG[k] = 2^{-k}` exactly, by bit
/// pattern (`(1023 − k) << 52` is the IEEE-754 double with exponent
/// `−k` and an all-zero mantissa). Willard/backoff-style protocols step
/// `u` through whole levels every slot, so the common case becomes a
/// table load instead of an `exp2` call.
const POW2_NEG_LEVELS: usize = 64;
const POW2_NEG: [f64; POW2_NEG_LEVELS] = {
    let mut table = [0.0; POW2_NEG_LEVELS];
    let mut k = 0;
    while k < POW2_NEG_LEVELS {
        table[k] = f64::from_bits((1023 - k as u64) << 52);
        k += 1;
    }
    table
};

/// Smallest estimate whose probability underflows: `2^{-1075}` lies
/// halfway between 0 and the least subnormal `2^{-1074}` and rounds to
/// even, so `(-u).exp2()` is exactly `0.0` for every `u ≥ 1075`.
const UNDERFLOW_U: f64 = 1075.0;

/// Transmission probability for estimate `u`: `2^{-u}`, clamped to `[0,1]`.
///
/// `u` may be any non-negative real (LESK moves it in steps of `ε/8`);
/// values so large that `2^{-u}` underflows simply yield probability 0,
/// returned without an `exp2` call (Willard's estimate climbs far past
/// that point under saturating jamming). Whole-number estimates below 64
/// hit a constant table whose entries are bit-identical to
/// `(-u).exp2()`, so memoization is invisible to golden fixtures.
#[inline]
pub fn tx_probability(u: f64) -> f64 {
    if u <= 0.0 {
        return 1.0;
    }
    if u >= UNDERFLOW_U {
        return 0.0;
    }
    let k = u as usize;
    if k < POW2_NEG_LEVELS && u == k as f64 {
        return POW2_NEG[k];
    }
    (-u).exp2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powers_of_two() {
        assert_eq!(tx_probability(0.0), 1.0);
        assert_eq!(tx_probability(1.0), 0.5);
        assert_eq!(tx_probability(3.0), 0.125);
        assert!((tx_probability(10.0) - 1.0 / 1024.0).abs() < 1e-15);
    }

    #[test]
    fn fractional_estimates() {
        let p = tx_probability(0.5);
        assert!((p - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn extremes() {
        assert_eq!(tx_probability(-1.0), 1.0);
        assert_eq!(tx_probability(5000.0), 0.0, "underflow clamps to zero");
        assert!(tx_probability(1074.0) >= 0.0);
    }

    #[test]
    fn table_is_bitwise_identical_to_exp2() {
        for k in 0..64u32 {
            let u = k as f64;
            assert_eq!(
                tx_probability(u).to_bits(),
                (-u).exp2().to_bits(),
                "level {k} must be exact — memoization may not shift any golden fixture"
            );
        }
        // Just past the table: still exp2, still continuous.
        assert_eq!(tx_probability(64.0).to_bits(), (-64.0f64).exp2().to_bits());
        // Fractional estimates never hit the table.
        for u in [0.125, 1.5, 33.25, 63.875] {
            assert_eq!(tx_probability(u).to_bits(), (-u).exp2().to_bits());
        }
    }

    #[test]
    fn underflow_cutoff_is_bitwise_identical_to_exp2() {
        assert_eq!((-UNDERFLOW_U).exp2().to_bits(), 0.0f64.to_bits(), "exp2 is +0.0 at the cutoff");
        assert!((-(UNDERFLOW_U - 0.5)).exp2() > 0.0, "the cutoff is the first zero");
        // Whole and fractional estimates in eighth-steps over [1000, 1200],
        // plus values straddling the cutoff by one ulp.
        let grid = (0..=1600).map(|i| 1000.0 + i as f64 / 8.0);
        let edges = [
            1074.0,
            1_074.999_999_999,
            f64::from_bits(UNDERFLOW_U.to_bits() - 1),
            UNDERFLOW_U,
            f64::from_bits(UNDERFLOW_U.to_bits() + 1),
            1075.3,
            1199.9,
        ];
        for u in grid.chain(edges) {
            assert_eq!(tx_probability(u).to_bits(), (-u).exp2().to_bits(), "u = {u}");
        }
    }
}
