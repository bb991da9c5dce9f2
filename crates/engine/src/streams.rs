//! Counter-based per-station random streams for the fast exact backend.
//!
//! The legacy exact backend draws every station's randomness from **one**
//! sequential `SmallRng`, in station-index order — correct, but it welds
//! the draw order to the iteration order: skip a sleeping station and
//! every later draw shifts. [`StationRng`] removes that coupling by
//! deriving each draw as a pure function of its *coordinates*:
//!
//! ```text
//!     draw = mix(slot_state(run_key(seed, station), slot) + f(draw_index))
//! ```
//!
//! where `mix` is the SplitMix64 finalizer (the same one `rand`'s
//! `seed_from_u64` and the fault-plan generators use). Station `i`'s
//! draws in slot `t` are therefore identical no matter which other
//! stations act, in what order, or on which thread — the property the
//! active-set slot loop and its sharded action phase are built on (see
//! DESIGN.md §12).
//!
//! # The fast-backend draw contract
//!
//! * Every `(seed, station, slot, draw_index)` tuple yields one fixed
//!   64-bit value; the `draw_index` advances once per `next_u64`
//!   (`next_u32` and `gen_bool` consume exactly one).
//! * Streams for different stations, different slots, and different run
//!   seeds are mutually independent by construction (three rounds of
//!   SplitMix64 finalization between the key material and the output).
//! * The values are **intentionally unrelated** to the legacy backend's
//!   sequential stream: `FastExactStations` is locked by its *own*
//!   golden fixtures, and cross-backend agreement is statistical, not
//!   bit-level.

use rand::RngCore;

/// SplitMix64 finalizer: a bijective avalanche mix on `u64`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The golden-ratio increment SplitMix64 walks its state by.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Domain tags keeping the station/slot key material disjoint from every
/// other derived stream in the workspace (adversary stream, fault-plan
/// generators).
const STATION_TAG: u64 = 0x5741_4B45_5354_4154; // "WAKESTAT"
const SLOT_TAG: u64 = 0x534C_4F54_5354_524D; // "SLOTSTRM"

/// Per-run, per-station stream key. Compute once per station and reuse
/// across slots ([`FastExactStations`](crate::fast::FastExactStations)
/// caches one per station).
#[inline]
pub fn station_key(run_seed: u64, station: u64) -> u64 {
    mix64(run_seed ^ mix64(station.wrapping_mul(GOLDEN) ^ STATION_TAG))
}

/// Premixed slot key material: `mix64(slot·GOLDEN ^ SLOT_TAG)`, the part
/// of [`StationRng::for_slot`] that depends only on the slot. The batch
/// backend computes it once per slot and reuses it across every
/// `(station, trial)` stream of that slot via
/// [`StationRng::with_slot_material`].
#[inline]
pub fn slot_material(slot: u64) -> u64 {
    mix64(slot.wrapping_mul(GOLDEN) ^ SLOT_TAG)
}

/// A counter-based generator over one station's draws in one slot.
///
/// Implements [`RngCore`], so it slots into
/// [`Protocol::act`](crate::Protocol::act) unchanged: the fast backend
/// hands each station a fresh `StationRng` per slot instead of the shared
/// sequential engine stream.
#[derive(Debug, Clone)]
pub struct StationRng {
    state: u64,
    ctr: u64,
}

impl StationRng {
    /// The stream for `(key, slot)` where `key` came from
    /// [`station_key`]. `draw_index` starts at 0.
    #[inline]
    pub fn for_slot(key: u64, slot: u64) -> Self {
        StationRng { state: mix64(key ^ mix64(slot.wrapping_mul(GOLDEN) ^ SLOT_TAG)), ctr: 0 }
    }

    /// Like [`StationRng::for_slot`], with the slot's key material
    /// already mixed ([`slot_material`]) — the batch backend hoists that
    /// mix out of its per-station loop since one slot serves every
    /// `(station, trial)` stream.
    #[inline]
    pub fn with_slot_material(key: u64, slot_mat: u64) -> Self {
        StationRng { state: mix64(key ^ slot_mat), ctr: 0 }
    }

    /// Convenience: derive the key and position in one call.
    #[inline]
    pub fn new(run_seed: u64, station: u64, slot: u64) -> Self {
        Self::for_slot(station_key(run_seed, station), slot)
    }

    /// How many 64-bit draws have been consumed.
    #[inline]
    pub fn draws(&self) -> u64 {
        self.ctr
    }
}

impl RngCore for StationRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let v = mix64(self.state.wrapping_add(self.ctr.wrapping_mul(GOLDEN)));
        self.ctr += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn pure_function_of_coordinates() {
        let a: Vec<u64> = (0..8).map(|i| StationRng::new(7, 3, 5).nth(i)).collect();
        let b: Vec<u64> = {
            let mut r = StationRng::new(7, 3, 5);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "draw k is independent of how the stream was advanced");
    }

    impl StationRng {
        fn nth(&mut self, k: u64) -> u64 {
            for _ in 0..k {
                self.next_u64();
            }
            self.next_u64()
        }
    }

    #[test]
    fn coordinates_decorrelate() {
        let base: Vec<u64> = {
            let mut r = StationRng::new(1, 2, 3);
            (0..4).map(|_| r.next_u64()).collect()
        };
        for (seed, station, slot) in [(2, 2, 3), (1, 3, 3), (1, 2, 4)] {
            let mut r = StationRng::new(seed, station, slot);
            let other: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
            assert_ne!(base, other, "({seed},{station},{slot}) must differ from (1,2,3)");
        }
    }

    #[test]
    fn gen_bool_consumes_one_draw_and_tracks_rate() {
        let mut hits = 0u32;
        for station in 0..10_000u64 {
            let mut r = StationRng::new(99, station, 0);
            if r.gen_bool(0.25) {
                hits += 1;
            }
            assert_eq!(r.draws(), 1);
        }
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn uniform_across_slots_for_one_station() {
        // One station's first draw across many slots behaves uniformly.
        let key = station_key(5, 17);
        let mean: f64 = (0..10_000u64)
            .map(|slot| {
                let mut r = StationRng::for_slot(key, slot);
                (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64
            })
            .sum::<f64>()
            / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn works_through_dyn_rngcore() {
        let mut r = StationRng::new(4, 4, 4);
        let dynr: &mut dyn RngCore = &mut r;
        let hits = (0..1000).filter(|_| dynr.gen_bool(0.5)).count();
        assert!((400..600).contains(&hits), "hits {hits}");
    }

    #[test]
    fn with_slot_material_equals_for_slot() {
        for (seed, station, slot) in [(1u64, 2u64, 3u64), (9, 0, 0), (42, 63, 1_000_000)] {
            let key = station_key(seed, station);
            let mut a = StationRng::for_slot(key, slot);
            let mut b = StationRng::with_slot_material(key, slot_material(slot));
            for _ in 0..4 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn mix64_is_bijective_on_samples() {
        // Spot-check injectivity over a structured sample set.
        let mut seen: Vec<u64> = (0..10_000u64).map(mix64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10_000);
    }
}
