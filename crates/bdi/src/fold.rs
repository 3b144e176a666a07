//! Single-pass width folds: the codec's hot kernels.
//!
//! The 128-byte warp register is 32 lanes of 4 bytes. The compressor of
//! Fig. 7 subtracts every chunk from the base in parallel and lets a
//! comparator array pick the narrowest delta width that fits all of
//! them. Each kernel here is the software analogue of that array: one
//! sweep over the lanes, one wrapping subtract per lane, and two bitwise
//! folds that the width decision reads off at the end.
//!
//! The pure folds (`fold4`, `fold8`, `width4_bounded`) include the base
//! itself: its delta is zero, the identity of both ORs, so their loops
//! keep a fixed 32-lane (16-pair, 4 × 8-lane block) shape the compiler
//! vectorises without intrinsics.
//!
//! [`width4_of_fold`] / [`width8_of_fold`] hold the fold→width decision
//! once, for the codec's compress path, its early-exit classify and the
//! explorer alike.

use crate::deltas::MAX_STORED_DELTAS;
use crate::register::WARP_SIZE;

/// Narrowest delta width (0/1/2 bytes) a folded 4-byte sweep admits, or
/// `None` when not even 2-byte deltas fit (a 4-byte delta would not
/// shrink a 4-byte-base register).
///
/// `any_bits` detects exact-zero deltas; `magnitude` folds the
/// sign-folded pattern `d ^ (d >> 31)` (= `d` for `d >= 0`, `!d` for
/// `d < 0`), which is `< 2^(8w−1)` exactly when `d` fits a `w`-byte
/// signed delta.
pub(crate) fn width4_of_fold(any_bits: u32, magnitude: u32) -> Option<usize> {
    if any_bits == 0 {
        Some(0)
    } else if magnitude < 0x80 {
        Some(1)
    } else if magnitude < 0x8000 {
        Some(2)
    } else {
        None
    }
}

/// [`width4_of_fold`] for 8-byte chunks, where a 4-byte delta *is*
/// narrower than the base and therefore a valid width.
pub(crate) fn width8_of_fold(any_bits: u64, magnitude: u64) -> Option<usize> {
    if any_bits == 0 {
        Some(0)
    } else if magnitude < 0x80 {
        Some(1)
    } else if magnitude < 0x8000 {
        Some(2)
    } else if magnitude < 0x8000_0000 {
        Some(4)
    } else {
        None
    }
}

/// Folds one 4-byte delta into the `(any_bits, magnitude)` accumulators.
#[inline(always)]
fn fold4_lane(acc: &mut (u32, u32), lane: u32, base: u32) -> i32 {
    let d = lane.wrapping_sub(base) as i32;
    acc.0 |= d as u32;
    acc.1 |= (d ^ (d >> 31)) as u32;
    d
}

/// Width fold vs `lanes[0]`: `(any_bits, magnitude)` — `any_bits` ORs
/// the raw 4-byte deltas (zero ⇔ ⟨4,0⟩ fits), `magnitude` ORs the
/// sign-folded pattern (see [`width4_of_fold`]).
pub(crate) fn fold4(lanes: &[u32; WARP_SIZE]) -> (u32, u32) {
    let base = lanes[0];
    let mut acc = (0u32, 0u32);
    for &lane in lanes {
        fold4_lane(&mut acc, lane, base);
    }
    acc
}

/// The same fold over 8-byte chunks (lane pairs) vs chunk 0, for the
/// full-BDI explorer.
pub(crate) fn fold8(lanes: &[u32; WARP_SIZE]) -> (u64, u64) {
    let base = u64::from(lanes[0]) | (u64::from(lanes[1]) << 32);
    let mut bits = 0u64;
    let mut mag = 0u64;
    for pair in 0..WARP_SIZE / 2 {
        let chunk = u64::from(lanes[2 * pair]) | (u64::from(lanes[2 * pair + 1]) << 32);
        let d = chunk.wrapping_sub(base) as i64;
        bits |= d as u64;
        mag |= (d ^ (d >> 63)) as u64;
    }
    (bits, mag)
}

/// [`fold4`] that additionally stores the 31 non-base deltas into
/// `vals[0..31]` (slots `31..` are left untouched), feeding
/// [`DeltaArray`](crate::DeltaArray) directly.
pub(crate) fn sweep4(lanes: &[u32; WARP_SIZE], vals: &mut [i32; MAX_STORED_DELTAS]) -> (u32, u32) {
    let base = lanes[0];
    let mut acc = (0u32, 0u32);
    for (slot, &lane) in vals.iter_mut().zip(&lanes[1..]) {
        *slot = fold4_lane(&mut acc, lane, base);
    }
    acc
}

/// Early-exit bounded classification: the narrowest delta width (0/1/2)
/// that fits every lane, or `None` as soon as the fold proves no width
/// `<= max_width` can fit.
pub(crate) fn width4_bounded(lanes: &[u32; WARP_SIZE], max_width: usize) -> Option<usize> {
    let base = lanes[0];
    let mut acc = (0u32, 0u32);
    // Fold in 8-lane blocks and bail at the first block that already
    // rules every allowed width out — the accumulators only grow, so an
    // over-budget prefix can never come back under budget.
    for block in lanes.chunks_exact(8) {
        for &lane in block {
            fold4_lane(&mut acc, lane, base);
        }
        let over = match max_width {
            0 => acc.0 != 0,
            1 => acc.1 >= 0x80,
            _ => acc.1 >= 0x8000,
        };
        if over {
            return None;
        }
    }
    width4_of_fold(acc.0, acc.1).filter(|&w| w <= max_width)
}

/// 4-byte-base decompression: `out[0] = base`, `out[i+1] = base +
/// vals[i]` (wrapping), one add per lane.
pub(crate) fn decompress4(base: u32, vals: &[i32; MAX_STORED_DELTAS]) -> [u32; WARP_SIZE] {
    let mut out = [0u32; WARP_SIZE];
    out[0] = base;
    for (lane, &d) in out[1..].iter_mut().zip(&vals[..WARP_SIZE - 1]) {
        *lane = base.wrapping_add(d as u32);
    }
    out
}
