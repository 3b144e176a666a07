//! Full BDI design-space exploration (paper §4, Fig. 5).
//!
//! The original BDI algorithm tries every ⟨base, delta⟩ pair and keeps the
//! one with the highest compression ratio. Warped-compression rejects that
//! at runtime (too slow / too much energy) but the paper runs it offline to
//! justify restricting the hardware to 4-byte bases — Fig. 5 shows 8-byte
//! bases are almost never the best choice. This module reproduces that
//! study.

use crate::codec::{compress_with_layout, decompress};
use crate::fold;
use crate::layout::{BaseSize, ChunkLayout};
use crate::register::WarpRegister;

/// The seven ⟨base, delta⟩ parameter pairs the paper's explorer evaluates
/// on every register write (§4): `<4,0>, <4,1>, <4,2>, <8,0>, <8,1>,
/// <8,2>, <8,4>`.
pub const EXPLORER_CHOICES: [(BaseSize, usize); 7] = [
    (BaseSize::B4, 0),
    (BaseSize::B4, 1),
    (BaseSize::B4, 2),
    (BaseSize::B8, 0),
    (BaseSize::B8, 1),
    (BaseSize::B8, 2),
    (BaseSize::B8, 4),
];

/// Result of the full-BDI exploration for one register write.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BestChoice {
    /// The layout achieving the highest compression ratio.
    Layout(ChunkLayout),
    /// No explored layout fit; the register is incompressible.
    Uncompressed,
}

impl BestChoice {
    /// The chosen layout, if any.
    pub fn layout(self) -> Option<ChunkLayout> {
        match self {
            BestChoice::Layout(l) => Some(l),
            BestChoice::Uncompressed => None,
        }
    }
}

/// Runs the full BDI explorer on one register value and returns the
/// best-compressing ⟨base, delta⟩ pair (ties broken towards the 4-byte
/// base, which appears first in [`EXPLORER_CHOICES`]).
///
/// # Example
///
/// ```
/// use bdi::{explore_best_choice, WarpRegister, BaseSize};
///
/// let reg = WarpRegister::from_fn(|t| 40 + t as u32);
/// let best = explore_best_choice(&reg).layout().unwrap();
/// assert_eq!(best.base(), BaseSize::B4);
/// assert_eq!(best.delta_bytes(), 1);
/// ```
pub fn explore_best_choice(reg: &WarpRegister) -> BestChoice {
    // Two width folds over the register — 4-byte chunks (== lanes) and
    // 8-byte chunks (lane pairs): `bits` detects exact-zero deltas; `mag`
    // folds the sign-folded pattern `d ^ (d >> n-1)`, which is
    // < 2^(8w-1) exactly when every delta fits a w-byte signed value —
    // the software analog of the hardware's parallel comparator array
    // (Fig. 7). The fold→width decision is the same helper per chunk
    // size that the codec's compress path uses.
    let lanes = reg.as_lanes();
    let (bits4, mag4) = fold::fold4(lanes);
    let (bits8, mag8) = fold::fold8(lanes);
    // Narrowest fitting delta width per base; any wider same-base layout
    // is strictly larger, so only these two candidates can win.
    let width4 = fold::width4_of_fold(bits4, mag4);
    let width8 = fold::width8_of_fold(bits8, mag8);
    let layout = |base, w: Option<usize>| {
        w.map(|w| ChunkLayout::new(base, w).expect("explorer widths are valid"))
    };
    let best = match (layout(BaseSize::B4, width4), layout(BaseSize::B8, width8)) {
        (None, None) => BestChoice::Uncompressed,
        (Some(l), None) | (None, Some(l)) => BestChoice::Layout(l),
        // Ties break towards the 4-byte base, which the reference scan
        // visits first.
        (Some(l4), Some(l8)) => BestChoice::Layout(if l8.compressed_len() < l4.compressed_len() {
            l8
        } else {
            l4
        }),
    };
    debug_assert_eq!(
        best,
        explore_best_choice_reference(reg),
        "single-pass explorer oracle"
    );
    best
}

/// Reference implementation of [`explore_best_choice`]: compresses the
/// register once per explored layout and keeps the smallest result.
///
/// Kept as the oracle the property tests compare the single-pass explorer
/// against (and re-checked by a `debug_assert` on every exploration in
/// debug builds); not intended for production use.
pub fn explore_best_choice_reference(reg: &WarpRegister) -> BestChoice {
    let mut best: Option<ChunkLayout> = None;
    for &(base, delta) in EXPLORER_CHOICES.iter() {
        let layout = ChunkLayout::new(base, delta).expect("explorer choices are valid");
        if let Some(c) = compress_with_layout(reg, layout) {
            debug_assert_eq!(decompress(&c), *reg, "explorer round-trip");
            match best {
                Some(b) if b.compressed_len() <= layout.compressed_len() => {}
                _ => best = Some(layout),
            }
        }
    }
    match best {
        Some(layout) => BestChoice::Layout(layout),
        None => BestChoice::Uncompressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_register_picks_4_0() {
        let best = explore_best_choice(&WarpRegister::splat(9))
            .layout()
            .unwrap();
        assert_eq!((best.base(), best.delta_bytes()), (BaseSize::B4, 0));
    }

    #[test]
    fn tid_pattern_picks_4_1() {
        let reg = WarpRegister::from_fn(|t| t as u32);
        let best = explore_best_choice(&reg).layout().unwrap();
        assert_eq!((best.base(), best.delta_bytes()), (BaseSize::B4, 1));
    }

    #[test]
    fn random_register_is_uncompressed() {
        let reg = WarpRegister::from_fn(|t| (t as u32 + 1).wrapping_mul(0x85EB_CA6B));
        assert_eq!(explore_best_choice(&reg), BestChoice::Uncompressed);
    }

    #[test]
    fn pairwise_similarity_picks_8_byte_base() {
        // Alternating pattern {X, Y, X, Y, ...} where X and Y differ by a
        // huge amount: 4-byte deltas blow past 16 bits, but the 64-bit
        // chunks are all identical, so <8,0> wins. This is the (rare,
        // per Fig. 5) case where an 8-byte base is strictly better.
        let reg = WarpRegister::from_fn(|t| if t % 2 == 0 { 0 } else { 0x7000_0000 });
        let best = explore_best_choice(&reg).layout().unwrap();
        assert_eq!((best.base(), best.delta_bytes()), (BaseSize::B8, 0));
    }

    #[test]
    fn tie_between_4_and_8_base_prefers_4() {
        // Zero register: <4,0> (4 B) beats <8,0> (8 B) on size, and would
        // win the tie-break anyway.
        let best = explore_best_choice(&WarpRegister::ZERO).layout().unwrap();
        assert_eq!(best.base(), BaseSize::B4);
    }

    #[test]
    fn wide_stride_picks_4_2_over_8_4() {
        // Stride of 1000: 4-byte deltas fit 16 bits (<4,2>, 66 B); 8-byte
        // chunks differ by ~2^32 multiples so <8,4> does not fit at all.
        let reg = WarpRegister::from_fn(|t| 1000 * t as u32);
        let best = explore_best_choice(&reg).layout().unwrap();
        assert_eq!((best.base(), best.delta_bytes()), (BaseSize::B4, 2));
    }
}
