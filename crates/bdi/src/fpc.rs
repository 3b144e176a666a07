//! Frequent Pattern Compression (FPC) — a comparison codec.
//!
//! The paper states (§4) that the authors "explored a wide range of
//! compression algorithms to measure the compression ratio and their
//! compression latency" before selecting BDI. This module reproduces
//! that exploration's main contender: FPC (Alameldeen & Wood, the basis
//! of several cache-compression designs), which encodes each 32-bit word
//! with a 3-bit prefix selecting one of eight patterns.
//!
//! FPC often compresses a bit *better* than restricted BDI on
//! similarity-heavy data, but its output is a variable-length bit stream:
//! decompression is inherently serial (each word's position depends on
//! every previous prefix), so it cannot meet the 1-cycle decompression
//! budget of a register file read — which is exactly the argument the
//! paper makes for BDI. The `codec-study` table in `wc-bench` quantifies
//! the ratio side of that trade-off.

use crate::layout::BANK_BYTES;
use crate::register::{WarpRegister, WARP_SIZE};

/// One FPC word pattern (prefix ordering follows the original paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pattern {
    /// A run of zero words (run length encoded in 3 data bits).
    ZeroRun,
    /// Value fits 4 bits sign-extended.
    Se4,
    /// Value fits 8 bits sign-extended.
    Se8,
    /// Value fits 16 bits sign-extended.
    Se16,
    /// Upper halfword zero (16 payload bits).
    PaddedHalf,
    /// Both halfwords fit 8 bits sign-extended each.
    TwoHalves,
    /// All four bytes identical (8 payload bits).
    RepeatedBytes,
    /// Stored verbatim (32 payload bits).
    Uncompressed,
}

impl Pattern {
    fn payload_bits(self) -> usize {
        match self {
            Pattern::ZeroRun => 3,
            Pattern::Se4 => 4,
            Pattern::Se8 | Pattern::RepeatedBytes => 8,
            Pattern::Se16 | Pattern::PaddedHalf | Pattern::TwoHalves => 16,
            Pattern::Uncompressed => 32,
        }
    }
}

const PREFIX_BITS: usize = 3;
const MAX_ZERO_RUN: usize = 8;

fn fits_se(v: u32, bits: u32) -> bool {
    let shift = 32 - bits;
    (((v << shift) as i32) >> shift) as u32 == v
}

/// Whether a 16-bit halfword, *as a signed 16-bit value*, fits 8 bits.
fn half_fits_se8(h: u32) -> bool {
    let v = (h as u16) as i16;
    i8::try_from(v).is_ok()
}

fn classify(word: u32) -> Pattern {
    if fits_se(word, 4) {
        Pattern::Se4
    } else if fits_se(word, 8) {
        Pattern::Se8
    } else if fits_se(word, 16) {
        Pattern::Se16
    } else if word >> 16 == 0 {
        Pattern::PaddedHalf
    } else if half_fits_se8(word >> 16) && half_fits_se8(word & 0xFFFF) {
        Pattern::TwoHalves
    } else {
        let b = word & 0xFF;
        if word == b * 0x0101_0101 {
            Pattern::RepeatedBytes
        } else {
            Pattern::Uncompressed
        }
    }
}

/// FPC scan: total encoded bits of the non-zero words (prefix + payload
/// each) plus the bitmask of zero words (bit *i* set ⇔ word *i* is
/// zero). The word classification is position-independent — only the
/// zero-run encoding couples neighbouring words — so the scan is one
/// order-free pass, and the serial run-length cost is recovered from the
/// mask by [`zero_run_bits`].
fn fpc_scan(words: &[u32; WARP_SIZE]) -> (u32, u32) {
    let mut bits = 0u32;
    let mut zmask = 0u32;
    for (i, &word) in words.iter().enumerate() {
        if word == 0 {
            zmask |= 1 << i;
        } else {
            bits += (PREFIX_BITS + classify(word).payload_bits()) as u32;
        }
    }
    (bits, zmask)
}

/// Encoded bits of the zero words given their position mask: each
/// maximal run of `L` consecutive zeros costs one ZeroRun encoding per
/// started [`MAX_ZERO_RUN`] words, exactly like the serial scan.
fn zero_run_bits(mut mask: u32) -> usize {
    let mut bits = 0;
    while mask != 0 {
        let start = mask.trailing_zeros();
        let run = (mask >> start).trailing_ones();
        bits +=
            (run as usize).div_ceil(MAX_ZERO_RUN) * (PREFIX_BITS + Pattern::ZeroRun.payload_bits());
        mask &= !(((1u64 << run) - 1) as u32) << start;
    }
    bits
}

/// FPC-compressed size of a word sequence, in bits.
///
/// Full 32-word warp registers take a single order-free scan; other
/// lengths fall back to the serial [`compressed_bits_reference`] loop.
pub fn compressed_bits(words: &[u32]) -> usize {
    if let Ok(lanes) = <&[u32; WARP_SIZE]>::try_from(words) {
        let (nonzero_bits, zmask) = fpc_scan(lanes);
        let total = nonzero_bits as usize + zero_run_bits(zmask);
        debug_assert_eq!(total, compressed_bits_reference(words), "fpc scan oracle");
        return total;
    }
    compressed_bits_reference(words)
}

/// Reference serial FPC sizing: walks the words in order, folding zero
/// runs as it goes — the shape the original FPC hardware pipeline has.
/// Kept as the oracle the property tests (and a `debug_assert` in
/// [`compressed_bits`]) pin the single-pass scan against.
pub fn compressed_bits_reference(words: &[u32]) -> usize {
    let mut bits = 0;
    let mut i = 0;
    while i < words.len() {
        if words[i] == 0 {
            let mut run = 1;
            while run < MAX_ZERO_RUN && i + run < words.len() && words[i + run] == 0 {
                run += 1;
            }
            bits += PREFIX_BITS + Pattern::ZeroRun.payload_bits();
            i += run;
        } else {
            bits += PREFIX_BITS + classify(words[i]).payload_bits();
            i += 1;
        }
    }
    bits
}

/// FPC-compressed size of a warp register, in bytes (rounded up).
pub fn compressed_len(reg: &WarpRegister) -> usize {
    compressed_bits(reg.as_lanes()).div_ceil(8)
}

/// Register banks an FPC-compressed register would occupy, if the banked
/// layout stored the bit stream contiguously.
pub fn banks_required(reg: &WarpRegister) -> usize {
    compressed_len(reg).div_ceil(BANK_BYTES)
}

/// FPC compression ratio of one register.
pub fn compression_ratio(reg: &WarpRegister) -> f64 {
    crate::register::WARP_REGISTER_BYTES as f64 / compressed_len(reg) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_collapses_to_runs() {
        // 32 zero words = 4 runs of 8 = 4 × (3+3) bits = 24 bits = 3 B.
        assert_eq!(compressed_bits(&[0u32; 32]), 24);
        assert_eq!(compressed_len(&WarpRegister::ZERO), 3);
        assert_eq!(banks_required(&WarpRegister::ZERO), 1);
    }

    #[test]
    fn word_classification() {
        assert_eq!(classify(7), Pattern::Se4);
        assert_eq!(classify((-8i32) as u32), Pattern::Se4);
        assert_eq!(classify(100), Pattern::Se8);
        assert_eq!(classify((-100i32) as u32), Pattern::Se8);
        assert_eq!(classify(30_000), Pattern::Se16);
        // Halfwords are signed 16-bit values: 0xFFFF is -1, which fits 8
        // bits, so {0x45, -1} is a TwoHalves pattern.
        assert_eq!(classify(0x0045_FFFF), Pattern::TwoHalves);
        assert_eq!(classify(0x0012_0034), Pattern::TwoHalves);
        assert_eq!(classify(0x7777_7777), Pattern::RepeatedBytes);
        assert_eq!(classify(0xDEAD_BEEF), Pattern::Uncompressed);
    }

    #[test]
    fn padded_half_catches_high_halfword_values() {
        // 0x0000_ABCD fits SE16? 0xABCD as i16 is negative, sign-extended
        // would be 0xFFFF_ABCD != value, so SE16 fails and PaddedHalf
        // applies.
        assert_eq!(classify(0x0000_ABCD), Pattern::PaddedHalf);
    }

    #[test]
    fn small_value_register_compresses_hard() {
        let reg = WarpRegister::from_fn(|t| t as u32 % 8);
        // Lane 0 is 0 (zero run of 1), others SE4: ≤ 32 × 7 bits.
        assert!(compressed_len(&reg) <= 28);
        assert!(compression_ratio(&reg) > 4.0);
    }

    #[test]
    fn random_register_barely_compresses() {
        let reg = WarpRegister::from_fn(|t| (t as u32 + 1).wrapping_mul(0x9E37_79B9) | 0x8000_0000);
        // Essentially every word needs the 35-bit uncompressed encoding,
        // so the "compressed" stream is larger than the raw register.
        assert!(compression_ratio(&reg) < 1.0, "FPC can expand random data");
    }

    #[test]
    fn fpc_beats_bdi_on_mixed_magnitudes() {
        // Half the lanes tiny, half huge: BDI's single base fails (delta
        // too wide) but FPC compresses the tiny half per-word.
        let reg = WarpRegister::from_fn(|t| if t % 2 == 0 { 3 } else { 0xDEAD_BEEF });
        let bdi = crate::BdiCodec::default().compress(&reg).stored_len();
        assert!(
            compressed_len(&reg) < bdi,
            "FPC {} vs BDI {bdi}",
            compressed_len(&reg)
        );
    }

    #[test]
    fn bdi_beats_fpc_on_large_uniform_values() {
        // A large shared base: BDI stores it once; FPC pays 35 bits per
        // word because no per-word pattern matches.
        let reg = WarpRegister::splat(0x1234_5678);
        let bdi = crate::BdiCodec::default().compress(&reg).stored_len();
        assert!(
            bdi < compressed_len(&reg),
            "BDI {bdi} vs FPC {}",
            compressed_len(&reg)
        );
    }
}
