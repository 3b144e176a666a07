//! The compression/decompression engine (paper Fig. 7).

use crate::choice::{ChoiceSet, CompressionClass};
use crate::compressed::CompressedRegister;
use crate::deltas::{DeltaArray, MAX_STORED_DELTAS};
use crate::error::DecodeError;
use crate::fold;
use crate::layout::{BaseSize, ChunkLayout};
use crate::register::{WarpRegister, WARP_REGISTER_BYTES, WARP_SIZE};

/// A BDI compressor/decompressor pair configured with a [`ChoiceSet`].
///
/// This models the compressor unit of Fig. 7: the 128-byte warp register is
/// split into chunks, each chunk is subtracted from the base (the first
/// chunk), and sign-extension comparators decide the narrowest delta width
/// that represents every difference. Subtraction wraps at the chunk width,
/// exactly as the hardware subtractor array does.
///
/// # Example
///
/// ```
/// use bdi::{BdiCodec, ChoiceSet, WarpRegister};
///
/// let codec = BdiCodec::default();
/// let uniform = WarpRegister::splat(0xABCD);
/// let c = codec.compress(&uniform);
/// assert_eq!(c.banks_required(), 1); // <4,0>
/// assert_eq!(codec.decompress(&c), uniform);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BdiCodec {
    choices: ChoiceSet,
}

impl BdiCodec {
    /// Creates a codec that tries the given choices in order.
    pub fn new(choices: ChoiceSet) -> Self {
        BdiCodec { choices }
    }

    /// The configured choice set.
    pub fn choices(&self) -> &ChoiceSet {
        &self.choices
    }

    /// Compresses a warp register with the first fitting choice, or
    /// returns it uncompressed when no choice fits (or the set is
    /// disabled).
    ///
    /// This is a single sweep over the 32 lanes — the software analog of
    /// the hardware's parallel subtractor/comparator array (Fig. 7):
    /// every lane is subtracted from the base exactly once, two bitwise
    /// folds classify the narrowest delta width that fits *all* lanes,
    /// and the first choice at least that wide wins — without re-reading
    /// any lane. Valid because every runtime choice uses a 4-byte base
    /// (so all choices see the same deltas) and delta fit is monotone in
    /// width (the nested-fit property of §4). No heap allocation occurs.
    pub fn compress(&self, reg: &WarpRegister) -> CompressedRegister {
        let lanes = reg.as_lanes();
        let mut vals = [0i32; MAX_STORED_DELTAS];
        let (any_bits, magnitude) = fold::sweep4(lanes, &mut vals);
        // `None` means not even 2-byte deltas fit — a 4-byte delta would
        // not shrink a 4-byte-base register.
        let min_width = fold::width4_of_fold(any_bits, magnitude);
        for choice in self.choices.choices() {
            let layout = choice.layout();
            if min_width.is_some_and(|w| layout.delta_bytes() >= w) {
                let deltas = if layout.delta_bytes() == 0 {
                    DeltaArray::zeros(WARP_SIZE - 1)
                } else {
                    DeltaArray::from_raw(vals, (WARP_SIZE - 1) as u8)
                };
                return CompressedRegister::Compressed {
                    layout,
                    base: u64::from(lanes[0]),
                    deltas,
                };
            }
        }
        CompressedRegister::Uncompressed(*reg)
    }

    /// The compression class `reg` would be stored under, without
    /// keeping the compressed form. Static analyses and the per-write
    /// sim instrumentation use this to ask "how would this value be
    /// stored?" for values they can prove.
    ///
    /// Cheaper than [`compress`](BdiCodec::compress): no deltas are
    /// materialised, and the bounded fold bails out at the first 8-lane
    /// block that already rules out every width the choice set accepts
    /// (e.g. a disabled codec classifies without reading any lane, and
    /// incompressible data is rejected after the first over-budget
    /// block).
    pub fn classify(&self, reg: &WarpRegister) -> CompressionClass {
        let class = match self.choices.max_delta_bytes() {
            None => CompressionClass::Uncompressed,
            Some(max_width) => match fold::width4_bounded(reg.as_lanes(), max_width) {
                None => CompressionClass::Uncompressed,
                Some(w) => self
                    .choices
                    .choices()
                    .iter()
                    .find(|c| c.layout().delta_bytes() >= w)
                    .map(|&c| CompressionClass::from(c))
                    .unwrap_or(CompressionClass::Uncompressed),
            },
        };
        debug_assert_eq!(class, self.compress(reg).class(), "early-exit classify");
        class
    }

    /// The number of 16-byte banks `reg` would occupy as stored —
    /// 1/3/5 for the compressed classes, 8 uncompressed. The static
    /// bank-access bounds are built from exactly this footprint. Shares
    /// the early-exit fold of [`classify`](BdiCodec::classify).
    pub fn footprint(&self, reg: &WarpRegister) -> usize {
        self.classify(reg).banks()
    }

    /// Reference multi-pass compressor: tries each choice independently,
    /// re-reading every chunk per attempt, exactly like the
    /// pre-optimisation implementation.
    ///
    /// Kept as the oracle the property tests and benches compare the
    /// single-pass [`compress`](BdiCodec::compress) against; not intended
    /// for production use.
    pub fn compress_reference(&self, reg: &WarpRegister) -> CompressedRegister {
        for choice in self.choices.choices() {
            if let Some(c) = compress_with_layout(reg, choice.layout()) {
                return c;
            }
        }
        CompressedRegister::Uncompressed(*reg)
    }

    /// Reconstructs the original warp register.
    ///
    /// Decompression is a single wrapping add of each delta to the base
    /// (§4), which is why the paper budgets only one cycle for it.
    pub fn decompress(&self, compressed: &CompressedRegister) -> WarpRegister {
        decompress(compressed)
    }

    /// Fallible decompression: validates the stored form first and
    /// surfaces corruption (e.g. from fault injection) as a typed
    /// [`DecodeError`] instead of reconstructing garbage.
    pub fn try_decompress(
        &self,
        compressed: &CompressedRegister,
    ) -> Result<WarpRegister, DecodeError> {
        compressed.validate()?;
        Ok(decompress(compressed))
    }
}

impl Default for BdiCodec {
    fn default() -> Self {
        BdiCodec::new(ChoiceSet::default())
    }
}

/// Attempts to compress `reg` with one specific ⟨base, delta⟩ layout.
///
/// Returns `None` when some chunk's wrapping difference from the base does
/// not fit the layout's delta width; the hardware would then fall through
/// to the next choice or store the register uncompressed.
pub(crate) fn compress_with_layout(
    reg: &WarpRegister,
    layout: ChunkLayout,
) -> Option<CompressedRegister> {
    let bytes = reg.to_bytes();
    let chunk_bytes = layout.base().bytes();
    let mut chunks = bytes.chunks_exact(chunk_bytes).map(read_chunk);
    let base = chunks.next().expect("warp register has at least one chunk");
    if layout.delta_bytes() == 0 {
        // Zero-width deltas store no payload; every chunk must equal the
        // base exactly.
        for chunk in chunks {
            if chunk != base {
                return None;
            }
        }
        let deltas = DeltaArray::zeros(layout.chunk_count() - 1);
        return Some(CompressedRegister::Compressed {
            layout,
            base,
            deltas,
        });
    }
    let mut deltas = DeltaArray::new();
    for chunk in chunks {
        let delta = wrapping_delta(chunk, base, layout.base());
        if !layout.delta_fits(delta) {
            return None;
        }
        // Fits a <=4-byte signed delta, so the i32 narrowing is lossless.
        deltas.push(delta as i32);
    }
    Some(CompressedRegister::Compressed {
        layout,
        base,
        deltas,
    })
}

/// Decompresses any [`CompressedRegister`] (free function so callers
/// without a codec, e.g. the decompressor unit model, can use it too).
pub(crate) fn decompress(compressed: &CompressedRegister) -> WarpRegister {
    match compressed {
        CompressedRegister::Uncompressed(reg) => *reg,
        CompressedRegister::Compressed {
            layout,
            base,
            deltas,
        } => {
            // The three runtime choices all land here: a 4-byte base
            // with the full 31 deltas takes `fold::decompress4`. (The
            // `raw_vals` buffer is valid in both storage forms — the
            // zeros form is all zeros.) Everything else — the explorer's
            // B8/B2/B1 layouts and fault-truncated delta arrays — keeps
            // the generic chunk loop below, preserving its behaviour on
            // malformed registers. The u32 cast of the base matches the
            // generic path's 4-byte chunk mask.
            if layout.base() == BaseSize::B4 && deltas.len() == WARP_SIZE - 1 {
                return WarpRegister::new(fold::decompress4(*base as u32, deltas.raw_vals()));
            }
            let chunk_bytes = layout.base().bytes();
            let mut bytes = [0u8; WARP_REGISTER_BYTES];
            write_chunk(&mut bytes[..chunk_bytes], *base);
            for (i, delta) in deltas.iter().enumerate() {
                let chunk = base.wrapping_add(delta as u64) & chunk_mask(layout.base());
                let off = (i + 1) * chunk_bytes;
                write_chunk(&mut bytes[off..off + chunk_bytes], chunk);
            }
            WarpRegister::from_bytes(&bytes)
        }
    }
}

/// Reads a little-endian chunk of 1–8 bytes as a zero-extended u64.
fn read_chunk(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

/// Writes the low `out.len()` bytes of `chunk` little-endian.
fn write_chunk(out: &mut [u8], chunk: u64) {
    let bytes = chunk.to_le_bytes();
    out.copy_from_slice(&bytes[..out.len()]);
}

fn chunk_mask(base: BaseSize) -> u64 {
    match base.bytes() {
        8 => u64::MAX,
        n => (1u64 << (n * 8)) - 1,
    }
}

/// Wrapping subtraction at the chunk width, sign-extended to i64 — what
/// the hardware's fixed-width subtractors compute.
fn wrapping_delta(chunk: u64, base: u64, width: BaseSize) -> i64 {
    let mask = chunk_mask(width);
    let raw = chunk.wrapping_sub(base) & mask;
    let bits = width.bytes() as u32 * 8;
    if bits == 64 {
        raw as i64
    } else {
        // Sign-extend from `bits`.
        let shift = 64 - bits;
        ((raw << shift) as i64) >> shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choice::{ChoiceSet, FixedChoice};

    fn codec() -> BdiCodec {
        BdiCodec::new(ChoiceSet::warped_compression())
    }

    #[test]
    fn uniform_register_compresses_to_delta0() {
        let c = codec().compress(&WarpRegister::splat(123));
        assert_eq!(c.layout().unwrap().delta_bytes(), 0);
        assert_eq!(c.banks_required(), 1);
    }

    #[test]
    fn classify_and_footprint_match_the_stored_form() {
        let c = codec();
        for reg in [
            WarpRegister::splat(7),
            WarpRegister::from_fn(|t| t as u32),
            WarpRegister::from_fn(|t| 1_000_000 + 1000 * t as u32),
            WarpRegister::from_fn(|t| (t as u32).wrapping_mul(0x9E37_79B9)),
        ] {
            let stored = c.compress(&reg);
            assert_eq!(c.classify(&reg), stored.class());
            assert_eq!(c.footprint(&reg), stored.banks_required());
        }
        let disabled = BdiCodec::new(ChoiceSet::disabled());
        assert_eq!(disabled.footprint(&WarpRegister::splat(7)), 8);
        assert!(!disabled.classify(&WarpRegister::splat(7)).is_compressed());
    }

    #[test]
    fn tid_register_compresses_to_delta1() {
        let reg = WarpRegister::from_fn(|t| 5000 + t as u32);
        let c = codec().compress(&reg);
        assert_eq!(c.layout().unwrap().delta_bytes(), 1);
        assert_eq!(codec().decompress(&c), reg);
    }

    #[test]
    fn wide_strides_compress_to_delta2() {
        let reg = WarpRegister::from_fn(|t| 1_000_000 + 1000 * t as u32);
        let c = codec().compress(&reg);
        assert_eq!(c.layout().unwrap().delta_bytes(), 2);
        assert_eq!(codec().decompress(&c), reg);
    }

    #[test]
    fn random_register_stays_uncompressed() {
        let reg = WarpRegister::from_fn(|t| (t as u32).wrapping_mul(0x9E37_79B9));
        let c = codec().compress(&reg);
        assert!(!c.is_compressed());
        assert_eq!(codec().decompress(&c), reg);
    }

    #[test]
    fn negative_deltas_compress() {
        let reg = WarpRegister::from_fn(|t| 10_000 - 3 * t as u32);
        let c = codec().compress(&reg);
        assert_eq!(c.layout().unwrap().delta_bytes(), 1);
        assert_eq!(codec().decompress(&c), reg);
    }

    #[test]
    fn wrapping_subtraction_matches_hardware() {
        // base = u32::MAX, others = 0..: the 32-bit wrapping difference is
        // +1, +2, ... so this compresses with a 1-byte delta even though
        // the arithmetic difference is huge.
        let reg = WarpRegister::from_fn(|t| (u32::MAX).wrapping_add(t as u32));
        let c = codec().compress(&reg);
        assert_eq!(c.layout().unwrap().delta_bytes(), 1);
        assert_eq!(codec().decompress(&c), reg);
    }

    #[test]
    fn delta_boundary_127_fits_one_byte() {
        let mut reg = WarpRegister::splat(1000);
        reg.set_lane(31, 1127);
        let c = codec().compress(&reg);
        assert_eq!(c.layout().unwrap().delta_bytes(), 1);
    }

    #[test]
    fn delta_boundary_128_needs_two_bytes() {
        let mut reg = WarpRegister::splat(1000);
        reg.set_lane(31, 1128);
        let c = codec().compress(&reg);
        assert_eq!(c.layout().unwrap().delta_bytes(), 2);
    }

    #[test]
    fn delta_boundary_minus_128_fits_one_byte() {
        let mut reg = WarpRegister::splat(1000);
        reg.set_lane(31, 1000 - 128);
        let c = codec().compress(&reg);
        assert_eq!(c.layout().unwrap().delta_bytes(), 1);
    }

    #[test]
    fn delta_boundary_32k_needs_uncompressed() {
        let mut reg = WarpRegister::splat(1_000_000);
        reg.set_lane(2, 1_000_000 + 32_768);
        let c = codec().compress(&reg);
        assert!(!c.is_compressed());
    }

    #[test]
    fn base_is_first_lane_not_best_lane() {
        // Only the FIRST chunk is the base (implementation simplicity,
        // §5.1). Lane 0 is the outlier here, so nothing fits.
        let mut reg = WarpRegister::splat(0);
        reg.set_lane(0, 0x4000_0000);
        let c = codec().compress(&reg);
        assert!(!c.is_compressed());
    }

    #[test]
    fn disabled_codec_never_compresses() {
        let codec = BdiCodec::new(ChoiceSet::disabled());
        let c = codec.compress(&WarpRegister::splat(0));
        assert!(!c.is_compressed());
    }

    #[test]
    fn single_choice_delta2_stores_extra_bytes_for_uniform_data() {
        // §6.6: with only <4,2> available, even a perfectly uniform
        // register burns 5 banks.
        let codec = BdiCodec::new(ChoiceSet::only(FixedChoice::Delta2));
        let c = codec.compress(&WarpRegister::splat(7));
        assert_eq!(c.banks_required(), 5);
    }

    #[test]
    fn single_choice_delta0_misses_tid_patterns() {
        let codec = BdiCodec::new(ChoiceSet::only(FixedChoice::Delta0));
        let c = codec.compress(&WarpRegister::from_fn(|t| t as u32));
        assert!(!c.is_compressed());
    }

    #[test]
    fn eight_byte_base_round_trips() {
        let layout = ChunkLayout::new(BaseSize::B8, 2).unwrap();
        // Pairs of registers with similar 64-bit pattern.
        let reg = WarpRegister::from_fn(|t| if t % 2 == 0 { 77 + (t / 2) as u32 } else { 0 });
        let c = compress_with_layout(&reg, layout).expect("should fit 16-bit deltas");
        assert_eq!(decompress(&c), reg);
        assert_eq!(c.banks_required(), 3);
    }

    #[test]
    fn two_byte_base_round_trips() {
        let layout = ChunkLayout::new(BaseSize::B2, 1).unwrap();
        let reg = WarpRegister::from_fn(|_| 0x0005_0004); // 16-bit halves 4,5
        let c = compress_with_layout(&reg, layout).expect("halfword deltas fit");
        assert_eq!(decompress(&c), reg);
        assert_eq!(c.banks_required(), 5);
    }

    #[test]
    fn deltas_length_matches_layout() {
        let reg = WarpRegister::splat(3);
        let c = compress_with_layout(&reg, FixedChoice::Delta1.layout()).unwrap();
        match c {
            CompressedRegister::Compressed { deltas, .. } => assert_eq!(deltas.len(), 31),
            _ => panic!("expected compressed"),
        }
    }

    #[test]
    fn single_pass_matches_reference_on_corner_patterns() {
        // Deliberate width-boundary and wraparound cases; the broad sweep
        // lives in the oracle-equivalence property tests.
        let mut minus_one = WarpRegister::splat(9);
        minus_one.set_lane(7, 8); // delta -1 must NOT classify as width 0
        let mut at_127 = WarpRegister::splat(50);
        at_127.set_lane(3, 177);
        let mut at_128 = WarpRegister::splat(50);
        at_128.set_lane(3, 178);
        let mut at_minus_32768 = WarpRegister::splat(100_000);
        at_minus_32768.set_lane(30, 100_000 - 32_768);
        let mut int_min_delta = WarpRegister::splat(0);
        int_min_delta.set_lane(1, 0x8000_0000); // delta == i32::MIN
        let patterns = [
            WarpRegister::splat(0),
            WarpRegister::splat(u32::MAX),
            WarpRegister::from_fn(|t| t as u32),
            WarpRegister::from_fn(|t| (u32::MAX).wrapping_add(t as u32)),
            WarpRegister::from_fn(|t| (t as u32).wrapping_mul(0x9E37_79B9)),
            minus_one,
            at_127,
            at_128,
            at_minus_32768,
            int_min_delta,
        ];
        for set in [
            ChoiceSet::warped_compression(),
            ChoiceSet::only(FixedChoice::Delta0),
            ChoiceSet::only(FixedChoice::Delta1),
            ChoiceSet::only(FixedChoice::Delta2),
            ChoiceSet::disabled(),
        ] {
            let codec = BdiCodec::new(set);
            for reg in &patterns {
                assert_eq!(
                    codec.compress(reg),
                    codec.compress_reference(reg),
                    "{reg:?}"
                );
            }
        }
    }
}
