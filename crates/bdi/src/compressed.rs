//! The compressed representation of a warp register.

use crate::choice::{CompressionClass, CompressionIndicator};
use crate::deltas::DeltaArray;
use crate::error::DecodeError;
use crate::layout::{ChunkLayout, BANK_BYTES};
use crate::register::{WarpRegister, WARP_REGISTER_BYTES};

/// A warp register after a compression attempt: either left uncompressed
/// (128 bytes, 8 banks) or stored as a BDI ⟨base, delta⟩ form.
///
/// The compressed form holds the base chunk plus one signed delta per
/// remaining chunk; deltas are produced by wrapping subtraction at the
/// chunk width, mirroring the hardware subtractor array of Fig. 7. The
/// deltas live in an inline [`DeltaArray`], so the whole enum is `Copy`
/// and moving a compressed register between pipeline stages never
/// touches the heap — just like the hardware latches it stage to stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CompressedRegister {
    /// The register could not (or was chosen not to) be compressed.
    Uncompressed(WarpRegister),
    /// BDI-compressed form.
    Compressed {
        /// The ⟨base, delta⟩ layout used.
        layout: ChunkLayout,
        /// The first chunk, kept verbatim (zero-extended to 64 bits).
        base: u64,
        /// Sign-extended deltas for chunks 1..n, in chunk order.
        deltas: DeltaArray,
    },
}

impl CompressedRegister {
    /// Whether the register is held in compressed form.
    pub fn is_compressed(&self) -> bool {
        matches!(self, CompressedRegister::Compressed { .. })
    }

    /// The layout used, if compressed.
    pub fn layout(&self) -> Option<ChunkLayout> {
        match self {
            CompressedRegister::Uncompressed(_) => None,
            CompressedRegister::Compressed { layout, .. } => Some(*layout),
        }
    }

    /// Size of the stored form in bytes (128 if uncompressed).
    pub fn stored_len(&self) -> usize {
        match self {
            CompressedRegister::Uncompressed(_) => WARP_REGISTER_BYTES,
            CompressedRegister::Compressed { layout, .. } => layout.compressed_len(),
        }
    }

    /// Number of 16-byte register banks the stored form occupies.
    pub fn banks_required(&self) -> usize {
        self.stored_len().div_ceil(BANK_BYTES)
    }

    /// Compression ratio achieved (1.0 when uncompressed).
    pub fn compression_ratio(&self) -> f64 {
        WARP_REGISTER_BYTES as f64 / self.stored_len() as f64
    }

    /// The 2-bit compression-range indicator stored in the bank arbiter
    /// (§4). Only meaningful for the runtime ⟨4,·⟩ choices; the explorer's
    /// 8-byte-base layouts report `Uncompressed` here since the hardware
    /// never stores them.
    pub fn indicator(&self) -> CompressionIndicator {
        match self.layout() {
            None => CompressionIndicator::Uncompressed,
            Some(layout) => CompressionIndicator::from_layout(layout)
                .unwrap_or(CompressionIndicator::Uncompressed),
        }
    }

    /// The compression class of the stored form — the shared taxonomy the
    /// static predictor in `simt-analysis` is validated against. Follows
    /// [`indicator`](Self::indicator): explorer-only 8-byte-base layouts
    /// class as `Uncompressed` since the hardware never stores them.
    pub fn class(&self) -> CompressionClass {
        self.indicator().class()
    }

    /// Structural validity check: the delta count must match the layout's
    /// chunk count − 1.
    ///
    /// Registers produced by [`BdiCodec`](crate::BdiCodec) always pass;
    /// this exists so decode paths can reject corrupted stored forms (as
    /// produced by fault injection) with a typed
    /// [`DecodeError`](crate::DecodeError) instead of silently
    /// reconstructing garbage or panicking.
    pub fn validate(&self) -> Result<(), DecodeError> {
        match self {
            CompressedRegister::Uncompressed(_) => Ok(()),
            CompressedRegister::Compressed { layout, deltas, .. } => {
                let expected = layout.chunk_count() - 1;
                if deltas.len() != expected {
                    return Err(DecodeError::DeltaCountMismatch {
                        expected,
                        got: deltas.len(),
                    });
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BaseSize;

    #[test]
    fn uncompressed_occupies_eight_banks() {
        let c = CompressedRegister::Uncompressed(WarpRegister::ZERO);
        assert_eq!(c.banks_required(), 8);
        assert_eq!(c.stored_len(), 128);
        assert!(!c.is_compressed());
        assert_eq!(c.layout(), None);
        assert!((c.compression_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compressed_4_1_occupies_three_banks() {
        let layout = ChunkLayout::new(BaseSize::B4, 1).unwrap();
        let c = CompressedRegister::Compressed {
            layout,
            base: 5,
            deltas: DeltaArray::filled(31, 1),
        };
        assert_eq!(c.banks_required(), 3);
        assert_eq!(c.stored_len(), 35);
        assert!(c.is_compressed());
    }

    #[test]
    fn indicator_of_8_base_layout_falls_back_to_uncompressed() {
        let layout = ChunkLayout::new(BaseSize::B8, 1).unwrap();
        let c = CompressedRegister::Compressed {
            layout,
            base: 0,
            deltas: DeltaArray::filled(15, 0),
        };
        assert_eq!(c.indicator(), CompressionIndicator::Uncompressed);
        assert_eq!(c.class(), CompressionClass::Uncompressed);
    }

    #[test]
    fn class_matches_banks_required_for_runtime_choices() {
        let layout = ChunkLayout::new(BaseSize::B4, 2).unwrap();
        let c = CompressedRegister::Compressed {
            layout,
            base: 7,
            deltas: DeltaArray::filled(31, -3),
        };
        assert_eq!(c.class(), CompressionClass::Delta2);
        assert_eq!(c.class().banks(), c.banks_required());
    }
}
