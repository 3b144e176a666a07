//! Static ⟨base, delta⟩ layout math: paper Eq. (1) and Table 1.

use std::fmt;

use crate::error::LayoutError;
use crate::register::WARP_REGISTER_BYTES;

/// Width of one register bank entry in bytes (128 bits, paper §2.1).
pub const BANK_BYTES: usize = 16;

/// Legal BDI base-chunk sizes.
///
/// The paper's Table 1 explores 1-, 2-, 4- and 8-byte bases; the runtime
/// scheme only ever uses [`BaseSize::B4`] because GPU thread registers are
/// written at 4-byte granularity (§4, Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BaseSize {
    /// 1-byte chunks.
    B1,
    /// 2-byte chunks.
    B2,
    /// 4-byte chunks (one thread register per chunk).
    B4,
    /// 8-byte chunks (a pair of thread registers per chunk).
    B8,
}

impl BaseSize {
    /// The chunk width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            BaseSize::B1 => 1,
            BaseSize::B2 => 2,
            BaseSize::B4 => 4,
            BaseSize::B8 => 8,
        }
    }
}

impl fmt::Display for BaseSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes())
    }
}

/// A ⟨base, delta⟩ BDI parameter pair, written `<X,Y>` in the paper.
///
/// `base` is the chunk width; `delta_bytes` is the width used to store
/// each non-base chunk's signed difference from the base (0 means every
/// chunk must equal the base exactly).
///
/// # Example
///
/// ```
/// use bdi::{BaseSize, ChunkLayout};
///
/// let l = ChunkLayout::new(BaseSize::B4, 1).unwrap();
/// assert_eq!(l.compressed_len(), 35);  // 4 + 1 * 31   (Eq. 1)
/// assert_eq!(l.banks_required(), 3);   // ceil(35 / 16)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChunkLayout {
    base: BaseSize,
    delta_bytes: usize,
}

impl ChunkLayout {
    /// Creates a layout, validating that the delta is strictly narrower
    /// than the base (otherwise "compression" would not shrink anything).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if `delta_bytes >= base.bytes()` or the
    /// delta width is not one of 0, 1, 2 or 4 bytes.
    pub fn new(base: BaseSize, delta_bytes: usize) -> Result<Self, LayoutError> {
        if !matches!(delta_bytes, 0 | 1 | 2 | 4) || delta_bytes >= base.bytes() {
            return Err(LayoutError {
                base_bytes: base.bytes(),
                delta_bytes,
            });
        }
        Ok(ChunkLayout { base, delta_bytes })
    }

    /// The base-chunk size.
    pub fn base(self) -> BaseSize {
        self.base
    }

    /// The delta width in bytes.
    pub fn delta_bytes(self) -> usize {
        self.delta_bytes
    }

    /// Number of chunks a 128-byte warp register splits into.
    pub fn chunk_count(self) -> usize {
        WARP_REGISTER_BYTES / self.base.bytes()
    }

    /// Compressed length in bytes for a 128-byte warp register —
    /// the paper's Eq. (1): `L_base + L_delta * (L_input/L_base - 1)`.
    pub fn compressed_len(self) -> usize {
        self.base.bytes() + self.delta_bytes * (self.chunk_count() - 1)
    }

    /// Number of 16-byte register banks needed to hold the compressed
    /// register (Table 1, "Required # Reg. Banks").
    pub fn banks_required(self) -> usize {
        self.compressed_len().div_ceil(BANK_BYTES)
    }

    /// Compression ratio relative to the uncompressed 128-byte register.
    pub fn compression_ratio(self) -> f64 {
        WARP_REGISTER_BYTES as f64 / self.compressed_len() as f64
    }

    /// Whether a signed delta `d` (computed as wrapping chunk − base) is
    /// representable at this layout's delta width.
    pub fn delta_fits(self, delta: i64) -> bool {
        match self.delta_bytes {
            0 => delta == 0,
            1 => i8::try_from(delta).is_ok(),
            2 => i16::try_from(delta).is_ok(),
            4 => i32::try_from(delta).is_ok(),
            _ => unreachable!("validated in ChunkLayout::new"),
        }
    }
}

impl fmt::Display for ChunkLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{},{}>", self.base, self.delta_bytes)
    }
}

/// One row of the paper's Table 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TableOneRow {
    /// Base chunk size in bytes.
    pub base_bytes: usize,
    /// Delta size in bytes.
    pub delta_bytes: usize,
    /// Compressed size in bytes (Eq. 1).
    pub compressed_bytes: usize,
    /// Register banks needed (16 B each).
    pub banks_required: usize,
    /// Whether warped-compression uses this combination at runtime.
    pub used: bool,
}

/// The paper's Table 1: every ⟨base, delta⟩ combination considered, with
/// its static compressed size and bank count. Regenerate it with
/// [`table_one`] and compare — the unit tests do exactly that.
pub const TABLE_ONE: [TableOneRow; 9] = [
    TableOneRow {
        base_bytes: 1,
        delta_bytes: 0,
        compressed_bytes: 1,
        banks_required: 1,
        used: false,
    },
    TableOneRow {
        base_bytes: 2,
        delta_bytes: 1,
        compressed_bytes: 65,
        banks_required: 5,
        used: false,
    },
    TableOneRow {
        base_bytes: 4,
        delta_bytes: 0,
        compressed_bytes: 4,
        banks_required: 1,
        used: true,
    },
    TableOneRow {
        base_bytes: 4,
        delta_bytes: 1,
        compressed_bytes: 35,
        banks_required: 3,
        used: true,
    },
    TableOneRow {
        base_bytes: 4,
        delta_bytes: 2,
        compressed_bytes: 66,
        banks_required: 5,
        used: true,
    },
    TableOneRow {
        base_bytes: 8,
        delta_bytes: 0,
        compressed_bytes: 8,
        banks_required: 1,
        used: false,
    },
    TableOneRow {
        base_bytes: 8,
        delta_bytes: 1,
        compressed_bytes: 23,
        banks_required: 2,
        used: false,
    },
    TableOneRow {
        base_bytes: 8,
        delta_bytes: 2,
        compressed_bytes: 38,
        banks_required: 3,
        used: false,
    },
    TableOneRow {
        base_bytes: 8,
        delta_bytes: 4,
        compressed_bytes: 68,
        banks_required: 5,
        used: false,
    },
];

/// Recomputes Table 1 from Eq. (1), as a cross-check of the static table.
pub fn table_one() -> Vec<TableOneRow> {
    let combos: [(BaseSize, usize, bool); 9] = [
        (BaseSize::B1, 0, false),
        (BaseSize::B2, 1, false),
        (BaseSize::B4, 0, true),
        (BaseSize::B4, 1, true),
        (BaseSize::B4, 2, true),
        (BaseSize::B8, 0, false),
        (BaseSize::B8, 1, false),
        (BaseSize::B8, 2, false),
        (BaseSize::B8, 4, false),
    ];
    combos
        .iter()
        .map(|&(base, delta, used)| {
            let layout = ChunkLayout::new(base, delta).expect("table rows are valid layouts");
            TableOneRow {
                base_bytes: base.bytes(),
                delta_bytes: delta,
                compressed_bytes: layout.compressed_len(),
                banks_required: layout.banks_required(),
                used,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_matches_paper_examples() {
        // <2,1>: 64 chunks, 2 + 1*63 = 65 B -> 5 banks (paper §4).
        let l = ChunkLayout::new(BaseSize::B2, 1).unwrap();
        assert_eq!(l.compressed_len(), 65);
        assert_eq!(l.banks_required(), 5);
        // <4,1>: 4 + 31 = 35 B -> 3 banks.
        let l = ChunkLayout::new(BaseSize::B4, 1).unwrap();
        assert_eq!(l.compressed_len(), 35);
        assert_eq!(l.banks_required(), 3);
        // <8,1>: 8 + 15 = 23 B -> 2 banks.
        let l = ChunkLayout::new(BaseSize::B8, 1).unwrap();
        assert_eq!(l.compressed_len(), 23);
        assert_eq!(l.banks_required(), 2);
    }

    #[test]
    fn static_table_matches_recomputed_table() {
        assert_eq!(table_one().as_slice(), &TABLE_ONE[..]);
    }

    #[test]
    fn delta_zero_means_exact_match_only() {
        let l = ChunkLayout::new(BaseSize::B4, 0).unwrap();
        assert!(l.delta_fits(0));
        assert!(!l.delta_fits(1));
        assert!(!l.delta_fits(-1));
    }

    #[test]
    fn delta_one_byte_is_signed() {
        let l = ChunkLayout::new(BaseSize::B4, 1).unwrap();
        assert!(l.delta_fits(127));
        assert!(l.delta_fits(-128));
        assert!(!l.delta_fits(128));
        assert!(!l.delta_fits(-129));
    }

    #[test]
    fn delta_two_bytes_is_signed_16() {
        let l = ChunkLayout::new(BaseSize::B4, 2).unwrap();
        assert!(l.delta_fits(32767));
        assert!(l.delta_fits(-32768));
        assert!(!l.delta_fits(32768));
    }

    #[test]
    fn delta_must_be_narrower_than_base() {
        assert!(ChunkLayout::new(BaseSize::B4, 4).is_err());
        assert!(ChunkLayout::new(BaseSize::B1, 1).is_err());
        assert!(ChunkLayout::new(BaseSize::B2, 2).is_err());
    }

    #[test]
    fn delta_width_must_be_supported() {
        assert!(ChunkLayout::new(BaseSize::B8, 3).is_err());
    }

    #[test]
    fn chunk_counts() {
        assert_eq!(ChunkLayout::new(BaseSize::B4, 1).unwrap().chunk_count(), 32);
        assert_eq!(ChunkLayout::new(BaseSize::B8, 2).unwrap().chunk_count(), 16);
        assert_eq!(ChunkLayout::new(BaseSize::B2, 1).unwrap().chunk_count(), 64);
    }

    #[test]
    fn compression_ratio_of_4_0_is_32x() {
        let l = ChunkLayout::new(BaseSize::B4, 0).unwrap();
        assert!((l.compression_ratio() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn display_matches_paper_notation() {
        let l = ChunkLayout::new(BaseSize::B4, 2).unwrap();
        assert_eq!(l.to_string(), "<4,2>");
    }
}
