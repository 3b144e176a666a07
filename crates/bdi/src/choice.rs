//! The runtime compression choices and the 2-bit range indicator.

use std::fmt;

use crate::layout::{BaseSize, ChunkLayout};

/// One of the three fixed runtime compression choices of warped-compression
/// (§4): a 4-byte base with a 0-, 1- or 2-byte delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FixedChoice {
    /// ⟨4,0⟩ — all 32 thread registers identical; 1 bank. This is the
    /// "scalarization" special case (§6.6).
    Delta0,
    /// ⟨4,1⟩ — deltas fit a signed byte; 3 banks.
    Delta1,
    /// ⟨4,2⟩ — deltas fit a signed 16-bit value; 5 banks.
    Delta2,
}

impl FixedChoice {
    /// All three choices, smallest compressed form first — the order the
    /// compressor prefers, since fewer banks means less energy.
    pub const ALL: [FixedChoice; 3] = [
        FixedChoice::Delta0,
        FixedChoice::Delta1,
        FixedChoice::Delta2,
    ];

    /// The ⟨base, delta⟩ layout this choice denotes.
    pub fn layout(self) -> ChunkLayout {
        let delta = match self {
            FixedChoice::Delta0 => 0,
            FixedChoice::Delta1 => 1,
            FixedChoice::Delta2 => 2,
        };
        ChunkLayout::new(BaseSize::B4, delta).expect("fixed choices are valid layouts")
    }

    /// The corresponding range-indicator value.
    pub fn indicator(self) -> CompressionIndicator {
        match self {
            FixedChoice::Delta0 => CompressionIndicator::Delta0,
            FixedChoice::Delta1 => CompressionIndicator::Delta1,
            FixedChoice::Delta2 => CompressionIndicator::Delta2,
        }
    }
}

impl fmt::Display for FixedChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.layout().fmt(f)
    }
}

/// The ordered set of fixed choices a compressor is allowed to try.
///
/// The paper's default tries all three (⟨4,0⟩, then ⟨4,1⟩, then ⟨4,2⟩) and
/// keeps the first that fits — which is also the smallest, since the
/// choices are nested (§4: anything ⟨4,0⟩-compressible is also
/// ⟨4,1⟩-compressible, and so on). The single-choice sets reproduce the
/// design-space exploration of §6.6 (Fig. 15/16).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChoiceSet {
    choices: Vec<FixedChoice>,
}

impl ChoiceSet {
    /// The paper's default: dynamically select among all three choices.
    pub fn warped_compression() -> Self {
        ChoiceSet {
            choices: FixedChoice::ALL.to_vec(),
        }
    }

    /// A single-choice set (the §6.6 ablation).
    pub fn only(choice: FixedChoice) -> Self {
        ChoiceSet {
            choices: vec![choice],
        }
    }

    /// An empty set: compression disabled; every register stays
    /// uncompressed.
    pub fn disabled() -> Self {
        ChoiceSet {
            choices: Vec::new(),
        }
    }

    /// The choices in preference order.
    pub fn choices(&self) -> &[FixedChoice] {
        &self.choices
    }

    /// Whether this set never compresses anything.
    pub fn is_disabled(&self) -> bool {
        self.choices.is_empty()
    }

    /// The widest delta width (bytes) any choice in the set accepts, or
    /// `None` for a disabled set. Early-exit classification stops
    /// folding as soon as this bound is exceeded.
    pub(crate) fn max_delta_bytes(&self) -> Option<usize> {
        self.choices.iter().map(|c| c.layout().delta_bytes()).max()
    }
}

impl Default for ChoiceSet {
    fn default() -> Self {
        ChoiceSet::warped_compression()
    }
}

impl FromIterator<FixedChoice> for ChoiceSet {
    fn from_iter<I: IntoIterator<Item = FixedChoice>>(iter: I) -> Self {
        ChoiceSet {
            choices: iter.into_iter().collect(),
        }
    }
}

/// The four-way compression-class taxonomy of the paper: which of the
/// three runtime ⟨4,·⟩ choices a warp register landed in, or none.
///
/// This is the vocabulary shared by the codec (what a register *was*
/// stored as), the Fig. 5 explorer (what the best full-BDI choice *would
/// have been*) and the static predictor in `simt-analysis` (what a write
/// site *must* compress to on every execution). Variants are ordered by
/// bank footprint, so `Ord` means "at most as expensive as" and
/// `a.max(b)` is the conservative join of two observations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CompressionClass {
    /// ⟨4,0⟩ — all 32 lanes identical; 1 bank.
    Delta0,
    /// ⟨4,1⟩ — deltas from lane 0 fit a signed byte; 3 banks.
    Delta1,
    /// ⟨4,2⟩ — deltas from lane 0 fit a signed 16-bit value; 5 banks.
    Delta2,
    /// No runtime choice fits; the register occupies all 8 banks.
    Uncompressed,
}

impl CompressionClass {
    /// All four classes, cheapest bank footprint first.
    pub const ALL: [CompressionClass; 4] = [
        CompressionClass::Delta0,
        CompressionClass::Delta1,
        CompressionClass::Delta2,
        CompressionClass::Uncompressed,
    ];

    /// Number of 16-byte register banks a register of this class occupies
    /// (§5: 1, 3, 5 or all 8).
    pub fn banks(self) -> usize {
        match self {
            CompressionClass::Delta0 => 1,
            CompressionClass::Delta1 => 3,
            CompressionClass::Delta2 => 5,
            CompressionClass::Uncompressed => 8,
        }
    }

    /// Stable lower-case label, used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            CompressionClass::Delta0 => "delta0",
            CompressionClass::Delta1 => "delta1",
            CompressionClass::Delta2 => "delta2",
            CompressionClass::Uncompressed => "uncompressed",
        }
    }

    /// Whether this class denotes a compressed register.
    pub fn is_compressed(self) -> bool {
        self != CompressionClass::Uncompressed
    }
}

impl fmt::Display for CompressionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<FixedChoice> for CompressionClass {
    fn from(choice: FixedChoice) -> Self {
        match choice {
            FixedChoice::Delta0 => CompressionClass::Delta0,
            FixedChoice::Delta1 => CompressionClass::Delta1,
            FixedChoice::Delta2 => CompressionClass::Delta2,
        }
    }
}

impl From<CompressionIndicator> for CompressionClass {
    fn from(ind: CompressionIndicator) -> Self {
        match ind {
            CompressionIndicator::Uncompressed => CompressionClass::Uncompressed,
            CompressionIndicator::Delta0 => CompressionClass::Delta0,
            CompressionIndicator::Delta1 => CompressionClass::Delta1,
            CompressionIndicator::Delta2 => CompressionClass::Delta2,
        }
    }
}

impl From<CompressionClass> for CompressionIndicator {
    fn from(class: CompressionClass) -> Self {
        match class {
            CompressionClass::Uncompressed => CompressionIndicator::Uncompressed,
            CompressionClass::Delta0 => CompressionIndicator::Delta0,
            CompressionClass::Delta1 => CompressionIndicator::Delta1,
            CompressionClass::Delta2 => CompressionIndicator::Delta2,
        }
    }
}

/// The 2-bit compression-range indicator kept per warp register in the
/// bank arbiter (§4): tells the arbiter how many banks hold the register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompressionIndicator {
    /// Register stored verbatim across all 8 banks.
    Uncompressed,
    /// ⟨4,0⟩ — 1 bank.
    Delta0,
    /// ⟨4,1⟩ — 3 banks.
    Delta1,
    /// ⟨4,2⟩ — 5 banks.
    Delta2,
}

impl CompressionIndicator {
    /// Encodes the indicator as its 2-bit hardware value.
    pub fn bits(self) -> u8 {
        match self {
            CompressionIndicator::Uncompressed => 0b00,
            CompressionIndicator::Delta0 => 0b01,
            CompressionIndicator::Delta1 => 0b10,
            CompressionIndicator::Delta2 => 0b11,
        }
    }

    /// Decodes a 2-bit hardware value.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 0b11` — the caller owns masking to two bits.
    pub fn from_bits(bits: u8) -> Self {
        match bits {
            0b00 => CompressionIndicator::Uncompressed,
            0b01 => CompressionIndicator::Delta0,
            0b10 => CompressionIndicator::Delta1,
            0b11 => CompressionIndicator::Delta2,
            _ => panic!("compression indicator is a 2-bit field, got {bits:#b}"),
        }
    }

    /// Number of register banks the arbiter must access for a register in
    /// this state (§5: 1, 3, 5 or all 8).
    pub fn banks_accessed(self) -> usize {
        self.class().banks()
    }

    /// The compression class this indicator denotes.
    pub fn class(self) -> CompressionClass {
        CompressionClass::from(self)
    }

    /// Maps a layout back to its indicator, if it is one of the three
    /// runtime choices.
    pub fn from_layout(layout: ChunkLayout) -> Option<Self> {
        if layout.base() != BaseSize::B4 {
            return None;
        }
        match layout.delta_bytes() {
            0 => Some(CompressionIndicator::Delta0),
            1 => Some(CompressionIndicator::Delta1),
            2 => Some(CompressionIndicator::Delta2),
            _ => None,
        }
    }

    /// Whether the indicator denotes a compressed register.
    pub fn is_compressed(self) -> bool {
        self != CompressionIndicator::Uncompressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_choice_layouts_match_table_one() {
        assert_eq!(FixedChoice::Delta0.layout().banks_required(), 1);
        assert_eq!(FixedChoice::Delta1.layout().banks_required(), 3);
        assert_eq!(FixedChoice::Delta2.layout().banks_required(), 5);
    }

    #[test]
    fn all_is_ordered_smallest_first() {
        let sizes: Vec<usize> = FixedChoice::ALL
            .iter()
            .map(|c| c.layout().compressed_len())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn indicator_bits_round_trip() {
        for ind in [
            CompressionIndicator::Uncompressed,
            CompressionIndicator::Delta0,
            CompressionIndicator::Delta1,
            CompressionIndicator::Delta2,
        ] {
            assert_eq!(CompressionIndicator::from_bits(ind.bits()), ind);
        }
    }

    #[test]
    #[should_panic(expected = "2-bit field")]
    fn indicator_rejects_wide_bits() {
        let _ = CompressionIndicator::from_bits(4);
    }

    #[test]
    fn banks_accessed_matches_section_5() {
        assert_eq!(CompressionIndicator::Uncompressed.banks_accessed(), 8);
        assert_eq!(CompressionIndicator::Delta0.banks_accessed(), 1);
        assert_eq!(CompressionIndicator::Delta1.banks_accessed(), 3);
        assert_eq!(CompressionIndicator::Delta2.banks_accessed(), 5);
    }

    #[test]
    fn indicator_from_layout_rejects_8_byte_bases() {
        let l = ChunkLayout::new(BaseSize::B8, 2).unwrap();
        assert_eq!(CompressionIndicator::from_layout(l), None);
    }

    #[test]
    fn choice_set_constructors() {
        assert_eq!(ChoiceSet::warped_compression().choices().len(), 3);
        assert_eq!(
            ChoiceSet::only(FixedChoice::Delta1).choices(),
            &[FixedChoice::Delta1]
        );
        assert!(ChoiceSet::disabled().is_disabled());
        let collected: ChoiceSet = [FixedChoice::Delta2].into_iter().collect();
        assert_eq!(collected.choices(), &[FixedChoice::Delta2]);
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(FixedChoice::Delta1.to_string(), "<4,1>");
    }

    #[test]
    fn class_banks_match_indicator() {
        for ind in [
            CompressionIndicator::Uncompressed,
            CompressionIndicator::Delta0,
            CompressionIndicator::Delta1,
            CompressionIndicator::Delta2,
        ] {
            assert_eq!(ind.class().banks(), ind.banks_accessed());
            assert_eq!(CompressionIndicator::from(ind.class()), ind);
        }
    }

    #[test]
    fn class_order_is_footprint_order() {
        let banks: Vec<usize> = CompressionClass::ALL.iter().map(|c| c.banks()).collect();
        assert!(banks.windows(2).all(|w| w[0] < w[1]));
        assert!(CompressionClass::Delta0 < CompressionClass::Uncompressed);
        assert_eq!(
            CompressionClass::Delta1.max(CompressionClass::Delta2),
            CompressionClass::Delta2
        );
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(CompressionClass::Delta0.name(), "delta0");
        assert_eq!(CompressionClass::Uncompressed.to_string(), "uncompressed");
        assert!(CompressionClass::Delta2.is_compressed());
        assert!(!CompressionClass::Uncompressed.is_compressed());
        assert_eq!(CompressionClass::from(FixedChoice::Delta2).banks(), 5);
    }
}
