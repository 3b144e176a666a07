//! Full-BDI ⟨base, delta⟩ selection breakdown (§4, Fig. 5).

use bdi::{explore_best_choice, BaseSize, ChunkLayout};
use gpu_sim::WriteEvent;

/// How often the full BDI explorer picked each ⟨base, delta⟩ pair, as a
/// fraction of register writes — the data behind Fig. 5, which justifies
/// restricting the hardware to the three 4-byte-base choices.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChoiceBreakdown {
    counts: [u64; 7], // indexed like bdi::EXPLORER_CHOICES
    uncompressed: u64,
}

impl ChoiceBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the explorer on one write and records the winner.
    pub fn record(&mut self, event: &WriteEvent) {
        if event.synthetic {
            return;
        }
        match explore_best_choice(&event.value).layout() {
            Some(layout) => {
                let idx = bdi::EXPLORER_CHOICES
                    .iter()
                    .position(|&(b, d)| b == layout.base() && d == layout.delta_bytes())
                    .expect("explorer only returns its own choices");
                self.counts[idx] += 1;
            }
            None => self.uncompressed += 1,
        }
    }

    /// Count for one ⟨base, delta⟩ pair.
    pub fn count(&self, base: BaseSize, delta: usize) -> u64 {
        bdi::EXPLORER_CHOICES
            .iter()
            .position(|&(b, d)| b == base && d == delta)
            .map(|i| self.counts[i])
            .unwrap_or(0)
    }

    /// Writes no choice could compress.
    pub fn uncompressed(&self) -> u64 {
        self.uncompressed
    }

    /// Total writes recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.uncompressed
    }

    /// Fraction of writes won by `⟨base, delta⟩`.
    pub fn fraction(&self, base: BaseSize, delta: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.count(base, delta) as f64 / total as f64
    }

    /// Fraction of writes where *any* 8-byte base won — the paper found
    /// this to be negligible, motivating the ⟨4,·⟩-only hardware.
    pub fn eight_byte_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let eight: u64 = bdi::EXPLORER_CHOICES
            .iter()
            .zip(&self.counts)
            .filter(|((b, _), _)| *b == BaseSize::B8)
            .map(|(_, &c)| c)
            .sum();
        eight as f64 / total as f64
    }

    /// Iterates `(layout, count)` over all explorer choices.
    pub fn iter(&self) -> impl Iterator<Item = (ChunkLayout, u64)> + '_ {
        bdi::EXPLORER_CHOICES
            .iter()
            .zip(&self.counts)
            .map(|(&(b, d), &c)| {
                (
                    ChunkLayout::new(b, d).expect("explorer choices are valid"),
                    c,
                )
            })
    }

    /// Merges another breakdown (suite aggregation).
    pub fn merge(&mut self, other: &ChoiceBreakdown) {
        for i in 0..7 {
            self.counts[i] += other.counts[i];
        }
        self.uncompressed += other.uncompressed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdi::WarpRegister;

    fn event(value: WarpRegister) -> WriteEvent {
        WriteEvent {
            pc: 0,
            value,
            class: bdi::CompressionClass::Uncompressed,
            divergent: false,
            synthetic: false,
        }
    }

    #[test]
    fn records_winning_choice() {
        let mut b = ChoiceBreakdown::new();
        b.record(&event(WarpRegister::splat(3))); // <4,0>
        b.record(&event(WarpRegister::from_fn(|t| t as u32))); // <4,1>
        b.record(&event(WarpRegister::from_fn(|t| 1000 * t as u32))); // <4,2>
        b.record(&event(WarpRegister::from_fn(|t| {
            (t as u32).wrapping_mul(0x9E37_79B9)
        })));
        assert_eq!(b.count(BaseSize::B4, 0), 1);
        assert_eq!(b.count(BaseSize::B4, 1), 1);
        assert_eq!(b.count(BaseSize::B4, 2), 1);
        assert_eq!(b.uncompressed(), 1);
        assert_eq!(b.total(), 4);
        assert!((b.fraction(BaseSize::B4, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn eight_byte_fraction_counts_pairwise_patterns() {
        let mut b = ChoiceBreakdown::new();
        // {X, Y, X, Y} with far-apart X/Y: only <8,0> fits.
        b.record(&event(WarpRegister::from_fn(|t| {
            if t % 2 == 0 {
                0
            } else {
                0x4000_0000
            }
        })));
        assert_eq!(b.count(BaseSize::B8, 0), 1);
        assert!((b.eight_byte_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn synthetic_ignored_and_merge_works() {
        let mut a = ChoiceBreakdown::new();
        a.record(&WriteEvent {
            synthetic: true,
            ..event(WarpRegister::splat(0))
        });
        assert_eq!(a.total(), 0);
        let mut b = ChoiceBreakdown::new();
        b.record(&event(WarpRegister::splat(0)));
        a.merge(&b);
        assert_eq!(a.total(), 1);
    }

    #[test]
    fn iter_yields_seven_choices() {
        let b = ChoiceBreakdown::new();
        assert_eq!(b.iter().count(), 7);
    }

    #[test]
    fn empty_fractions_are_zero() {
        let b = ChoiceBreakdown::new();
        assert_eq!(b.fraction(BaseSize::B4, 0), 0.0);
        assert_eq!(b.eight_byte_fraction(), 0.0);
    }
}
