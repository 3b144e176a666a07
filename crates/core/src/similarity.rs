//! Register-value similarity characterisation (§3, Fig. 2).
//!
//! Every register write is classified by the largest arithmetic distance
//! between *successive* thread registers:
//!
//! * **zero** — all 32 values identical,
//! * **128** — every successive difference within |128|,
//! * **32K** — within |2¹⁵|,
//! * **random** — anything larger.

use bdi::WarpRegister;
use gpu_sim::WriteEvent;

/// The four Fig. 2 bins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimilarityBin {
    /// Successive thread registers are identical.
    Zero,
    /// Successive differences within |128|.
    D128,
    /// Successive differences within |2^15|.
    D32k,
    /// Larger differences: effectively incompressible.
    Random,
}

impl SimilarityBin {
    /// Classifies one warp register value.
    ///
    /// # Example
    ///
    /// ```
    /// use bdi::WarpRegister;
    /// use warped_compression::SimilarityBin;
    ///
    /// assert_eq!(SimilarityBin::of(&WarpRegister::splat(9)), SimilarityBin::Zero);
    /// let tid = WarpRegister::from_fn(|t| t as u32);
    /// assert_eq!(SimilarityBin::of(&tid), SimilarityBin::D128);
    /// ```
    pub fn of(value: &WarpRegister) -> Self {
        match value.max_successive_distance().unwrap_or(0) {
            0 => SimilarityBin::Zero,
            d if d <= 128 => SimilarityBin::D128,
            d if d <= 1 << 15 => SimilarityBin::D32k,
            _ => SimilarityBin::Random,
        }
    }

    /// All bins in Fig. 2 order.
    pub const ALL: [SimilarityBin; 4] = [
        SimilarityBin::Zero,
        SimilarityBin::D128,
        SimilarityBin::D32k,
        SimilarityBin::Random,
    ];
}

/// Counts of register writes per bin, split by divergence phase — the
/// data behind one benchmark's pair of Fig. 2 bars.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimilarityHistogram {
    nondiv: [u64; 4],
    div: [u64; 4],
}

impl SimilarityHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies and records one register write. Synthetic (injected
    /// MOV) writes are ignored: they rewrite existing values and would
    /// double-count.
    pub fn record(&mut self, event: &WriteEvent) {
        if event.synthetic {
            return;
        }
        let bin = SimilarityBin::of(&event.value) as usize;
        if event.divergent {
            self.div[bin] += 1;
        } else {
            self.nondiv[bin] += 1;
        }
    }

    /// Raw count for a bin in the given phase.
    pub fn count(&self, bin: SimilarityBin, divergent: bool) -> u64 {
        if divergent {
            self.div[bin as usize]
        } else {
            self.nondiv[bin as usize]
        }
    }

    /// Total writes in a phase.
    pub fn total(&self, divergent: bool) -> u64 {
        if divergent {
            self.div.iter().sum()
        } else {
            self.nondiv.iter().sum()
        }
    }

    /// Fraction of a phase's writes in `bin` (0 when the phase is empty).
    pub fn fraction(&self, bin: SimilarityBin, divergent: bool) -> f64 {
        let total = self.total(divergent);
        if total == 0 {
            return 0.0;
        }
        self.count(bin, divergent) as f64 / total as f64
    }

    /// Fraction of non-divergent writes that are *not* random — the
    /// paper's headline "79 % of registers are categorised as not random".
    pub fn nonrandom_fraction(&self, divergent: bool) -> f64 {
        let total = self.total(divergent);
        if total == 0 {
            return 0.0;
        }
        1.0 - self.fraction(SimilarityBin::Random, divergent)
    }

    /// Merges another histogram into this one (suite-wide averaging).
    pub fn merge(&mut self, other: &SimilarityHistogram) {
        for i in 0..4 {
            self.nondiv[i] += other.nondiv[i];
            self.div[i] += other.div[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(value: WarpRegister, divergent: bool) -> WriteEvent {
        WriteEvent {
            pc: 0,
            value,
            class: bdi::CompressionClass::Uncompressed,
            divergent,
            synthetic: false,
        }
    }

    #[test]
    fn bin_boundaries_match_the_paper() {
        assert_eq!(
            SimilarityBin::of(&WarpRegister::splat(7)),
            SimilarityBin::Zero
        );
        let d128 = WarpRegister::from_fn(|t| (t as u32) * 128);
        assert_eq!(SimilarityBin::of(&d128), SimilarityBin::D128);
        let d129 = WarpRegister::from_fn(|t| (t as u32) * 129);
        assert_eq!(SimilarityBin::of(&d129), SimilarityBin::D32k);
        let d32k = WarpRegister::from_fn(|t| (t as u32) * (1 << 15));
        assert_eq!(SimilarityBin::of(&d32k), SimilarityBin::D32k);
        let big = WarpRegister::from_fn(|t| (t as u32) * ((1 << 15) + 1));
        assert_eq!(SimilarityBin::of(&big), SimilarityBin::Random);
    }

    #[test]
    fn negative_distances_use_magnitude() {
        let falling = WarpRegister::from_fn(|t| 10_000u32.wrapping_sub(100 * t as u32));
        assert_eq!(SimilarityBin::of(&falling), SimilarityBin::D128);
    }

    #[test]
    fn histogram_buckets_by_phase() {
        let mut h = SimilarityHistogram::new();
        h.record(&event(WarpRegister::splat(1), false));
        h.record(&event(WarpRegister::splat(2), false));
        h.record(&event(WarpRegister::from_fn(|t| t as u32 * 70_000), true));
        assert_eq!(h.count(SimilarityBin::Zero, false), 2);
        assert_eq!(h.count(SimilarityBin::Random, true), 1);
        assert_eq!(h.total(false), 2);
        assert_eq!(h.total(true), 1);
        assert!((h.fraction(SimilarityBin::Zero, false) - 1.0).abs() < 1e-12);
        assert_eq!(h.nonrandom_fraction(true), 0.0);
    }

    #[test]
    fn synthetic_writes_are_ignored() {
        let mut h = SimilarityHistogram::new();
        h.record(&WriteEvent {
            synthetic: true,
            ..event(WarpRegister::splat(0), false)
        });
        assert_eq!(h.total(false), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = SimilarityHistogram::new();
        let mut b = SimilarityHistogram::new();
        a.record(&event(WarpRegister::splat(1), false));
        b.record(&event(WarpRegister::splat(1), false));
        b.record(&event(WarpRegister::splat(1), true));
        a.merge(&b);
        assert_eq!(a.total(false), 2);
        assert_eq!(a.total(true), 1);
    }

    #[test]
    fn empty_histogram_fractions_are_zero() {
        let h = SimilarityHistogram::new();
        assert_eq!(h.fraction(SimilarityBin::Zero, false), 0.0);
        assert_eq!(h.nonrandom_fraction(false), 0.0);
    }
}
