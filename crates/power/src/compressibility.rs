//! Static compressibility bound vs. measured bank gating.
//!
//! The abstract interpreter's [`KernelPrediction`] assigns every
//! register write site a worst-case compression class, which bounds
//! from below how many of a register's eight banks §5.3 footprint
//! gating can power off after *any* write the kernel performs. The
//! simulator measures the banks actually left unused by the stored
//! forms. Because the static classes are conservative (a predicted
//! class never claims fewer banks than the value needs), the static
//! gateable-bank bound must never exceed the measured figure — the
//! conservativeness check `wcsim predict` enforces per kernel.

use bdi::CompressionClass;
use simt_analysis::KernelPrediction;

/// Static per-write gating bound lined up against one simulated run.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressibilityComparison {
    /// Kernel the comparison describes.
    pub kernel: String,
    /// Banks guaranteed gateable after *every* write site — the
    /// minimum over sites of `8 − predicted footprint`.
    pub static_gateable_banks_per_write: f64,
    /// Mean banks the simulated run actually left unused per stored
    /// write (`8 − mean stored footprint`).
    pub measured_gated_banks_per_write: f64,
}

impl CompressibilityComparison {
    /// Lines up a kernel's static prediction with the mean stored
    /// footprint (in banks) measured when simulating it.
    pub fn new(
        prediction: &KernelPrediction,
        measured_mean_footprint_banks: f64,
    ) -> CompressibilityComparison {
        let total = CompressionClass::Uncompressed.banks() as f64;
        CompressibilityComparison {
            kernel: prediction.kernel.clone(),
            static_gateable_banks_per_write: prediction.min_gateable_banks() as f64,
            measured_gated_banks_per_write: (total - measured_mean_footprint_banks).max(0.0),
        }
    }

    /// Whether the static guarantee stayed below what the hardware
    /// achieved — the conservativeness invariant. A violation means an
    /// unsound prediction (some write needed more banks than its
    /// static class allows).
    pub fn measured_within_static_bound(&self) -> bool {
        self.static_gateable_banks_per_write <= self.measured_gated_banks_per_write + 1e-9
    }

    /// Banks per write the dynamic compressor gated beyond the static
    /// worst-case guarantee: the value-dependent opportunity a purely
    /// static gater would leave on the table. Clamped at zero.
    pub fn gating_headroom(&self) -> f64 {
        (self.measured_gated_banks_per_write - self.static_gateable_banks_per_write).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_analysis::SitePrediction;

    fn prediction(classes: &[CompressionClass]) -> KernelPrediction {
        KernelPrediction {
            kernel: "demo".into(),
            sites: classes
                .iter()
                .enumerate()
                .map(|(pc, &class)| SitePrediction {
                    pc,
                    reg: 0,
                    class,
                    divergent_region: false,
                    value: simt_analysis::AbsVal::zero(),
                })
                .collect(),
            branches: Vec::new(),
        }
    }

    #[test]
    fn bounds_line_up() {
        // Worst site is Delta2 (5 banks) → 3 banks always gateable.
        let p = prediction(&[CompressionClass::Delta0, CompressionClass::Delta2]);
        // Measured mean footprint 3 banks → 5 banks gated on average.
        let cmp = CompressibilityComparison::new(&p, 3.0);
        assert!((cmp.static_gateable_banks_per_write - 3.0).abs() < 1e-12);
        assert!((cmp.measured_gated_banks_per_write - 5.0).abs() < 1e-12);
        assert!(cmp.measured_within_static_bound());
        assert!((cmp.gating_headroom() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unsound_prediction_breaks_the_bound() {
        // All sites predicted Delta0 (7 banks gateable) but the run
        // stored a mean footprint of 5 banks (3 gated): impossible if
        // the prediction were sound.
        let p = prediction(&[CompressionClass::Delta0]);
        let cmp = CompressibilityComparison::new(&p, 5.0);
        assert!(!cmp.measured_within_static_bound());
        assert_eq!(cmp.gating_headroom(), 0.0);
    }

    #[test]
    fn top_heavy_kernel_guarantees_nothing() {
        let p = prediction(&[CompressionClass::Uncompressed]);
        let cmp = CompressibilityComparison::new(&p, 8.0);
        assert_eq!(cmp.static_gateable_banks_per_write, 0.0);
        assert_eq!(cmp.measured_gated_banks_per_write, 0.0);
        assert!(cmp.measured_within_static_bound());
    }
}
