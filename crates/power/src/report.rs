//! The energy breakdown report (the stacked bars of Fig. 9).

/// Register-file energy broken into the four categories the paper stacks
/// in Fig. 9: leakage, dynamic (bank + wire), compression and
/// decompression. All values in picojoules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyReport {
    /// Bank SRAM + wire dynamic energy.
    pub dynamic_pj: f64,
    /// Bank leakage energy (powered bank-cycles only).
    pub leakage_pj: f64,
    /// Compressor activation + leakage energy.
    pub compression_pj: f64,
    /// Decompressor activation + leakage energy.
    pub decompression_pj: f64,
}

impl EnergyReport {
    /// Total register-file energy.
    pub fn total_pj(&self) -> f64 {
        self.dynamic_pj + self.leakage_pj + self.compression_pj + self.decompression_pj
    }

    /// This report's total as a fraction of `baseline`'s total — the
    /// normalised stacked bars of Fig. 9 (1.0 means no change).
    ///
    /// Returns 0 when the baseline total is 0.
    pub fn normalized_to(&self, baseline: &EnergyReport) -> f64 {
        let b = baseline.total_pj();
        if b == 0.0 {
            0.0
        } else {
            self.total_pj() / b
        }
    }

    /// Fractional energy saving vs `baseline` (0.25 = 25 % saved).
    pub fn savings_vs(&self, baseline: &EnergyReport) -> f64 {
        1.0 - self.normalized_to(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(d: f64, l: f64, c: f64, x: f64) -> EnergyReport {
        EnergyReport {
            dynamic_pj: d,
            leakage_pj: l,
            compression_pj: c,
            decompression_pj: x,
        }
    }

    #[test]
    fn totals_sum_all_categories() {
        assert_eq!(report(1.0, 2.0, 3.0, 4.0).total_pj(), 10.0);
    }

    #[test]
    fn normalization_and_savings() {
        let base = report(80.0, 20.0, 0.0, 0.0);
        let wc = report(50.0, 18.0, 4.0, 3.0);
        assert!((wc.normalized_to(&base) - 0.75).abs() < 1e-12);
        assert!((wc.savings_vs(&base) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_is_safe() {
        let z = EnergyReport::default();
        assert_eq!(report(1.0, 0.0, 0.0, 0.0).normalized_to(&z), 0.0);
    }
}
