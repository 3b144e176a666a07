//! The Table 3 energy constants and the design-space scaling knobs.

/// Energy/power parameters of the register file and compression units.
///
/// Defaults reproduce the paper's Table 3 (45 nm, 1.0 V, 1.4 GHz). The
/// three `*_scale`/`wire_activity` knobs drive the §6.7 sensitivity
/// studies and default to the paper's baseline assumptions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyParams {
    /// Operating voltage in volts (Table 3: 1.0).
    pub voltage_v: f64,
    /// Core clock in GHz (Table 2: 1.4) — converts leakage power to
    /// per-cycle energy.
    pub clock_ghz: f64,
    /// Wire capacitance in fF/mm (Table 3: 300).
    pub wire_cap_ff_per_mm: f64,
    /// Wire length between register banks and execution units in mm
    /// (§6.1, after the register-file-cache study the paper cites: 1 mm).
    pub wire_length_mm: f64,
    /// Fraction of the 128 wires that switch per transfer (§6.1 default:
    /// 0.5, i.e. "50 % of wires move zeros while the other 50 % move
    /// ones" — yielding Table 3's 9.6 pJ/mm). Fig. 19 sweeps 0..=1.
    pub wire_activity: f64,
    /// SRAM access energy per bank access in pJ (Table 3: 7).
    pub bank_access_pj: f64,
    /// Leakage power per bank in mW (Table 3: 5.8).
    pub bank_leakage_mw: f64,
    /// Compressor activation energy in pJ (Table 3: 23).
    pub compressor_pj: f64,
    /// Compressor leakage in mW per unit (Table 3: 0.12).
    pub compressor_leakage_mw: f64,
    /// Decompressor activation energy in pJ (Table 3: 21).
    pub decompressor_pj: f64,
    /// Decompressor leakage in mW per unit (Table 3: 0.08).
    pub decompressor_leakage_mw: f64,
    /// Compressor units per SM (Table 2: 2).
    pub num_compressors: usize,
    /// Decompressor units per SM (Table 2: 4).
    pub num_decompressors: usize,
    /// Scale factor on compression/decompression activation energy
    /// (Fig. 17 sweeps 1.5×, 2×, 2.5×).
    pub comp_decomp_scale: f64,
    /// Scale factor on the per-bank access energy including its wire
    /// component (Fig. 18 sweeps 1.5×, 2×, 2.5×).
    pub bank_access_scale: f64,
    /// Leakage a drowsy bank retains as a fraction of nominal (prior
    /// work's drowsy caches/registers report ~70-80 % leakage reduction;
    /// we use 0.25 residual).
    pub drowsy_leakage_fraction: f64,
}

impl EnergyParams {
    /// The paper's Table 3 values with baseline assumptions.
    pub fn paper_table3() -> Self {
        EnergyParams {
            voltage_v: 1.0,
            clock_ghz: 1.4,
            wire_cap_ff_per_mm: 300.0,
            wire_length_mm: 1.0,
            wire_activity: 0.5,
            bank_access_pj: 7.0,
            bank_leakage_mw: 5.8,
            compressor_pj: 23.0,
            compressor_leakage_mw: 0.12,
            decompressor_pj: 21.0,
            decompressor_leakage_mw: 0.08,
            num_compressors: 2,
            num_decompressors: 4,
            comp_decomp_scale: 1.0,
            bank_access_scale: 1.0,
            drowsy_leakage_fraction: 0.25,
        }
    }

    /// Wire energy in pJ for one 128-bit bank transfer at the configured
    /// activity: `½ · C · V² · 128 · activity · length`.
    ///
    /// At the defaults this is 9.6 pJ — Table 3's "Wire Energy (128-bit,
    /// pJ/mm)" row.
    pub fn wire_energy_pj(&self) -> f64 {
        let cap_pf_per_bit = self.wire_cap_ff_per_mm * 1e-3; // fF -> pF
        0.5 * cap_pf_per_bit
            * self.voltage_v
            * self.voltage_v
            * 128.0
            * self.wire_activity
            * self.wire_length_mm
    }

    /// Total energy of one bank access (SRAM + wire), after the Fig. 18
    /// scale factor.
    pub fn bank_access_total_pj(&self) -> f64 {
        (self.bank_access_pj + self.wire_energy_pj()) * self.bank_access_scale
    }

    /// Leakage energy of one powered bank for one cycle, in pJ.
    pub fn bank_leakage_pj_per_cycle(&self) -> f64 {
        // mW / GHz = pJ.
        self.bank_leakage_mw / self.clock_ghz
    }

    /// Combined comp+decomp unit leakage per cycle, in pJ.
    pub fn unit_leakage_pj_per_cycle(&self) -> f64 {
        (self.compressor_leakage_mw * self.num_compressors as f64
            + self.decompressor_leakage_mw * self.num_decompressors as f64)
            / self.clock_ghz
    }

    /// Returns a copy with the Fig. 17 compression-energy scale applied.
    pub fn with_comp_decomp_scale(mut self, scale: f64) -> Self {
        self.comp_decomp_scale = scale;
        self
    }

    /// Returns a copy with the Fig. 18 bank-access-energy scale applied.
    pub fn with_bank_access_scale(mut self, scale: f64) -> Self {
        self.bank_access_scale = scale;
        self
    }

    /// Returns a copy with the Fig. 19 wire activity applied.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside `[0, 1]`.
    pub fn with_wire_activity(mut self, activity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&activity),
            "wire activity must be in [0,1]"
        );
        self.wire_activity = activity;
        self
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::paper_table3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_energy_matches_table_3() {
        // 300 fF/mm × 128 bits × 1 V² × ½ × 0.5 activity = 9.6 pJ/mm.
        let p = EnergyParams::paper_table3();
        assert!((p.wire_energy_pj() - 9.6).abs() < 1e-9);
    }

    #[test]
    fn wire_energy_scales_linearly_with_activity() {
        let p = EnergyParams::paper_table3().with_wire_activity(1.0);
        assert!((p.wire_energy_pj() - 19.2).abs() < 1e-9);
        let p0 = EnergyParams::paper_table3().with_wire_activity(0.0);
        assert_eq!(p0.wire_energy_pj(), 0.0);
    }

    #[test]
    fn bank_leakage_per_cycle() {
        // 5.8 mW at 1.4 GHz = 4.142857.. pJ per cycle.
        let p = EnergyParams::paper_table3();
        assert!((p.bank_leakage_pj_per_cycle() - 5.8 / 1.4).abs() < 1e-12);
    }

    #[test]
    fn access_scale_applies_to_sram_and_wire() {
        let p = EnergyParams::paper_table3().with_bank_access_scale(2.0);
        assert!((p.bank_access_total_pj() - 2.0 * (7.0 + 9.6)).abs() < 1e-9);
    }

    #[test]
    fn unit_leakage_counts_all_units() {
        let p = EnergyParams::paper_table3();
        let expected = (0.12 * 2.0 + 0.08 * 4.0) / 1.4;
        assert!((p.unit_leakage_pj_per_cycle() - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "wire activity")]
    fn activity_out_of_range_panics() {
        let _ = EnergyParams::paper_table3().with_wire_activity(1.5);
    }
}
