//! Activity counters consumed by the energy model.

use gpu_regfile::{GatingMode, RegFileStats};

/// What an empty bank's low-power state costs in leakage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LowPowerKind {
    /// Power-gated: zero leakage (§5.3).
    #[default]
    Gated,
    /// Drowsy retention: leaks
    /// [`EnergyParams::drowsy_leakage_fraction`](crate::EnergyParams::drowsy_leakage_fraction)
    /// of nominal.
    Drowsy,
}

impl From<GatingMode> for LowPowerKind {
    fn from(mode: GatingMode) -> Self {
        match mode {
            GatingMode::Drowsy => LowPowerKind::Drowsy,
            GatingMode::Off | GatingMode::PowerGate => LowPowerKind::Gated,
        }
    }
}

/// The raw event counts the energy model multiplies by the Table 3
/// constants. Produced by the simulator; see
/// [`ActivityCounts::from_regfile`] for the usual construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActivityCounts {
    /// Bank read accesses (one per bank touched per operand read).
    pub bank_reads: u64,
    /// Bank write accesses (one per bank touched per register write).
    pub bank_writes: u64,
    /// Bank-cycles spent fully powered (`num_banks × cycles −
    /// low_power_bank_cycles`).
    pub powered_bank_cycles: u64,
    /// Bank-cycles spent in the low-power state (gated or drowsy).
    pub low_power_bank_cycles: u64,
    /// Which low-power state those cycles were in.
    pub low_power: LowPowerKind,
    /// Total simulated cycles (for compression-unit leakage).
    pub cycles: u64,
    /// Compressor-unit activations (one per register write examined by
    /// the compressor).
    pub compressor_activations: u64,
    /// Decompressor-unit activations (one per compressed operand read,
    /// §5).
    pub decompressor_activations: u64,
}

impl ActivityCounts {
    /// Builds activity counts from a register-file snapshot plus the
    /// simulator's compression-unit counters, assuming power gating (the
    /// paper's design).
    pub fn from_regfile(
        stats: &RegFileStats,
        compressor_activations: u64,
        decompressor_activations: u64,
    ) -> Self {
        Self::from_regfile_with_mode(
            stats,
            compressor_activations,
            decompressor_activations,
            LowPowerKind::Gated,
        )
    }

    /// Like [`from_regfile`](Self::from_regfile) with an explicit
    /// low-power kind (pass [`LowPowerKind::Drowsy`] for drowsy-mode
    /// register files).
    pub fn from_regfile_with_mode(
        stats: &RegFileStats,
        compressor_activations: u64,
        decompressor_activations: u64,
        low_power: LowPowerKind,
    ) -> Self {
        let total_bank_cycles = stats.num_banks() as u64 * stats.total_cycles;
        let low: u64 = stats.gated_cycles.iter().sum();
        ActivityCounts {
            bank_reads: stats.total_reads(),
            bank_writes: stats.total_writes(),
            powered_bank_cycles: total_bank_cycles.saturating_sub(low),
            low_power_bank_cycles: low,
            low_power,
            cycles: stats.total_cycles,
            compressor_activations,
            decompressor_activations,
        }
    }

    /// Total bank accesses.
    pub fn bank_accesses(&self) -> u64 {
        self.bank_reads + self.bank_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RegFileStats {
        RegFileStats {
            bank_reads: vec![3, 4],
            bank_writes: vec![1, 0],
            gated_cycles: vec![10, 90],
            wakeups: 2,
            total_cycles: 100,
        }
    }

    #[test]
    fn from_regfile_derives_powered_cycles() {
        let a = ActivityCounts::from_regfile(&stats(), 5, 6);
        assert_eq!(a.bank_reads, 7);
        assert_eq!(a.bank_writes, 1);
        assert_eq!(a.bank_accesses(), 8);
        assert_eq!(a.powered_bank_cycles, 200 - 100);
        assert_eq!(a.low_power_bank_cycles, 100);
        assert_eq!(a.low_power, LowPowerKind::Gated);
        assert_eq!(a.cycles, 100);
        assert_eq!(a.compressor_activations, 5);
        assert_eq!(a.decompressor_activations, 6);
    }

    #[test]
    fn drowsy_mode_is_recorded() {
        let a = ActivityCounts::from_regfile_with_mode(&stats(), 0, 0, LowPowerKind::Drowsy);
        assert_eq!(a.low_power, LowPowerKind::Drowsy);
        assert_eq!(a.low_power_bank_cycles, 100);
    }

    #[test]
    fn gating_mode_conversion() {
        assert_eq!(
            LowPowerKind::from(GatingMode::PowerGate),
            LowPowerKind::Gated
        );
        assert_eq!(LowPowerKind::from(GatingMode::Off), LowPowerKind::Gated);
        assert_eq!(LowPowerKind::from(GatingMode::Drowsy), LowPowerKind::Drowsy);
    }
}
