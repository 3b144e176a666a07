//! Register file configuration.

/// Leakage-management policy for empty register banks.
///
/// `PowerGate` is the paper's §5.3 mechanism. `Drowsy` models the
/// alternative from the Warped Register File line of work the paper cites
/// (the paper’s reference \[9\]): instead of cutting power entirely, an empty bank drops to a
/// low-voltage retention state that still leaks a fraction of nominal
/// (see [`EnergyParams::drowsy_leakage_fraction`]) but wakes in a single
/// cycle — a classic leakage-saving vs wake-latency trade-off.
///
/// [`EnergyParams::drowsy_leakage_fraction`]: https://docs.rs/gpu-power
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum GatingMode {
    /// No leakage management — the uncompressed baseline, where every
    /// bank holds live data anyway.
    #[default]
    Off,
    /// Bank-level power gating: zero leakage when gated, full wake-up
    /// latency (Table 2: 10 cycles).
    PowerGate,
    /// Drowsy retention state: reduced leakage, 1-cycle wake-up.
    Drowsy,
}

impl GatingMode {
    /// Whether empty banks enter a low-leakage state at all.
    pub fn is_enabled(self) -> bool {
        self != GatingMode::Off
    }
}

/// Geometry and policy knobs of the banked register file.
///
/// Defaults come straight from the paper's Table 2: 32 banks × 128 bit ×
/// 256 entries (128 KB), 10-cycle bank wake-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegFileConfig {
    /// Total number of SRAM banks (Table 2: 32).
    pub num_banks: usize,
    /// Entries per bank (Table 2: 256).
    pub entries_per_bank: usize,
    /// Banks spanned by one uncompressed warp register (128 B / 16 B = 8).
    pub banks_per_cluster: usize,
    /// Cycles to wake a power-gated bank (Table 2: 10).
    pub wakeup_latency: u64,
    /// Cycles to wake a drowsy bank (prior work: 1).
    pub drowsy_wakeup_latency: u64,
    /// Leakage management for empty banks (§5.3). The baseline
    /// (no compression) gains nothing from it; warped-compression uses
    /// `PowerGate`.
    pub gating: GatingMode,
    /// Idle cycles a bank must stay empty before it enters the low-power
    /// state. Prevents gate/wake thrash when a register's footprint
    /// oscillates; leakage is only counted as saved after the hysteresis
    /// elapses.
    pub gating_hysteresis: u64,
}

impl RegFileConfig {
    /// The paper's Table 2 register file with §5.3 power gating.
    pub fn paper_baseline() -> Self {
        RegFileConfig {
            num_banks: 32,
            entries_per_bank: 256,
            banks_per_cluster: 8,
            wakeup_latency: 10,
            drowsy_wakeup_latency: 1,
            gating: GatingMode::PowerGate,
            gating_hysteresis: 256,
        }
    }

    /// Number of bank clusters (4 in the paper's configuration).
    pub fn num_clusters(&self) -> usize {
        self.num_banks / self.banks_per_cluster
    }

    /// Total register file capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.num_banks * self.entries_per_bank * bdi::BANK_BYTES
    }

    /// Total 32-bit registers the file can hold (Table 2: 32768).
    pub fn total_thread_registers(&self) -> usize {
        self.capacity_bytes() / 4
    }

    /// The wake-up latency of the configured low-power state.
    pub fn effective_wakeup_latency(&self) -> u64 {
        match self.gating {
            GatingMode::Off => 0,
            GatingMode::PowerGate => self.wakeup_latency,
            GatingMode::Drowsy => self.drowsy_wakeup_latency,
        }
    }
}

impl Default for RegFileConfig {
    fn default() -> Self {
        RegFileConfig::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table_2() {
        let c = RegFileConfig::paper_baseline();
        assert_eq!(c.num_banks, 32);
        assert_eq!(c.entries_per_bank, 256);
        assert_eq!(c.capacity_bytes(), 128 * 1024);
        assert_eq!(c.total_thread_registers(), 32768);
        assert_eq!(c.num_clusters(), 4);
        assert_eq!(c.wakeup_latency, 10);
        assert_eq!(c.gating, GatingMode::PowerGate);
    }

    #[test]
    fn effective_wakeup_latency_follows_mode() {
        let mut c = RegFileConfig::paper_baseline();
        assert_eq!(c.effective_wakeup_latency(), 10);
        c.gating = GatingMode::Drowsy;
        assert_eq!(c.effective_wakeup_latency(), 1);
        c.gating = GatingMode::Off;
        assert_eq!(c.effective_wakeup_latency(), 0);
    }

    #[test]
    fn gating_mode_enablement() {
        assert!(!GatingMode::Off.is_enabled());
        assert!(GatingMode::PowerGate.is_enabled());
        assert!(GatingMode::Drowsy.is_enabled());
    }
}
