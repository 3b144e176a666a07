//! Register-file access and gating statistics.

/// Snapshot of the register file's physical activity counters — the raw
/// inputs of the `gpu-power` energy model and of Fig. 10.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegFileStats {
    /// Read accesses per physical bank.
    pub bank_reads: Vec<u64>,
    /// Write accesses per physical bank.
    pub bank_writes: Vec<u64>,
    /// Cycles each bank spent power-gated.
    pub gated_cycles: Vec<u64>,
    /// Total bank wake-ups performed.
    pub wakeups: u64,
    /// Cycle at which the snapshot was taken.
    pub total_cycles: u64,
}

impl RegFileStats {
    /// Total bank reads across all banks.
    pub fn total_reads(&self) -> u64 {
        self.bank_reads.iter().sum()
    }

    /// Total bank writes across all banks.
    pub fn total_writes(&self) -> u64 {
        self.bank_writes.iter().sum()
    }

    /// Total bank accesses (reads + writes) — each costs one bank-access
    /// energy quantum plus one 128-bit wire transfer.
    pub fn total_accesses(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }

    /// Fraction of simulated cycles bank `bank` spent gated — one bar of
    /// Fig. 10.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn gated_fraction(&self, bank: usize) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.gated_cycles[bank] as f64 / self.total_cycles as f64
    }

    /// Mean gated fraction over all banks — the leakage-saving factor.
    pub fn mean_gated_fraction(&self) -> f64 {
        if self.gated_cycles.is_empty() || self.total_cycles == 0 {
            return 0.0;
        }
        let sum: u64 = self.gated_cycles.iter().sum();
        sum as f64 / (self.gated_cycles.len() as f64 * self.total_cycles as f64)
    }

    /// Number of banks in the snapshot.
    pub fn num_banks(&self) -> usize {
        self.bank_reads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RegFileStats {
        RegFileStats {
            bank_reads: vec![10, 0, 5, 0],
            bank_writes: vec![2, 1, 0, 0],
            gated_cycles: vec![0, 50, 0, 100],
            wakeups: 3,
            total_cycles: 100,
        }
    }

    #[test]
    fn totals() {
        let s = sample();
        assert_eq!(s.total_reads(), 15);
        assert_eq!(s.total_writes(), 3);
        assert_eq!(s.total_accesses(), 18);
        assert_eq!(s.num_banks(), 4);
    }

    #[test]
    fn gated_fractions() {
        let s = sample();
        assert!((s.gated_fraction(1) - 0.5).abs() < 1e-12);
        assert!((s.gated_fraction(3) - 1.0).abs() < 1e-12);
        assert!((s.mean_gated_fraction() - 150.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_zero_fraction() {
        let s = RegFileStats {
            gated_cycles: vec![5],
            bank_reads: vec![0],
            bank_writes: vec![0],
            ..Default::default()
        };
        assert_eq!(s.gated_fraction(0), 0.0);
        assert_eq!(s.mean_gated_fraction(), 0.0);
    }
}
