//! Static liveness bound vs. measured bank occupancy.
//!
//! The verifier's [`LivenessSummary`] says how many architectural
//! registers *can* hold a needed value at each program point — a static
//! upper bound on the register-file capacity a kernel requires. The
//! simulator's [`RegFileStats`] say how many bank-cycles the hardware
//! actually kept powered. Comparing the two quantifies how much of the
//! static dead-register opportunity the footprint-driven gating of §5.3
//! actually harvests, and how much headroom a liveness-aware allocator
//! (the GREENER direction) would still have.

use gpu_regfile::RegFileStats;
use simt_analysis::LivenessSummary;

/// Static-liveness bound lined up against one simulated run.
#[derive(Clone, Debug, PartialEq)]
pub struct OccupancyComparison {
    /// Kernel the comparison describes.
    pub kernel: String,
    /// Mean fraction of declared registers statically live.
    pub static_avg_live_fraction: f64,
    /// Worst-case fraction of declared registers simultaneously live.
    pub static_max_live_fraction: f64,
    /// `1 − static_avg_live_fraction`: the static gating opportunity.
    pub static_dead_fraction: f64,
    /// Fraction of bank-cycles the simulated run kept powered
    /// (`1 − mean gated fraction`).
    pub measured_powered_fraction: f64,
}

impl OccupancyComparison {
    /// Lines up a kernel's static liveness summary with the bank
    /// activity measured when simulating it.
    pub fn new(live: &LivenessSummary, measured: &RegFileStats) -> OccupancyComparison {
        OccupancyComparison {
            kernel: live.kernel.clone(),
            static_avg_live_fraction: live.avg_live_fraction(),
            static_max_live_fraction: live.max_live_fraction(),
            static_dead_fraction: live.dead_fraction(),
            measured_powered_fraction: 1.0 - measured.mean_gated_fraction(),
        }
    }

    /// Powered fraction minus the static average live fraction: the
    /// bank fraction still powered beyond what liveness says is needed
    /// on average. Positive headroom means a liveness-driven gater
    /// could switch off more than the footprint-driven one did;
    /// clamped at zero (gating below the static bound means the bound
    /// is conservative about *which* cycles registers are live, not
    /// that the hardware broke the program).
    pub fn gating_headroom(&self) -> f64 {
        (self.measured_powered_fraction - self.static_avg_live_fraction).max(0.0)
    }

    /// Whether the run kept at least the worst-case statically live
    /// fraction powered at some point — sanity signal that the static
    /// bound and the measurement describe the same kernel scale.
    pub fn measured_within_static_bound(&self) -> bool {
        self.measured_powered_fraction <= 1.0 && self.static_max_live_fraction <= 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(num_regs: u8, avg: f64, max: usize) -> LivenessSummary {
        LivenessSummary {
            kernel: "demo".into(),
            num_regs,
            histogram: vec![0; usize::from(num_regs) + 1],
            max_live: max,
            avg_live: avg,
        }
    }

    fn stats(gated_per_bank: u64, banks: usize, cycles: u64) -> RegFileStats {
        RegFileStats {
            bank_reads: vec![0; banks],
            bank_writes: vec![0; banks],
            gated_cycles: vec![gated_per_bank; banks],
            wakeups: 0,
            total_cycles: cycles,
        }
    }

    #[test]
    fn fractions_line_up() {
        // 4 of 8 registers live on average; hardware gated 25% of
        // bank-cycles, i.e. kept 75% powered.
        let cmp = OccupancyComparison::new(&summary(8, 4.0, 6), &stats(25, 4, 100));
        assert!((cmp.static_avg_live_fraction - 0.5).abs() < 1e-12);
        assert!((cmp.static_max_live_fraction - 0.75).abs() < 1e-12);
        assert!((cmp.static_dead_fraction - 0.5).abs() < 1e-12);
        assert!((cmp.measured_powered_fraction - 0.75).abs() < 1e-12);
        // 75% powered vs 50% needed: a liveness-aware gater has 25%.
        assert!((cmp.gating_headroom() - 0.25).abs() < 1e-12);
        assert!(cmp.measured_within_static_bound());
    }

    #[test]
    fn headroom_clamps_at_zero() {
        // Hardware gated more than the average static bound (possible:
        // the bound averages over program points, the hardware gates
        // over cycles).
        let cmp = OccupancyComparison::new(&summary(8, 6.0, 8), &stats(90, 2, 100));
        assert_eq!(cmp.gating_headroom(), 0.0);
    }

    #[test]
    fn zero_cycle_run_counts_as_fully_powered() {
        let cmp = OccupancyComparison::new(&summary(4, 1.0, 2), &stats(0, 2, 0));
        assert!((cmp.measured_powered_fraction - 1.0).abs() < 1e-12);
    }
}
