//! Static performance floor vs. one simulated run.
//!
//! The perfbound analysis in `simt-analysis` produces a
//! [`PerfPrediction`]: a cycle lower bound plus minimum bank-access and
//! compression-unit activation counts. Pricing those minima through the
//! [`EnergyModel`] (with zero powered-bank-cycles, since leakage depends
//! on how long banks actually stay powered) gives a static
//! *dynamic-energy* floor: the model is monotone in every activity
//! field, so a run whose every counter dominates the static minimum can
//! never spend less energy. `wcsim perf` gates on all three
//! inequalities — cycles, bank accesses, energy.

use simt_analysis::PerfPrediction;

use crate::activity::{ActivityCounts, LowPowerKind};
use crate::model::EnergyModel;

/// One kernel's static performance floor lined up against the counters
/// of one simulated run under the same machine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfComparison {
    /// Kernel the comparison describes.
    pub kernel: String,
    /// Static cycle lower bound (issue / chain / compressor max).
    pub static_cycles: u64,
    /// Cycles the simulated run took.
    pub measured_cycles: u64,
    /// Static minimum bank accesses (reads + writes).
    pub static_bank_accesses: u64,
    /// Bank accesses the run performed.
    pub measured_bank_accesses: u64,
    /// Static energy floor in pJ: the static activity minima priced
    /// through the energy model with zero powered-bank-cycles.
    pub static_energy_pj: f64,
    /// Energy of the run in pJ, from its real activity counters.
    pub measured_energy_pj: f64,
}

impl PerfComparison {
    /// Lines up `prediction` against a run's `measured` activity
    /// (whose `cycles` field is the run length), pricing both sides
    /// through the same `model`.
    pub fn new(
        prediction: &PerfPrediction,
        model: &EnergyModel,
        measured: &ActivityCounts,
    ) -> PerfComparison {
        let floor = static_activity(prediction);
        PerfComparison {
            kernel: prediction.kernel.clone(),
            static_cycles: prediction.cycle_lower_bound,
            measured_cycles: measured.cycles,
            static_bank_accesses: prediction.min_bank_accesses(),
            measured_bank_accesses: measured.bank_accesses(),
            static_energy_pj: model.evaluate(&floor).total_pj(),
            measured_energy_pj: model.evaluate(measured).total_pj(),
        }
    }

    /// The soundness invariant: every static floor stays at or below
    /// its measurement. A violation means the analysis proved a bound
    /// the hardware beat — an unsound model of the pipeline.
    pub fn measured_within_static_bound(&self) -> bool {
        self.static_cycles <= self.measured_cycles
            && self.static_bank_accesses <= self.measured_bank_accesses
            && self.static_energy_pj <= self.measured_energy_pj + 1e-9
    }

    /// How much of the measured runtime the static bound explains
    /// (1.0 = the bound is exact). Zero when nothing was measured.
    pub fn cycle_tightness(&self) -> f64 {
        ratio(self.static_cycles as f64, self.measured_cycles as f64)
    }

    /// How much of the measured bank traffic the static floor
    /// explains.
    pub fn access_tightness(&self) -> f64 {
        ratio(
            self.static_bank_accesses as f64,
            self.measured_bank_accesses as f64,
        )
    }

    /// How much of the measured energy the static floor explains.
    pub fn energy_tightness(&self) -> f64 {
        ratio(self.static_energy_pj, self.measured_energy_pj)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The activity floor a run can never undercut: the prediction's
/// minimum counts, zero bank-cycles powered (leakage is
/// schedule-dependent), run length at the cycle lower bound.
fn static_activity(prediction: &PerfPrediction) -> ActivityCounts {
    ActivityCounts {
        bank_reads: prediction.min_bank_reads,
        bank_writes: prediction.min_bank_writes,
        powered_bank_cycles: 0,
        low_power_bank_cycles: 0,
        low_power: LowPowerKind::Gated,
        cycles: prediction.cycle_lower_bound,
        compressor_activations: prediction.min_compressor_activations,
        decompressor_activations: prediction.min_decompressor_activations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EnergyParams;

    fn prediction() -> PerfPrediction {
        PerfPrediction {
            kernel: "demo".into(),
            cycle_lower_bound: 100,
            issue_bound: 100,
            chain_bound: 80,
            compressor_bound: 10,
            min_instructions: 200,
            min_bank_reads: 300,
            min_bank_writes: 100,
            min_compressor_activations: 20,
            min_decompressor_activations: 40,
            conflicts: Vec::new(),
            mem_floors: Vec::new(),
            block_bounds: Vec::new(),
            exact_warps: 4,
            approx_warps: 0,
        }
    }

    fn measured(cycles: u64, reads: u64, writes: u64) -> ActivityCounts {
        ActivityCounts {
            bank_reads: reads,
            bank_writes: writes,
            powered_bank_cycles: 32 * cycles,
            cycles,
            compressor_activations: 25,
            decompressor_activations: 50,
            ..Default::default()
        }
    }

    fn model() -> EnergyModel {
        EnergyModel::new(EnergyParams::paper_table3())
    }

    #[test]
    fn dominated_measurement_is_sound() {
        let cmp = PerfComparison::new(&prediction(), &model(), &measured(150, 400, 150));
        assert!(cmp.measured_within_static_bound());
        assert!((cmp.cycle_tightness() - 100.0 / 150.0).abs() < 1e-12);
        assert!((cmp.access_tightness() - 400.0 / 550.0).abs() < 1e-12);
        assert!(cmp.energy_tightness() > 0.0 && cmp.energy_tightness() <= 1.0);
        // The floor carries no leakage, so it must sit strictly below a
        // run that kept 32 banks powered for 150 cycles.
        assert!(cmp.static_energy_pj < cmp.measured_energy_pj);
    }

    #[test]
    fn cycle_violation_is_flagged() {
        let cmp = PerfComparison::new(&prediction(), &model(), &measured(99, 400, 150));
        assert!(!cmp.measured_within_static_bound());
    }

    #[test]
    fn access_violation_is_flagged() {
        let cmp = PerfComparison::new(&prediction(), &model(), &measured(150, 200, 100));
        assert!(!cmp.measured_within_static_bound());
    }

    #[test]
    fn energy_floor_prices_the_static_minima() {
        let p = prediction();
        let cmp = PerfComparison::new(&p, &model(), &measured(150, 400, 150));
        let by_hand = model().evaluate(&super::static_activity(&p)).total_pj();
        assert!((cmp.static_energy_pj - by_hand).abs() < 1e-12);
        assert!(cmp.static_energy_pj > 0.0);
    }

    #[test]
    fn zero_measurement_has_zero_tightness() {
        let mut p = prediction();
        p.cycle_lower_bound = 0;
        p.min_bank_reads = 0;
        p.min_bank_writes = 0;
        p.min_compressor_activations = 0;
        p.min_decompressor_activations = 0;
        let cmp = PerfComparison::new(&p, &model(), &ActivityCounts::default());
        assert!(cmp.measured_within_static_bound());
        assert_eq!(cmp.cycle_tightness(), 0.0);
        assert_eq!(cmp.access_tightness(), 0.0);
        assert_eq!(cmp.energy_tightness(), 0.0);
    }
}
