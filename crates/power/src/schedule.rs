//! Scheduled replay vs. dynamic execution, priced side by side.
//!
//! The static issue scheduler replays a kernel with the scoreboard and
//! collector arbitration compiled away; the dynamic core runs the same
//! kernel with all of that machinery live. Both runs report the same
//! [`ActivityCounts`] shape, so pricing the two through one
//! [`EnergyModel`] answers the question the DICE line of work asks of
//! warped-compression: *how much register-file energy does the schedule
//! itself cost or save once issue-time decisions are made at compile
//! time?* The replayer injects no dummy MOVs (divergent stores are
//! peek-merged architecturally), so the scheduled side typically shows
//! fewer decompressor activations under the §5.2 policy.

use crate::activity::ActivityCounts;
use crate::model::EnergyModel;

/// One kernel's statically scheduled replay lined up against the
/// dynamic run it was validated against, both priced through the same
/// energy model.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleComparison {
    /// Kernel the comparison describes.
    pub kernel: String,
    /// Cycles the scheduled replay took (the plan's makespan).
    pub scheduled_cycles: u64,
    /// Cycles the dynamic core took on the same launch.
    pub dynamic_cycles: u64,
    /// Register-file energy of the scheduled replay in pJ.
    pub scheduled_energy_pj: f64,
    /// Register-file energy of the dynamic run in pJ.
    pub dynamic_energy_pj: f64,
    /// Compressor activations: scheduled replay.
    pub scheduled_compressor_activations: u64,
    /// Compressor activations: dynamic run.
    pub dynamic_compressor_activations: u64,
    /// Decompressor activations: scheduled replay.
    pub scheduled_decompressor_activations: u64,
    /// Decompressor activations: dynamic run.
    pub dynamic_decompressor_activations: u64,
}

impl ScheduleComparison {
    /// Prices the `scheduled` replay's activity against the `dynamic`
    /// run's through one `model`. The `cycles` fields of the two
    /// activity records are the respective run lengths.
    pub fn new(
        kernel: impl Into<String>,
        model: &EnergyModel,
        scheduled: &ActivityCounts,
        dynamic: &ActivityCounts,
    ) -> ScheduleComparison {
        ScheduleComparison {
            kernel: kernel.into(),
            scheduled_cycles: scheduled.cycles,
            dynamic_cycles: dynamic.cycles,
            scheduled_energy_pj: model.evaluate(scheduled).total_pj(),
            dynamic_energy_pj: model.evaluate(dynamic).total_pj(),
            scheduled_compressor_activations: scheduled.compressor_activations,
            dynamic_compressor_activations: dynamic.compressor_activations,
            scheduled_decompressor_activations: scheduled.decompressor_activations,
            dynamic_decompressor_activations: dynamic.decompressor_activations,
        }
    }

    /// Scheduled cycles as a fraction of dynamic cycles (1.0 = the
    /// replay matched the dynamic core exactly; < 1.0 = the static
    /// schedule is tighter). Zero when nothing ran dynamically.
    pub fn cycle_ratio(&self) -> f64 {
        ratio(self.scheduled_cycles as f64, self.dynamic_cycles as f64)
    }

    /// Scheduled energy as a fraction of dynamic energy. Zero when the
    /// dynamic run spent nothing.
    pub fn energy_ratio(&self) -> f64 {
        ratio(self.scheduled_energy_pj, self.dynamic_energy_pj)
    }

    /// Fractional register-file energy saved by replaying the static
    /// schedule instead of running dynamically (negative = the
    /// schedule costs energy).
    pub fn energy_savings(&self) -> f64 {
        if self.dynamic_energy_pj <= 0.0 {
            0.0
        } else {
            1.0 - self.scheduled_energy_pj / self.dynamic_energy_pj
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EnergyParams;

    fn activity(cycles: u64, reads: u64, comp: u64, decomp: u64) -> ActivityCounts {
        ActivityCounts {
            bank_reads: reads,
            bank_writes: reads / 2,
            powered_bank_cycles: 32 * cycles,
            cycles,
            compressor_activations: comp,
            decompressor_activations: decomp,
            ..Default::default()
        }
    }

    fn model() -> EnergyModel {
        EnergyModel::new(EnergyParams::paper_table3())
    }

    #[test]
    fn identical_activity_is_a_wash() {
        let a = activity(1000, 400, 20, 40);
        let cmp = ScheduleComparison::new("demo", &model(), &a, &a);
        assert_eq!(cmp.cycle_ratio(), 1.0);
        assert!((cmp.energy_ratio() - 1.0).abs() < 1e-12);
        assert!(cmp.energy_savings().abs() < 1e-12);
    }

    #[test]
    fn shorter_schedule_saves_leakage() {
        let sched = activity(800, 400, 20, 30);
        let dynamic = activity(1000, 400, 20, 40);
        let cmp = ScheduleComparison::new("demo", &model(), &sched, &dynamic);
        assert!(cmp.cycle_ratio() < 1.0);
        assert!(cmp.scheduled_energy_pj < cmp.dynamic_energy_pj);
        assert!(cmp.energy_savings() > 0.0);
    }

    #[test]
    fn zero_dynamic_run_has_zero_ratios() {
        let sched = activity(10, 4, 0, 0);
        let cmp = ScheduleComparison::new("demo", &model(), &sched, &ActivityCounts::default());
        assert_eq!(cmp.cycle_ratio(), 0.0);
        assert_eq!(cmp.energy_ratio(), 0.0);
        assert_eq!(cmp.energy_savings(), 0.0);
    }
}
