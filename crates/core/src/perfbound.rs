//! Static-vs-measured performance bounds (`wcsim perf`).
//!
//! The perfbound analysis in [`simt_analysis::perfbound`] derives, per
//! kernel and launch, floors the simulator can never beat: a cycle
//! lower bound, minimum bank-access and compression-unit activation
//! counts, a dynamic-energy floor, and per-PC guaranteed bank-conflict
//! stall counts. This module runs the same kernel on the cycle-level
//! simulator under the same design point and joins the two views:
//!
//! * globally — static cycles ≤ measured cycles, static bank accesses
//!   ≤ measured accesses, static energy ≤ measured energy (via
//!   [`PerfComparison`]),
//! * per conflict site — the statically guaranteed operand-fetch stall
//!   count at each pc against the simulator's per-cause stall
//!   attribution (`bank_conflict + decompressor` at that pc).
//!
//! Any floor exceeding its measurement is an unsound model of the
//! pipeline and is surfaced as a hard error by the CLI.

use gpu_power::{EnergyModel, EnergyParams, PerfComparison};
use gpu_sim::{GpuConfig, GpuSim, SimError, SimStats};
use gpu_workloads::Workload;
use rayon::prelude::*;
use simt_analysis::{bound_kernel, PerfMachine, PerfPrediction};

use crate::design::DesignPoint;
use crate::experiment::activity_of;
use crate::launch::LaunchFacts;

/// Derives the static machine model from a live simulator
/// configuration, so the analysis and the run can never disagree on
/// latencies, port counts or the divergence policy.
pub fn perf_machine(cfg: &GpuConfig) -> PerfMachine {
    PerfMachine {
        num_schedulers: cfg.num_schedulers,
        alu_latency: cfg.alu_latency,
        sfu_latency: cfg.sfu_latency,
        mem_latency: cfg.mem_latency,
        choices: cfg.compression.choices.clone(),
        compression_latency: cfg.compression.compression_latency,
        decompression_latency: cfg.compression.decompression_latency,
        num_compressors: cfg.compression.num_compressors,
        uncompressed_divergent_writes: cfg.compression.divergence
            == gpu_sim::DivergencePolicy::UncompressedWrites,
    }
}

/// One guaranteed-conflict site's static stall floor joined with the
/// simulator's per-PC operand-fetch stall attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictCheck {
    /// Pc of the conflicting instruction.
    pub pc: usize,
    /// Distinct register sources the instruction fetches.
    pub sources: usize,
    /// Statically guaranteed operand-fetch stalls at this pc.
    pub static_min_stalls: u64,
    /// Stalls the run attributed to this pc (bank conflicts plus
    /// decompressor-port waits — both are operand-fetch retries).
    pub measured_stalls: u64,
}

impl ConflictCheck {
    /// Whether the measurement honoured the floor.
    pub fn is_sound(&self) -> bool {
        self.static_min_stalls <= self.measured_stalls
    }
}

/// A full static-vs-measured performance report for one kernel under
/// one design point.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Benchmark name.
    pub kernel: String,
    /// Design-point label the run used.
    pub design: String,
    /// The static performance floor.
    pub prediction: PerfPrediction,
    /// Global floors vs. the run's counters (cycles, accesses, energy).
    pub comparison: PerfComparison,
    /// Per-conflict-site stall floors vs. the run's attribution.
    pub conflict_checks: Vec<ConflictCheck>,
    /// Program instructions the run issued (excludes injected MOVs).
    pub measured_instructions: u64,
}

impl PerfReport {
    /// Whether every static floor — cycles, bank accesses, energy,
    /// instructions and each conflict site's stalls — stayed at or
    /// below its measurement: the invariant `wcsim perf` gates CI on.
    pub fn is_sound(&self) -> bool {
        self.violations().is_empty()
    }

    /// Which soundness checks failed, as human-readable labels.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.comparison.measured_within_static_bound() {
            v.push("measured cycles, bank accesses or energy beat a static floor".into());
        }
        let (issued, floor) = (self.measured_instructions, self.prediction.min_instructions);
        if issued < floor {
            v.push(format!(
                "issued {issued} instructions, below the static floor {floor}"
            ));
        }
        for site in self.unsound_sites() {
            v.push(format!("@{} stalled below its guaranteed stalls", site.pc));
        }
        v
    }

    /// Fraction of the measured runtime the static bound explains.
    pub fn cycle_tightness(&self) -> f64 {
        self.comparison.cycle_tightness()
    }

    /// Conflict sites whose floor the run violated — must be empty.
    pub fn unsound_sites(&self) -> Vec<&ConflictCheck> {
        self.conflict_checks
            .iter()
            .filter(|c| !c.is_sound())
            .collect()
    }
}

/// Joins a static performance floor against one run's counters under
/// `design`: cycles, bank accesses and energy globally, the instruction
/// floor, and the guaranteed stalls per conflict site.
pub(crate) fn perf_join(
    kernel: &str,
    design: DesignPoint,
    prediction: PerfPrediction,
    stats: &SimStats,
) -> PerfReport {
    let model = EnergyModel::new(EnergyParams::paper_table3());
    let comparison = PerfComparison::new(&prediction, &model, &activity_of(stats));
    let conflict_checks = prediction
        .conflicts
        .iter()
        .map(|c| ConflictCheck {
            pc: c.pc,
            sources: c.sources,
            static_min_stalls: c.min_stalls,
            measured_stalls: stats.stalls.at(c.pc).operand_fetch(),
        })
        .collect();

    PerfReport {
        kernel: kernel.to_string(),
        design: design.label(),
        prediction,
        comparison,
        conflict_checks,
        measured_instructions: stats.instructions,
    }
}

/// Bounds one workload statically and validates the floors against a
/// simulated run under `design`.
///
/// # Errors
///
/// Propagates any [`SimError`] from the validation run.
pub fn perf_workload(workload: &Workload, design: DesignPoint) -> Result<PerfReport, SimError> {
    let cfg = design.config();
    let machine = perf_machine(&cfg);
    let launch = workload.launch();
    let mut memory = workload.fresh_memory();
    let facts = LaunchFacts::new(launch, &memory, false);
    let prediction = bound_kernel(workload.kernel(), &facts.perf, &machine);
    let result = GpuSim::new(cfg).run(workload.kernel(), launch, &mut memory)?;
    Ok(perf_join(
        workload.name(),
        design,
        prediction,
        &result.stats,
    ))
}

/// Bounds and validates every workload under the warped-compression
/// design point, in parallel, in suite order.
///
/// # Errors
///
/// Fails on the earliest workload (in suite order) that errors.
pub fn perf_suite(workloads: &[Workload]) -> Result<Vec<PerfReport>, SimError> {
    workloads
        .par_iter()
        .map(|w| perf_workload(w, DesignPoint::WarpedCompression))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lib_bound_is_sound_and_tight() {
        let w = gpu_workloads::by_name("lib").unwrap();
        let r = perf_workload(&w, DesignPoint::WarpedCompression).unwrap();
        assert!(r.is_sound(), "violations: {:?}", r.unsound_sites());
        assert!(
            r.cycle_tightness() >= 0.5,
            "cycle bound explains only {:.0}% of the measured runtime",
            r.cycle_tightness() * 100.0
        );
        assert!(r.prediction.min_instructions <= r.measured_instructions);
    }

    #[test]
    fn baseline_design_is_also_bounded() {
        let w = gpu_workloads::by_name("lib").unwrap();
        let r = perf_workload(&w, DesignPoint::Baseline).unwrap();
        assert!(r.is_sound(), "violations: {:?}", r.unsound_sites());
        assert_eq!(r.prediction.min_compressor_activations, 0);
    }

    #[test]
    fn divergent_kernel_stays_sound() {
        let w = gpu_workloads::by_name("bfs").unwrap();
        let r = perf_workload(&w, DesignPoint::WarpedCompression).unwrap();
        assert!(r.is_sound(), "violations: {:?}", r.unsound_sites());
    }

    #[test]
    fn a_run_below_the_instruction_floor_is_unsound() {
        let w = gpu_workloads::by_name("lib").unwrap();
        let mut r = perf_workload(&w, DesignPoint::WarpedCompression).unwrap();
        assert!(r.is_sound());
        r.measured_instructions = r.prediction.min_instructions - 1;
        assert!(!r.is_sound(), "the instruction floor must be gated");
        assert!(r.violations()[0].contains("instructions"));
    }

    #[test]
    fn conflict_sites_are_checked_against_stall_attribution() {
        let w = gpu_workloads::by_name("lib").unwrap();
        let r = perf_workload(&w, DesignPoint::WarpedCompression).unwrap();
        assert!(
            !r.conflict_checks.is_empty(),
            "lib has two-source instructions"
        );
        assert!(r.conflict_checks.iter().any(|c| c.static_min_stalls > 0));
    }
}
