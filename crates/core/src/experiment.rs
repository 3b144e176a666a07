//! The experiment driver: run workloads under design points, collect
//! everything the paper's figures need.

use gpu_power::{ActivityCounts, EnergyModel, EnergyParams, EnergyReport};
use gpu_sim::{GpuConfig, GpuSim, SimError, SimStats};
use gpu_workloads::Workload;
use rayon::prelude::*;

use crate::explorer::ChoiceBreakdown;
use crate::similarity::SimilarityHistogram;

/// Everything one (workload, design point) run produces.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Benchmark name.
    pub name: String,
    /// Full simulator statistics (cycles, divergence, compression ratios,
    /// bank activity).
    pub stats: SimStats,
    /// Fig. 2 similarity histogram of this run's register writes.
    pub similarity: SimilarityHistogram,
    /// Fig. 5 full-BDI selection breakdown of this run's writes.
    pub breakdown: ChoiceBreakdown,
}

/// Runs one workload under a configuration, observing every register
/// write for the similarity and explorer characterisations.
///
/// # Errors
///
/// Propagates any [`SimError`] — workloads in this repository are
/// validated to run cleanly, so an error indicates a configuration
/// problem.
pub fn run_workload(cfg: &GpuConfig, workload: &Workload) -> Result<RunOutput, SimError> {
    let mut memory = workload.fresh_memory();
    let mut similarity = SimilarityHistogram::new();
    let mut breakdown = ChoiceBreakdown::new();
    let result = GpuSim::new(cfg.clone()).run_observed(
        workload.kernel(),
        workload.launch(),
        &mut memory,
        &mut |event| {
            similarity.record(event);
            breakdown.record(event);
        },
    )?;
    Ok(RunOutput {
        name: workload.name().to_string(),
        stats: result.stats,
        similarity,
        breakdown,
    })
}

/// Runs the whole suite under one configuration, simulating workloads in
/// parallel.
///
/// Each workload's simulation is independent (own memory image, own
/// observers), so they fan out across threads; results come back in
/// workload order regardless of completion order, and each simulation is
/// internally deterministic, so the output is identical to a serial run.
/// Set `RAYON_NUM_THREADS=1` to force serial execution (e.g. for
/// reproducible wall-clock timing).
///
/// # Errors
///
/// Fails on the earliest workload (in suite order) that errors.
pub fn run_suite(cfg: &GpuConfig, workloads: &[Workload]) -> Result<Vec<RunOutput>, SimError> {
    workloads.par_iter().map(|w| run_workload(cfg, w)).collect()
}

/// Prices a finished run under the given energy parameters (§6.1).
///
/// Separating pricing from simulation lets the Fig. 17/18/19 sensitivity
/// sweeps reuse one simulation per design point: activity counts do not
/// change when only energy constants change.
pub fn energy_of(stats: &SimStats, params: &EnergyParams) -> EnergyReport {
    EnergyModel::new(*params).evaluate(&activity_of(stats))
}

/// The activity counts the energy model prices for a finished run:
/// bank traffic, gated bank-cycles under the run's low-power mode, and
/// compression-unit activations.
pub(crate) fn activity_of(stats: &SimStats) -> ActivityCounts {
    ActivityCounts::from_regfile_with_mode(
        &stats.regfile,
        stats.compressor_activations,
        stats.decompressor_activations,
        stats.gating.into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPoint;

    fn pathfinder() -> Workload {
        gpu_workloads::by_name("pathfinder").expect("pathfinder exists")
    }

    #[test]
    fn run_collects_similarity_and_breakdown() {
        let out = run_workload(&DesignPoint::WarpedCompression.config(), &pathfinder()).unwrap();
        assert_eq!(out.name, "pathfinder");
        assert!(out.similarity.total(false) > 0);
        assert_eq!(
            out.similarity.total(false) + out.similarity.total(true),
            out.breakdown.total()
        );
        assert!(out.stats.cycles > 0);
    }

    #[test]
    fn warped_compression_saves_energy_on_pathfinder() {
        let w = pathfinder();
        let base = run_workload(&DesignPoint::Baseline.config(), &w).unwrap();
        let wc = run_workload(&DesignPoint::WarpedCompression.config(), &w).unwrap();
        let p = EnergyParams::paper_table3();
        let saving = energy_of(&wc.stats, &p).savings_vs(&energy_of(&base.stats, &p));
        assert!(saving > 0.05, "saving was {saving}");
    }

    #[test]
    fn sensitivity_repricing_changes_energy_not_stats() {
        let wc = run_workload(&DesignPoint::WarpedCompression.config(), &pathfinder()).unwrap();
        let base_params = EnergyParams::paper_table3();
        let scaled = base_params.with_comp_decomp_scale(2.5);
        let e1 = energy_of(&wc.stats, &base_params);
        let e2 = energy_of(&wc.stats, &scaled);
        assert!(e2.compression_pj > e1.compression_pj);
        assert_eq!(e1.dynamic_pj, e2.dynamic_pj);
    }

    #[test]
    fn run_suite_covers_all_workloads() {
        // Two tiny workloads to keep the test quick.
        let workloads: Vec<Workload> = ["lib", "aes"]
            .iter()
            .map(|n| gpu_workloads::by_name(n).unwrap())
            .collect();
        let outs = run_suite(&DesignPoint::WarpedCompression.config(), &workloads).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].name, "lib");
        assert_eq!(outs[1].name, "aes");
    }
}
