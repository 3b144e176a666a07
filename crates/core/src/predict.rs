//! Static-vs-dynamic compressibility validation (`wcsim predict`).
//!
//! The abstract interpreter in [`simt_analysis::absint`] assigns every
//! register write site a worst-case [`CompressionClass`] before the
//! kernel ever runs. This module runs the kernel under the
//! warped-compression design point with per-write tracing and joins the
//! two views per write site:
//!
//! * **exact** — the static class matches the worst form the run
//!   actually stored at that site,
//! * **conservative** — the static class over-approximates (predicts a
//!   larger footprint than any stored write needed, or the site never
//!   executed),
//! * **unsound miss** — the run stored a form *larger* than the static
//!   class allows. This must never happen: any occurrence is a bug in
//!   the abstract domain and is surfaced as a hard error by the CLI.

use bdi::CompressionClass;
use gpu_power::CompressibilityComparison;
use gpu_sim::{GlobalMemory, LaunchConfig, SimError, WriteEvent};
use gpu_workloads::Workload;
use rayon::prelude::*;
use simt_analysis::{interpret, Cfg, KernelPrediction};
use simt_isa::Kernel;

use crate::design::DesignPoint;
use crate::launch::LaunchFacts;

/// How a static site prediction compared against the simulated run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteOutcome {
    /// Static class equals the worst class stored at this site.
    Exact,
    /// Static class over-approximates (or the site never executed).
    Conservative,
    /// The run stored a larger footprint than the static class allows.
    UnsoundMiss,
}

impl SiteOutcome {
    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SiteOutcome::Exact => "exact",
            SiteOutcome::Conservative => "conservative",
            SiteOutcome::UnsoundMiss => "unsound-miss",
        }
    }
}

/// One write site's static prediction joined with what the run stored.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SiteValidation {
    /// Program counter of the writing instruction.
    pub pc: usize,
    /// Destination register.
    pub reg: u8,
    /// The statically predicted worst-case class.
    pub predicted: CompressionClass,
    /// The worst (largest-footprint) class the run stored at this pc,
    /// or `None` if the site never retired a write.
    pub measured: Option<CompressionClass>,
    /// Non-synthetic writes the site retired.
    pub executions: u64,
    /// The per-site verdict.
    pub outcome: SiteOutcome,
}

/// A full static-vs-dynamic compressibility report for one kernel.
#[derive(Clone, Debug)]
pub struct PredictReport {
    /// Benchmark name.
    pub kernel: String,
    /// The static prediction the sites were validated against.
    pub prediction: KernelPrediction,
    /// Per-write-site validation verdicts, in pc order.
    pub sites: Vec<SiteValidation>,
    /// Static gateable-bank bound vs. measured mean gated banks.
    pub comparison: CompressibilityComparison,
}

impl PredictReport {
    /// Sites whose static class matched the measured worst class.
    pub fn exact_count(&self) -> usize {
        self.count(SiteOutcome::Exact)
    }

    /// Sites where the static class over-approximated.
    pub fn conservative_count(&self) -> usize {
        self.count(SiteOutcome::Conservative)
    }

    /// Sites where the run beat the static guarantee — must be zero.
    pub fn unsound_count(&self) -> usize {
        self.count(SiteOutcome::UnsoundMiss)
    }

    fn count(&self, outcome: SiteOutcome) -> usize {
        self.sites.iter().filter(|s| s.outcome == outcome).count()
    }

    /// Fraction of write sites predicted exactly (1.0 for a kernel with
    /// no write sites).
    pub fn exact_fraction(&self) -> f64 {
        if self.sites.is_empty() {
            return 1.0;
        }
        self.exact_count() as f64 / self.sites.len() as f64
    }

    /// Whether the report is sound: no site stored a larger form than
    /// its static class allows, and the static gateable-bank bound
    /// stayed below the measured figure.
    pub fn is_sound(&self) -> bool {
        self.violations().is_empty()
    }

    /// Which soundness checks failed, as human-readable labels.
    pub fn violations(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .sites
            .iter()
            .filter_map(|s| match (s.outcome, s.measured) {
                (SiteOutcome::UnsoundMiss, Some(m)) => Some(format!(
                    "write site @{} r{} stored {} over its predicted {}",
                    s.pc,
                    s.reg,
                    m.name(),
                    s.predicted.name()
                )),
                _ => None,
            })
            .collect();
        if !self.comparison.measured_within_static_bound() {
            v.push("measured gated banks per write fell below the static bound".into());
        }
        v
    }
}

/// What one run's register writes stored, per write site: the worst
/// (largest-footprint) class and the execution count, plus the mean
/// stored footprint. Synthetic dummy MOVs rewrite existing values and
/// are not program write sites, so they are skipped.
#[derive(Clone, Debug)]
pub(crate) struct WriteTally {
    /// Per pc: the worst class stored there and the writes it retired.
    sites: Vec<(Option<CompressionClass>, u64)>,
    total_banks: u64,
}

impl WriteTally {
    /// An empty tally for a kernel of `num_pcs` instructions.
    pub(crate) fn new(num_pcs: usize) -> WriteTally {
        WriteTally {
            sites: vec![(None, 0); num_pcs],
            total_banks: 0,
        }
    }

    /// Records one retired write (the write probe's body).
    pub(crate) fn record(&mut self, event: &WriteEvent) {
        if event.synthetic {
            return;
        }
        let (worst, writes) = &mut self.sites[event.pc];
        *writes += 1;
        if worst.is_none_or(|w| w.banks() < event.class.banks()) {
            *worst = Some(event.class);
        }
        self.total_banks += event.class.banks() as u64;
    }
}

/// Joins a static prediction against what one run stored, per write
/// site, and the static gateable-bank bound against the mean stored
/// footprint.
pub(crate) fn predict_join(
    kernel: &str,
    prediction: KernelPrediction,
    tally: &WriteTally,
) -> PredictReport {
    let sites = prediction
        .sites
        .iter()
        .map(|site| {
            let (measured, executions) = tally.sites[site.pc];
            let outcome = match measured {
                None => SiteOutcome::Conservative,
                Some(m) if m.banks() > site.class.banks() => SiteOutcome::UnsoundMiss,
                Some(m) if m.banks() == site.class.banks() => SiteOutcome::Exact,
                Some(_) => SiteOutcome::Conservative,
            };
            SiteValidation {
                pc: site.pc,
                reg: site.reg,
                predicted: site.class,
                measured,
                executions,
                outcome,
            }
        })
        .collect();

    let total_writes: u64 = tally.sites.iter().map(|&(_, writes)| writes).sum();
    let mean_footprint = if total_writes == 0 {
        CompressionClass::Uncompressed.banks() as f64
    } else {
        tally.total_banks as f64 / total_writes as f64
    };
    let comparison = CompressibilityComparison::new(&prediction, mean_footprint);

    PredictReport {
        kernel: kernel.to_string(),
        prediction,
        sites,
        comparison,
    }
}

/// The static half of the predict gate: the abstract interpreter's
/// compressibility prediction for `kernel` launched as `launch` over
/// `memory`, with the memory image left unarmed.
///
/// Without an image the memory-cell analysis degrades to exactly this
/// one [`interpret`], so the claim equals
/// [`analyze_with_launch`](simt_analysis::analyze_with_launch)'s
/// `prediction` for the same launch; the lints, liveness and the
/// per-warp memory passes that pipeline also runs are not needed here.
pub fn static_prediction(
    kernel: &Kernel,
    launch: &LaunchConfig,
    memory: &GlobalMemory,
) -> KernelPrediction {
    let facts = LaunchFacts::new(launch, memory, false);
    let cfg = Cfg::build(kernel.instrs());
    let num_regs = usize::from(kernel.num_regs());
    interpret(
        kernel.name(),
        kernel.instrs(),
        num_regs,
        &cfg,
        Some(&facts.info),
    )
    .prediction
}

/// Runs the abstract interpreter and the simulator on one workload and
/// joins the two per write site.
///
/// The simulation uses the paper's warped-compression design point, the
/// configuration whose stored forms the static classes model.
///
/// # Errors
///
/// Fails if the simulation fails.
pub fn predict_workload(workload: &Workload) -> Result<PredictReport, SimError> {
    let kernel = workload.kernel();
    let launch = workload.launch();
    let mut memory = workload.fresh_memory();
    let prediction = static_prediction(kernel, launch, &memory);

    let mut tally = WriteTally::new(kernel.len());
    gpu_sim::GpuSim::new(DesignPoint::WarpedCompression.config()).run_observed(
        kernel,
        launch,
        &mut memory,
        &mut |event| tally.record(event),
    )?;
    Ok(predict_join(workload.name(), prediction, &tally))
}

/// Predicts and validates every workload, in parallel, in suite order.
///
/// # Errors
///
/// Fails on the earliest workload (in suite order) that errors.
pub fn predict_suite(workloads: &[Workload]) -> Result<Vec<PredictReport>, SimError> {
    workloads.par_iter().map(predict_workload).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lib_is_sound_and_mostly_exact() {
        let w = gpu_workloads::by_name("lib").unwrap();
        let r = predict_workload(&w).unwrap();
        assert_eq!(r.kernel, "lib");
        assert_eq!(r.unsound_count(), 0, "unsound sites: {:?}", r.sites);
        assert!(r.is_sound());
        assert!(!r.sites.is_empty());
        assert_eq!(
            r.exact_count() + r.conservative_count(),
            r.sites.len(),
            "every site gets a verdict"
        );
    }

    #[test]
    fn divergent_kernel_stays_conservative() {
        // bfs diverges; divergent-region sites are pinned to
        // Uncompressed statically and the run stores them raw, so the
        // join stays sound.
        let w = gpu_workloads::by_name("bfs").unwrap();
        let r = predict_workload(&w).unwrap();
        assert_eq!(r.unsound_count(), 0, "unsound sites: {:?}", r.sites);
        assert!(r.comparison.measured_within_static_bound());
    }

    #[test]
    fn executed_sites_count_executions() {
        let w = gpu_workloads::by_name("lib").unwrap();
        let r = predict_workload(&w).unwrap();
        assert!(r.sites.iter().any(|s| s.executions > 0));
    }
}
