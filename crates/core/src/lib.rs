//! **Warped-Compression** — the paper's contribution, assembled.
//!
//! This is the top-level crate of the reproduction of *Warped-Compression:
//! Enabling Power Efficient GPUs through Register Compression* (ISCA
//! 2015). The substrates live in their own crates — [`bdi`] (the
//! compression algorithm), [`gpu_regfile`] (the banked register file with
//! power gating), [`gpu_sim`] (the cycle-level SIMT core) and
//! [`gpu_power`] (the Table 3 energy model). This crate adds the pieces
//! that are *about the paper itself*:
//!
//! * [`similarity`] — the register-value similarity characterisation of
//!   §3 (Fig. 2's zero / 128 / 32K / random bins),
//! * [`explorer`] — the full-BDI ⟨base, delta⟩ breakdown of Fig. 5,
//! * [`design`] — named design points ([`DesignPoint`]): baseline,
//!   warped-compression, single-choice ablations (§6.6), the
//!   decompress-merge-recompress divergence alternative (§5.2), and
//!   latency variants (§6.8),
//! * [`experiment`] — the driver that runs a workload under a design
//!   point and returns everything the figures need, plus [`energy_of`]
//!   to price a finished run under any [`gpu_power::EnergyParams`]
//!   (the Fig. 17–19 sensitivity sweeps re-price stored runs instead of
//!   re-simulating),
//! * the soundness gates [`predict`], [`perfbound`], [`schedule`] and
//!   [`mem`] — each a static claim over one [`LaunchFacts`] and one join
//!   against what a probed run observed, which the differential fuzzer
//!   (feature `fuzz`) shares.
//!
//! # Example
//!
//! ```
//! use warped_compression::{energy_of, run_workload, DesignPoint};
//! use gpu_power::EnergyParams;
//!
//! let pf = gpu_workloads::by_name("pathfinder").unwrap();
//! let base = run_workload(&DesignPoint::Baseline.config(), &pf)?;
//! let wc = run_workload(&DesignPoint::WarpedCompression.config(), &pf)?;
//! let params = EnergyParams::paper_table3();
//! let saving = energy_of(&wc.stats, &params).savings_vs(&energy_of(&base.stats, &params));
//! assert!(saving > 0.0, "warped-compression must save register-file energy");
//! # Ok::<(), gpu_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod experiment;
pub mod explorer;
#[cfg(feature = "faults")]
pub mod fault_campaign;
#[cfg(feature = "fuzz")]
pub mod fuzz;
pub mod launch;
pub mod mem;
pub mod perfbound;
pub mod predict;
pub mod resilient;
pub mod schedule;
pub mod similarity;
pub mod trace;

pub use design::DesignPoint;
pub use experiment::{energy_of, run_suite, run_workload, RunOutput};
pub use explorer::ChoiceBreakdown;
#[cfg(feature = "faults")]
pub use fault_campaign::{kernel_seed, run_fault_campaign, run_kernel_faults, KernelFaultReport};
#[cfg(feature = "fuzz")]
pub use fuzz::{
    check_case, mutation_smoke, render_reproducer, run_case, shrink_case, CaseReport, CaseStats,
    Finding, FindingCategory, FindingReport, FuzzCase, FuzzConfig, Mutation, SmokeOutcome,
    DEFAULT_CYCLE_BUDGET,
};
pub use launch::LaunchFacts;
pub use mem::{mem_suite, mem_workload, MemReport, ScheduleCheck, SiteCheck, TracedConflict};
pub use perfbound::{perf_machine, perf_suite, perf_workload, ConflictCheck, PerfReport};
pub use predict::{
    predict_suite, predict_workload, static_prediction, PredictReport, SiteOutcome, SiteValidation,
};
pub use resilient::{catch_panic, run_many_resilient, PanicCapture, RunRecord, RunStatus};
pub use schedule::{
    schedule_slack, schedule_suite, schedule_workload, ScheduleMode, ScheduleReport,
};
pub use similarity::{SimilarityBin, SimilarityHistogram};
pub use trace::WriteTrace;

/// Default campaign seed of the seeded fault and fuzz campaigns (the
/// `wcsim faults` and `wcsim fuzz` `--seed` default).
pub const DEFAULT_SEED: u64 = 42;
