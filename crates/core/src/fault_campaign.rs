//! Seeded fault-injection campaigns over the workload suite
//! (`faults` feature).
//!
//! A campaign injects `N` planned faults into each kernel's register
//! file ([`gpu_faults::FaultPlan`]), runs the kernel with the injector
//! armed ([`gpu_sim::GpuSim::run_faulted`]), and reports how every fault
//! resolved: masked, corrected, detected, or silent corruption. Each
//! kernel derives its own plan seed from the campaign seed and its name
//! ([`kernel_seed`]), so campaigns are reproducible end to end — the
//! same `--seed` gives byte-identical reports — while kernels still see
//! independent fault patterns.
//!
//! The write horizon of each plan comes from a clean dry run of the
//! kernel, so every planned fault lands on a write ordinal the kernel
//! actually reaches (faults planned past the end of the run would
//! resolve as `not-triggered` noise).

use gpu_faults::{FaultInjector, FaultLog, FaultPlan, ProtectionModel, RedirectionReport};
use gpu_power::EnergyParams;
use gpu_sim::GpuSim;
use gpu_workloads::Workload;

use crate::design::DesignPoint;
use crate::experiment::energy_of;
use crate::resilient::{run_many_resilient, RunRecord};

/// Per-kernel plan seed: FNV-1a over the campaign seed and the kernel
/// name. Stable across runs and platforms.
pub fn kernel_seed(campaign_seed: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in campaign_seed.to_le_bytes().into_iter().chain(name.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Everything one kernel's fault campaign produces.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelFaultReport {
    /// Kernel name.
    pub name: String,
    /// The per-kernel plan seed actually used.
    pub seed: u64,
    /// Protection scheme the register file was modelled with.
    pub protection: ProtectionModel,
    /// Whether the faulted run completed (a detected uncorrectable
    /// error or a corruption-induced fault aborts the run — that is
    /// itself a campaign datum, not a harness failure).
    pub completed: bool,
    /// Rendered error when `completed` is false.
    pub error: Option<String>,
    /// Per-fault event log.
    pub log: FaultLog,
    /// RRCD-style redirection coverage from the run's footprint mix.
    pub redirection: RedirectionReport,
    /// Bank-access energy multiplier of the protection's check bits
    /// ((64 + check bits) / 64 per 64-bit word).
    pub energy_scale: f64,
    /// Register-file energy (pJ) of the faulted run priced with the
    /// protection overhead applied; `None` when the run aborted.
    pub energy_pj: Option<f64>,
}

/// Runs one kernel's fault campaign: a clean dry run to size the write
/// horizon, then the faulted run.
pub fn run_kernel_faults(
    cfg: &gpu_sim::GpuConfig,
    workload: &Workload,
    protection: ProtectionModel,
    injections: usize,
    campaign_seed: u64,
) -> KernelFaultReport {
    let seed = kernel_seed(campaign_seed, workload.name());
    let sim = GpuSim::new(cfg.clone());

    let mut clean_memory = workload.fresh_memory();
    let writes = sim
        .run(workload.kernel(), workload.launch(), &mut clean_memory)
        .map(|r| r.stats.writes)
        .unwrap_or(0);
    let plan = FaultPlan::generate(seed, injections, writes.max(1));
    let injector = FaultInjector::new(plan, protection, true);

    let mut memory = workload.fresh_memory();
    let (result, log) =
        sim.run_faulted(workload.kernel(), workload.launch(), &mut memory, injector);
    let redirection = RedirectionReport::from_footprints(&log.footprint_reads);
    let energy_scale = protection.bank_access_energy_scale();
    let params = EnergyParams::paper_table3().with_bank_access_scale(energy_scale);
    let (completed, error, energy_pj) = match result {
        Ok(r) => (true, None, Some(energy_of(&r.stats, &params).total_pj())),
        Err(e) => (false, Some(e.to_string()), None),
    };
    KernelFaultReport {
        name: workload.name().to_string(),
        seed,
        protection,
        completed,
        error,
        log,
        redirection,
        energy_scale,
        energy_pj,
    }
}

/// Runs the fault campaign over many workloads through the resilient
/// harness: each kernel is panic-isolated, and a kernel whose campaign
/// code itself dies yields a record with the failure instead of taking
/// the suite down. The design point is warped-compression — the paper's
/// proposal is the configuration whose error amplification is under
/// study.
pub fn run_fault_campaign(
    workloads: &[Workload],
    protection: ProtectionModel,
    injections: usize,
    campaign_seed: u64,
) -> Vec<RunRecord<KernelFaultReport>> {
    let cfg = DesignPoint::WarpedCompression.config();
    run_many_resilient(
        workloads,
        &|w: &Workload| w.name().to_string(),
        &|w: &Workload| run_kernel_faults(&cfg, w, protection, injections, campaign_seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_seeds_differ_by_name_and_campaign() {
        let a = kernel_seed(42, "bfs");
        assert_eq!(a, kernel_seed(42, "bfs"));
        assert_ne!(a, kernel_seed(42, "pathfinder"));
        assert_ne!(a, kernel_seed(43, "bfs"));
    }

    #[test]
    fn campaign_is_deterministic_and_accounts_for_every_fault() {
        let workloads = vec![
            gpu_workloads::by_name("lib").unwrap(),
            gpu_workloads::by_name("aes").unwrap(),
        ];
        let run =
            || run_fault_campaign(&workloads, ProtectionModel::SecDed, 6, crate::DEFAULT_SEED);
        let a = run();
        let b = run();
        assert_eq!(a.len(), 2);
        for (ra, rb) in a.iter().zip(&b) {
            let (ka, kb) = (ra.status.output().unwrap(), rb.status.output().unwrap());
            assert_eq!(ka, kb, "same seed must reproduce {} exactly", ka.name);
            assert_eq!(ka.log.events.len(), 6);
            // SEC-DED: the CI gate's invariant.
            assert_eq!(ka.log.silent(), 0);
            assert!((ka.energy_scale - 1.125).abs() < 1e-12);
        }
    }

    #[test]
    fn unprotected_campaign_reports_are_honest() {
        let workloads = vec![gpu_workloads::by_name("lib").unwrap()];
        let records = run_fault_campaign(&workloads, ProtectionModel::Unprotected, 8, 7);
        let k = records[0].status.output().unwrap();
        assert_eq!(k.log.events.len(), 8);
        assert_eq!(k.log.corrected() + k.log.detected(), 0);
        assert!((k.energy_scale - 1.0).abs() < 1e-12);
        if !k.completed {
            assert!(k.error.is_some());
        }
    }
}
