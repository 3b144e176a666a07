//! Static issue scheduling, validated end to end (`wcsim schedule`).
//!
//! The scheduler in [`simt_analysis::schedule`] compiles a kernel into
//! an [`simt_analysis::IssuePlan`]: per warp and per pc, the exact
//! cycle every instruction issues, dispatches and retires, with all
//! RAW/WAW/WAR hazards, compression latencies and operand-collector
//! port conflicts resolved ahead of time. The scheduled backend in
//! `gpu-sim` replays that plan with the scoreboard and collector
//! arbitration bypassed. This module joins the two against the dynamic
//! core and machine-checks three soundness properties per kernel:
//!
//! 1. **bit identity** — every warp's final architectural register
//!    values (and all of global memory) match the dynamic core
//!    bit for bit,
//! 2. **floor** — the scheduled makespan never beats the perfbound
//!    static cycle lower bound (the schedule cannot be faster than a
//!    proven floor),
//! 3. **slack** — the scheduled makespan never exceeds the dynamic
//!    runtime by more than [`schedule_slack`] (a static schedule that
//!    loses badly to dynamic arbitration is a scheduling bug, not a
//!    modelling choice).
//!
//! Kernels the scheduler cannot close statically (data-dependent
//! branch predicates, replay fuel) fall back to the dynamic engine;
//! the report records the bail reason and the three checks hold
//! trivially. Any violation is surfaced as a hard error by the CLI —
//! this is the `wcsim schedule` CI gate.

use gpu_power::{EnergyModel, EnergyParams, ScheduleComparison};
use gpu_sim::{FinalRegs, GlobalMemory, GpuSim, SimError, SimStats};
use gpu_workloads::Workload;
use rayon::prelude::*;
use simt_analysis::{
    bound_kernel_with, schedule_kernel_with, IssuePlan, LaunchAnalysis, ScheduleBail,
};

use crate::design::DesignPoint;
use crate::experiment::activity_of;
use crate::launch::LaunchFacts;
use crate::perfbound::perf_machine;

/// Fixed slack head-room: covers drain/launch edge effects that do
/// not scale with run length.
pub const SCHEDULE_SLACK_BASE: u64 = 64;

/// Proportional slack divisor: the schedule may trail the dynamic
/// core by at most one quarter of the dynamic runtime. The greedy
/// list scheduler serialises same-cycle issue ties that the dynamic
/// operand collectors overlap; across the 18-workload suite the
/// worst measured scheduled/dynamic ratio is ~1.19 (`lib`), so a 25 %
/// proportional budget bounds it with margin while still catching a
/// scheduler regression that loses to dynamic arbitration outright.
pub const SCHEDULE_SLACK_DIVISOR: u64 = 4;

/// The maximum number of cycles a sound static schedule may trail the
/// dynamic core on the same launch:
/// `SCHEDULE_SLACK_BASE + dynamic_cycles / SCHEDULE_SLACK_DIVISOR`.
pub fn schedule_slack(dynamic_cycles: u64) -> u64 {
    SCHEDULE_SLACK_BASE + dynamic_cycles / SCHEDULE_SLACK_DIVISOR
}

/// How a kernel was executed for its schedule report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleMode {
    /// The scheduler closed the kernel statically and the plan was
    /// replayed on the scheduled backend.
    Static,
    /// The scheduler bailed; the dynamic engine ran instead and the
    /// soundness checks hold trivially.
    DynamicFallback {
        /// The scheduler's bail reason, human-readable.
        reason: String,
    },
}

impl ScheduleMode {
    /// Whether the kernel actually replayed a static plan.
    pub fn is_static(&self) -> bool {
        matches!(self, ScheduleMode::Static)
    }
}

/// A full static-schedule-vs-dynamic report for one kernel under one
/// design point.
#[derive(Clone, Debug)]
pub struct ScheduleReport {
    /// Benchmark name.
    pub kernel: String,
    /// Design-point label the runs used.
    pub design: String,
    /// Static plan replayed, or dynamic fallback with the bail reason.
    pub mode: ScheduleMode,
    /// Perfbound static cycle lower bound for the same launch.
    pub static_floor_cycles: u64,
    /// Makespan of the scheduled replay (dynamic cycles when the
    /// kernel fell back).
    pub scheduled_cycles: u64,
    /// Cycles the dynamic core took.
    pub dynamic_cycles: u64,
    /// Slack budget the scheduled run had to stay within.
    pub slack_cycles: u64,
    /// Program instructions the scheduled replay issued (the plan's
    /// count; the dynamic count when the kernel fell back).
    pub scheduled_instructions: u64,
    /// Program instructions the dynamic core issued (excludes
    /// injected dummy MOVs).
    pub dynamic_instructions: u64,
    /// Final architectural register values bit-identical to the
    /// dynamic core (soundness check 1a).
    pub registers_match: bool,
    /// Global memory bit-identical after both runs (soundness
    /// check 1b).
    pub memory_matches: bool,
    /// Scheduled vs. dynamic activity priced through the Table 3
    /// energy model.
    pub comparison: ScheduleComparison,
}

impl ScheduleReport {
    /// Soundness check 2: the schedule never beats the proven floor.
    pub fn floor_holds(&self) -> bool {
        self.static_floor_cycles <= self.scheduled_cycles
    }

    /// Soundness check 3: the schedule stays within slack of the
    /// dynamic core.
    pub fn slack_holds(&self) -> bool {
        self.scheduled_cycles <= self.dynamic_cycles + self.slack_cycles
    }

    /// All three machine-checked soundness properties — the invariant
    /// `wcsim schedule` gates CI on.
    pub fn is_sound(&self) -> bool {
        self.registers_match && self.memory_matches && self.floor_holds() && self.slack_holds()
    }

    /// Which soundness checks failed, as human-readable labels.
    pub fn violations(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if !self.registers_match {
            v.push("final registers differ from the dynamic core");
        }
        if !self.memory_matches {
            v.push("global memory differs from the dynamic core");
        }
        if !self.floor_holds() {
            v.push("scheduled cycles beat the static floor");
        }
        if !self.slack_holds() {
            v.push("scheduled cycles exceed dynamic + slack");
        }
        v
    }
}

/// The static half of the schedule gate: the perfbound floor no replay
/// may beat, the issue plan (or why the scheduler bailed), and how many
/// cycles a replay may trail a dynamic run of a given length.
#[derive(Clone, Debug)]
pub(crate) struct ScheduleClaim {
    /// Perfbound static cycle lower bound for the launch.
    pub floor: u64,
    /// The issue plan to replay, or the scheduler's bail.
    pub plan: Result<IssuePlan, ScheduleBail>,
    /// Slack budget as a function of the dynamic runtime.
    pub slack: fn(u64) -> u64,
}

impl ScheduleClaim {
    /// A claim over `plan` with the gate's slack budget,
    /// [`schedule_slack`].
    pub(crate) fn new(floor: u64, plan: Result<IssuePlan, ScheduleBail>) -> ScheduleClaim {
        ScheduleClaim {
            floor,
            plan,
            slack: schedule_slack,
        }
    }
}

/// One finished run as the bit-identity check sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunOutcome<'a> {
    /// The run's counters.
    pub stats: &'a SimStats,
    /// Every warp's final registers.
    pub regs: &'a FinalRegs,
    /// Global memory after the run.
    pub memory: &'a GlobalMemory,
}

/// Joins a schedule claim against a dynamic run and the replay of the
/// claim's plan under `design`. `replay` is `None` exactly when the
/// scheduler bailed; the dynamic run then stands in for it, so the
/// three checks hold trivially.
///
/// # Panics
///
/// If the claim holds a plan but no replay is given.
pub(crate) fn schedule_join(
    kernel: &str,
    design: DesignPoint,
    claim: &ScheduleClaim,
    dynamic: RunOutcome<'_>,
    replay: Option<RunOutcome<'_>>,
) -> ScheduleReport {
    let (mode, sched) = match &claim.plan {
        Ok(_) => (
            ScheduleMode::Static,
            replay.expect("a closed plan is replayed"),
        ),
        Err(bail) => (
            ScheduleMode::DynamicFallback {
                reason: format!("kernel `{kernel}`: {bail}"),
            },
            dynamic,
        ),
    };
    let model = EnergyModel::new(EnergyParams::paper_table3());
    ScheduleReport {
        kernel: kernel.to_string(),
        design: design.label(),
        mode,
        static_floor_cycles: claim.floor,
        scheduled_cycles: sched.stats.cycles,
        dynamic_cycles: dynamic.stats.cycles,
        slack_cycles: (claim.slack)(dynamic.stats.cycles),
        scheduled_instructions: sched.stats.instructions,
        dynamic_instructions: dynamic.stats.instructions,
        registers_match: sched.regs == dynamic.regs,
        memory_matches: sched.memory == dynamic.memory,
        comparison: ScheduleComparison::new(
            kernel,
            &model,
            &activity_of(sched.stats),
            &activity_of(dynamic.stats),
        ),
    }
}

/// Schedules one workload statically, replays the plan on the
/// scheduled backend, and validates bit identity, the perfbound floor
/// and the slack bound against a dynamic run under the same `design`.
/// Falls back to the dynamic engine when the scheduler bails.
///
/// # Errors
///
/// Propagates any [`SimError`] from either engine — including
/// `SimError::Plan` when the replayer catches the plan contradicting
/// the machine, which is itself a soundness failure.
pub fn schedule_workload(
    workload: &Workload,
    design: DesignPoint,
) -> Result<ScheduleReport, SimError> {
    let cfg = design.config();
    let machine = perf_machine(&cfg);
    let sim = GpuSim::new(cfg);
    let kernel = workload.kernel();
    let launch = workload.launch();
    let mut dyn_mem = workload.fresh_memory();
    let facts = LaunchFacts::new(launch, &dyn_mem, true);
    let analysis = LaunchAnalysis::new(kernel, Some(&facts.info));
    let floor = bound_kernel_with(kernel, &facts.perf, &machine, &analysis).cycle_lower_bound;

    let (dyn_result, dyn_regs) = sim.run_capturing(kernel, launch, &mut dyn_mem)?;
    let residency = sim.max_resident_warps(kernel);
    let claim = ScheduleClaim::new(
        floor,
        schedule_kernel_with(kernel, &facts.perf, &machine, residency, &analysis),
    );
    let replayed = match &claim.plan {
        Ok(plan) => {
            let mut sched_mem = workload.fresh_memory();
            let sched = sim.run_scheduled(kernel, plan, launch, &mut sched_mem)?;
            Some((sched, sched_mem))
        }
        Err(_) => None,
    };
    Ok(schedule_join(
        workload.name(),
        design,
        &claim,
        RunOutcome {
            stats: &dyn_result.stats,
            regs: &dyn_regs,
            memory: &dyn_mem,
        },
        replayed.as_ref().map(|(sched, sched_mem)| RunOutcome {
            stats: &sched.stats,
            regs: &sched.final_regs,
            memory: sched_mem,
        }),
    ))
}

/// Schedules and validates every workload under `design`, in parallel, in
/// suite order.
///
/// # Errors
///
/// Fails on the earliest workload (in suite order) that errors.
pub fn schedule_suite(
    workloads: &[Workload],
    design: DesignPoint,
) -> Result<Vec<ScheduleReport>, SimError> {
    workloads
        .par_iter()
        .map(|w| schedule_workload(w, design))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "diagnostic"]
    fn dump_suite_numbers() {
        for w in gpu_workloads::suite() {
            let r = schedule_workload(&w, DesignPoint::WarpedCompression).unwrap();
            println!(
                "{:>12} mode={:?} floor={} sched={} dyn={} ratio={:.3}",
                r.kernel,
                r.mode.is_static(),
                r.static_floor_cycles,
                r.scheduled_cycles,
                r.dynamic_cycles,
                r.scheduled_cycles as f64 / r.dynamic_cycles as f64
            );
        }
    }

    #[test]
    fn slack_is_base_plus_a_quarter() {
        assert_eq!(schedule_slack(0), SCHEDULE_SLACK_BASE);
        assert_eq!(schedule_slack(800), SCHEDULE_SLACK_BASE + 200);
    }

    #[test]
    fn lib_schedules_statically_and_is_sound() {
        let w = gpu_workloads::by_name("lib").unwrap();
        let r = schedule_workload(&w, DesignPoint::WarpedCompression).unwrap();
        assert!(
            r.mode.is_static(),
            "lib must close statically: {:?}",
            r.mode
        );
        assert!(
            r.is_sound(),
            "violations: {:?} (floor {} scheduled {} dynamic {} slack {})",
            r.violations(),
            r.static_floor_cycles,
            r.scheduled_cycles,
            r.dynamic_cycles,
            r.slack_cycles
        );
        assert!(r.registers_match && r.memory_matches);
        assert!(r.comparison.scheduled_energy_pj > 0.0);
    }

    #[test]
    fn lib_baseline_design_is_also_sound() {
        let w = gpu_workloads::by_name("lib").unwrap();
        let r = schedule_workload(&w, DesignPoint::Baseline).unwrap();
        assert!(r.mode.is_static(), "{:?}", r.mode);
        assert!(r.is_sound(), "violations: {:?}", r.violations());
        assert_eq!(r.comparison.scheduled_compressor_activations, 0);
    }

    #[test]
    fn data_dependent_branches_fall_back_soundly() {
        let w = gpu_workloads::by_name("bfs").unwrap();
        let r = schedule_workload(&w, DesignPoint::WarpedCompression).unwrap();
        assert!(
            !r.mode.is_static(),
            "bfs branches on loaded data; expected a fallback"
        );
        assert!(r.is_sound());
        assert_eq!(r.scheduled_cycles, r.dynamic_cycles);
    }
}
