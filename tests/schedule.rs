//! End-to-end gates for the static issue scheduler.
//!
//! Three obligations, machine-checked through the real pipeline:
//!
//! 1. **The 18/18 suite gate** — every benchmark either replays its
//!    static issue plan bit-identically within `[perfbound floor,
//!    dynamic + slack]`, or falls back to the dynamic engine with an
//!    explicit bail reason. Any unsound kernel fails the suite.
//! 2. **Random kernels** — straight-line, uniform-loop and nested-loop
//!    kernels from the shared [`gpu_workloads::testgen`] generator are
//!    scheduled and replayed under both design points; final registers
//!    and memory must match the dynamic core exactly and the makespan
//!    must respect both cycle bounds.
//! 3. **Lint cross-check** — every `UnknownPredicate` bail pc the
//!    scheduler reports must be flagged by the `unschedulable-region`
//!    lint (the lint over-approximates the bail set), on a hand-built
//!    load-tainted kernel and across the whole suite.

use gpu_workloads::testgen::{
    counted_loop, kernel_of, nested_counted_loops, raw_instr, straight_line,
};
use proptest::prelude::*;
use simt_analysis::{
    analyze_with_launch, bound_kernel, schedule_kernel, LaunchInfo, LintKind, PerfLaunch,
    ScheduleBail,
};
use simt_isa::{Instruction, Kernel};
use warped_compression::{
    perf_machine, schedule_slack, schedule_suite, schedule_workload, ScheduleMode,
};
use warped_compression_suite::prelude::*;

#[test]
fn suite_schedules_soundly_18_of_18() {
    let workloads = suite();
    let reports = schedule_suite(&workloads, DesignPoint::WarpedCompression)
        .expect("suite simulates cleanly");
    assert_eq!(reports.len(), 18);
    for r in &reports {
        assert!(
            r.is_sound(),
            "kernel `{}` is unsound: {:?} (floor {} scheduled {} dynamic {} slack {})",
            r.kernel,
            r.violations(),
            r.static_floor_cycles,
            r.scheduled_cycles,
            r.dynamic_cycles,
            r.slack_cycles,
        );
    }
    // The scheduler must keep closing the statically resolvable
    // majority of the suite — a drop below this floor means a
    // capability regression, not a soundness bug. With the memcell
    // value refinement, only the two genuinely data-dependent kernels
    // (bfs, histo) may fall back.
    let fallbacks: Vec<&str> = reports
        .iter()
        .filter(|r| !r.mode.is_static())
        .map(|r| r.kernel.as_str())
        .collect();
    assert_eq!(
        fallbacks,
        ["bfs", "histo"],
        "the scheduler fallback set regressed"
    );
    let static_count = reports.iter().filter(|r| r.mode.is_static()).count();
    assert!(
        static_count >= 16,
        "only {static_count}/18 kernels scheduled statically"
    );
    // Data-dependent control flow must keep falling back explicitly,
    // with a named reason that carries the bail pc.
    for name in ["bfs", "histo"] {
        let r = reports.iter().find(|r| r.kernel == name).unwrap();
        let ScheduleMode::DynamicFallback { reason } = &r.mode else {
            panic!("`{name}` must fall back dynamically");
        };
        assert!(
            reason.contains("not statically resolvable") && reason.contains('@'),
            "`{name}` bail must name its reason and pc: {reason}"
        );
    }
}

#[test]
fn fallback_reports_match_the_dynamic_engine_exactly() {
    let w = by_name("histo").unwrap();
    let r = schedule_workload(&w, DesignPoint::WarpedCompression).unwrap();
    assert!(!r.mode.is_static());
    assert_eq!(r.scheduled_cycles, r.dynamic_cycles);
    assert_eq!(r.scheduled_instructions, r.dynamic_instructions);
    assert!((r.comparison.energy_ratio() - 1.0).abs() < 1e-12);
}

/// Schedules one generated kernel, replays it, and checks bit identity
/// plus both cycle bounds against the dynamic core.
fn check_design(instrs: &[Instruction], design: DesignPoint) {
    let kernel = kernel_of(instrs.to_vec());
    let cfg = design.config();
    let machine = perf_machine(&cfg);
    let sim = GpuSim::new(cfg);
    let launch = LaunchConfig::new(1, 32);
    let perf_launch = PerfLaunch::new(1, 32);

    let plan = schedule_kernel(
        &kernel,
        &perf_launch,
        &machine,
        sim.max_resident_warps(&kernel),
    )
    .expect("uniform generated kernels are statically schedulable");

    let mut dyn_mem = GlobalMemory::zeroed(4);
    let (dyn_result, dyn_regs) = sim
        .run_capturing(&kernel, &launch, &mut dyn_mem)
        .expect("generated kernels run to completion");
    let mut sched_mem = GlobalMemory::zeroed(4);
    let sched = sim
        .run_scheduled(&kernel, &plan, &launch, &mut sched_mem)
        .expect("sound plans replay cleanly");

    assert_eq!(
        sched.final_regs,
        dyn_regs,
        "{}: scheduled registers diverge from the dynamic core",
        machine_label(&plan.kernel, design),
    );
    assert_eq!(sched_mem, dyn_mem);
    let floor = bound_kernel(&kernel, &perf_launch, &machine).cycle_lower_bound;
    assert!(
        floor <= sched.stats.cycles,
        "{}: schedule ({}) beats the static floor ({floor})",
        machine_label(&plan.kernel, design),
        sched.stats.cycles,
    );
    let budget = dyn_result.stats.cycles + schedule_slack(dyn_result.stats.cycles);
    assert!(
        sched.stats.cycles <= budget,
        "{}: schedule ({}) exceeds dynamic ({}) + slack",
        machine_label(&plan.kernel, design),
        sched.stats.cycles,
        dyn_result.stats.cycles,
    );
}

fn machine_label(kernel: &str, design: DesignPoint) -> String {
    format!("{kernel} under {}", design.label())
}

fn check_both_designs(instrs: Vec<Instruction>) {
    check_design(&instrs, DesignPoint::Baseline);
    check_design(&instrs, DesignPoint::WarpedCompression);
}

proptest! {
    #[test]
    fn straight_line_kernels_schedule_soundly(
        raw in prop::collection::vec(raw_instr(), 1..10),
    ) {
        check_both_designs(straight_line(&raw, true));
    }

    #[test]
    fn uniform_loop_kernels_schedule_soundly(
        body in prop::collection::vec(raw_instr(), 1..6),
        suffix in prop::collection::vec(raw_instr(), 0..4),
        trips in 1i32..4,
    ) {
        check_both_designs(counted_loop(&body, trips, &suffix, true));
    }

    #[test]
    fn nested_loop_kernels_schedule_soundly(
        outer_body in prop::collection::vec(raw_instr(), 0..3),
        inner_body in prop::collection::vec(raw_instr(), 1..4),
        outer_trips in 1i32..3,
        inner_trips in 1i32..4,
    ) {
        check_both_designs(nested_counted_loops(
            &outer_body, &inner_body, outer_trips, inner_trips, &[], true,
        ));
    }
}

/// The lint must flag the scheduler's bail site on a kernel whose
/// branch predicate is loaded from memory.
#[test]
fn load_tainted_predicate_is_flagged_at_the_bail_pc() {
    use simt_isa::{Operand, Reg, Special};
    let instrs = vec![
        Instruction::Mov {
            dst: Reg(0),
            src: Operand::Special(Special::GlobalTid),
        },
        Instruction::Ld {
            dst: Reg(1),
            base: Reg(0),
            offset: 0,
        },
        Instruction::Bra {
            pred: Reg(1),
            target: 4,
            reconv: 4,
        },
        Instruction::Mov {
            dst: Reg(2),
            src: Operand::Imm(1),
        },
        Instruction::Exit,
    ];
    let kernel = Kernel::new("tainted", instrs, 3).unwrap();
    let machine = perf_machine(&DesignPoint::WarpedCompression.config());
    let bail = schedule_kernel(&kernel, &PerfLaunch::new(1, 32), &machine, 48)
        .expect_err("a loaded predicate is not statically resolvable");
    let ScheduleBail::UnknownPredicate { pc, .. } = bail else {
        panic!("expected UnknownPredicate, got {bail:?}");
    };
    assert_eq!(pc, 2);

    let info = LaunchInfo {
        params: Vec::new(),
        blocks: Some(1),
        threads_per_block: Some(32),
        mem_words: None,
        initial_mem: None,
    };
    let analysis = analyze_with_launch(&kernel, Some(&info));
    assert!(
        analysis
            .report
            .of_kind(LintKind::UnschedulableRegion)
            .any(|d| d.pc == Some(pc)),
        "unschedulable-region lint misses the bail pc {pc}: {:?}",
        analysis.report.diagnostics,
    );
}

/// Suite-wide cross-check: wherever the scheduler bails on an
/// unresolvable predicate, the `unschedulable-region` lint must have
/// flagged that exact pc (the lint over-approximates the bail set).
#[test]
fn every_suite_bail_site_is_lint_flagged() {
    let machine = perf_machine(&DesignPoint::WarpedCompression.config());
    let sim = GpuSim::new(DesignPoint::WarpedCompression.config());
    let mut bails = 0;
    for w in suite() {
        let launch = w.launch();
        let image = std::sync::Arc::new(w.fresh_memory().words().to_vec());
        let perf_launch = PerfLaunch {
            blocks: launch.blocks(),
            threads_per_block: launch.threads_per_block(),
            params: launch.params().to_vec(),
            initial_mem: Some(image.clone()),
        };
        let residency = sim.max_resident_warps(w.kernel());
        let Err(ScheduleBail::UnknownPredicate { pc, .. }) =
            schedule_kernel(w.kernel(), &perf_launch, &machine, residency)
        else {
            continue;
        };
        bails += 1;
        let info = LaunchInfo {
            params: launch.params().to_vec(),
            blocks: Some(launch.blocks() as u32),
            threads_per_block: Some(launch.threads_per_block() as u32),
            mem_words: Some(image.len() as u64),
            initial_mem: Some(image),
        };
        let analysis = analyze_with_launch(w.kernel(), Some(&info));
        assert!(
            analysis
                .report
                .of_kind(LintKind::UnschedulableRegion)
                .any(|d| d.pc == Some(pc)),
            "`{}`: scheduler bails at pc {pc} but the lint never flagged it",
            w.name(),
        );
    }
    assert!(bails > 0, "the suite has data-dependent kernels");
}

/// Suite-wide cross-check of the memcell refinement against the
/// scheduler's shrunken bail set: every kernel the scheduler closes
/// *only* when armed with the initial-memory image must carry at least
/// one `refinable-load` lint (the refinement is what unlocked it), and
/// the converted set is pinned — losing a conversion is a capability
/// regression.
#[test]
fn refinable_load_lints_cover_the_shrunken_bail_set() {
    let machine = perf_machine(&DesignPoint::WarpedCompression.config());
    let sim = GpuSim::new(DesignPoint::WarpedCompression.config());
    let mut converted = Vec::new();
    for w in suite() {
        let launch = w.launch();
        let image = std::sync::Arc::new(w.fresh_memory().words().to_vec());
        let residency = sim.max_resident_warps(w.kernel());
        let bare = PerfLaunch {
            blocks: launch.blocks(),
            threads_per_block: launch.threads_per_block(),
            params: launch.params().to_vec(),
            initial_mem: None,
        };
        let armed = PerfLaunch {
            initial_mem: Some(image.clone()),
            ..bare.clone()
        };
        let bails_bare = schedule_kernel(w.kernel(), &bare, &machine, residency).is_err();
        let closes_armed = schedule_kernel(w.kernel(), &armed, &machine, residency).is_ok();
        if !(bails_bare && closes_armed) {
            continue;
        }
        converted.push(w.name().to_string());
        let info = LaunchInfo {
            params: launch.params().to_vec(),
            blocks: Some(launch.blocks() as u32),
            threads_per_block: Some(launch.threads_per_block() as u32),
            mem_words: Some(image.len() as u64),
            initial_mem: Some(image),
        };
        let analysis = analyze_with_launch(w.kernel(), Some(&info));
        assert!(
            analysis.report.of_kind(LintKind::RefinableLoad).count() > 0,
            "`{}` converts to static only with the image, but carries no \
             refinable-load lint",
            w.name(),
        );
    }
    assert_eq!(
        converted,
        ["kmeans", "lavamd", "srad", "spmv"],
        "the set of kernels the memcell refinement converts changed"
    );
}
