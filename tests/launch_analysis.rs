//! One launch analysis, shared by every consumer, gives each of them
//! exactly what its standalone entry point computes.
//!
//! `LaunchAnalysis` holds the control-flow graph, the abstract memory
//! cells and the address abstraction of one kernel under one launch.
//! The fuzzer and the mem and schedule gates build it once and hand it
//! to the lints (`analyze_with`), the perfbound floors
//! (`bound_kernel_with`) and the issue scheduler
//! (`schedule_kernel_with`). Over the 18 suite kernels and 200 fuzz
//! kernels, each under its image-armed launch as those gates see it,
//! the shared path must agree with the standalone one: the same
//! `KernelAnalysis`, `PerfPrediction`, issue plan or bail, `MemAbs` and
//! memory cells.

use warped_compression_suite::analysis::{
    analyze_cells, analyze_mem, analyze_with, analyze_with_launch, bound_kernel, bound_kernel_with,
    schedule_kernel, schedule_kernel_with, Cfg, LaunchAnalysis,
};
use warped_compression_suite::isa::Kernel;
use warped_compression_suite::prelude::*;
use warped_compression_suite::wc::{perf_machine, FuzzCase, LaunchFacts};

/// Checks every shared-path result against its standalone twin for one
/// kernel, launch and initial memory.
fn assert_shared_matches_standalone(kernel: &Kernel, launch: &LaunchConfig, memory: &GlobalMemory) {
    let name = kernel.name();
    let facts = LaunchFacts::new(launch, memory, true);
    let analysis = LaunchAnalysis::new(kernel, Some(&facts.info));

    assert_eq!(
        analyze_with(kernel, &analysis),
        analyze_with_launch(kernel, Some(&facts.info)),
        "{name}: lints and prediction"
    );

    let cfg = Cfg::build(kernel.instrs());
    let (instrs, regs) = (kernel.instrs(), kernel.num_regs());
    assert_eq!(
        analysis.mem,
        analyze_mem(name, instrs, regs, &cfg, Some(&facts.info)),
        "{name}: memabs"
    );
    assert_eq!(
        format!("{:?}", analysis.cells),
        format!(
            "{:?}",
            analyze_cells(name, instrs, usize::from(regs), &cfg, Some(&facts.info))
        ),
        "{name}: memcells"
    );

    let sim_cfg = DesignPoint::WarpedCompression.config();
    let machine = perf_machine(&sim_cfg);
    assert_eq!(
        bound_kernel_with(kernel, &facts.perf, &machine, &analysis),
        bound_kernel(kernel, &facts.perf, &machine),
        "{name}: perfbound"
    );
    let residency = GpuSim::new(sim_cfg).max_resident_warps(kernel);
    assert_eq!(
        schedule_kernel_with(kernel, &facts.perf, &machine, residency, &analysis),
        schedule_kernel(kernel, &facts.perf, &machine, residency),
        "{name}: issue plan"
    );
}

#[test]
fn shared_analysis_matches_standalone_passes_on_the_suite() {
    for w in suite() {
        assert_shared_matches_standalone(w.kernel(), w.launch(), &w.fresh_memory());
    }
}

#[test]
fn shared_analysis_matches_standalone_passes_on_fuzz_kernels() {
    for index in 0..200 {
        let case = FuzzCase::generate(42, index);
        let mut image = case.init_words.clone();
        image.resize(case.mem_words, 0);
        let launch = LaunchConfig::new(case.blocks, case.threads_per_block);
        assert_shared_matches_standalone(&case.kernel, &launch, &GlobalMemory::from_words(image));
    }
}

#[test]
fn an_image_armed_launch_has_one_analysis_view() {
    // The perfbound/scheduler view and the absint/memabs/memcell view
    // of an armed launch describe the same `LaunchInfo`, so one
    // analysis serves both.
    for w in suite() {
        let facts = LaunchFacts::new(w.launch(), &w.fresh_memory(), true);
        assert_eq!(facts.perf.absint_info(), facts.info, "{}", w.name());
    }
    let launch = LaunchConfig::new(3, 48).with_params(vec![7, 9]);
    let facts = LaunchFacts::new(&launch, &GlobalMemory::from_words(vec![1, 2, 3, 4]), true);
    assert_eq!(facts.perf.absint_info(), facts.info);
}
