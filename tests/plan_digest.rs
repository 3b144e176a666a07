//! The static floors and issue plans, pinned per (design, launch, kernel).
//!
//! Every suite kernel is bounded (`bound_kernel`) and scheduled
//! (`schedule_kernel`) for the warped-compression and the baseline
//! machine, under the bare launch the perf gate uses and under the
//! image-armed launch the schedule and mem gates use. Each
//! `PerfPrediction` and each `IssuePlan` (or its `ScheduleBail`) is
//! hashed field by field and compared against
//! `tests/data/plan_digest.txt`. The same claims computed through the
//! `*_with` entry points over one shared `LaunchAnalysis` are pinned
//! beside them, so the plain wrappers and the shared-analysis path
//! cannot drift apart.
//!
//! A second table, `tests/data/plan_digest_fuzz.txt`, pins the same
//! over 200 random kernels from the fuzzer's generator (seed 42), each
//! with its own launch geometry and initial memory image.
//!
//! A change meant only to make the analyses faster must leave both
//! tables untouched. On a mismatch the test prints the table it
//! computed to stderr.

mod digest;

use digest::{assert_table_matches, text_digest, Fnv};
use simt_analysis::{
    bound_kernel, bound_kernel_with, schedule_kernel, schedule_kernel_with, BlockBound,
    ConflictSite, IssuePlan, LaunchAnalysis, MemFloor, PerfPrediction, PlannedInstr, ScheduleBail,
    WarpPlan,
};
use simt_isa::Kernel;
use warped_compression::{perf_machine, FuzzCase, LaunchFacts};
use warped_compression_suite::prelude::*;

const TABLE: &str = include_str!("data/plan_digest.txt");
const FUZZ_TABLE: &str = include_str!("data/plan_digest_fuzz.txt");

/// Random kernels pinned by the fuzz table.
const FUZZ_CASES: usize = 200;

fn designs() -> [DesignPoint; 2] {
    [DesignPoint::WarpedCompression, DesignPoint::Baseline]
}

/// Digest of every field of `p`. The exhaustive destructuring makes a
/// new field a compile error here until it is hashed too.
fn floor_digest(p: &PerfPrediction) -> u64 {
    let PerfPrediction {
        kernel,
        cycle_lower_bound,
        issue_bound,
        chain_bound,
        compressor_bound,
        min_instructions,
        min_bank_reads,
        min_bank_writes,
        min_compressor_activations,
        min_decompressor_activations,
        conflicts,
        mem_floors,
        block_bounds,
        exact_warps,
        approx_warps,
    } = p;
    let mut h = Fnv::new();
    h.text(kernel);
    h.words(&[
        *cycle_lower_bound,
        *issue_bound,
        *chain_bound,
        *compressor_bound,
        *min_instructions,
        *min_bank_reads,
        *min_bank_writes,
        *min_compressor_activations,
        *min_decompressor_activations,
        *exact_warps as u64,
        *approx_warps as u64,
    ]);
    h.word(conflicts.len() as u64);
    for c in conflicts {
        let ConflictSite {
            pc,
            sources,
            min_stalls_per_execution,
            min_executions,
            min_stalls,
            banks_uncompressed,
            banks_compressed_bound,
        } = c;
        h.words(&[
            *pc as u64,
            *sources as u64,
            *min_stalls_per_execution,
            *min_executions,
            *min_stalls,
            *banks_uncompressed as u64,
            *banks_compressed_bound as u64,
        ]);
    }
    h.word(mem_floors.len() as u64);
    for m in mem_floors {
        let MemFloor {
            pc,
            is_store,
            pattern,
            min_transactions_per_access,
            min_executions,
            min_transactions,
        } = m;
        h.text(pattern);
        h.words(&[
            *pc as u64,
            u64::from(*is_store),
            *min_transactions_per_access,
            *min_executions,
            *min_transactions,
        ]);
    }
    h.word(block_bounds.len() as u64);
    for b in block_bounds {
        let BlockBound {
            block,
            start,
            end,
            instructions,
            chain_cycles,
        } = b;
        h.words(&[
            *block as u64,
            *start as u64,
            *end as u64,
            *instructions,
            *chain_cycles,
        ]);
    }
    h.0
}

fn opt(v: Option<u64>) -> u64 {
    v.map_or(u64::MAX, |v| v)
}

/// Digest of every field of `p`, every warp and every planned step.
fn plan_digest(p: &IssuePlan) -> u64 {
    let IssuePlan {
        kernel,
        num_schedulers,
        num_compressors,
        max_resident_warps,
        warps_per_block,
        total_cycles,
        planned_instructions,
        compressor_activations,
        decompressor_activations,
        warps,
    } = p;
    let mut h = Fnv::new();
    h.text(kernel);
    h.words(&[
        *num_schedulers as u64,
        *num_compressors as u64,
        *max_resident_warps as u64,
        *warps_per_block as u64,
        *total_cycles,
        *planned_instructions,
        *compressor_activations,
        *decompressor_activations,
    ]);
    h.word(warps.len() as u64);
    for w in warps {
        let WarpPlan {
            block,
            warp_in_block,
            slot,
            launch_seq,
            launch_cycle,
            free_cycle,
            steps,
        } = w;
        h.words(&[
            *block as u64,
            *warp_in_block as u64,
            *slot as u64,
            *launch_seq,
            *launch_cycle,
            *free_cycle,
        ]);
        h.word(steps.len() as u64);
        for s in steps {
            let PlannedInstr {
                pc,
                mask,
                divergent,
                issue,
                dispatch,
                retire,
                sources,
                dst,
                compresses,
                decomp_cycles,
                comp_cycles,
            } = s;
            h.words(&[
                *pc as u64,
                u64::from(*mask),
                u64::from(*divergent),
                *issue,
                opt(*dispatch),
                opt(*retire),
                opt(dst.map(|d| d as u64)),
                u64::from(*compresses),
                *decomp_cycles,
                *comp_cycles,
            ]);
            h.words(&sources.iter().map(|&r| r as u64).collect::<Vec<_>>());
        }
    }
    h.0
}

/// `cycles digest` of a plan, or `bail digest-of-the-bail` of a bail.
fn plan_cell(plan: &Result<IssuePlan, ScheduleBail>) -> String {
    match plan {
        Ok(p) => format!("{} {:016x}", p.total_cycles, plan_digest(p)),
        Err(b) => format!("bail {:016x}", text_digest(&format!("{b:?}"))),
    }
}

/// One table row: the floor and the plan of `kernel` under `launch`
/// over `memory` on `design`, each through the plain entry point and
/// through the `*_with` entry point over one `LaunchAnalysis`.
fn row(
    design: DesignPoint,
    armed: bool,
    kernel: &Kernel,
    launch: &LaunchConfig,
    memory: &GlobalMemory,
) -> String {
    let cfg = design.config();
    let machine = perf_machine(&cfg);
    let residency = GpuSim::new(cfg).max_resident_warps(kernel);
    let facts = LaunchFacts::new(launch, memory, armed);
    let floor = bound_kernel(kernel, &facts.perf, &machine);
    let plan = schedule_kernel(kernel, &facts.perf, &machine, residency);
    let analysis = LaunchAnalysis::new(kernel, Some(&facts.perf.absint_info()));
    let floor_with = bound_kernel_with(kernel, &facts.perf, &machine, &analysis);
    let plan_with = schedule_kernel_with(kernel, &facts.perf, &machine, residency, &analysis);
    format!(
        "{} {} {} {} {:016x} {:016x} | {} | {}\n",
        design.label(),
        if armed { "armed" } else { "bare" },
        kernel.name(),
        floor.cycle_lower_bound,
        floor_digest(&floor),
        floor_digest(&floor_with),
        plan_cell(&plan),
        plan_cell(&plan_with),
    )
}

/// The suite table as this build computes it.
fn computed() -> String {
    let suite = suite();
    let mut out = String::new();
    for design in designs() {
        for armed in [false, true] {
            for w in &suite {
                out.push_str(&row(
                    design,
                    armed,
                    w.kernel(),
                    w.launch(),
                    &w.fresh_memory(),
                ));
            }
        }
    }
    out
}

/// The fuzz table as this build computes it.
fn computed_fuzz() -> String {
    let cases: Vec<FuzzCase> = (0..FUZZ_CASES).map(|i| FuzzCase::generate(42, i)).collect();
    let mut out = String::new();
    for design in designs() {
        for armed in [false, true] {
            for case in &cases {
                let mut image = case.init_words.clone();
                image.resize(case.mem_words, 0);
                let memory = GlobalMemory::from_words(image);
                let launch = LaunchConfig::new(case.blocks, case.threads_per_block);
                out.push_str(&row(design, armed, &case.kernel, &launch, &memory));
            }
        }
    }
    out
}

#[test]
fn floors_and_plans_match_the_committed_table() {
    assert_table_matches(TABLE, &computed(), "18 kernels x 2 designs x 2 launches");
}

#[test]
fn floors_and_plans_on_random_kernels_match_the_committed_table() {
    assert_table_matches(
        FUZZ_TABLE,
        &computed_fuzz(),
        "200 fuzz kernels x 2 designs x 2 launches",
    );
}

#[test]
fn digests_see_every_step() {
    // Moving one planned step by a cycle, or one floor by an execution,
    // must change the digest.
    let k = by_name("lib").unwrap();
    let facts = LaunchFacts::new(k.launch(), &k.fresh_memory(), true);
    let machine = perf_machine(&DesignPoint::WarpedCompression.config());
    let residency =
        GpuSim::new(DesignPoint::WarpedCompression.config()).max_resident_warps(k.kernel());
    let plan = schedule_kernel(k.kernel(), &facts.perf, &machine, residency).unwrap();
    let mut moved = plan.clone();
    moved.warps[0].steps[0].issue += 1;
    assert_ne!(plan_digest(&plan), plan_digest(&moved));
    let floor = bound_kernel(k.kernel(), &facts.perf, &machine);
    let mut moved = floor.clone();
    moved.mem_floors[0].min_executions += 1;
    assert_ne!(floor_digest(&floor), floor_digest(&moved));
}
