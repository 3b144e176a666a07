//! Differential kernel fuzzer with crash triage and automatic
//! shrinking (feature `fuzz`).
//!
//! The soundness gates state their claims over the 18 curated
//! workloads; this module re-states them over *arbitrary* kernels. A
//! seeded generator draws [`gpu_workloads::testgen`] shapes
//! (straight-line, counted loops, loop nests, data- and
//! lane-divergence, value patterns, in-warp memory aliasing,
//! memory-loaded trip counts), and [`check_case`] checks each through
//! the gates' own joins. It computes each static claim once, and only
//! when a join will read it:
//!
//! * before the run, one [`simt_analysis::LaunchAnalysis`] (the CFG,
//!   the memcell-refined absint and the memabs address sets of the
//!   image-armed launch) and the lints' prediction built on it, because
//!   the write probe reads the prediction;
//! * one warped-compression run with every [`gpu_sim::Probes`] hook
//!   armed. Its `max_cycles` is clamped to the case budget, so a kernel
//!   that never exits ends here as a [`FindingCategory::Timeout`],
//!   deterministically and before anything else is paid for;
//! * after that run has finished: the perfbound floor (whose concrete
//!   replay would otherwise follow a non-terminating loop for its
//!   whole fuel) and the issue plan, both reading the shared launch
//!   analysis, then one baseline run with the memory probe and one
//!   replay of the plan.
//!
//! The gate reports are read in this order:
//!
//! 1. **perfbound** (`perf_join`) — the run beats no cycle,
//!    bank-access, energy, instruction or per-site stall floor,
//! 2. **absint** (`predict_join`) — no traced write exceeds its
//!    site's predicted class, and the gateable-bank bound holds,
//! 3. **memabs and memcell** (`mem_join`, under *both* baseline and
//!    warped-compression) — every traced address lies in its site's
//!    per-warp abstract set and every refined load's value in its
//!    abstract value, no transaction floor is undercut, and the
//!    cross-warp race verdict survives the trace (the `aliased_mem`
//!    and `lane_split` shapes drive warps onto shared words),
//! 4. **scheduled replay** (`schedule_join`) — when the scheduler
//!    closes the kernel, the replay matches the dynamic core bit for
//!    bit (registers and memory), beats no floor and stays within
//!    slack; a bail is a benign fallback, as in `wcsim schedule`,
//! 5. **panic freedom** — any panic (including a `sanitize:` oracle
//!    assertion) is caught via [`catch_panic`] and triaged,
//! 6. **watchdog** — a run that reaches the case budget is reported
//!    as a timeout by the stage that ran it.
//!
//! Any disagreement is classified into a typed [`Finding`] and the
//! offending case is delta-debug **shrunk** ([`shrink_case`]): first
//! the launch geometry, then ddmin over the instruction list (branch
//! targets remapped, candidates re-validated by `Kernel::new`), always
//! re-checking that the *same* finding category still reproduces. The
//! result renders as a standalone assemblable reproducer
//! ([`render_reproducer`]).
//!
//! The fuzzer validates itself with [`mutation_smoke`]: one deliberate
//! bug injection per finding category must be caught, classified and
//! shrunk — proving every detector actually fires. A mutation only
//! perturbs what a join is fed (a static claim, an observed event, the
//! replayed plan or registers, the budget or the memory size), never a
//! report's verdict, so the smoke test exercises the gates' own
//! comparisons.

use std::borrow::Borrow;

use gpu_sim::{
    FinalRegs, GlobalMemory, GpuSim, LaunchConfig, MemEvent, Probes, SimError, WriteEvent,
};
use gpu_workloads::testgen;
use rand::prelude::{Rng, SeedableRng, StdRng};
use simt_analysis::{
    analyze_with, bound_kernel_with, schedule_kernel_with, IssuePlan, LaunchAnalysis,
};
use simt_isa::{to_asm, Instruction, Kernel, Operand};

use crate::design::DesignPoint;
use crate::launch::LaunchFacts;
use crate::mem::{mem_join, MemTally};
use crate::perfbound::{perf_join, perf_machine};
use crate::predict::{predict_join, WriteTally};
use crate::resilient::catch_panic;
use crate::schedule::{schedule_join, RunOutcome, ScheduleClaim};

/// Default per-case cycle watchdog: far above anything the bounded
/// generator can legitimately produce, far below "hung".
pub const DEFAULT_CYCLE_BUDGET: u64 = 200_000;

/// Launch geometries the generator draws from (blocks, threads per
/// block) — small enough to keep a case under a millisecond, varied
/// enough to cover partial warps and multi-block residency.
const LAUNCHES: [(usize, usize); 6] = [(1, 32), (1, 64), (2, 32), (2, 48), (4, 32), (1, 48)];

/// A deliberate bug injection for the self-validation smoke test: each
/// variant breaks exactly one invariant the fuzzer claims to check, and
/// must be caught as its [`expected_category`](Mutation::expected_category).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Panic outright inside the checker (panic isolation path).
    InjectPanic,
    /// Panic with the sanitize oracle's message prefix (triage path).
    InjectSanitizePanic,
    /// Clamp the cycle budget to 1 so the watchdog must fire.
    StarveWatchdog,
    /// Run with zero global memory so memory kernels must fault.
    ShrinkMemory,
    /// Bump one planned step's issue cycle, breaking the plan's
    /// serialized-fetch dispatch equation — the replayer must reject.
    FlipHazardWindow,
    /// Flip one bit of the scheduled replay's final registers — the
    /// bit-identity check must fire.
    CorruptReplayMemory,
    /// Raise the static cycle floor above the measurement.
    RaiseCycleFloor,
    /// Claim a schedule slack budget of zero.
    ZeroSlack,
    /// Make one write site's prediction fall short of the trace: the
    /// first traced write at a site predicted compressible is observed
    /// as uncompressed.
    ShrinkBankPrediction,
    /// Knock the first traced memory access's addresses out of their
    /// site's abstract address set — the memabs containment join must
    /// reject.
    ShrinkAddressSet,
}

impl Mutation {
    /// Every mutation, one per finding category.
    pub const ALL: [Mutation; 10] = [
        Mutation::InjectPanic,
        Mutation::InjectSanitizePanic,
        Mutation::StarveWatchdog,
        Mutation::ShrinkMemory,
        Mutation::FlipHazardWindow,
        Mutation::CorruptReplayMemory,
        Mutation::RaiseCycleFloor,
        Mutation::ZeroSlack,
        Mutation::ShrinkBankPrediction,
        Mutation::ShrinkAddressSet,
    ];

    /// Stable kebab-case spelling (CLI / JSON).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::InjectPanic => "inject-panic",
            Mutation::InjectSanitizePanic => "inject-sanitize-panic",
            Mutation::StarveWatchdog => "starve-watchdog",
            Mutation::ShrinkMemory => "shrink-memory",
            Mutation::FlipHazardWindow => "flip-hazard-window",
            Mutation::CorruptReplayMemory => "corrupt-replay-memory",
            Mutation::RaiseCycleFloor => "raise-cycle-floor",
            Mutation::ZeroSlack => "zero-slack",
            Mutation::ShrinkBankPrediction => "shrink-bank-prediction",
            Mutation::ShrinkAddressSet => "shrink-address-set",
        }
    }

    /// Parses the kebab-case spelling back.
    pub fn parse(text: &str) -> Option<Mutation> {
        Mutation::ALL.into_iter().find(|m| m.name() == text)
    }

    /// The finding category this injected bug must be triaged as.
    pub fn expected_category(self) -> FindingCategory {
        match self {
            Mutation::InjectPanic => FindingCategory::Panic,
            Mutation::InjectSanitizePanic => FindingCategory::SanitizeViolation,
            Mutation::StarveWatchdog => FindingCategory::Timeout,
            Mutation::ShrinkMemory => FindingCategory::SimFailure,
            Mutation::FlipHazardWindow => FindingCategory::PlanRejected,
            Mutation::CorruptReplayMemory => FindingCategory::ScheduleMismatch,
            Mutation::RaiseCycleFloor => FindingCategory::FloorViolation,
            Mutation::ZeroSlack => FindingCategory::SlackViolation,
            Mutation::ShrinkBankPrediction => FindingCategory::AbsintUnsound,
            Mutation::ShrinkAddressSet => FindingCategory::MemabsUnsound,
        }
    }
}

/// The triage taxonomy: every way a fuzz case can disagree with the
/// invariants, ordered roughly by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingCategory {
    /// A panic escaped the simulator or an analysis.
    Panic,
    /// The sanitize shadow/hazard oracle tripped (panic message with
    /// the `sanitize:` prefix).
    SanitizeViolation,
    /// The per-case cycle watchdog expired.
    Timeout,
    /// The simulator returned an error on a structurally valid case.
    SimFailure,
    /// The replayer rejected the scheduler's plan as unsound.
    PlanRejected,
    /// Scheduled replay and dynamic run disagree bit-for-bit.
    ScheduleMismatch,
    /// A measured run beat a static perfbound floor.
    FloorViolation,
    /// The scheduled makespan exceeded dynamic + slack.
    SlackViolation,
    /// A traced write exceeded its predicted bank footprint.
    AbsintUnsound,
    /// A traced memory access escaped its abstract address set, or a
    /// cross-warp conflict evaded the static race verdict.
    MemabsUnsound,
}

impl FindingCategory {
    /// Stable kebab-case spelling (reports / JSON).
    pub fn label(self) -> &'static str {
        match self {
            FindingCategory::Panic => "panic",
            FindingCategory::SanitizeViolation => "sanitize-violation",
            FindingCategory::Timeout => "timeout",
            FindingCategory::SimFailure => "sim-failure",
            FindingCategory::PlanRejected => "plan-rejected",
            FindingCategory::ScheduleMismatch => "schedule-mismatch",
            FindingCategory::FloorViolation => "floor-violation",
            FindingCategory::SlackViolation => "slack-violation",
            FindingCategory::AbsintUnsound => "absint-unsound",
            FindingCategory::MemabsUnsound => "memabs-unsound",
        }
    }
}

/// One triaged disagreement: the category plus a human-readable detail
/// line (panic message, mismatch description, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which invariant broke.
    pub category: FindingCategory,
    /// What exactly disagreed.
    pub detail: String,
}

/// One generated fuzz case: a kernel plus its launch geometry and
/// memory size, reproducible from `(campaign seed, index)` alone.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// Case index within the campaign.
    pub index: usize,
    /// Per-case seed (splitmix of campaign seed and index), so cases
    /// are independent of generation order — the resume path depends
    /// on this.
    pub seed: u64,
    /// The generated kernel.
    pub kernel: Kernel,
    /// Thread blocks.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Global memory words the case runs with.
    pub mem_words: usize,
    /// Initial-memory image prefix (padded with zeroes to
    /// `mem_words`): the `table_trip_count` shape loads its loop bound
    /// from here, and every check arms the analysis with the full
    /// image so the abstract memory cells are exercised on all shapes.
    pub init_words: Vec<u32>,
}

/// SplitMix64 of the campaign seed and case index: each case gets an
/// independent, well-mixed generator stream.
fn case_seed(campaign_seed: u64, index: usize) -> u64 {
    let mut z = campaign_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn gen_raw(rng: &mut StdRng, len: usize) -> Vec<testgen::RawInstr> {
    (0..len)
        .map(|_| {
            let imm = if rng.gen_bool(0.5) {
                rng.gen_range(-8i32..=8)
            } else {
                rng.gen_range(-100_000i32..=100_000)
            };
            (
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255),
                imm,
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255),
            )
        })
        .collect()
}

impl FuzzCase {
    /// Deterministically generates case `index` of the campaign with
    /// the given seed, drawing one of the seven testgen shapes with
    /// bounded bodies, trip counts and launch geometry.
    pub fn generate(campaign_seed: u64, index: usize) -> FuzzCase {
        let seed = case_seed(campaign_seed, index);
        let mut rng = StdRng::seed_from_u64(seed);
        let (blocks, threads_per_block) = LAUNCHES[rng.gen_range(0usize..LAUNCHES.len())];
        let specials = rng.gen_bool(0.7);
        let body_len = rng.gen_range(1usize..=6);
        let body = gen_raw(&mut rng, body_len);
        let suffix_len = rng.gen_range(0usize..=2);
        let suffix = gen_raw(&mut rng, suffix_len);
        let shape = rng.gen_range(0u8..8);
        let mut mem_words = 4;
        let mut init_words = Vec::new();
        let instrs = match shape {
            0 => testgen::straight_line(&body, specials),
            1 => testgen::counted_loop(&body, rng.gen_range(1i32..=4), &suffix, specials),
            2 => {
                let inner_len = rng.gen_range(1usize..=3);
                let inner = gen_raw(&mut rng, inner_len);
                testgen::nested_counted_loops(
                    &body,
                    &inner,
                    rng.gen_range(1i32..=3),
                    rng.gen_range(1i32..=3),
                    &suffix,
                    specials,
                )
            }
            3 => {
                let prefix_len = rng.gen_range(1usize..=3);
                let prefix = gen_raw(&mut rng, prefix_len);
                let pred = rng.gen_range(0u8..=255);
                testgen::skip_if_zero(&prefix, &body, &suffix, pred, specials)
            }
            4 => testgen::lane_split(rng.gen_range(0u8..=255), &body, &suffix, specials),
            5 => testgen::value_pattern(
                rng.gen_range(0u8..=255),
                rng.gen_range(-64i32..=64),
                &body,
                specials,
            ),
            6 => {
                mem_words = testgen::aliased_mem_words(blocks, threads_per_block);
                let mask = rng.gen_range(0u8..=255);
                let split = if rng.gen_bool(0.5) {
                    rng.gen_range(1u8..=30)
                } else {
                    0
                };
                let wpb = threads_per_block.div_ceil(32);
                testgen::aliased_mem(mask, split, &body, wpb, specials)
            }
            _ => {
                mem_words = testgen::TRIP_TABLE_WORDS;
                let raw: Vec<u32> = (0..testgen::TRIP_TABLE_WORDS)
                    .map(|_| rng.gen_range(0u32..=u32::MAX))
                    .collect();
                init_words = testgen::trip_table_image(&raw);
                testgen::table_trip_count(rng.gen_range(0u8..=255), &body, &suffix, specials)
            }
        };
        let kernel = Kernel::new(format!("fuzz{index}"), instrs, testgen::NUM_REGS)
            .expect("testgen shapes are structurally valid");
        FuzzCase {
            index,
            seed,
            kernel,
            blocks,
            threads_per_block,
            mem_words,
            init_words,
        }
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig::new(self.blocks, self.threads_per_block)
    }

    /// Fresh global memory of `mem_words` words holding the case's
    /// initial image: the init words truncated or zero-padded.
    fn memory(&self, mem_words: usize) -> GlobalMemory {
        let mut image = self.init_words.clone();
        image.resize(mem_words, 0);
        GlobalMemory::from_words(image)
    }
}

/// Measurements from a clean (finding-free) case.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseStats {
    /// Cycles the dynamic core took.
    pub dynamic_cycles: u64,
    /// Program instructions the dynamic core issued.
    pub instructions: u64,
    /// Whether the static scheduler closed the kernel (vs a benign
    /// dynamic fallback).
    pub static_close: bool,
}

fn finding(category: FindingCategory, detail: impl Into<String>) -> Finding {
    Finding {
        category,
        detail: detail.into(),
    }
}

/// Classifies a simulator error from a required run: a clamped
/// `CycleLimit` is the watchdog, everything else is a sim failure.
fn sim_finding(err: SimError, stage: &str) -> Finding {
    match err {
        SimError::CycleLimit { limit } => finding(
            FindingCategory::Timeout,
            format!("{stage}: cycle watchdog expired at {limit}"),
        ),
        other => finding(FindingCategory::SimFailure, format!("{stage}: {other}")),
    }
}

/// Flips the lowest bit of the first register lane of the scheduled
/// replay's captured state (the `CorruptReplayMemory` smoke mutation).
fn corrupt_final_regs(regs: &mut FinalRegs) {
    if let Some(reg) = regs.values_mut().next().and_then(|warp| warp.first_mut()) {
        reg.set_lane(0, reg.lane(0) ^ 1);
    }
}

/// Bumps the issue cycle of the first dispatching planned step (the
/// `FlipHazardWindow` smoke mutation): the replayer's serialized-fetch
/// dispatch equation must then reject the plan. Returns `false` when
/// the plan has no dispatching step to perturb.
fn flip_hazard_window(plan: &mut IssuePlan) -> bool {
    for warp in &mut plan.warps {
        for step in &mut warp.steps {
            if step.dispatch.is_some() {
                step.issue += 1;
                return true;
            }
        }
    }
    false
}

/// Knocks every lane's address of a traced access far outside any
/// bounded abstract set (the `ShrinkAddressSet` smoke mutation).
fn knock_out(event: &mut MemEvent) {
    event.addrs.iter_mut().for_each(|addr| *addr ^= 0x4000_0000);
}

/// A simulator for `design` whose watchdog is clamped to `budget`.
fn capped(design: DesignPoint, budget: u64) -> GpuSim {
    let mut cfg = design.config();
    cfg.max_cycles = cfg.max_cycles.min(budget);
    GpuSim::new(cfg)
}

/// A gate report's verdict: sound when it lists no violation, else a
/// finding of `category` detailed by the report's own labels.
fn verdict<S: Borrow<str>>(
    category: FindingCategory,
    stage: &str,
    violations: Vec<S>,
) -> Result<(), Finding> {
    if violations.is_empty() {
        return Ok(());
    }
    let detail = format!("{stage}: {}", violations.join("; "));
    Err(finding(category, detail))
}

/// Runs every differential check on one case. `mutation` injects one
/// deliberate bug for the smoke test; `None` is the production path.
///
/// # Errors
///
/// The triaged [`Finding`] when any invariant disagrees.
pub fn check_case(
    case: &FuzzCase,
    cycle_budget: u64,
    mutation: Option<Mutation>,
) -> Result<CaseStats, Finding> {
    match catch_panic(|| run_checks(case, cycle_budget, mutation)) {
        Ok(outcome) => outcome,
        Err(panic) => {
            let category = if panic.message.starts_with("sanitize:") {
                FindingCategory::SanitizeViolation
            } else {
                FindingCategory::Panic
            };
            Err(finding(category, panic.message))
        }
    }
}

fn run_checks(
    case: &FuzzCase,
    cycle_budget: u64,
    mutation: Option<Mutation>,
) -> Result<CaseStats, Finding> {
    use bdi::CompressionClass::Uncompressed;
    use FindingCategory::*;
    let mutated = |m| mutation == Some(m);
    if mutated(Mutation::InjectPanic) {
        panic!("fuzz: injected panic (mutation smoke test)");
    }
    if mutated(Mutation::InjectSanitizePanic) {
        panic!("sanitize: injected hazard-oracle violation (mutation smoke test)");
    }
    let budget = if mutated(Mutation::StarveWatchdog) {
        1
    } else {
        cycle_budget
    };
    let mem_words = if mutated(Mutation::ShrinkMemory) {
        0
    } else {
        case.mem_words
    };
    let (kernel, name, launch) = (&case.kernel, case.kernel.name(), case.launch());
    let memory = case.memory(mem_words);
    let facts = LaunchFacts::new(&launch, &memory, true);
    let wc = capped(DesignPoint::WarpedCompression, budget);
    let machine = perf_machine(wc.config());

    // 1. Only the claims a probe reads come before the run. The write
    // probe reads the prediction, so the launch analysis it is built on
    // comes first too; the floor, the plan and the memory joins reuse
    // that analysis. Everything else waits for a run that finished, so
    // a shrink candidate whose loop no longer ends pays for nothing
    // more than its timed-out run.
    let analysis = LaunchAnalysis::new(kernel, Some(&facts.info));
    let prediction = analyze_with(kernel, &analysis).prediction;

    // 2. One warped-compression run with every probe armed.
    let mut writes = WriteTally::new(kernel.len());
    let mut inflate = mutated(Mutation::ShrinkBankPrediction);
    let compressible = |pc| {
        let site = prediction.as_ref().and_then(|p| p.site_at(pc));
        site.is_some_and(|s| s.class != Uncompressed)
    };
    let mut on_write = |event: &WriteEvent| {
        if inflate && !event.synthetic && compressible(event.pc) {
            inflate = false;
            let class = Uncompressed;
            writes.record(&WriteEvent { class, ..*event });
        } else {
            writes.record(event);
        }
    };
    let mut events: Vec<MemEvent> = Vec::new();
    let mut dyn_mem = memory.clone();
    let mut probes = Probes {
        writes: Some(&mut on_write),
        mem: Some(&mut |event| events.push(*event)),
        final_regs: Some(FinalRegs::new()),
    };
    let run = wc
        .run_with(kernel, &launch, &mut dyn_mem, &mut probes)
        .map_err(|e| sim_finding(e, "dynamic run"))?;
    let dyn_regs = probes.final_regs.take().unwrap_or_default();
    let stats = &run.stats;

    // The perfbound floor follows the run: its concrete replay follows
    // each warp for up to a million instructions, so it is computed
    // only for a kernel the engine finished.
    let mut bound = bound_kernel_with(kernel, &facts.perf, &machine, &analysis);
    if mutated(Mutation::RaiseCycleFloor) {
        bound.cycle_lower_bound = stats.cycles + 1;
    }
    let perf = perf_join(name, DesignPoint::WarpedCompression, bound, stats);
    verdict(FloorViolation, "dynamic run", perf.violations())?;
    if let Some(prediction) = prediction {
        let report = predict_join(name, prediction, &writes);
        verdict(AbsintUnsound, "dynamic run", report.violations())?;
    }
    if mutated(Mutation::ShrinkAddressSet) {
        if let Some(event) = events.iter_mut().find(|e| e.mask != 0) {
            knock_out(event);
        }
    }
    let mut accesses = MemTally::default();
    events.iter().for_each(|e| accesses.record(&analysis, e));
    let residency = wc.max_resident_warps(kernel);
    let plan = schedule_kernel_with(kernel, &facts.perf, &machine, residency, &analysis);
    let mut sched_claim = ScheduleClaim::new(perf.prediction.cycle_lower_bound, plan);
    if mutated(Mutation::ZeroSlack) {
        sched_claim.slack = |_| 0;
    }
    let mem_violations = |accesses: &MemTally, stats| {
        let plan = &sched_claim.plan;
        mem_join(name, &analysis, accesses, stats, &perf.prediction, plan).violations()
    };
    verdict(
        MemabsUnsound,
        "warped-compression",
        mem_violations(&accesses, stats),
    )?;

    // 3. One baseline run with the memory probe: addresses and the
    // coalescer are design-independent, so the memory claim must
    // survive its trace too.
    let mut base_accesses = MemTally::default();
    let base = capped(DesignPoint::Baseline, budget)
        .run_mem_observed(kernel, &launch, &mut memory.clone(), &mut |e| {
            base_accesses.record(&analysis, e);
        })
        .map_err(|e| sim_finding(e, "baseline run"))?;
    verdict(
        MemabsUnsound,
        "baseline",
        mem_violations(&base_accesses, &base.stats),
    )?;

    // 4. One scheduled replay (a scheduler bail is a benign dynamic
    // fallback, exactly like `wcsim schedule`).
    let case_stats = |static_close| CaseStats {
        dynamic_cycles: stats.cycles,
        instructions: stats.instructions,
        static_close,
    };
    let mut replayed = None;
    if let Ok(plan) = &mut sched_claim.plan {
        if mutated(Mutation::FlipHazardWindow) && !flip_hazard_window(plan) {
            // No dispatching step to perturb: the smoke scan moves on.
            return Ok(case_stats(false));
        }
        let mut sched_mem = memory;
        let mut sched = match wc.run_scheduled(kernel, plan, &launch, &mut sched_mem) {
            Ok(sched) => sched,
            Err(err @ SimError::Plan { .. }) => return Err(finding(PlanRejected, err.to_string())),
            Err(e) => return Err(sim_finding(e, "scheduled replay")),
        };
        if mutated(Mutation::CorruptReplayMemory) {
            corrupt_final_regs(&mut sched.final_regs);
        }
        replayed = Some((sched, sched_mem));
    }
    let dynamic = RunOutcome {
        stats,
        regs: &dyn_regs,
        memory: &dyn_mem,
    };
    let replay = replayed.as_ref().map(|(sched, sched_mem)| RunOutcome {
        stats: &sched.stats,
        regs: &sched.final_regs,
        memory: sched_mem,
    });
    let design = DesignPoint::WarpedCompression;
    let report = schedule_join(name, design, &sched_claim, dynamic, replay);
    let category = if !(report.registers_match && report.memory_matches) {
        ScheduleMismatch
    } else if !report.floor_holds() {
        FloorViolation
    } else {
        SlackViolation
    };
    verdict(category, "scheduled replay", report.violations())?;
    Ok(case_stats(replayed.is_some()))
}

/// Whether `case` still produces a finding of the given category under
/// the same budget and mutation — the shrinker's oracle.
fn reproduces(
    case: &FuzzCase,
    cycle_budget: u64,
    mutation: Option<Mutation>,
    category: FindingCategory,
) -> bool {
    matches!(
        check_case(case, cycle_budget, mutation),
        Err(f) if f.category == category
    )
}

/// Removes instructions `[lo, hi)` and remaps every branch/jump target
/// across the gap (targets inside it collapse onto `lo`). Returns
/// `None` for degenerate requests; structurally invalid candidates are
/// rejected later by `Kernel::new`.
fn remove_range(instrs: &[Instruction], lo: usize, hi: usize) -> Option<Vec<Instruction>> {
    let dropped = hi.checked_sub(lo)?;
    if dropped == 0 || hi > instrs.len() || dropped >= instrs.len() {
        return None;
    }
    let remap = |t: usize| {
        if t >= hi {
            t - dropped
        } else if t >= lo {
            lo
        } else {
            t
        }
    };
    Some(
        instrs
            .iter()
            .enumerate()
            .filter(|(pc, _)| !(lo..hi).contains(pc))
            .map(|(_, ins)| match *ins {
                Instruction::Bra {
                    pred,
                    target,
                    reconv,
                } => Instruction::Bra {
                    pred,
                    target: remap(target),
                    reconv: remap(reconv),
                },
                Instruction::Jmp { target } => Instruction::Jmp {
                    target: remap(target),
                },
                other => other,
            })
            .collect(),
    )
}

fn with_instrs(case: &FuzzCase, instrs: Vec<Instruction>) -> Option<FuzzCase> {
    let kernel = Kernel::new(case.kernel.name(), instrs, case.kernel.num_regs()).ok()?;
    let mut shrunk = case.clone();
    shrunk.kernel = kernel;
    Some(shrunk)
}

/// Delta-debug shrinks a failing case to a minimal reproducer: launch
/// geometry first, then ddmin over the instruction list (halving chunk
/// sizes down to single instructions, iterated to a fixpoint), then the
/// launch again. Every accepted candidate re-reproduces the *same*
/// finding category, so the returned case is a verified reproducer by
/// construction. Fully deterministic for a given input.
pub fn shrink_case(
    case: &FuzzCase,
    cycle_budget: u64,
    mutation: Option<Mutation>,
    category: FindingCategory,
) -> FuzzCase {
    let mut best = case.clone();
    shrink_launch(&mut best, cycle_budget, mutation, category);

    let mut instrs = best.kernel.instrs().to_vec();
    let mut chunk = (instrs.len() / 2).max(1);
    loop {
        let mut removed = false;
        let mut lo = 0;
        while lo < instrs.len() && instrs.len() > 1 {
            let hi = (lo + chunk).min(instrs.len());
            let candidate = remove_range(&instrs, lo, hi)
                .and_then(|cand| with_instrs(&best, cand))
                .filter(|cand| reproduces(cand, cycle_budget, mutation, category));
            match candidate {
                Some(cand) => {
                    instrs = cand.kernel.instrs().to_vec();
                    best = cand;
                    removed = true;
                }
                None => lo += chunk,
            }
        }
        if chunk == 1 {
            if !removed {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }

    shrink_operands(&mut best, cycle_budget, mutation, category);
    shrink_launch(&mut best, cycle_budget, mutation, category);
    best
}

/// Candidate simplifications of one operand, most aggressive first:
/// registers, specials and params collapse to `Imm(0)`; non-zero
/// immediates try zero, then a halved magnitude.
fn operand_reductions(op: Operand) -> Vec<Operand> {
    match op {
        Operand::Imm(0) => Vec::new(),
        Operand::Imm(i) => vec![Operand::Imm(0), Operand::Imm(i / 2)],
        _ => vec![Operand::Imm(0)],
    }
}

/// Candidate simplifications of one instruction, one operand slot at a
/// time. Control flow is left to ddmin; only value operands, load/store
/// offsets and immediates are reduced toward zero.
fn instr_reductions(instr: &Instruction) -> Vec<Instruction> {
    let mut out = Vec::new();
    match *instr {
        Instruction::Mov { dst, src } => {
            out.extend(
                operand_reductions(src)
                    .into_iter()
                    .map(|src| Instruction::Mov { dst, src }),
            );
        }
        Instruction::Alu { op, dst, a, b } => {
            out.extend(operand_reductions(a).into_iter().map(|a| Instruction::Alu {
                op,
                dst,
                a,
                b,
            }));
            out.extend(operand_reductions(b).into_iter().map(|b| Instruction::Alu {
                op,
                dst,
                a,
                b,
            }));
        }
        Instruction::Ld { dst, base, offset } if offset != 0 => {
            out.push(Instruction::Ld {
                dst,
                base,
                offset: 0,
            });
            out.push(Instruction::Ld {
                dst,
                base,
                offset: offset / 2,
            });
        }
        Instruction::St { base, offset, src } if offset != 0 => {
            out.push(Instruction::St {
                base,
                offset: 0,
                src,
            });
            out.push(Instruction::St {
                base,
                offset: offset / 2,
                src,
            });
        }
        _ => {}
    }
    out
}

/// Operand-level reduction after ddmin: rewrites each surviving
/// instruction's operands and immediates toward zero, keeping a rewrite
/// only when the candidate still reproduces the same finding category.
/// Iterated to a fixpoint under a bounded pass count so shrinking stays
/// deterministic and cheap.
fn shrink_operands(
    best: &mut FuzzCase,
    cycle_budget: u64,
    mutation: Option<Mutation>,
    category: FindingCategory,
) {
    const MAX_PASSES: usize = 4;
    for _ in 0..MAX_PASSES {
        let mut changed = false;
        for pc in 0..best.kernel.len() {
            for reduced in instr_reductions(&best.kernel.instrs()[pc]) {
                if best.kernel.instrs()[pc] == reduced {
                    continue;
                }
                let mut instrs = best.kernel.instrs().to_vec();
                instrs[pc] = reduced;
                let Some(cand) = with_instrs(best, instrs) else {
                    continue;
                };
                if reproduces(&cand, cycle_budget, mutation, category) {
                    *best = cand;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Tries smaller launch geometries (fewest warps first), adopting the
/// first that still reproduces.
fn shrink_launch(
    best: &mut FuzzCase,
    cycle_budget: u64,
    mutation: Option<Mutation>,
    category: FindingCategory,
) {
    let candidates = [(1, 32), (1, best.threads_per_block), (best.blocks, 32)];
    for (blocks, threads_per_block) in candidates {
        let warps = |b: usize, t: usize| b * t.div_ceil(32);
        if warps(blocks, threads_per_block) >= warps(best.blocks, best.threads_per_block) {
            continue;
        }
        let mut cand = best.clone();
        cand.blocks = blocks;
        cand.threads_per_block = threads_per_block;
        if reproduces(&cand, cycle_budget, mutation, category) {
            *best = cand;
            return;
        }
    }
}

/// Renders a failing (already shrunk) case as a standalone reproducer:
/// a `#`-commented provenance header the assembler ignores, followed by
/// the kernel in assemblable syntax.
pub fn render_reproducer(
    campaign_seed: u64,
    cycle_budget: u64,
    mutation: Option<Mutation>,
    original: &FuzzCase,
    shrunk: &FuzzCase,
    found: &Finding,
) -> String {
    let mut out = String::new();
    out.push_str("# wcsim fuzz reproducer\n");
    out.push_str(&format!(
        "# campaign seed {campaign_seed}, case {} (case seed {:#018x})\n",
        original.index, original.seed
    ));
    out.push_str(&format!("# category: {}\n", found.category.label()));
    for line in found.detail.lines() {
        out.push_str(&format!("# detail: {line}\n"));
    }
    if let Some(m) = mutation {
        out.push_str(&format!("# injected mutation: {}\n", m.name()));
    }
    out.push_str(&format!(
        "# launch: blocks={} threads_per_block={} mem_words={} cycle_budget={cycle_budget}\n",
        shrunk.blocks, shrunk.threads_per_block, shrunk.mem_words
    ));
    out.push_str(&format!(
        "# shrunk {} -> {} instructions\n",
        original.kernel.len(),
        shrunk.kernel.len()
    ));
    out.push_str(&to_asm(&shrunk.kernel));
    out
}

/// Campaign parameters for [`run_case`] and [`mutation_smoke`].
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Campaign seed: case `i` derives its stream from
    /// `splitmix(seed, i)`.
    pub seed: u64,
    /// Per-case cycle watchdog (`max_cycles` clamp).
    pub cycle_budget: u64,
    /// Deliberate bug injection for the smoke test (`None` in
    /// production campaigns).
    pub mutation: Option<Mutation>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            cycle_budget: DEFAULT_CYCLE_BUDGET,
            mutation: None,
        }
    }
}

/// The per-case record a campaign persists: generation facts, clean
/// measurements, and — when a finding was triaged — the shrunk
/// reproducer.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// Case index within the campaign.
    pub index: usize,
    /// The case's derived seed.
    pub case_seed: u64,
    /// Instructions of the generated kernel.
    pub kernel_instructions: usize,
    /// Launch blocks.
    pub blocks: usize,
    /// Launch threads per block.
    pub threads_per_block: usize,
    /// Global memory words.
    pub mem_words: usize,
    /// Clean-case measurements (zeroed when a finding aborted the
    /// checks).
    pub stats: CaseStats,
    /// The triaged finding, if any.
    pub finding: Option<FindingReport>,
}

/// A triaged finding plus its shrunk reproducer.
#[derive(Clone, Debug)]
pub struct FindingReport {
    /// Which invariant broke.
    pub category: FindingCategory,
    /// What exactly disagreed.
    pub detail: String,
    /// Instructions left after shrinking.
    pub shrunk_instructions: usize,
    /// Launch blocks after shrinking.
    pub shrunk_blocks: usize,
    /// Threads per block after shrinking.
    pub shrunk_threads_per_block: usize,
    /// The standalone reproducer (header + assemblable kernel).
    pub reproducer: String,
}

/// Generates, checks, and — on a finding — shrinks one campaign case.
pub fn run_case(cfg: &FuzzConfig, index: usize) -> CaseReport {
    let case = FuzzCase::generate(cfg.seed, index);
    let mut report = CaseReport {
        index,
        case_seed: case.seed,
        kernel_instructions: case.kernel.len(),
        blocks: case.blocks,
        threads_per_block: case.threads_per_block,
        mem_words: case.mem_words,
        stats: CaseStats::default(),
        finding: None,
    };
    match check_case(&case, cfg.cycle_budget, cfg.mutation) {
        Ok(stats) => report.stats = stats,
        Err(found) => {
            let shrunk = shrink_case(&case, cfg.cycle_budget, cfg.mutation, found.category);
            let reproducer = render_reproducer(
                cfg.seed,
                cfg.cycle_budget,
                cfg.mutation,
                &case,
                &shrunk,
                &found,
            );
            report.finding = Some(FindingReport {
                category: found.category,
                detail: found.detail,
                shrunk_instructions: shrunk.kernel.len(),
                shrunk_blocks: shrunk.blocks,
                shrunk_threads_per_block: shrunk.threads_per_block,
                reproducer,
            });
        }
    }
    report
}

/// The outcome of one smoke mutation: how many cases were scanned
/// before the injected bug was caught, and the caught case's report
/// (with its shrunk reproducer) when it was.
#[derive(Clone, Debug)]
pub struct SmokeOutcome {
    /// The injected bug.
    pub mutation: Mutation,
    /// The category the bug must be triaged as.
    pub expected: FindingCategory,
    /// Case indices scanned (the last one is the catch, when caught).
    pub cases_scanned: usize,
    /// The report of the case that caught the bug, `None` if the scan
    /// budget ran out — a smoke failure.
    pub caught: Option<CaseReport>,
}

impl SmokeOutcome {
    /// Whether the injected bug was caught, correctly classified, and
    /// shrunk to a reproducer.
    pub fn passed(&self) -> bool {
        self.caught.as_ref().is_some_and(|report| {
            report
                .finding
                .as_ref()
                .is_some_and(|f| f.category == self.expected && !f.reproducer.is_empty())
        })
    }
}

/// Self-validation: injects each [`Mutation`] in turn and scans cases
/// `0..max_scan` until the bug is caught as its expected category —
/// proving every finding detector, classifier and the shrinker work
/// end to end. Fully deterministic for a given seed.
pub fn mutation_smoke(seed: u64, cycle_budget: u64, max_scan: usize) -> Vec<SmokeOutcome> {
    Mutation::ALL
        .into_iter()
        .map(|mutation| {
            let cfg = FuzzConfig {
                seed,
                cycle_budget,
                mutation: Some(mutation),
            };
            let expected = mutation.expected_category();
            let mut caught = None;
            let mut scanned = 0;
            for index in 0..max_scan {
                scanned = index + 1;
                let report = run_case(&cfg, index);
                if report
                    .finding
                    .as_ref()
                    .is_some_and(|f| f.category == expected)
                {
                    caught = Some(report);
                    break;
                }
            }
            SmokeOutcome {
                mutation,
                expected,
                cases_scanned: scanned,
                caught,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_per_seed() {
        let a = FuzzCase::generate(42, 7);
        let b = FuzzCase::generate(42, 7);
        assert_eq!(a.kernel, b.kernel);
        assert_eq!(
            (a.blocks, a.threads_per_block),
            (b.blocks, b.threads_per_block)
        );
        let c = FuzzCase::generate(43, 7);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn clean_cases_produce_no_findings() {
        let cfg = FuzzConfig::default();
        for index in 0..40 {
            let report = run_case(&cfg, index);
            assert!(
                report.finding.is_none(),
                "case {index} found {:?}",
                report.finding
            );
        }
    }

    #[test]
    fn injected_panic_is_caught_and_shrunk_to_one_instruction() {
        let cfg = FuzzConfig {
            mutation: Some(Mutation::InjectPanic),
            ..FuzzConfig::default()
        };
        let report = run_case(&cfg, 0);
        let finding = report.finding.expect("injected panic must be caught");
        assert_eq!(finding.category, FindingCategory::Panic);
        // The panic fires before the kernel matters, so ddmin strips
        // the kernel to the minimal valid one.
        assert_eq!(finding.shrunk_instructions, 1);
        assert!(finding.reproducer.contains("# category: panic"));
    }

    #[test]
    fn shrunk_address_set_is_caught_as_memabs_unsound() {
        let cfg = FuzzConfig {
            mutation: Some(Mutation::ShrinkAddressSet),
            ..FuzzConfig::default()
        };
        let caught = (0..64)
            .map(|index| run_case(&cfg, index))
            .find_map(|report| {
                report
                    .finding
                    .filter(|f| f.category == FindingCategory::MemabsUnsound)
            })
            .expect("the memabs join must catch the knocked-out address set");
        assert!(caught.reproducer.contains("# category: memabs-unsound"));
    }

    #[test]
    fn aliasing_shapes_exercise_the_race_detector() {
        // Across a modest scan of generated cases, the `aliased_mem`
        // and `lane_split` shapes must produce both definite verdicts:
        // some kernels proven warp-isolated, some with a non-empty
        // cross-warp race list. The memabs join in every clean case
        // (see `clean_cases_produce_no_findings`) then validates those
        // verdicts against the traced accesses.
        let mut raced = 0;
        let mut isolated = 0;
        for index in 0..120 {
            let case = FuzzCase::generate(42, index);
            let facts = LaunchFacts::new(&case.launch(), &case.memory(case.mem_words), false);
            let mem = LaunchAnalysis::new(&case.kernel, Some(&facts.info)).mem;
            match mem.race_free {
                Some(false) if !mem.races.is_empty() => raced += 1,
                Some(true) => isolated += 1,
                _ => {}
            }
        }
        assert!(raced > 0, "no generated case tripped the race detector");
        assert!(isolated > 0, "no generated case was proven warp-isolated");
    }

    #[test]
    fn remove_range_remaps_branches() {
        use simt_isa::{Operand, Reg};
        let instrs = vec![
            Instruction::Mov {
                dst: Reg(0),
                src: Operand::Imm(1),
            },
            Instruction::Mov {
                dst: Reg(1),
                src: Operand::Imm(2),
            },
            Instruction::Bra {
                pred: Reg(0),
                target: 4,
                reconv: 4,
            },
            Instruction::Mov {
                dst: Reg(2),
                src: Operand::Imm(3),
            },
            Instruction::Exit,
        ];
        let out = remove_range(&instrs, 1, 2).expect("removable");
        assert_eq!(out.len(), 4);
        match out[1] {
            Instruction::Bra { target, reconv, .. } => {
                assert_eq!(target, 3);
                assert_eq!(reconv, 3);
            }
            ref other => panic!("expected branch, got {other:?}"),
        }
        // Removing the range a target points into collapses it to lo.
        let out = remove_range(&instrs, 3, 5).expect("removable");
        match out[2] {
            Instruction::Bra { target, .. } => assert_eq!(target, 3),
            ref other => panic!("expected branch, got {other:?}"),
        }
    }
}
