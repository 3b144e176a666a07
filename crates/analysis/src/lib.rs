//! Static verification and dataflow analysis for `simt-isa` kernels.
//!
//! The 18 hand-written workload kernels are this project's substitute
//! for the paper's Rodinia/Parboil binaries, which makes their
//! correctness load-bearing for every reproduced figure. This crate is
//! the correctness gate: it builds a control-flow graph from a kernel
//! ([`cfg::Cfg`]: basic blocks plus branch and reconvergence edges) and
//! runs classic dataflow on top —
//!
//! * [reaching definitions](dataflow::ReachingDefs), from which
//!   use-before-def reads are reported,
//! * [backward register liveness](liveness::Liveness) per program
//!   point, from which dead writes are reported and a GREENER-style
//!   [`LivenessSummary`] (live-register histogram, max simultaneously
//!   live, dead-register fraction) is produced for the energy model,
//! * structural lints: branch targets in range, register indices below
//!   `num_regs`, `exit` reachability, unreachable code, and balanced
//!   divergence/reconvergence nesting (no path stuck inside a
//!   divergence region, no inner branch reconverging outside it).
//!
//! Everything is reported as a machine-readable [`LintReport`] of
//! [`Diagnostic`]s (severity, pc, register).
//!
//! The entry points accept raw `&[Instruction]` slices
//! ([`analyze_instrs`]) as well as validated kernels ([`analyze`]):
//! [`simt_isa::Kernel::new`] already rejects out-of-range targets and
//! registers, so the negative paths of those lints are only observable
//! on unvalidated sequences.
//!
//! # Example
//!
//! ```
//! use simt_isa::{Instruction, Operand, Reg};
//!
//! let instrs = vec![
//!     // Dead write: overwritten at the next instruction, never read.
//!     Instruction::Mov { dst: Reg(0), src: Operand::Imm(1) },
//!     Instruction::Mov { dst: Reg(0), src: Operand::Imm(2) },
//!     // r1 is read but never written anywhere.
//!     Instruction::St { base: Reg(0), offset: 0, src: Reg(1) },
//!     Instruction::Exit,
//! ];
//! let analysis = simt_analysis::analyze_instrs("demo", &instrs, 2);
//! assert_eq!(analysis.report.warning_count(), 2);
//! assert!(!analysis.report.has_errors());
//! let live = analysis.liveness.unwrap();
//! assert_eq!(live.max_live, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod cfg;
pub mod dataflow;
pub mod launch;
pub mod lint;
pub mod liveness;
pub mod memabs;
pub mod memcell;
pub mod perfbound;
pub mod schedule;
pub mod trace;

use simt_isa::{ControlFlow, Instruction, Kernel};

pub use absint::{
    interpret, interpret_with_cells, AbsVal, AbsintAnalysis, BranchVerdict, KernelPrediction,
    LaunchInfo, Range, SitePrediction,
};
pub use cfg::{BasicBlock, Cfg};
pub use dataflow::{DefSite, ReachingDefs, RegSet};
pub use launch::LaunchAnalysis;
pub use lint::{Diagnostic, LintKind, LintReport, Severity};
pub use liveness::{Liveness, LivenessSummary};
pub use memabs::{analyze_mem, AccessPattern, MemAbs, MemSite, RacePair};
pub use memcell::{analyze_cells, CellTable, MemCells};
pub use perfbound::{
    bound_kernel, bound_kernel_with, BlockBound, ConflictSite, MemFloor, PerfLaunch, PerfMachine,
    PerfPrediction,
};
pub use schedule::{
    schedule_kernel, schedule_kernel_with, IssuePlan, PlannedInstr, ScheduleBail, WarpPlan,
};

/// The verifier's full output for one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelAnalysis {
    /// Every lint finding.
    pub report: LintReport,
    /// Liveness statistics; `None` when structural errors made the
    /// dataflow passes meaningless (bad targets, fall-off-the-end, …).
    pub liveness: Option<LivenessSummary>,
    /// Static compressibility prediction from the warp-value abstract
    /// interpretation; `None` under the same structural-error
    /// conditions as `liveness`.
    pub prediction: Option<KernelPrediction>,
}

/// Analyses a validated kernel.
///
/// Structural lints cannot fire here (construction already enforces
/// them), but all dataflow and divergence lints apply, and
/// `liveness` and `prediction` are always `Some`.
pub fn analyze(kernel: &Kernel) -> KernelAnalysis {
    analyze_instrs(kernel.name(), kernel.instrs(), kernel.num_regs())
}

/// Like [`analyze`], with launch facts sharpening the abstract
/// interpretation (concrete parameters and grid geometry).
pub fn analyze_with_launch(kernel: &Kernel, launch: Option<&LaunchInfo>) -> KernelAnalysis {
    analyze_instrs_with_launch(kernel.name(), kernel.instrs(), kernel.num_regs(), launch)
}

/// Analyses a raw, possibly invalid instruction sequence.
///
/// Structural checks run first; if any fail, the dataflow passes are
/// skipped (their results would be meaningless) and `liveness` and
/// `prediction` are `None`.
pub fn analyze_instrs(name: &str, instrs: &[Instruction], num_regs: u8) -> KernelAnalysis {
    analyze_instrs_with_launch(name, instrs, num_regs, None)
}

/// Like [`analyze_instrs`], with launch facts for the abstract
/// interpretation.
pub fn analyze_instrs_with_launch(
    name: &str,
    instrs: &[Instruction],
    num_regs: u8,
    launch: Option<&LaunchInfo>,
) -> KernelAnalysis {
    let mut diags = Vec::new();
    structural_lints(instrs, num_regs, &mut diags);
    if !diags.is_empty() {
        return KernelAnalysis {
            report: LintReport::new(name, diags),
            liveness: None,
            prediction: None,
        };
    }

    let analysis = LaunchAnalysis::of_instrs(name, instrs, num_regs, launch);
    dataflow_lints(name, instrs, num_regs, &analysis, diags)
}

/// Like [`analyze_with_launch`], reading the control-flow graph, the
/// memory cells and the address abstraction from `analysis` instead of
/// recomputing them. `analysis` must have been built from `kernel`.
pub fn analyze_with(kernel: &Kernel, analysis: &LaunchAnalysis) -> KernelAnalysis {
    dataflow_lints(
        kernel.name(),
        kernel.instrs(),
        kernel.num_regs(),
        analysis,
        Vec::new(),
    )
}

/// Everything past the structural lints: reachability, divergence,
/// dataflow and memory lints, liveness and the compressibility
/// prediction, over a structurally valid sequence.
fn dataflow_lints(
    name: &str,
    instrs: &[Instruction],
    num_regs: u8,
    analysis: &LaunchAnalysis,
    mut diags: Vec<Diagnostic>,
) -> KernelAnalysis {
    let LaunchAnalysis {
        launch,
        cfg,
        cells,
        mem,
    } = analysis;
    let launch = launch.as_ref();
    reachability_lints(instrs, cfg, &mut diags);
    divergence_lints(instrs, cfg, &mut diags);

    let rd = ReachingDefs::compute(instrs, num_regs, cfg);
    use_before_def_lints(instrs, cfg, &rd, &mut diags);
    let lv = Liveness::compute(instrs, cfg);
    dead_write_lints(instrs, cfg, &lv, &mut diags);

    // The memory-cell analysis subsumes the plain abstract
    // interpretation: without an initial-memory image it degrades to
    // exactly `interpret`, with one it refines loads through the
    // verified per-word cell table.
    uniform_branch_lints(&cells.absint.prediction, &mut diags);
    refinable_load_lints(cells, &mut diags);
    mem_lints(mem, launch, &mut diags);
    unschedulable_region_lints(
        instrs,
        cfg,
        &rd,
        &cells.absint.prediction,
        launch,
        mem,
        cells,
        &mut diags,
    );

    // Stable order: whole-kernel findings first, then by pc.
    diags.sort_by_key(|d| d.pc.map_or((0, 0), |pc| (1, pc)));

    let liveness = LivenessSummary::collect(name, num_regs, cfg, &lv);
    KernelAnalysis {
        report: LintReport::new(name, diags),
        liveness: Some(liveness),
        prediction: Some(cells.absint.prediction.clone()),
    }
}

/// Info-severity findings for loads the memory-cell domain refines
/// statically: the destination value is bounded by the reported range
/// even though it crossed the load/store boundary. Only fires when a
/// verified cell table is armed (the launch supplied a full
/// initial-memory image).
fn refinable_load_lints(cells: &memcell::MemCells, diags: &mut Vec<Diagnostic>) {
    for (&pc, value) in &cells.refined {
        diags.push(Diagnostic::new(
            LintKind::RefinableLoad,
            Some(pc),
            None,
            format!(
                "load refines to {value} through the abstract memory cells: \
                 the loaded value is statically bounded"
            ),
        ));
    }
}

/// Info-severity findings for branches whose condition is provably
/// warp-uniform: the hardware never diverges on them, so the SIMT
/// stack push and the divergent-write compression penalty are both
/// avoidable.
fn uniform_branch_lints(prediction: &KernelPrediction, diags: &mut Vec<Diagnostic>) {
    for v in &prediction.branches {
        if v.uniform {
            diags.push(Diagnostic::new(
                LintKind::UniformBranch,
                Some(v.pc),
                None,
                "branch condition is provably warp-uniform: this branch never diverges".into(),
            ));
        }
    }
}

/// Findings from the static memory analysis: proven cross-warp
/// conflicting access pairs (warning), provably uncoalesced strided
/// accesses (info), and accesses whose entire abstract address range
/// lies outside the launch's global memory (warning). The
/// out-of-bounds lint only fires on a *proof* — a range that merely
/// straddles the bound, or an unknown (`Top`) address, makes no
/// claim — so imprecision never produces false warnings.
fn mem_lints(mem: &memabs::MemAbs, launch: Option<&LaunchInfo>, diags: &mut Vec<Diagnostic>) {
    for race in &mem.races {
        if !race.must {
            continue;
        }
        let what = if race.other_is_store { "store" } else { "load" };
        diags.push(Diagnostic::new(
            LintKind::CrossWarpRace,
            Some(race.store_pc),
            None,
            format!(
                "store provably touches the same word as the {what} at @{} \
                 in another warp: the result depends on warp-scheduling order",
                race.other_pc
            ),
        ));
    }
    for site in &mem.sites {
        if site.min_transactions >= 2 {
            diags.push(Diagnostic::new(
                LintKind::UncoalescedAccess,
                Some(site.pc),
                Some(site.base),
                format!(
                    "{} {} (lane stride {}) needs at least {} memory transactions \
                     per warp dispatch",
                    site.pattern.name(),
                    if site.is_store { "store" } else { "load" },
                    match site.pattern {
                        memabs::AccessPattern::Strided(s) => s,
                        _ => 0,
                    },
                    site.min_transactions,
                ),
            ));
        }
        if let Some(mw) = launch.and_then(|l| l.mem_words) {
            if provably_out_of_bounds(site, mw) {
                diags.push(Diagnostic::new(
                    LintKind::PossibleOutOfBounds,
                    Some(site.pc),
                    Some(site.base),
                    format!(
                        "abstract address {} lies entirely outside global memory \
                         (0..{mw} words): every dispatch of this access faults",
                        site.address
                    ),
                ));
            }
        }
    }
}

/// Whether every address the site can generate provably misses
/// `[0, mem_words)`. Only lane-determined or fully-ranged shapes can
/// prove this; anything imprecise returns `false`.
fn provably_out_of_bounds(site: &memabs::MemSite, mem_words: u64) -> bool {
    let mw = i64::try_from(mem_words).unwrap_or(i64::MAX);
    match site.address.per_lane_range() {
        // The whole per-lane range misses [0, mw): negative-only
        // (reinterpreted as an address ≥ 2³¹, past any memory this
        // size) or past the end.
        Some(r) => (r.hi < 0 && mem_words <= 1 << 31) || r.lo >= mw,
        None => false,
    }
}

/// Info-severity findings for branches the ahead-of-time issue
/// scheduler ([`schedule_kernel`]) provably cannot resolve: predicates
/// (transitively) data-dependent on memory loads.
///
/// A load-taint fixpoint over the reaching definitions
/// over-approximates the scheduler's per-warp replay losing a register
/// value: a definition is tainted if it is a load, if any source
/// register has a tainted reaching definition, or — when the write can
/// execute under a partial thread mask (a divergent region, or any
/// launch with partial trailing warps) — if the *merged-over* old value
/// of the destination has a tainted reaching definition. Every
/// [`ScheduleBail::UnknownPredicate`] pc is flagged here (the converse
/// does not hold: the scheduler may still resolve a tainted predicate
/// through the abstract per-lane range, and fuel exhaustion is a
/// dynamic property no taint analysis sees).
///
/// The memory analysis sharpens the fixpoint: a load the forwarding
/// analysis proves always reads back its own warp's must-available
/// store ([`memabs::MemAbs::forwardable`]) is *not* inherently
/// tainted — the replay resolves it from its shadow memory — so its
/// taint reduces to that of the matched store's operands. This is
/// what lets provably non-aliasing load-dependent regions become
/// statically schedulable. The memory-cell analysis sharpens it
/// further: a load whose whole abstract address range is in-bounds and
/// store-free ([`memcell::MemCells::resolvable`]) resolves every lane
/// concretely from the initial-memory image, so it is not inherently
/// tainted either (its taint reduces to that of the address operands,
/// which `src_taint` already covers).
#[allow(clippy::too_many_arguments)]
fn unschedulable_region_lints(
    instrs: &[Instruction],
    cfg: &Cfg,
    rd: &ReachingDefs,
    prediction: &KernelPrediction,
    launch: Option<&LaunchInfo>,
    mem: &memabs::MemAbs,
    cells: &memcell::MemCells,
    diags: &mut Vec<Diagnostic>,
) {
    // With a launch whose blocks split into full warps only, partial
    // masks require divergence; otherwise the trailing warp of every
    // block merges every write.
    let partial_warps = launch
        .and_then(|l| l.threads_per_block)
        .is_none_or(|t| t % bdi::WARP_SIZE as u32 != 0);
    let mut tainted = vec![false; instrs.len()];
    let def_tainted = |tainted: &[bool], at: usize, reg: u8| {
        rd.defs_reaching(at, reg)
            .iter()
            .any(|d| d.pc.is_some_and(|p| tainted[p]))
    };
    let mut changed = true;
    while changed {
        changed = false;
        for (pc, instr) in instrs.iter().enumerate() {
            if tainted[pc] || !cfg.is_reachable(pc) {
                continue;
            }
            let Some(dst) = instr.dst() else {
                continue;
            };
            let src_taint = instr
                .src_regs()
                .into_iter()
                .any(|r| def_tainted(&tainted, pc, r.index() as u8));
            let masked_merge =
                partial_warps || prediction.site_at(pc).is_some_and(|s| s.divergent_region);
            let merge_taint = masked_merge && def_tainted(&tainted, pc, dst.index() as u8);
            // A statically forwardable load is only as tainted as the
            // store it forwards from: the replay needs the store's
            // address and value to populate its shadow.
            let load_taint = match instr {
                // An image-resolvable load is as clean as its address
                // operands (covered by `src_taint`): the replay reads
                // every lane straight from the store-free image.
                Instruction::Ld { .. } if cells.resolvable.contains(&pc) => false,
                Instruction::Ld { .. } => match mem.forwardable.get(&pc) {
                    Some(&s_pc) => instrs[s_pc]
                        .src_regs()
                        .into_iter()
                        .any(|r| def_tainted(&tainted, s_pc, r.index() as u8)),
                    None => true,
                },
                _ => false,
            };
            if load_taint || src_taint || merge_taint {
                tainted[pc] = true;
                changed = true;
            }
        }
    }
    for (pc, instr) in instrs.iter().enumerate() {
        let Instruction::Bra { pred, .. } = instr else {
            continue;
        };
        if !cfg.is_reachable(pc) {
            continue;
        }
        if def_tainted(&tainted, pc, pred.index() as u8) {
            diags.push(Diagnostic::new(
                LintKind::UnschedulableRegion,
                Some(pc),
                Some(pred.index() as u8),
                "branch predicate depends on loaded data: the static issue \
                 scheduler cannot resolve this region and falls back to the \
                 dynamic core"
                    .into(),
            ));
        }
    }
}

/// The lints `Kernel::new` also enforces: emptiness, target and
/// register ranges, and falling off the end.
fn structural_lints(instrs: &[Instruction], num_regs: u8, diags: &mut Vec<Diagnostic>) {
    if instrs.is_empty() {
        diags.push(Diagnostic::new(
            LintKind::EmptyKernel,
            None,
            None,
            "kernel has no instructions".into(),
        ));
        return;
    }
    for (pc, instr) in instrs.iter().enumerate() {
        for r in instr.src_regs().into_iter().chain(instr.dst()) {
            if r.index() >= usize::from(num_regs) {
                diags.push(Diagnostic::new(
                    LintKind::RegisterOutOfRange,
                    Some(pc),
                    Some(r.index() as u8),
                    format!(
                        "references r{} but the kernel declares {num_regs} registers",
                        r.index()
                    ),
                ));
            }
        }
        let targets: Vec<usize> = match instr.control_flow() {
            ControlFlow::Branch { target, reconv } => vec![target, reconv],
            ControlFlow::Jump { target } => vec![target],
            _ => Vec::new(),
        };
        for t in targets {
            if t >= instrs.len() {
                diags.push(Diagnostic::new(
                    LintKind::TargetOutOfRange,
                    Some(pc),
                    None,
                    format!("targets out-of-range pc @{t}"),
                ));
            }
        }
    }
    let last = instrs.len() - 1;
    if matches!(
        instrs[last].control_flow(),
        ControlFlow::FallThrough | ControlFlow::Branch { .. }
    ) {
        diags.push(Diagnostic::new(
            LintKind::FallsOffEnd,
            Some(last),
            None,
            "execution can fall off the end of the kernel".into(),
        ));
    }
}

/// `exit` reachability and unreachable-code runs.
fn reachability_lints(instrs: &[Instruction], cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    let any_exit_reachable = instrs
        .iter()
        .enumerate()
        .any(|(pc, i)| matches!(i, Instruction::Exit) && cfg.is_reachable(pc));
    if !any_exit_reachable {
        diags.push(Diagnostic::new(
            LintKind::ExitUnreachable,
            None,
            None,
            "no `exit` is reachable from entry: every warp would hang".into(),
        ));
    }
    // One diagnostic per contiguous unreachable run, not per pc.
    let mut pc = 0;
    while pc < instrs.len() {
        if cfg.is_reachable(pc) {
            pc += 1;
            continue;
        }
        let start = pc;
        while pc < instrs.len() && !cfg.is_reachable(pc) {
            pc += 1;
        }
        diags.push(Diagnostic::new(
            LintKind::UnreachableCode,
            Some(start),
            None,
            format!(
                "{} instruction(s) at @{start}..@{} can never execute",
                pc - start,
                pc - 1
            ),
        ));
    }
}

/// Balanced divergence/reconvergence nesting.
///
/// For each reachable branch, the *divergence region* is everything
/// reachable from its two successors without passing through its
/// reconvergence pc — the pcs one half of the warp can occupy while the
/// other half is parked at `reconv`. Two things must hold:
///
/// * every pc in the region can still reach `reconv` or an `exit`
///   (otherwise the parked half waits forever: deadlock),
/// * no branch inside the region can carry its threads *across* the
///   outer reconvergence point while its own (different) reconvergence
///   entry sits on top of the SIMT stack — the stack pops in LIFO
///   order, so crossing an outer reconvergence pc under an inner entry
///   means the parked outer half is never merged with.
fn divergence_lints(instrs: &[Instruction], cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    let exits: Vec<usize> = instrs
        .iter()
        .enumerate()
        .filter_map(|(pc, i)| matches!(i, Instruction::Exit).then_some(pc))
        .collect();
    for &(bra_pc, reconv) in cfg.reconv_edges() {
        if !cfg.is_reachable(bra_pc) {
            continue;
        }
        let ControlFlow::Branch { target, .. } = instrs[bra_pc].control_flow() else {
            continue;
        };
        let region = cfg.region(&[target, bra_pc + 1], reconv);
        let mut escape_seeds = exits.clone();
        escape_seeds.push(reconv);
        let can_escape = cfg.reaches_any(&escape_seeds);
        if let Some(stuck) = (0..instrs.len()).find(|&q| region[q] && !can_escape[q]) {
            diags.push(Diagnostic::new(
                LintKind::DivergenceDeadlock,
                Some(bra_pc),
                None,
                format!(
                    "divergent path reaches @{stuck}, which can reach neither the \
                     reconvergence point @{reconv} nor an exit"
                ),
            ));
        }
        for q in 0..instrs.len() {
            if !region[q] || q == bra_pc {
                continue;
            }
            let ControlFlow::Branch {
                target: inner_target,
                reconv: inner_reconv,
            } = instrs[q].control_flow()
            else {
                continue;
            };
            if inner_reconv == reconv {
                continue;
            }
            // Pcs the inner branch's threads can occupy while its entry
            // (reconv `inner_reconv`) is on top of the stack. If the
            // outer reconvergence point is among them, threads cross it
            // without popping down to the outer entry.
            let inner_region = cfg.region(&[inner_target, q + 1], inner_reconv);
            if inner_region[reconv] {
                diags.push(Diagnostic::new(
                    LintKind::ReconvergenceEscape,
                    Some(q),
                    None,
                    format!(
                        "divergent threads of this branch (reconv @{inner_reconv}) can \
                         cross @{reconv}, the reconvergence point of the enclosing \
                         branch at @{bra_pc}, breaking stack-ordered reconvergence"
                    ),
                ));
            }
        }
    }
}

/// Reads of registers whose entry (zero) definition may still reach.
fn use_before_def_lints(
    instrs: &[Instruction],
    cfg: &Cfg,
    rd: &ReachingDefs,
    diags: &mut Vec<Diagnostic>,
) {
    for (pc, instr) in instrs.iter().enumerate() {
        if !cfg.is_reachable(pc) {
            continue;
        }
        let mut seen = RegSet::EMPTY;
        for r in instr.src_regs() {
            let reg = r.index() as u8;
            if seen.insert(reg) && rd.entry_def_reaches(pc, reg) {
                diags.push(Diagnostic::new(
                    LintKind::UseBeforeDef,
                    Some(pc),
                    Some(reg),
                    format!("r{reg} may be read before any instruction writes it"),
                ));
            }
        }
    }
}

/// Writes whose value no future instruction can observe.
fn dead_write_lints(instrs: &[Instruction], cfg: &Cfg, lv: &Liveness, diags: &mut Vec<Diagnostic>) {
    for (pc, instr) in instrs.iter().enumerate() {
        if !cfg.is_reachable(pc) {
            continue;
        }
        if let Some(dst) = instr.dst() {
            let reg = dst.index() as u8;
            if !lv.live_out(pc).contains(reg) {
                diags.push(Diagnostic::new(
                    LintKind::DeadWrite,
                    Some(pc),
                    Some(reg),
                    format!("r{reg} is written here but the value is never read"),
                ));
            }
        }
    }
}
