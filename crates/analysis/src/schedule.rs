//! Ahead-of-time issue scheduling: the static stack as an optimizer.
//!
//! The analyses built so far — reaching-def dependence edges, absint
//! compression classes, the perfbound pipeline-timing DP — only ever
//! *bound* the dynamic simulator. This module turns them into a
//! compiler: [`schedule_kernel`] consumes the same launch-specialised
//! per-warp replay ([`WarpReplay`](crate::trace::WarpReplay)) the
//! performance bound uses and emits an [`IssuePlan`] — a per-warp,
//! per-PC static issue slot and operand-fetch ordering that provably
//! respects
//!
//! * RAW/WAW/WAR hazards and per-warp program order (the
//!   [`TimingState`](crate::trace::TimingState) rules, which are a
//!   relaxation of the engine's scoreboard: every constraint the plan
//!   honours is one the hardware also enforces),
//! * compression/decompression latencies (charged conservatively: any
//!   operand *not proven* uncompressed pays the decompressor),
//! * the operand-collector cluster mapping (`max(1, k)` serialized
//!   fetch cycles per instruction — all of one warp's fetches claim
//!   its cluster's base bank),
//! * the issue ports (at most one instruction per scheduler per cycle,
//!   warp → scheduler by `slot % num_schedulers`, greedy-then-oldest
//!   pick order like the engine's GTO),
//! * the compressor ports (at most `num_compressors` compression
//!   passes *start* per cycle, arbitrated ahead of time),
//! * block-wave residency (a block launches when `warps_per_block`
//!   register-file slots are free; slots are reused only after the
//!   previous warp's last planned event).
//!
//! The plan is *executable*: `gpu-sim`'s `scheduled` mode replays it
//! with the dynamic scoreboard and collector arbitration bypassed,
//! re-checking every hazard rule statically and the SIMT stack
//! (pc/mask) at runtime. Three soundness properties gate the result:
//!
//! 1. final register state is bit-identical to the dynamic core,
//! 2. `total_cycles` ≥ the perfbound static floor — true *by
//!    construction* (per-warp commit times dominate the perfbound DP,
//!    the issue-port cap dominates the issue-width floor, the
//!    compressor cap dominates the compressor-port floor),
//! 3. `total_cycles` ≤ dynamic cycles + a documented slack — checked
//!    per run by `warped_compression::schedule`.
//!
//! Kernels whose branches the replay cannot resolve (data-dependent
//! predicates, fuel exhaustion) **bail** with a [`ScheduleBail`]; the
//! `unschedulable-region` lint over-approximates that set statically,
//! and such kernels fall back to the dynamic engine. This is the DICE
//! direction from PAPERS.md: SIMT workloads with statically known
//! dependence and divergence structure don't need dynamic issue
//! hardware at all.

use std::collections::BTreeMap;
use std::fmt;

use bdi::BdiCodec;
use simt_isa::Kernel;

use crate::launch::LaunchAnalysis;
use crate::perfbound::{PerfLaunch, PerfMachine};
use crate::trace::{LossReason, StepOutcome, TimingState, TraceStep, WarpReplay};

/// One statically scheduled instruction of one warp. The cycle fields
/// are absolute (plan-global); the replayer executes them verbatim and
/// re-derives the hazard rules as a static pre-check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedInstr {
    /// The pc this step executes (checked against the real SIMT stack
    /// at issue).
    pub pc: usize,
    /// The active thread mask it must execute under (checked at issue).
    pub mask: u32,
    /// The engine's divergence predicate at issue.
    pub divergent: bool,
    /// Issue cycle (stack advance for non-branches; collector-less
    /// `jmp`/`exit` complete here).
    pub issue: u64,
    /// Operand-capture cycle (`issue + max(1, k)` serialized fetches);
    /// `None` for `jmp`/`exit`. Branches resolve here, memory
    /// instructions access memory here.
    pub dispatch: Option<u64>,
    /// Writeback cycle; `None` when nothing is written back.
    pub retire: Option<u64>,
    /// Operand fetch order: unique source registers, first-use order.
    pub sources: Vec<usize>,
    /// Destination register, if any.
    pub dst: Option<usize>,
    /// Whether the writeback passes through the compressor.
    pub compresses: bool,
    /// Decompression latency charged into `retire` (non-zero whenever
    /// any operand was not *proven* to be stored uncompressed).
    pub decomp_cycles: u64,
    /// Compressor latency charged into `retire` (0 = compressor
    /// bypassed). The compressor port is occupied starting at
    /// `retire − comp_cycles`.
    pub comp_cycles: u64,
}

/// The static schedule of one warp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarpPlan {
    /// Block index in the grid.
    pub block: usize,
    /// Warp index within the block.
    pub warp_in_block: usize,
    /// Register-file slot (and scheduler: `slot % num_schedulers`,
    /// cluster: `slot % num_clusters`) the warp occupies.
    pub slot: usize,
    /// Global launch order (the GTO age key).
    pub launch_seq: u64,
    /// Cycle the warp's registers are allocated; no step issues before
    /// it.
    pub launch_cycle: u64,
    /// Cycle the slot is released — strictly after every planned event
    /// of this warp, so slot reuse never overlaps lifetimes.
    pub free_cycle: u64,
    /// The warp's instruction stream, in issue order.
    pub steps: Vec<PlannedInstr>,
}

/// A complete ahead-of-time issue schedule for one kernel × launch ×
/// machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IssuePlan {
    /// Kernel name.
    pub kernel: String,
    /// Issue ports the plan was arbitrated for.
    pub num_schedulers: usize,
    /// Compressor ports the plan was arbitrated for.
    pub num_compressors: usize,
    /// Register-file residency the plan was laid out for.
    pub max_resident_warps: usize,
    /// Warps per block at the architectural warp size.
    pub warps_per_block: usize,
    /// Plan makespan: one past the last planned event; the scheduled
    /// backend finishes in exactly this many cycles.
    pub total_cycles: u64,
    /// Instructions planned across all warps (equals the perfbound
    /// instruction floor — the same replay produced both).
    pub planned_instructions: u64,
    /// Compression passes the plan charges (and arbitrates ports for).
    pub compressor_activations: u64,
    /// Decompressor activations the replay *proved* (operands known
    /// stored-compressed; operands with unknown stored form are
    /// latency-charged but not counted).
    pub decompressor_activations: u64,
    /// Per-warp schedules, in `(block, warp_in_block)` order.
    pub warps: Vec<WarpPlan>,
}

impl IssuePlan {
    /// The plan of warp `warp_in_block` of `block`.
    pub fn warp(&self, block: usize, warp_in_block: usize) -> Option<&WarpPlan> {
        self.warps.get(block * self.warps_per_block + warp_in_block)
    }
}

/// Why a kernel cannot be statically scheduled. Such kernels fall back
/// to the dynamic engine; the `unschedulable-region` lint flags the
/// predicate-driven cases ahead of time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleBail {
    /// A branch predicate was neither concretely replayable nor
    /// absint-resolvable: the issue order depends on runtime data.
    UnknownPredicate {
        /// The branch pc.
        pc: usize,
        /// Block whose replay hit the unresolvable branch.
        block: usize,
        /// Warp index within that block.
        warp: usize,
    },
    /// The replay's instruction budget ran out (extreme trip counts).
    FuelExhausted {
        /// The pc the replay stopped at.
        pc: usize,
        /// Block whose replay ran out of fuel.
        block: usize,
        /// Warp index within that block.
        warp: usize,
    },
    /// One block needs more register-file slots than the machine has.
    BlockTooLarge {
        /// Warps per block of the launch.
        warps_needed: usize,
        /// Resident-warp slots available.
        slots_available: usize,
    },
}

impl ScheduleBail {
    /// The pc precision was lost at, for the predicate-driven reasons.
    pub fn pc(&self) -> Option<usize> {
        match *self {
            ScheduleBail::UnknownPredicate { pc, .. } | ScheduleBail::FuelExhausted { pc, .. } => {
                Some(pc)
            }
            ScheduleBail::BlockTooLarge { .. } => None,
        }
    }
}

impl fmt::Display for ScheduleBail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScheduleBail::UnknownPredicate { pc, block, warp } => write!(
                f,
                "branch predicate at @{pc} (block {block}, warp {warp}) is not statically resolvable"
            ),
            ScheduleBail::FuelExhausted { pc, block, warp } => {
                write!(f, "replay fuel exhausted at @{pc} (block {block}, warp {warp})")
            }
            ScheduleBail::BlockTooLarge {
                warps_needed,
                slots_available,
            } => write!(
                f,
                "block needs {warps_needed} warp slots but only {slots_available} exist"
            ),
        }
    }
}

impl std::error::Error for ScheduleBail {}

fn bail_of(reason: LossReason, block: usize, warp: usize) -> ScheduleBail {
    match reason {
        LossReason::UnknownPredicate { pc } => ScheduleBail::UnknownPredicate { pc, block, warp },
        LossReason::FuelExhausted { pc } => ScheduleBail::FuelExhausted { pc, block, warp },
    }
}

#[derive(Clone, Copy)]
struct SlotState {
    free_at: u64,
    occupied: bool,
}

struct Resident<'a> {
    slot: usize,
    block: usize,
    warp_in_block: usize,
    launch_seq: u64,
    launch_cycle: u64,
    replay: WarpReplay<'a>,
    timing: TimingState,
    pending: Option<TraceStep>,
    /// The first cycle `pending` may issue: its hazard-feasible cycle
    /// ([`TimingState::earliest`]), and never before the launch. The
    /// hazards are per-warp only, so it changes only when this warp
    /// issues; `None` once the warp has nothing pending.
    ready: Option<u64>,
    steps: Vec<PlannedInstr>,
}

impl Resident<'_> {
    fn update_ready(&mut self) {
        self.ready = self
            .pending
            .as_ref()
            .map(|step| self.timing.earliest(&step.instr).max(self.launch_cycle));
    }
}

/// Compiles `kernel` × `launch` × `machine` into an [`IssuePlan`], or
/// bails when the issue order is not statically determined.
///
/// `max_resident_warps` is the register-file residency of the target
/// machine (`min(max_warps_per_sm, RegisterFile::max_slots)`); the plan
/// launches blocks in waves within it, mirroring the engine's
/// first-free-slots-in-index-order allocation.
///
/// The scheduler is a deterministic greedy list scheduler over the
/// shared per-warp replay: at each cycle each issue port picks, in
/// greedy-then-oldest order, one resident warp whose next instruction
/// is hazard-feasible ([`TimingState::earliest`]) and whose compressor
/// reservation (if any) fits the per-cycle port cap, then commits the
/// instruction's event cycles ([`TimingState::commit_at`]). Time skips
/// straight to the next feasible event when no port can fire.
pub fn schedule_kernel(
    kernel: &Kernel,
    launch: &PerfLaunch,
    machine: &PerfMachine,
    max_resident_warps: usize,
) -> Result<IssuePlan, ScheduleBail> {
    let analysis = LaunchAnalysis::new(kernel, Some(&launch.absint_info()));
    schedule_kernel_with(kernel, launch, machine, max_resident_warps, &analysis)
}

/// Like [`schedule_kernel`], reading the memory cells and the address
/// abstraction from `analysis`, which must have been built from
/// `kernel` under `launch` ([`PerfLaunch::absint_info`]).
pub fn schedule_kernel_with(
    kernel: &Kernel,
    launch: &PerfLaunch,
    machine: &PerfMachine,
    max_resident_warps: usize,
    analysis: &LaunchAnalysis,
) -> Result<IssuePlan, ScheduleBail> {
    debug_assert!(analysis.describes(launch), "analysis of another launch");
    let instrs = kernel.instrs();
    let num_regs = usize::from(kernel.num_regs()).max(1);
    let wpb = launch.warps_per_block();
    if wpb > max_resident_warps {
        return Err(ScheduleBail::BlockTooLarge {
            warps_needed: wpb,
            slots_available: max_resident_warps,
        });
    }
    // The memory-cell analysis carries the absint fixpoint, refined
    // through the verified per-word value table whenever the launch
    // supplies its full initial-memory image: loads from never-stored
    // uniform tables become statically known, so table-driven trip
    // counts and predicates resolve instead of bailing.
    let cells = &analysis.cells;
    let absint = &cells.absint;
    let codec = BdiCodec::new(machine.choices.clone());
    // Precision payoff of the address abstraction: when no two warps
    // can touch the same word with a store involved, each warp's view
    // of memory is exactly its own stores, so the replay may forward
    // known stored values into loads instead of going opaque.
    let forward_mem = analysis.mem.warp_isolated();

    let total_warps = launch.blocks * wpb;
    let mut plans: Vec<Option<WarpPlan>> = (0..total_warps).map(|_| None).collect();
    let mut slots = vec![
        SlotState {
            free_at: 0,
            occupied: false
        };
        max_resident_warps
    ];
    let mut residents: Vec<Option<Resident>> = (0..max_resident_warps).map(|_| None).collect();
    // Per issue port, its resident slots in launch order (the GTO age
    // order): appended at launch, removed at drain.
    let mut by_age: Vec<Vec<usize>> = vec![Vec::new(); machine.num_schedulers];
    let mut sched_last: Vec<Option<usize>> = vec![None; machine.num_schedulers];
    let mut comp_starts: BTreeMap<u64, u32> = BTreeMap::new();
    let mut free: Vec<usize> = Vec::with_capacity(max_resident_warps);
    let mut frees: Vec<u64> = Vec::with_capacity(max_resident_warps);
    let mut next_block = 0usize;
    let mut launch_seq = 0u64;
    let mut finished = 0usize;
    let mut planned_instructions = 0u64;
    let mut compressor_activations = 0u64;
    let mut decompressor_activations = 0u64;

    let mut t = 0u64;
    while finished < total_warps {
        // Block-wave launches: the engine launches the next block when
        // `wpb` slots are free, taking the first free slots in index
        // order.
        while next_block < launch.blocks {
            free.clear();
            free.extend(
                slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.occupied && s.free_at <= t)
                    .map(|(i, _)| i)
                    .take(wpb),
            );
            if free.len() < wpb {
                break;
            }
            for (w, &slot) in free.iter().enumerate() {
                let mut replay = WarpReplay::new(
                    machine, &codec, launch, absint, instrs, num_regs, next_block, w,
                );
                if forward_mem {
                    replay.enable_memory_forwarding();
                }
                replay.enable_initial_image(cells);
                let pending = match replay.step() {
                    StepOutcome::Done => None,
                    StepOutcome::Step(s) => Some(s),
                    StepOutcome::Lost(r) => return Err(bail_of(r, next_block, w)),
                };
                slots[slot].occupied = true;
                let mut r = Resident {
                    slot,
                    block: next_block,
                    warp_in_block: w,
                    launch_seq,
                    launch_cycle: t,
                    replay,
                    timing: TimingState::new(num_regs),
                    pending,
                    ready: None,
                    steps: Vec::new(),
                };
                r.update_ready();
                residents[slot] = Some(r);
                by_age[slot % machine.num_schedulers].push(slot);
                launch_seq += 1;
            }
            next_block += 1;
        }

        // Issue phase: each port fires at most once per cycle, greedy-
        // then-oldest (the engine's GTO), skipping warps whose
        // compressor reservation would overflow a port cycle.
        for (last, ages) in sched_last.iter_mut().zip(&mut by_age) {
            let greedy = last.filter(|&s| residents[s].is_some());
            let oldest = ages.iter().copied().filter(|&s| Some(s) != *last);
            let pick = greedy.into_iter().chain(oldest).find_map(|slot| {
                let r = residents[slot].as_ref().expect("resident in age list");
                let step = r.pending.as_ref()?;
                if r.ready? > t {
                    return None;
                }
                let decomp = if step.sources.iter().any(|f| f.compressed != Some(false)) {
                    machine.decompression_latency
                } else {
                    0
                };
                let comp = if step.compresses {
                    machine.compression_latency
                } else {
                    0
                };
                let mut comp_start = None;
                if step.compresses {
                    let k = step.sources.len() as u64;
                    let dispatch = t + k.max(1);
                    let retire =
                        dispatch + machine.latency_of(step.instr.latency_class()) + decomp + comp;
                    let start = retire - comp;
                    if comp_starts.get(&start).copied().unwrap_or(0)
                        >= machine.num_compressors as u32
                    {
                        return None; // port full at that cycle; try another warp
                    }
                    comp_start = Some(start);
                }
                Some((slot, decomp, comp, comp_start))
            });
            let Some((slot, decomp, comp, comp_start)) = pick else {
                continue;
            };
            let r = residents[slot].as_mut().expect("picked resident");
            let step = r.pending.take().expect("picked with a pending step");
            if let Some(start) = comp_start {
                *comp_starts.entry(start).or_insert(0) += 1;
                compressor_activations += 1;
            }
            let times = r.timing.commit_at(t, &step.instr, machine, decomp, comp);
            if step.sources.iter().any(|f| f.compressed == Some(true)) {
                decompressor_activations += 1;
            }
            r.steps.push(PlannedInstr {
                pc: step.pc,
                mask: step.mask,
                divergent: step.divergent,
                issue: times.issue,
                dispatch: times.dispatch,
                retire: times.retire,
                sources: step.sources.iter().map(|f| f.reg).collect(),
                dst: step.dst,
                compresses: step.compresses,
                decomp_cycles: decomp,
                comp_cycles: comp,
            });
            planned_instructions += 1;
            match r.replay.step() {
                StepOutcome::Step(s) => r.pending = Some(s),
                StepOutcome::Done => r.pending = None,
                StepOutcome::Lost(reason) => return Err(bail_of(reason, r.block, r.warp_in_block)),
            }
            r.update_ready();
            if r.pending.is_none() {
                let r = residents[slot].take().expect("drained resident");
                ages.retain(|&s| s != slot);
                let free_cycle = r.timing.end().max(r.launch_cycle) + 1;
                slots[slot] = SlotState {
                    free_at: free_cycle,
                    occupied: false,
                };
                let gid = r.block * wpb + r.warp_in_block;
                plans[gid] = Some(WarpPlan {
                    block: r.block,
                    warp_in_block: r.warp_in_block,
                    slot: r.slot,
                    launch_seq: r.launch_seq,
                    launch_cycle: r.launch_cycle,
                    free_cycle,
                    steps: r.steps,
                });
                finished += 1;
                if *last == Some(slot) {
                    *last = None;
                }
            } else {
                *last = Some(slot);
            }
        }

        if finished >= total_warps {
            break;
        }

        // Skip ahead to the next cycle anything can happen.
        let mut next = residents
            .iter()
            .flatten()
            .filter_map(|r| r.ready)
            .map(|ready| ready.max(t + 1))
            .min()
            .unwrap_or(u64::MAX);
        if next_block < launch.blocks {
            frees.clear();
            frees.extend(slots.iter().filter(|s| !s.occupied).map(|s| s.free_at));
            if frees.len() >= wpb {
                let (_, &mut nth, _) = frees.select_nth_unstable(wpb - 1);
                next = next.min(nth.max(t + 1));
            }
        }
        debug_assert_ne!(next, u64::MAX, "scheduler made no progress");
        t = next;
    }

    let warps: Vec<WarpPlan> = plans
        .into_iter()
        .map(|p| p.expect("every warp scheduled"))
        .collect();
    let total_cycles = warps.iter().map(|w| w.free_cycle).max().unwrap_or(0);
    Ok(IssuePlan {
        kernel: kernel.name().to_string(),
        num_schedulers: machine.num_schedulers,
        num_compressors: machine.num_compressors,
        max_resident_warps,
        warps_per_block: wpb,
        total_cycles,
        planned_instructions,
        compressor_activations,
        decompressor_activations,
        warps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfbound::bound_kernel;
    use simt_isa::{AluOp, KernelBuilder, Operand, Reg, Special};

    fn straight_kernel() -> Kernel {
        let mut b = KernelBuilder::new("straight", 3);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.alu(AluOp::Mul, Reg(1), Reg(0).into(), Operand::Imm(2));
        b.alu(AluOp::Add, Reg(2), Reg(1).into(), Reg(0).into());
        b.st(Reg(0), 0, Reg(2));
        b.exit();
        b.build().unwrap()
    }

    fn loop_kernel() -> Kernel {
        let mut b = KernelBuilder::new("loop", 3);
        b.mov(Reg(0), Operand::Imm(0));
        b.mov(Reg(1), Operand::Imm(0));
        let head = b.here();
        b.alu(AluOp::Add, Reg(1), Reg(1).into(), Reg(0).into());
        b.alu(AluOp::Add, Reg(0), Reg(0).into(), Operand::Imm(1));
        b.alu(AluOp::SetLt, Reg(2), Reg(0).into(), Operand::Imm(10));
        let exit = b.label();
        b.bra(Reg(2), head, exit);
        b.bind(exit);
        b.exit();
        b.build().unwrap()
    }

    fn data_branch_kernel() -> Kernel {
        let mut b = KernelBuilder::new("data_branch", 2);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.ld(Reg(1), Reg(0), 0);
        let exit = b.label();
        b.bra(Reg(1), exit, exit);
        b.bind(exit);
        b.exit();
        b.build().unwrap()
    }

    fn check_invariants(plan: &IssuePlan, machine: &PerfMachine) {
        // Issue-port cap: at most one issue per scheduler per cycle.
        let mut per_port: BTreeMap<(u64, usize), u32> = BTreeMap::new();
        // Compressor cap: at most num_compressors starts per cycle.
        let mut per_comp: BTreeMap<u64, u32> = BTreeMap::new();
        for w in &plan.warps {
            let mut last_issue = None;
            for s in &w.steps {
                assert!(s.issue >= w.launch_cycle);
                let last = s.retire.or(s.dispatch).unwrap_or(s.issue);
                assert!(last < w.free_cycle, "event past slot free");
                if let Some(prev) = last_issue {
                    assert!(s.issue > prev, "one issue per warp per cycle");
                }
                last_issue = Some(s.issue);
                let port = w.slot % plan.num_schedulers;
                *per_port.entry((s.issue, port)).or_insert(0) += 1;
                if s.compresses {
                    let retire = s.retire.expect("compressing write retires");
                    *per_comp.entry(retire - s.comp_cycles).or_insert(0) += 1;
                }
            }
        }
        assert!(per_port.values().all(|&n| n <= 1));
        assert!(per_comp
            .values()
            .all(|&n| n <= machine.num_compressors as u32));
    }

    #[test]
    fn straight_kernel_schedules_above_floor() {
        let k = straight_kernel();
        let launch = PerfLaunch::new(2, 64);
        for machine in [PerfMachine::warped_compression(), PerfMachine::baseline()] {
            let plan = schedule_kernel(&k, &launch, &machine, 48).unwrap();
            let floor = bound_kernel(&k, &launch, &machine);
            assert!(plan.total_cycles >= floor.cycle_lower_bound);
            assert_eq!(plan.planned_instructions, floor.min_instructions);
            assert_eq!(plan.warps.len(), 4);
            check_invariants(&plan, &machine);
        }
    }

    #[test]
    fn loop_kernel_schedules_above_floor() {
        let k = loop_kernel();
        let launch = PerfLaunch::new(1, 32);
        for machine in [PerfMachine::warped_compression(), PerfMachine::baseline()] {
            let plan = schedule_kernel(&k, &launch, &machine, 48).unwrap();
            let floor = bound_kernel(&k, &launch, &machine);
            assert!(plan.total_cycles >= floor.cycle_lower_bound);
            assert_eq!(plan.planned_instructions, floor.min_instructions);
            check_invariants(&plan, &machine);
        }
    }

    #[test]
    fn data_dependent_branch_bails() {
        let k = data_branch_kernel();
        let launch = PerfLaunch::new(1, 32);
        let machine = PerfMachine::warped_compression();
        let err = schedule_kernel(&k, &launch, &machine, 48).unwrap_err();
        assert_eq!(
            err,
            ScheduleBail::UnknownPredicate {
                pc: 2,
                block: 0,
                warp: 0
            }
        );
    }

    /// Stores a known value then branches on loading it back: only the
    /// shadow-memory forwarding (armed by the warp-isolation proof)
    /// makes the predicate statically known.
    fn forwarded_branch_kernel() -> Kernel {
        let mut b = KernelBuilder::new("fwd_branch", 3);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.mov(Reg(1), Operand::Imm(1));
        b.st(Reg(0), 0, Reg(1));
        b.ld(Reg(2), Reg(0), 0);
        let exit = b.label();
        b.bra(Reg(2), exit, exit);
        b.bind(exit);
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn forwarded_load_branch_schedules_under_warp_isolation() {
        let k = forwarded_branch_kernel();
        let launch = PerfLaunch::new(2, 64);
        let machine = PerfMachine::warped_compression();
        let plan = schedule_kernel(&k, &launch, &machine, 48).unwrap();
        check_invariants(&plan, &machine);
        assert_eq!(plan.warps.len(), 4);
        let floor = bound_kernel(&k, &launch, &machine);
        assert!(plan.total_cycles >= floor.cycle_lower_bound);
    }

    #[test]
    fn oversized_block_bails() {
        let k = straight_kernel();
        let launch = PerfLaunch::new(1, 256); // 8 warps per block
        let machine = PerfMachine::warped_compression();
        let err = schedule_kernel(&k, &launch, &machine, 4).unwrap_err();
        assert_eq!(
            err,
            ScheduleBail::BlockTooLarge {
                warps_needed: 8,
                slots_available: 4
            }
        );
    }

    #[test]
    fn schedule_is_deterministic() {
        let k = loop_kernel();
        let launch = PerfLaunch::new(3, 96);
        let machine = PerfMachine::warped_compression();
        let a = schedule_kernel(&k, &launch, &machine, 48).unwrap();
        let b = schedule_kernel(&k, &launch, &machine, 48).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn residency_waves_respect_slot_lifetimes() {
        let k = straight_kernel();
        // 4 blocks × 2 warps with only 2 slots: blocks run in waves.
        let launch = PerfLaunch::new(4, 64);
        let machine = PerfMachine::warped_compression();
        let plan = schedule_kernel(&k, &launch, &machine, 2).unwrap();
        assert_eq!(plan.warps.len(), 8);
        check_invariants(&plan, &machine);
        // Per slot, lifetimes [launch, free) must be disjoint.
        let mut by_slot: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for w in &plan.warps {
            by_slot
                .entry(w.slot)
                .or_default()
                .push((w.launch_cycle, w.free_cycle));
        }
        for spans in by_slot.values_mut() {
            spans.sort_unstable();
            for pair in spans.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "overlapping slot lifetimes");
            }
        }
    }
}
