//! Scheduled execution: replay an ahead-of-time [`IssuePlan`] with the
//! dynamic scoreboard and collector arbitration bypassed.
//!
//! `simt-analysis`'s scheduler compiles a kernel × launch × machine
//! into absolute per-warp event cycles (issue / dispatch / retire).
//! This module executes that plan on the dynamic engine's own datapath
//! ([`crate::datapath`]: the banked register file, the BDI codec, the
//! lane evaluator, global memory) and the shared SIMT stack, while
//! replacing the scoreboard with a **slot checker**:
//!
//! * a static pre-check re-derives every hazard rule the scheduler
//!   claims to have honoured (RAW/WAW/WAR windows, collector
//!   serialization, issue-port and compressor-port caps, slot-lifetime
//!   disjointness) directly from the plan's cycles, independently of
//!   the scheduler's own bookkeeping;
//! * at runtime each issue is checked against the warp's live SIMT
//!   stack (pc **and** active mask must match the plan exactly), each
//!   operand fetch is checked against the stored compression state (an
//!   operand found compressed when the plan charged no decompression
//!   latency is an error), and branches resolve with real register
//!   values at their planned dispatch cycle.
//!
//! Any mismatch is a hard [`SimError::Plan`] — an unsound plan never
//! silently produces numbers.
//!
//! Differences from the dynamic engine, by design:
//!
//! * **No dummy MOVs.** The §5.2 policy stores divergent writes
//!   uncompressed; the dynamic engine gets there by injecting a
//!   decompress-in-place MOV. The replayer simply stores the merged
//!   value uncompressed — architecturally identical state, zero extra
//!   instructions. This is the DICE-style win static scheduling buys.
//! * **Static pre-wake.** Power-gated banks are modelled with zero
//!   wake-up latency: the plan's cycles are the wake schedule. Gated
//!   cycles are still counted for the energy model.
//! * **Provisioned decompressors.** The plan serializes each warp's
//!   operand fetches but does not arbitrate the decompressor pool
//!   across warps; activations are counted, the per-cycle cap is
//!   assumed provisioned.
//! * **No memory traffic.** Loads and stores take effect, but no
//!   coalescer traffic is recorded.
//!
//! Replay is event-driven: events execute in `(cycle, kind, slot)`
//! order with retires before dispatches before slot frees before
//! allocations before issues, so a dependent issue can share a cycle
//! with the branch resolution or slot handoff it waits on.

use std::collections::{BTreeMap, HashMap};

use bdi::{CompressedRegister, WarpRegister};
use gpu_regfile::{WarpSlot, WriteError};
use simt_analysis::IssuePlan;
use simt_isa::{Instruction, Kernel, LatencyClass, SimtStack};

use crate::config::{DivergencePolicy, GpuConfig};
use crate::datapath::{self, Datapath, Effect, Fetch, Lanes, PendingWrite};
use crate::launch::LaunchConfig;
use crate::memory::GlobalMemory;
use crate::sm::{FinalRegs, GpuSim, SimError};
use crate::stats::SimStats;

/// Result of a scheduled replay.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduledResult {
    /// Replay statistics; `stats.cycles` equals the plan's makespan.
    pub stats: SimStats,
    /// Final architectural register state of every warp, captured at
    /// its planned drain — compared bit-for-bit against the dynamic
    /// core's [`run_capturing`](GpuSim::run_capturing).
    pub final_regs: FinalRegs,
}

fn plan_err(message: impl Into<String>) -> SimError {
    SimError::Plan {
        kernel: String::new(),
        warp: None,
        pc: None,
        message: message.into(),
    }
}

/// A plan rejection attributed to one warp (global index).
fn plan_err_warp(warp: usize, message: impl Into<String>) -> SimError {
    SimError::Plan {
        kernel: String::new(),
        warp: Some(warp),
        pc: None,
        message: message.into(),
    }
}

/// A plan rejection attributed to one planned step (warp + pc).
fn plan_err_at(warp: usize, pc: usize, message: impl Into<String>) -> SimError {
    SimError::Plan {
        kernel: String::new(),
        warp: Some(warp),
        pc: Some(pc),
        message: message.into(),
    }
}

/// Fills the kernel name into a plan rejection bubbling out of
/// validation or replay, so triage output is self-describing.
fn tag_plan_kernel(mut err: SimError, name: &str) -> SimError {
    if let SimError::Plan { kernel, .. } = &mut err {
        if kernel.is_empty() {
            name.clone_into(kernel);
        }
    }
    err
}

impl GpuSim {
    /// Replays a static issue plan for `kernel` under this
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::Plan`] when the plan fails the static hazard
    /// re-check or diverges from the machine state during replay;
    /// otherwise the same failures as [`run`](GpuSim::run).
    pub fn run_scheduled(
        &self,
        kernel: &Kernel,
        plan: &IssuePlan,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
    ) -> Result<ScheduledResult, SimError> {
        validate_plan(self.config(), kernel, plan, launch)
            .map_err(|e| tag_plan_kernel(e, kernel.name()))?;
        Replayer::new(self.config(), kernel, plan, launch, memory)
            .run()
            .map_err(|e| tag_plan_kernel(e, kernel.name()))
    }
}

/// The scoreboard replacement: re-derives every constraint the
/// scheduler promises from the plan's cycles alone and rejects the
/// plan if any is violated.
fn validate_plan(
    cfg: &GpuConfig,
    kernel: &Kernel,
    plan: &IssuePlan,
    launch: &LaunchConfig,
) -> Result<(), SimError> {
    if plan.kernel != kernel.name() {
        return Err(plan_err(format!(
            "plan is for kernel '{}', not '{}'",
            plan.kernel,
            kernel.name()
        )));
    }
    if plan.num_schedulers != cfg.num_schedulers {
        return Err(plan_err(format!(
            "plan arbitrated {} issue ports, machine has {}",
            plan.num_schedulers, cfg.num_schedulers
        )));
    }
    if plan.num_compressors != cfg.compression.num_compressors {
        return Err(plan_err(format!(
            "plan arbitrated {} compressor ports, machine has {}",
            plan.num_compressors, cfg.compression.num_compressors
        )));
    }
    let wpb = launch.warps_per_block();
    if plan.warps_per_block != wpb {
        return Err(plan_err(format!(
            "plan laid out {} warps per block, launch needs {wpb}",
            plan.warps_per_block
        )));
    }
    if plan.warps.len() != launch.blocks() * wpb {
        return Err(plan_err(format!(
            "plan schedules {} warps, launch has {}",
            plan.warps.len(),
            launch.blocks() * wpb
        )));
    }
    let num_regs = datapath::num_regs(kernel);
    let max_resident = datapath::max_resident(cfg, kernel);
    if plan.max_resident_warps > max_resident {
        return Err(plan_err(format!(
            "plan assumes {} resident warps, machine offers {max_resident}",
            plan.max_resident_warps
        )));
    }
    let instrs = kernel.instrs();
    let comp = &cfg.compression;
    let mut per_port: BTreeMap<(u64, usize), u32> = BTreeMap::new();
    let mut per_comp: BTreeMap<u64, u32> = BTreeMap::new();
    let mut lifetimes: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for (gid, w) in plan.warps.iter().enumerate() {
        if (w.block, w.warp_in_block) != (gid / wpb, gid % wpb) {
            return Err(plan_err(format!(
                "warp {gid} labelled block {} warp {}, expected ({}, {})",
                w.block,
                w.warp_in_block,
                gid / wpb,
                gid % wpb
            )));
        }
        if w.slot >= plan.max_resident_warps {
            return Err(plan_err(format!(
                "warp {gid} placed in slot {} beyond residency {}",
                w.slot, plan.max_resident_warps
            )));
        }
        let full_mask = launch.coords(w.block, w.warp_in_block).full_mask();
        lifetimes
            .entry(w.slot)
            .or_default()
            .push((w.launch_cycle, w.free_cycle));

        // Per-warp hazard windows, re-derived exactly as the
        // scheduler's timing model defines them.
        let mut next_issue = 0u64;
        let mut avail_write = vec![0u64; num_regs];
        let mut reader_release = vec![0u64; num_regs];
        let mut mem_release = 0u64;
        for (i, s) in w.steps.iter().enumerate() {
            let Some(instr) = instrs.get(s.pc) else {
                return Err(plan_err_at(gid, s.pc, format!("step {i}: pc out of range")));
            };
            if s.mask == 0 || s.mask & !full_mask != 0 {
                return Err(plan_err_at(
                    gid,
                    s.pc,
                    format!("step {i}: mask {:#x} invalid", s.mask),
                ));
            }
            let srcs = instr.unique_srcs();
            if *s.sources != *srcs {
                return Err(plan_err_at(
                    gid,
                    s.pc,
                    format!("step {i}: operand order mismatch"),
                ));
            }
            if s.dst != instr.dst().map(|d| d.index()) {
                return Err(plan_err_at(
                    gid,
                    s.pc,
                    format!("step {i}: destination mismatch"),
                ));
            }
            let expect_comp = s.dst.is_some()
                && comp.is_enabled()
                && !(s.divergent && comp.divergence == DivergencePolicy::UncompressedWrites);
            if s.compresses != expect_comp {
                return Err(plan_err_at(
                    gid,
                    s.pc,
                    format!("step {i}: compressor routing mismatch"),
                ));
            }
            let want_comp = if s.compresses {
                comp.compression_latency
            } else {
                0
            };
            if s.comp_cycles != want_comp {
                return Err(plan_err_at(
                    gid,
                    s.pc,
                    format!("step {i}: compressor latency mismatch"),
                ));
            }
            if s.decomp_cycles != 0 && s.decomp_cycles != comp.decompression_latency {
                return Err(plan_err_at(
                    gid,
                    s.pc,
                    format!("step {i}: decompressor latency mismatch"),
                ));
            }

            let mut earliest = next_issue;
            for &r in &srcs {
                earliest = earliest.max(avail_write[r]);
            }
            if let Some(d) = s.dst {
                earliest = earliest.max(avail_write[d]).max(reader_release[d]);
            }
            if instr.latency_class() == LatencyClass::Memory {
                earliest = earliest.max(mem_release);
            }
            if s.issue < earliest.max(w.launch_cycle) {
                return Err(plan_err(format!(
                    "step {i}: issue at {} violates a hazard window (earliest {})",
                    s.issue,
                    earliest.max(w.launch_cycle)
                )));
            }
            *per_port
                .entry((s.issue, w.slot % cfg.num_schedulers))
                .or_insert(0) += 1;

            match instr {
                Instruction::Jmp { .. } | Instruction::Exit => {
                    if s.dispatch.is_some() || s.retire.is_some() {
                        return Err(plan_err_at(
                            gid,
                            s.pc,
                            format!("step {i}: control-only step dispatches"),
                        ));
                    }
                    next_issue = s.issue + 1;
                }
                _ => {
                    let dispatch = s.issue + (srcs.len() as u64).max(1);
                    if s.dispatch != Some(dispatch) {
                        return Err(plan_err(format!(
                            "step {i}: dispatch {:?} should be {dispatch} (serialized fetches)",
                            s.dispatch
                        )));
                    }
                    for &r in &srcs {
                        reader_release[r] = reader_release[r].max(dispatch);
                    }
                    if instr.latency_class() == LatencyClass::Memory {
                        mem_release = dispatch;
                    }
                    match instr {
                        Instruction::Bra { .. } => {
                            if s.retire.is_some() {
                                return Err(plan_err_at(
                                    gid,
                                    s.pc,
                                    format!("step {i}: branch retires"),
                                ));
                            }
                            next_issue = dispatch;
                        }
                        Instruction::St { .. } => {
                            if s.retire.is_some() {
                                return Err(plan_err_at(
                                    gid,
                                    s.pc,
                                    format!("step {i}: store retires"),
                                ));
                            }
                            next_issue = s.issue + 1;
                        }
                        _ => {
                            let retire = dispatch
                                + cfg.latency(instr.latency_class())
                                + s.decomp_cycles
                                + s.comp_cycles;
                            if s.retire != Some(retire) {
                                return Err(plan_err(format!(
                                    "step {i}: retire {:?} should be {retire}",
                                    s.retire
                                )));
                            }
                            let d = s.dst.expect("writer has a destination");
                            avail_write[d] = retire;
                            next_issue = s.issue + 1;
                            if s.compresses {
                                *per_comp.entry(retire - s.comp_cycles).or_insert(0) += 1;
                            }
                        }
                    }
                }
            }
            let last = s.retire.or(s.dispatch).unwrap_or(s.issue);
            if last >= w.free_cycle {
                return Err(plan_err(format!(
                    "step {i}: event at {last} past slot free at {}",
                    w.free_cycle
                )));
            }
        }
    }
    if let Some(((cycle, port), _)) = per_port.iter().find(|(_, &n)| n > 1) {
        return Err(plan_err(format!(
            "issue port {port} double-booked at cycle {cycle}"
        )));
    }
    if let Some((cycle, _)) = per_comp
        .iter()
        .find(|(_, &n)| n > comp.num_compressors as u32)
    {
        return Err(plan_err(format!(
            "more than {} compressions start at cycle {cycle}",
            comp.num_compressors
        )));
    }
    for (slot, spans) in lifetimes.iter_mut() {
        spans.sort_unstable();
        for pair in spans.windows(2) {
            if pair[0].1 > pair[1].0 {
                return Err(plan_err(format!("slot {slot} lifetimes overlap")));
            }
        }
    }
    let makespan = plan.warps.iter().map(|w| w.free_cycle).max().unwrap_or(0);
    if plan.total_cycles != makespan {
        return Err(plan_err(format!(
            "total_cycles {} is not the makespan {makespan}",
            plan.total_cycles
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Event-driven replay
// ---------------------------------------------------------------------

/// Same-cycle event ordering: results land before dependents read,
/// branches resolve before the issue they unblock, slots free before
/// they are reallocated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Retire,
    Dispatch,
    Free,
    Alloc,
    Issue,
}

#[derive(Clone, Copy, Debug)]
struct Event {
    time: u64,
    kind: Kind,
    slot: usize,
    gid: usize,
    step: usize,
}

struct Active {
    gid: usize,
    block: usize,
    warp_in_block: usize,
    full_mask: u32,
    stack: SimtStack,
}

struct Replayer<'a> {
    cfg: &'a GpuConfig,
    kernel: &'a Kernel,
    plan: &'a IssuePlan,
    launch: &'a LaunchConfig,
    memory: &'a mut GlobalMemory,
    dp: Datapath,
    active: Vec<Option<Active>>,
    /// Results computed at dispatch, awaiting their retire cycle.
    pending: HashMap<(usize, usize), WarpRegister>,
    stats: SimStats,
    final_regs: FinalRegs,
}

impl<'a> Replayer<'a> {
    fn new(
        cfg: &'a GpuConfig,
        kernel: &'a Kernel,
        plan: &'a IssuePlan,
        launch: &'a LaunchConfig,
        memory: &'a mut GlobalMemory,
    ) -> Self {
        // Static pre-wake: the plan is the wake schedule, so gated
        // banks respond immediately; gated cycles still accrue for the
        // energy model.
        let mut rf_cfg = cfg.regfile;
        rf_cfg.wakeup_latency = 0;
        rf_cfg.drowsy_wakeup_latency = 0;
        Replayer {
            dp: Datapath::new(cfg, rf_cfg, kernel),
            active: (0..plan.max_resident_warps).map(|_| None).collect(),
            pending: HashMap::new(),
            stats: SimStats::default(),
            final_regs: FinalRegs::new(),
            cfg,
            kernel,
            plan,
            launch,
            memory,
        }
    }

    fn run(mut self) -> Result<ScheduledResult, SimError> {
        let mut events: Vec<Event> = Vec::new();
        for (gid, w) in self.plan.warps.iter().enumerate() {
            let ev = |time, kind, step| Event {
                time,
                kind,
                slot: w.slot,
                gid,
                step,
            };
            events.push(ev(w.launch_cycle, Kind::Alloc, 0));
            events.push(ev(w.free_cycle, Kind::Free, 0));
            for (i, s) in w.steps.iter().enumerate() {
                events.push(ev(s.issue, Kind::Issue, i));
                if let Some(d) = s.dispatch {
                    events.push(ev(d, Kind::Dispatch, i));
                }
                if let Some(r) = s.retire {
                    events.push(ev(r, Kind::Retire, i));
                }
            }
        }
        events.sort_by_key(|e| (e.time, e.kind, e.slot, e.gid, e.step));
        for e in events {
            match e.kind {
                Kind::Alloc => self.alloc(e)?,
                Kind::Issue => self.issue(e)?,
                Kind::Dispatch => self.dispatch(e)?,
                Kind::Retire => self.retire(e)?,
                Kind::Free => self.free(e)?,
            }
        }
        debug_assert!(self.active.iter().all(Option::is_none));
        self.stats.cycles = self.plan.total_cycles;
        self.stats.regfile = self.dp.regfile.stats(self.plan.total_cycles);
        self.stats.gating = self.cfg.regfile.gating;
        Ok(ScheduledResult {
            stats: self.stats,
            final_regs: self.final_regs,
        })
    }

    fn alloc(&mut self, e: Event) -> Result<(), SimError> {
        if self.active[e.slot].is_some() {
            return Err(plan_err(format!(
                "slot {} reallocated while occupied at cycle {}",
                e.slot, e.time
            )));
        }
        self.dp.allocate(e.slot, e.time)?;
        let w = &self.plan.warps[e.gid];
        // Validation pinned `warp_in_block` below the launch's warps per
        // block, so the warp holds at least one thread.
        let full_mask = self.launch.coords(w.block, w.warp_in_block).full_mask();
        self.active[e.slot] = Some(Active {
            gid: e.gid,
            block: w.block,
            warp_in_block: w.warp_in_block,
            full_mask,
            stack: SimtStack::new(full_mask, 0),
        });
        Ok(())
    }

    fn issue(&mut self, e: Event) -> Result<(), SimError> {
        let s = &self.plan.warps[e.gid].steps[e.step];
        let a = self.active[e.slot]
            .as_mut()
            .filter(|a| a.gid == e.gid)
            .ok_or_else(|| {
                plan_err_warp(e.gid, format!("issue for warp {} on a foreign slot", e.gid))
            })?;
        if a.stack.pc() != Some(s.pc) {
            return Err(plan_err_at(
                e.gid,
                s.pc,
                format!(
                    "warp {} at cycle {}: plan issues pc {}, stack is at {:?}",
                    e.gid,
                    e.time,
                    s.pc,
                    a.stack.pc()
                ),
            ));
        }
        if a.stack.mask() != s.mask {
            return Err(plan_err_at(
                e.gid,
                s.pc,
                format!(
                    "warp {} pc {}: plan mask {:#x}, stack mask {:#x}",
                    e.gid,
                    s.pc,
                    s.mask,
                    a.stack.mask()
                ),
            ));
        }
        let divergent = a.stack.is_divergent(a.full_mask);
        if divergent != s.divergent {
            return Err(plan_err_at(
                e.gid,
                s.pc,
                format!("warp {} pc {}: divergence state mismatch", e.gid, s.pc),
            ));
        }
        self.stats.instructions += 1;
        if divergent {
            self.stats.divergent_instructions += 1;
        }
        match self.kernel.instr(s.pc).expect("pc validated") {
            Instruction::Jmp { target } => a.stack.jump(*target),
            Instruction::Exit => a.stack.exit_threads(),
            // Branches resolve with real operand values at dispatch.
            Instruction::Bra { .. } => {}
            _ => a.stack.advance(),
        }
        Ok(())
    }

    fn dispatch(&mut self, e: Event) -> Result<(), SimError> {
        let s = &self.plan.warps[e.gid].steps[e.step];
        let instr = *self.kernel.instr(s.pc).expect("pc validated");

        // Operand capture. The stored compression state is checked
        // against the plan's charge: a compressed operand the plan
        // modelled as a plain read would have delivered early.
        let mut operands = Vec::with_capacity(s.sources.len());
        for &reg in &s.sources {
            if self.dp.regfile.is_compressed(WarpSlot(e.slot), reg) {
                if s.decomp_cycles == 0 {
                    return Err(plan_err_at(
                        e.gid,
                        s.pc,
                        format!(
                            "warp {} pc {}: r{reg} is stored compressed but the plan \
                         charged no decompression latency",
                            e.gid, s.pc
                        ),
                    ));
                }
                self.stats.decompressor_activations += 1;
            }
            let value = Some(self.dp.read(e.slot, reg, e.time)?);
            operands.push(Fetch { reg, value });
        }

        let a = self.active[e.slot].as_mut().expect("warp alive");
        let effect = Lanes {
            kernel: self.kernel,
            launch: self.launch,
            block: a.block,
            warp_in_block: a.warp_in_block,
            pc: s.pc,
            mask: s.mask,
            operands: &operands,
        }
        .execute(instr, self.memory)?;
        match effect {
            Effect::Write { value, .. } | Effect::Load { value, .. } => {
                self.pending.insert((e.gid, e.step), value);
            }
            // The replayer records no memory traffic.
            Effect::Store(_) => {}
            Effect::Branch {
                taken,
                target,
                reconv,
            } => {
                a.stack.branch(taken, target, reconv);
            }
        }
        Ok(())
    }

    fn retire(&mut self, e: Event) -> Result<(), SimError> {
        let s = &self.plan.warps[e.gid].steps[e.step];
        let mut w = PendingWrite {
            slot: e.slot,
            reg: s.dst.expect("retiring step writes (validated)"),
            value: self
                .pending
                .remove(&(e.gid, e.step))
                .expect("dispatch precedes retire (validated ordering)"),
            mask: s.mask,
            divergent: s.divergent,
            synthetic: false,
        };
        self.dp.merge(&mut w, &mut self.stats, e.time)?;
        let stored = if s.compresses {
            self.stats.compressor_activations += 1;
            self.dp.codec.compress(&w.value)
        } else {
            CompressedRegister::Uncompressed(w.value)
        };
        self.dp
            .write(&w, stored, &mut self.stats, e.time)
            .map_err(|err| {
                let why = match err {
                    WriteError::NotReady { ready_at } => {
                        format!("bank not ready until {ready_at} despite static pre-wake")
                    }
                    WriteError::Unallocated => "write to a freed slot".to_string(),
                };
                plan_err_at(e.gid, s.pc, format!("warp {} pc {}: {why}", e.gid, s.pc))
            })
    }

    fn free(&mut self, e: Event) -> Result<(), SimError> {
        let a = self.active[e.slot]
            .take()
            .filter(|a| a.gid == e.gid)
            .ok_or_else(|| {
                plan_err_warp(e.gid, format!("free of warp {} on a foreign slot", e.gid))
            })?;
        if !a.stack.is_done() {
            return Err(plan_err_warp(
                e.gid,
                format!(
                    "warp {} freed at cycle {} with threads still at pc {:?}",
                    e.gid,
                    e.time,
                    a.stack.pc()
                ),
            ));
        }
        self.final_regs
            .insert((a.block, a.warp_in_block), self.dp.capture(e.slot));
        self.dp.free(e.slot, e.time);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_analysis::{schedule_kernel, PerfLaunch, PerfMachine};
    use simt_isa::{AluOp, KernelBuilder, Operand, Reg, Special};

    fn machine_for(cfg: &GpuConfig) -> PerfMachine {
        if cfg.compression.is_enabled() {
            PerfMachine::warped_compression()
        } else {
            PerfMachine::baseline()
        }
    }

    fn residency(cfg: &GpuConfig, kernel: &Kernel) -> usize {
        GpuSim::new(cfg.clone()).max_resident_warps(kernel)
    }

    /// Plans and replays `kernel`, checking the three-way agreement
    /// with the dynamic core: bit-identical registers and memory.
    fn check_scheduled(kernel: &Kernel, blocks: usize, tpb: usize, cfg: GpuConfig, words: usize) {
        let machine = machine_for(&cfg);
        let plan = schedule_kernel(
            kernel,
            &PerfLaunch::new(blocks, tpb),
            &machine,
            residency(&cfg, kernel),
        )
        .expect("kernel is schedulable");
        let launch = LaunchConfig::new(blocks, tpb);
        let sim = GpuSim::new(cfg);

        let mut dyn_mem = GlobalMemory::zeroed(words);
        let (dyn_result, dyn_regs) = sim
            .run_capturing(kernel, &launch, &mut dyn_mem)
            .expect("dynamic run succeeds");

        let mut sched_mem = GlobalMemory::zeroed(words);
        let sched = sim
            .run_scheduled(kernel, &plan, &launch, &mut sched_mem)
            .expect("scheduled replay succeeds");

        assert_eq!(sched.stats.cycles, plan.total_cycles);
        assert_eq!(sched.final_regs, dyn_regs, "register state must match");
        assert_eq!(sched_mem, dyn_mem, "memory must match");
        assert_eq!(sched.stats.instructions, plan.planned_instructions);
        assert_eq!(
            sched.stats.synthetic_movs, 0,
            "no dummy MOVs when scheduled"
        );
        // The static floor bounds the plan from below (by construction,
        // but verified here end-to-end), and the dynamic core executes
        // at least as many program instructions.
        let floor = simt_analysis::bound_kernel(kernel, &PerfLaunch::new(blocks, tpb), &machine);
        assert!(plan.total_cycles >= floor.cycle_lower_bound);
        assert!(dyn_result.stats.instructions >= plan.planned_instructions);
    }

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
        let mut b = KernelBuilder::new("loop", 4);
        b.mov(Reg(0), Operand::Imm(0));
        b.mov(Reg(1), Operand::Imm(0));
        let head = b.here();
        b.alu(AluOp::Add, Reg(1), Reg(1).into(), Reg(0).into());
        b.alu(AluOp::Add, Reg(0), Reg(0).into(), Operand::Imm(1));
        b.alu(AluOp::SetLt, Reg(2), Reg(0).into(), Operand::Imm(10));
        let exit = b.label();
        b.bra(Reg(2), head, exit);
        b.bind(exit);
        b.mov(Reg(3), Operand::Special(Special::GlobalTid));
        b.st(Reg(3), 0, Reg(1));
        b.exit();
        b.build().unwrap()
    }

    /// Uniform-per-warp but lane-divergent: `if (lane < 16)`.
    fn divergent_kernel() -> Kernel {
        let mut b = KernelBuilder::new("div", 3);
        b.mov(Reg(0), Operand::Special(Special::LaneId));
        b.alu(AluOp::SetLt, Reg(1), Reg(0).into(), Operand::Imm(16));
        let then = b.label();
        let merge = b.label();
        b.bra(Reg(1), then, merge);
        b.mov(Reg(2), Operand::Imm(2));
        b.jmp(merge);
        b.bind(then);
        b.mov(Reg(2), Operand::Imm(1));
        b.bind(merge);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.st(Reg(0), 0, Reg(2));
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn straight_line_matches_dynamic_core() {
        check_scheduled(
            &straight_kernel(),
            2,
            64,
            GpuConfig::warped_compression(),
            128,
        );
        check_scheduled(&straight_kernel(), 2, 64, GpuConfig::baseline(), 128);
    }

    #[test]
    fn loop_matches_dynamic_core() {
        check_scheduled(&loop_kernel(), 1, 32, GpuConfig::warped_compression(), 32);
        check_scheduled(&loop_kernel(), 1, 32, GpuConfig::baseline(), 32);
    }

    #[test]
    fn divergent_kernel_matches_dynamic_core() {
        check_scheduled(
            &divergent_kernel(),
            1,
            32,
            GpuConfig::warped_compression(),
            32,
        );
        check_scheduled(&divergent_kernel(), 1, 32, GpuConfig::baseline(), 32);
    }

    #[test]
    fn block_waves_replay_through_slot_reuse() {
        // More blocks than resident slots forces slot reuse.
        let mut cfg = GpuConfig::warped_compression();
        cfg.max_warps_per_sm = 4;
        check_scheduled(&straight_kernel(), 8, 64, cfg, 512);
    }

    #[test]
    fn tampered_plan_is_rejected() {
        let kernel = straight_kernel();
        let cfg = GpuConfig::warped_compression();
        let machine = machine_for(&cfg);
        let mut plan = schedule_kernel(
            &kernel,
            &PerfLaunch::new(1, 32),
            &machine,
            residency(&cfg, &kernel),
        )
        .unwrap();
        // Pull one issue a cycle earlier: a hazard window must break.
        let step = &mut plan.warps[0].steps[1];
        step.issue -= 1;
        *step.dispatch.as_mut().unwrap() -= 1;
        *step.retire.as_mut().unwrap() -= 1;
        let launch = LaunchConfig::new(1, 32);
        let mut mem = GlobalMemory::zeroed(32);
        let err = GpuSim::new(cfg)
            .run_scheduled(&kernel, &plan, &launch, &mut mem)
            .unwrap_err();
        assert!(matches!(err, SimError::Plan { .. }), "got {err}");
    }

    #[test]
    fn memory_fault_is_attributed_like_the_dynamic_core() {
        // 32 threads store to mem[gtid], but memory holds 16 words.
        let kernel = straight_kernel();
        let cfg = GpuConfig::warped_compression();
        let plan = schedule_kernel(
            &kernel,
            &PerfLaunch::new(1, 32),
            &machine_for(&cfg),
            residency(&cfg, &kernel),
        )
        .unwrap();
        let launch = LaunchConfig::new(1, 32);
        let sim = GpuSim::new(cfg);
        let dynamic = sim
            .run(&kernel, &launch, &mut GlobalMemory::zeroed(16))
            .unwrap_err();
        let replayed = sim
            .run_scheduled(&kernel, &plan, &launch, &mut GlobalMemory::zeroed(16))
            .unwrap_err();
        assert!(
            matches!(
                &replayed,
                SimError::MemoryAt { kernel, block: 0, warp_in_block: 0, pc: 3, fault }
                    if kernel == "straight" && fault.addr == 16
            ),
            "got {replayed:?}"
        );
        assert_eq!(replayed, dynamic);
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let kernel = straight_kernel();
        let cfg = GpuConfig::warped_compression();
        let plan = schedule_kernel(
            &kernel,
            &PerfLaunch::new(1, 32),
            &machine_for(&cfg),
            residency(&cfg, &kernel),
        )
        .unwrap();
        // Replaying a compression-machine plan on the baseline fails
        // the static compressor-routing check.
        let launch = LaunchConfig::new(1, 32);
        let mut mem = GlobalMemory::zeroed(32);
        let err = GpuSim::new(GpuConfig::baseline())
            .run_scheduled(&kernel, &plan, &launch, &mut mem)
            .unwrap_err();
        assert!(matches!(err, SimError::Plan { .. }), "got {err}");
    }
}
