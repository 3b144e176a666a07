//! Shared per-warp concrete replay machinery.
//!
//! Both the performance-bound tracer ([`perfbound`](crate::perfbound))
//! and the ahead-of-time issue scheduler
//! ([`schedule`](crate::schedule)) need the same launch-specialised
//! enumeration of one warp's dynamic instruction stream: the SIMT
//! reconvergence stack, concrete register values where they are
//! statically known, absint-assisted branch resolution, and the
//! stored-form (banks / compressed) tracking of the compression-aware
//! register file. This module hoists that machinery into one place:
//!
//! * [`WarpReplay`] — the per-warp architectural replayer, yielding one
//!   [`TraceStep`] per executed instruction until the warp drains
//!   ([`StepOutcome::Done`]) or precision is lost
//!   ([`StepOutcome::Lost`]). It runs warps on `simt_isa::SimtStack`,
//!   reads specials through `simt_isa::WarpCoords` and fetches operands
//!   in `Instruction::unique_srcs` order — the very definitions the
//!   simulator executes, so the two cannot drift apart.
//! * [`TimingState`] — the relaxed pipeline-timing DP whose every
//!   constraint the real engine also enforces, split into
//!   [`earliest`](TimingState::earliest) (query) and
//!   [`commit_at`](TimingState::commit_at) (update) so a scheduler can
//!   interleave global resource constraints between the two.

use std::collections::HashMap;

use bdi::{BdiCodec, WarpRegister, WARP_SIZE};
use simt_isa::{taken_mask, Instruction, LatencyClass, Operand, SimtStack, WarpCoords};

use crate::absint::AbsintAnalysis;
use crate::perfbound::{PerfLaunch, PerfMachine};

/// Banks occupied by an uncompressed 128-byte warp register.
pub const UNCOMPRESSED_BANKS: usize = 8;

/// Per-warp instruction budget of the concrete replay. A warp that
/// executes more instructions than this (an extreme trip count, or an
/// absint-driven branch that never makes concrete progress) loses
/// precision instead of replaying on.
pub const TRACE_FUEL: u64 = 1_000_000;

// ---------------------------------------------------------------------
// Pipeline timing relaxation
// ---------------------------------------------------------------------

/// The cycles one scheduled instruction occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstrTimes {
    /// Issue cycle.
    pub issue: u64,
    /// Operand-capture / dispatch cycle; `None` for the collector-less
    /// control instructions (`jmp` / `exit`).
    pub dispatch: Option<u64>,
    /// Writeback-retire cycle; `None` when nothing is written back.
    pub retire: Option<u64>,
}

/// The relaxed per-warp pipeline schedule: every constraint here is one
/// the real engine also enforces, so the minimal feasible schedule this
/// DP computes can only finish earlier than the simulator.
///
/// Split into [`earliest`](Self::earliest) (when could this instruction
/// issue?) and [`commit_at`](Self::commit_at) (it issues at cycle `t`,
/// update the hazard state) so callers with *additional* constraints —
/// the static scheduler's issue-port and compressor-port arbitration —
/// can push the issue cycle later than the per-warp minimum without
/// re-deriving the hazard rules. [`step`](Self::step) composes the two
/// for callers content with the per-warp floor.
#[derive(Clone, Debug)]
pub struct TimingState {
    /// Earliest cycle the next instruction can issue (one issue per
    /// warp per cycle; branches block issue until they dispatch).
    next_issue: u64,
    /// Per register: retire cycle of the last write (RAW/WAW — the
    /// scoreboard releases writes at retire, same-cycle reissue ok).
    avail_write: Vec<u64>,
    /// Per register: latest dispatch of a read since the last write
    /// (WAR — reads release at operand capture).
    reader_release: Vec<u64>,
    /// Dispatch cycle of the last memory instruction (the LSU keeps
    /// per-warp program order until dispatch).
    mem_release: u64,
    /// Latest scheduled event (the makespan).
    end: u64,
}

impl TimingState {
    /// Fresh state for a warp with `num_regs` architectural registers.
    pub fn new(num_regs: usize) -> Self {
        TimingState {
            next_issue: 0,
            avail_write: vec![0; num_regs],
            reader_release: vec![0; num_regs],
            mem_release: 0,
            end: 0,
        }
    }

    /// Latest scheduled event so far (the makespan).
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Earliest cycle the next instruction may issue, hazards aside.
    pub fn next_issue(&self) -> u64 {
        self.next_issue
    }

    /// Earliest cycle `instr` can issue under the per-warp hazard and
    /// ordering constraints (issue port, RAW/WAW/WAR, LSU order).
    pub fn earliest(&self, instr: &Instruction) -> u64 {
        let mut t = self.next_issue;
        for &s in &instr.unique_srcs() {
            t = t.max(self.avail_write[s]);
        }
        if let Some(d) = instr.dst() {
            t = t
                .max(self.avail_write[d.index()])
                .max(self.reader_release[d.index()]);
        }
        if instr.latency_class() == LatencyClass::Memory {
            t = t.max(self.mem_release);
        }
        t
    }

    /// Commits `instr` issuing at cycle `t` (which must be ≥
    /// [`earliest`](Self::earliest)) and returns its event cycles.
    /// `decomp_extra` is the decompression latency of its operands,
    /// `comp_pass` the compressor latency of its writeback (0 when the
    /// write bypasses the compressor).
    pub fn commit_at(
        &mut self,
        t: u64,
        instr: &Instruction,
        machine: &PerfMachine,
        decomp_extra: u64,
        comp_pass: u64,
    ) -> InstrTimes {
        debug_assert!(t >= self.earliest(instr), "issue before earliest feasible");
        let srcs = instr.unique_srcs();
        let is_mem = instr.latency_class() == LatencyClass::Memory;
        match instr {
            Instruction::Jmp { .. } | Instruction::Exit => {
                // Issues without a collector and completes immediately.
                self.next_issue = t + 1;
                self.end = self.end.max(t);
                return InstrTimes {
                    issue: t,
                    dispatch: None,
                    retire: None,
                };
            }
            _ => {}
        }
        // Operand collection: at most one fetch succeeds per cycle
        // (cluster-base conflict), so dispatch is k cycles after issue;
        // collectors are visited from the cycle after issue even with
        // no operands to fetch.
        let dispatch = t + (srcs.len() as u64).max(1);
        for &s in &srcs {
            self.reader_release[s] = self.reader_release[s].max(dispatch);
        }
        if is_mem {
            self.mem_release = dispatch;
        }
        match instr {
            Instruction::Bra { .. } => {
                // The warp stays blocked until the branch resolves at
                // dispatch; issue can resume the same cycle.
                self.next_issue = dispatch;
                self.end = self.end.max(dispatch);
                InstrTimes {
                    issue: t,
                    dispatch: Some(dispatch),
                    retire: None,
                }
            }
            Instruction::St { .. } => {
                self.next_issue = t + 1;
                self.end = self.end.max(dispatch);
                InstrTimes {
                    issue: t,
                    dispatch: Some(dispatch),
                    retire: None,
                }
            }
            _ => {
                let lat = machine.latency_of(instr.latency_class());
                let retire = dispatch + lat + decomp_extra + comp_pass;
                let d = instr.dst().expect("remaining instructions write").index();
                self.avail_write[d] = retire;
                self.next_issue = t + 1;
                self.end = self.end.max(retire);
                InstrTimes {
                    issue: t,
                    dispatch: Some(dispatch),
                    retire: Some(retire),
                }
            }
        }
    }

    /// Schedules one instruction at its earliest feasible cycles:
    /// [`earliest`](Self::earliest) followed by
    /// [`commit_at`](Self::commit_at).
    pub fn step(
        &mut self,
        instr: &Instruction,
        machine: &PerfMachine,
        decomp_extra: u64,
        comp_pass: u64,
    ) -> InstrTimes {
        let t = self.earliest(instr);
        self.commit_at(t, instr, machine, decomp_extra, comp_pass)
    }
}

// ---------------------------------------------------------------------
// Per-warp architectural replay
// ---------------------------------------------------------------------

/// What the replay knows about one architectural register.
#[derive(Clone, Debug)]
pub struct RegState {
    /// The full 32-lane value, when every lane is known.
    pub value: Option<WarpRegister>,
    /// Banks the stored form occupies, when the stored form is known.
    pub banks: Option<usize>,
    /// Whether the stored form is compressed, when known.
    pub compressed: Option<bool>,
}

/// Why a replay lost precision and had to stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossReason {
    /// A branch predicate was neither concretely traced nor absint-
    /// resolvable — the taken mask is unknown.
    UnknownPredicate {
        /// The branch pc.
        pc: usize,
    },
    /// The [`TRACE_FUEL`] instruction budget ran out.
    FuelExhausted {
        /// The pc the replay stopped at.
        pc: usize,
    },
}

impl LossReason {
    /// The pc at which precision was lost.
    pub fn pc(&self) -> usize {
        match *self {
            LossReason::UnknownPredicate { pc } | LossReason::FuelExhausted { pc } => pc,
        }
    }
}

/// One operand fetch of a replayed instruction, with the pre-write
/// stored-form facts of the source register.
#[derive(Clone, Copy, Debug)]
pub struct SourceFetch {
    /// The source register index.
    pub reg: usize,
    /// Banks its stored form occupies, when known.
    pub banks: Option<usize>,
    /// Whether it is stored compressed, when known.
    pub compressed: Option<bool>,
}

/// One architecturally executed instruction of a warp's replay.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// The executed pc.
    pub pc: usize,
    /// The instruction at that pc.
    pub instr: Instruction,
    /// The active thread mask it executed under.
    pub mask: u32,
    /// The engine's divergence predicate at issue (`stack diverged ||
    /// mask != full_mask`).
    pub divergent: bool,
    /// Unique operand fetches, in first-use order, with pre-write
    /// stored-form facts.
    pub sources: Vec<SourceFetch>,
    /// The destination register, if the instruction writes one.
    pub dst: Option<usize>,
    /// Whether the writeback passes through the compressor (always
    /// `false` without a destination).
    pub compresses: bool,
    /// Banks the destination's stored form occupies *after* this write,
    /// when known; `None` without a destination or when the value (and
    /// hence stored form) is unknown.
    pub dst_banks: Option<usize>,
}

/// Result of one [`WarpReplay::step`].
#[derive(Clone, Debug)]
pub enum StepOutcome {
    /// Every thread has exited; the replay is complete and exact.
    Done,
    /// One instruction executed.
    Step(TraceStep),
    /// Precision was lost; the replay cannot continue.
    Lost(LossReason),
}

/// Launch-specialised architectural replay of one warp: the SIMT stack,
/// concrete register values where known, and the stored-form tracking
/// of the compression-aware register file. Purely functional — the
/// caller owns all timing and resource accounting.
pub struct WarpReplay<'a> {
    machine: &'a PerfMachine,
    codec: &'a BdiCodec,
    launch: &'a PerfLaunch,
    absint: &'a AbsintAnalysis,
    instrs: &'a [Instruction],
    coords: WarpCoords,
    full_mask: u32,
    stack: SimtStack,
    regs: Vec<RegState>,
    fuel: u64,
    /// Whether store→load forwarding through the per-warp shadow memory
    /// is armed (see [`enable_memory_forwarding`]).
    ///
    /// [`enable_memory_forwarding`]: Self::enable_memory_forwarding
    forward_mem: bool,
    /// Known memory words written by *this* warp: address → value.
    shadow_mem: HashMap<u32, u32>,
    /// Verified memory-cell analysis (see [`enable_initial_image`]):
    /// loads of provably never-stored words resolve concretely from the
    /// initial-memory image.
    ///
    /// [`enable_initial_image`]: Self::enable_initial_image
    cells: Option<&'a crate::memcell::MemCells>,
}

impl<'a> WarpReplay<'a> {
    /// A fresh replay of warp `warp_in_block` of `block` (the trailing
    /// warp of a block may be partial). Registers initialise to zero in
    /// the stored form the machine's allocation path guarantees.
    ///
    /// # Panics
    ///
    /// Panics if `warp_in_block` is past the launch's last warp of a
    /// block: such a warp holds no thread.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        machine: &'a PerfMachine,
        codec: &'a BdiCodec,
        launch: &'a PerfLaunch,
        absint: &'a AbsintAnalysis,
        instrs: &'a [Instruction],
        num_regs: usize,
        block: usize,
        warp_in_block: usize,
    ) -> Self {
        let coords = WarpCoords {
            blocks: launch.blocks,
            threads_per_block: launch.threads_per_block,
            block,
            warp_in_block,
        };
        let full_mask = coords.full_mask();
        let initial = if machine.compression_enabled() {
            let c = codec.compress(&WarpRegister::ZERO);
            RegState {
                value: Some(WarpRegister::ZERO),
                banks: Some(c.banks_required()),
                compressed: Some(c.is_compressed()),
            }
        } else {
            RegState {
                value: Some(WarpRegister::ZERO),
                banks: Some(UNCOMPRESSED_BANKS),
                compressed: Some(false),
            }
        };
        WarpReplay {
            machine,
            codec,
            launch,
            absint,
            instrs,
            coords,
            full_mask,
            stack: SimtStack::new(full_mask, 0),
            regs: vec![initial; num_regs],
            fuel: TRACE_FUEL,
            forward_mem: false,
            shadow_mem: HashMap::new(),
            cells: None,
        }
    }

    /// Arms store→load forwarding through a per-warp shadow memory:
    /// a load whose every active lane hits an address this warp itself
    /// stored a known value to replays that value concretely instead
    /// of going opaque.
    ///
    /// Sound **only** when no other warp can store to any address this
    /// warp accesses — the caller must hold a
    /// `memabs::MemAbs::warp_isolated` proof for this kernel × launch.
    pub fn enable_memory_forwarding(&mut self) {
        self.forward_mem = true;
    }

    /// Arms initial-image load resolution through a *verified*
    /// memory-cell analysis: a load lane whose address the table proves
    /// no reachable store of **any** warp ever writes replays the
    /// initial-memory word concretely. Unlike shadow forwarding this
    /// needs no warp-isolation proof — a launch-wide never-stored word
    /// holds its image value throughout every execution. Composes with
    /// shadow forwarding per lane (the domains are disjoint: the shadow
    /// only holds stored addresses).
    pub fn enable_initial_image(&mut self, cells: &'a crate::memcell::MemCells) {
        if cells.enabled {
            self.cells = Some(cells);
        }
    }

    /// The active pc, or `None` once the warp has drained.
    pub fn pc(&self) -> Option<usize> {
        self.stack.pc()
    }

    /// The warp's full (launch-time) thread mask.
    pub fn full_mask(&self) -> u32 {
        self.full_mask
    }

    /// Executes the next instruction architecturally.
    pub fn step(&mut self) -> StepOutcome {
        let Some(pc) = self.stack.pc() else {
            return StepOutcome::Done;
        };
        if self.fuel == 0 {
            return StepOutcome::Lost(LossReason::FuelExhausted { pc });
        }
        self.fuel -= 1;

        let instr = self.instrs[pc];
        let mask = self.stack.mask();
        // Exactly the engine's divergence predicate at issue.
        let divergent = self.stack.is_divergent(self.full_mask);

        if let Instruction::Bra { pred, .. } = instr {
            if self.taken_mask(pc, pred.index(), mask).is_none() {
                return StepOutcome::Lost(LossReason::UnknownPredicate { pc });
            }
        }

        // Pre-write operand facts (reads happen before the write, so a
        // destination that is also a source reads its old stored form).
        let sources: Vec<SourceFetch> = instr
            .unique_srcs()
            .iter()
            .map(|&s| SourceFetch {
                reg: s,
                banks: self.regs[s].banks,
                compressed: self.regs[s].compressed,
            })
            .collect();
        let dst = instr.dst().map(|r| r.index());
        let compresses = dst.is_some() && self.write_compresses(divergent);

        let dst_banks = match instr {
            Instruction::Jmp { target } => {
                self.stack.jump(target);
                None
            }
            Instruction::Exit => {
                self.stack.exit_threads();
                None
            }
            Instruction::Bra {
                pred,
                target,
                reconv,
            } => {
                let taken = self
                    .taken_mask(pc, pred.index(), mask)
                    .expect("checked above");
                self.stack.branch(taken, target, reconv);
                None
            }
            Instruction::St { base, offset, src } => {
                if self.forward_mem {
                    self.shadow_store(base.index(), offset, src.index(), mask);
                }
                self.stack.advance();
                None
            }
            Instruction::Mov { dst, src } => {
                let result = self.eval(src);
                let banks = self.write(dst.index(), result, mask, divergent);
                self.stack.advance();
                banks
            }
            Instruction::Alu { op, dst, a, b } => {
                let result = match (self.eval(a), self.eval(b)) {
                    (Some(va), Some(vb)) => Some(WarpRegister::from_fn(|lane| {
                        op.apply(va.lane(lane), vb.lane(lane))
                    })),
                    _ => None,
                };
                let banks = self.write(dst.index(), result, mask, divergent);
                self.stack.advance();
                banks
            }
            Instruction::Ld { dst, base, offset } => {
                // Memory contents are outside the static model, except
                // for words this warp itself stored when forwarding is
                // armed (warp-isolated launches), and never-stored
                // words of the initial image when the cell analysis is
                // armed.
                let result = self.resolve_load(base.index(), offset, mask);
                let banks = self.write(dst.index(), result, mask, divergent);
                self.stack.advance();
                banks
            }
        };

        StepOutcome::Step(TraceStep {
            pc,
            instr,
            mask,
            divergent,
            sources,
            dst,
            compresses,
            dst_banks,
        })
    }

    /// Whether a (non-synthetic) write at this divergence state passes
    /// through the compressor.
    fn write_compresses(&self, divergent: bool) -> bool {
        self.machine.compression_enabled()
            && !(divergent && self.machine.uncompressed_divergent_writes)
    }

    /// Applies a register write: lane merge under a partial mask, then
    /// the stored form the writeback path guarantees. Returns the banks
    /// of the new stored form, when known.
    fn write(
        &mut self,
        dst: usize,
        result: Option<WarpRegister>,
        mask: u32,
        divergent: bool,
    ) -> Option<usize> {
        let merged = if mask == u32::MAX {
            result
        } else {
            match (&self.regs[dst].value, result) {
                (Some(old), Some(new)) => Some(old.merge_masked(&new, mask)),
                _ => None,
            }
        };
        let state = if !self.write_compresses(divergent) {
            // Baseline, or a divergent write under the dummy-MOV
            // policy: stored uncompressed, 8 banks, guaranteed.
            RegState {
                value: merged,
                banks: Some(UNCOMPRESSED_BANKS),
                compressed: Some(false),
            }
        } else {
            match merged {
                Some(v) => {
                    let c = self.codec.compress(&v);
                    RegState {
                        value: Some(v),
                        banks: Some(c.banks_required()),
                        compressed: Some(c.is_compressed()),
                    }
                }
                None => RegState {
                    value: None,
                    banks: None,
                    compressed: None,
                },
            }
        };
        let banks = state.banks;
        self.regs[dst] = state;
        banks
    }

    /// Applies a store to the shadow memory. An unknown store address
    /// may overwrite anything, so it clears the whole shadow; a known
    /// address with an unknown value just evicts that word.
    fn shadow_store(&mut self, base: usize, offset: i32, src: usize, mask: u32) {
        let value = self.regs[src].value;
        let Some(addrs) = &self.regs[base].value else {
            self.shadow_mem.clear();
            return;
        };
        for lane in 0..WARP_SIZE {
            if mask & (1 << lane) != 0 {
                let addr = addrs.lane(lane).wrapping_add(offset as u32);
                match &value {
                    Some(v) => {
                        self.shadow_mem.insert(addr, v.lane(lane));
                    }
                    None => {
                        self.shadow_mem.remove(&addr);
                    }
                }
            }
        }
    }

    /// The statically resolved load value, when every active lane's
    /// address is known and resolves — from this warp's shadow memory
    /// (when forwarding is armed) or from the never-stored initial
    /// image (when the cell analysis is armed). Any unresolved active
    /// lane makes the whole load opaque.
    fn resolve_load(&self, base: usize, offset: i32, mask: u32) -> Option<WarpRegister> {
        if !self.forward_mem && self.cells.is_none() {
            return None;
        }
        let addrs = self.regs[base].value.as_ref()?;
        let mut out = WarpRegister::ZERO;
        for lane in 0..WARP_SIZE {
            if mask & (1 << lane) != 0 {
                let addr = addrs.lane(lane).wrapping_add(offset as u32);
                let shadowed = if self.forward_mem {
                    self.shadow_mem.get(&addr).copied()
                } else {
                    None
                };
                let v = shadowed.or_else(|| self.cells.and_then(|c| c.read_only_word(addr)))?;
                out.set_lane(lane, v);
            }
        }
        Some(out)
    }

    /// The branch's taken mask within `mask`, from concrete predicate
    /// lanes or — when the value is unknown — from the absint per-lane
    /// range at this pc ("can never be zero" / "is always zero").
    fn taken_mask(&self, pc: usize, pred: usize, mask: u32) -> Option<u32> {
        if let Some(v) = &self.regs[pred].value {
            return Some(taken_mask(mask, v.as_lanes()));
        }
        let range = self.absint.state_at(pc)?.get(pred)?.per_lane_range()?;
        if !range.contains(0) {
            Some(mask)
        } else if range.as_singleton() == Some(0) {
            Some(0)
        } else {
            None
        }
    }

    /// The engine's operand evaluation, launch-specialised; `None`
    /// for a register whose value is not statically known.
    fn eval(&self, op: Operand) -> Option<WarpRegister> {
        match op {
            Operand::Reg(r) => self.regs[r.index()].value,
            Operand::Imm(v) => Some(WarpRegister::splat(v as u32)),
            Operand::Param(i) => Some(WarpRegister::splat(self.launch.param(i as usize))),
            Operand::Special(s) => Some(WarpRegister::from_fn(|lane| self.coords.special(s, lane))),
        }
    }
}
