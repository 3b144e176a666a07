//! The streaming-multiprocessor pipeline: issue → operand collection →
//! execution → compression-aware writeback.

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::mem;

use bdi::{CompressedRegister, CompressionClass, WarpRegister};
use gpu_regfile::{BankPorts, RegFileError, WarpSlot, WriteError};
use simt_isa::{Instruction, Kernel, LatencyClass, Operand, SrcSet};

use crate::config::{DivergencePolicy, GpuConfig, SchedulerPolicy};
use crate::datapath::{self, Datapath, Effect, Fetch, Lanes, PendingWrite};
use crate::launch::LaunchConfig;
use crate::memory::{GlobalMemory, MemoryFault};
use crate::scoreboard::Scoreboard;
use crate::stats::{MemEvent, PcMemTraffic, PcStalls, SimStats, StallCause, WriteEvent};
use crate::warp::WarpState;

/// Simulation failures.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A thread accessed global memory out of range, with the faulting
    /// access site attributed (kernel, warp, pc). Both engines raise
    /// every memory fault this way.
    MemoryAt {
        /// Kernel the faulting instruction belongs to.
        kernel: String,
        /// Block index of the faulting warp.
        block: usize,
        /// Warp index within its block.
        warp_in_block: usize,
        /// Program counter of the faulting load/store.
        pc: usize,
        /// The underlying out-of-range access.
        fault: MemoryFault,
    },
    /// The configured cycle cap was exceeded.
    CycleLimit {
        /// The cap that was hit.
        limit: u64,
    },
    /// No instruction issued or retired for a very long time — a
    /// simulator or kernel bug.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
    },
    /// A block needs more warp slots or register-file entries than the SM
    /// has.
    BlockTooLarge {
        /// Warps the block needs.
        warps_needed: usize,
        /// Warp slots the SM can offer for this kernel.
        slots_available: usize,
    },
    /// Register file rejected an allocation (geometry exhausted).
    RegFile(RegFileError),
    /// An operand read failed: the stored form was structurally corrupt,
    /// or register protection flagged an uncorrectable bit error (only
    /// reachable with fault injection armed).
    Read {
        /// Warp slot whose read failed.
        slot: usize,
        /// Architectural register index.
        reg: usize,
        /// The underlying register-file failure.
        source: gpu_regfile::ReadError,
    },
    /// A static issue plan failed validation or diverged from the
    /// machine state during scheduled replay — the plan does not
    /// soundly describe this kernel × launch × configuration.
    Plan {
        /// Name of the kernel whose plan was rejected (empty when not
        /// yet attributed).
        kernel: String,
        /// Global warp index the violation was detected in, if the
        /// check is warp-specific.
        warp: Option<usize>,
        /// Program counter of the offending planned step, if any.
        pc: Option<usize>,
        /// What the plan got wrong.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MemoryAt {
                kernel,
                block,
                warp_in_block,
                pc,
                fault,
            } => write!(
                f,
                "memory fault in kernel `{kernel}` (block {block}, warp {warp_in_block}, pc {pc}): {fault}"
            ),
            SimError::CycleLimit { limit } => write!(f, "cycle limit of {limit} exceeded"),
            SimError::Deadlock { cycle } => write!(f, "no forward progress by cycle {cycle}"),
            SimError::BlockTooLarge {
                warps_needed,
                slots_available,
            } => write!(
                f,
                "block needs {warps_needed} warps but only {slots_available} slots fit this kernel"
            ),
            SimError::RegFile(e) => write!(f, "register file: {e}"),
            SimError::Read { slot, reg, source } => {
                write!(f, "read of slot {slot} r{reg} failed: {source}")
            }
            SimError::Plan {
                kernel,
                warp,
                pc,
                message,
            } => {
                write!(f, "unsound issue plan")?;
                if !kernel.is_empty() {
                    write!(f, " for kernel `{kernel}`")?;
                }
                if let Some(w) = warp {
                    write!(f, " (warp {w}")?;
                    if let Some(p) = pc {
                        write!(f, ", pc {p}")?;
                    }
                    write!(f, ")")?;
                } else if let Some(p) = pc {
                    write!(f, " (pc {p})")?;
                }
                write!(f, ": {message}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::MemoryAt { fault, .. } => Some(fault),
            SimError::RegFile(e) => Some(e),
            SimError::Read { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<RegFileError> for SimError {
    fn from(e: RegFileError) -> Self {
        SimError::RegFile(e)
    }
}

/// Result of a completed simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// All collected statistics.
    pub stats: SimStats,
}

/// Final architectural register state of every warp, keyed by
/// `(block, warp_in_block)` and captured (decompressed) at the instant
/// the warp drains, just before its slot is freed. This is the
/// bit-identity witness the scheduled backend is checked against.
pub type FinalRegs = BTreeMap<(usize, usize), Vec<WarpRegister>>;

/// The hooks one dynamic run can arm, in any combination, through
/// [`GpuSim::run_with`]. None of them changes timing or statistics.
#[derive(Default)]
pub struct Probes<'a> {
    /// Receives every retired register write.
    pub writes: Option<&'a mut dyn FnMut(&WriteEvent)>,
    /// Receives every dispatched global-memory access.
    pub mem: Option<&'a mut dyn FnMut(&MemEvent)>,
    /// When `Some`, each drained warp deposits its decompressed
    /// registers here just before its slot is freed.
    pub final_regs: Option<FinalRegs>,
}

/// The simulator front-end: configure once, run kernels.
#[derive(Clone, Debug)]
pub struct GpuSim {
    cfg: GpuConfig,
}

impl GpuSim {
    /// Creates a simulator with the given configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        GpuSim { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Resident-warp slots this configuration offers `kernel`: the
    /// SM's warp-slot count capped by register-file capacity. An
    /// ahead-of-time issue plan must be laid out for exactly this
    /// residency to replay here.
    pub fn max_resident_warps(&self, kernel: &Kernel) -> usize {
        datapath::max_resident(&self.cfg, kernel)
    }

    /// Runs a kernel to completion.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
    ) -> Result<SimResult, SimError> {
        self.run_with(kernel, launch, memory, &mut Probes::default())
    }

    /// Runs a kernel to completion with every hook armed in `probes`:
    /// one run can trace register writes and memory accesses and
    /// capture the final registers together.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_with(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
        probes: &mut Probes<'_>,
    ) -> Result<SimResult, SimError> {
        Engine::new(&self.cfg, kernel, launch, memory, probes)?.run_loop()
    }

    /// [`run_with`](Self::run_with) with only the register-write probe
    /// armed (the Fig. 2 / Fig. 5 value characterisations).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_observed(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
        observer: &mut dyn FnMut(&WriteEvent),
    ) -> Result<SimResult, SimError> {
        let mut probes = Probes {
            writes: Some(observer),
            ..Probes::default()
        };
        self.run_with(kernel, launch, memory, &mut probes)
    }

    /// [`run_with`](Self::run_with) with only final-register capture
    /// armed: the dynamic-core ground truth the scheduled backend's
    /// bit-identity check compares against.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_capturing(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
    ) -> Result<(SimResult, FinalRegs), SimError> {
        let mut probes = Probes {
            final_regs: Some(FinalRegs::new()),
            ..Probes::default()
        };
        let result = self.run_with(kernel, launch, memory, &mut probes)?;
        Ok((result, probes.final_regs.unwrap_or_default()))
    }

    /// [`run_with`](Self::run_with) with only the memory-access probe
    /// armed.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_mem_observed(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
        mem_observer: &mut dyn FnMut(&MemEvent),
    ) -> Result<SimResult, SimError> {
        let mut probes = Probes {
            mem: Some(mem_observer),
            ..Probes::default()
        };
        self.run_with(kernel, launch, memory, &mut probes)
    }

    /// Runs a kernel with the given fault injector armed in the register
    /// file. Unlike [`run`](Self::run), the fault event log is returned
    /// even when the simulation fails — a detected uncorrectable error
    /// surfaces as `Err(SimError::Read { .. })` *and* the log records the
    /// detection, so campaigns can account for every injected fault.
    #[cfg(feature = "faults")]
    pub fn run_faulted(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
        injector: gpu_faults::FaultInjector,
    ) -> (Result<SimResult, SimError>, gpu_faults::FaultLog) {
        let mut probes = Probes::default();
        let engine = Engine::new(self.config(), kernel, launch, memory, &mut probes);
        match engine {
            Ok(mut engine) => {
                engine.dp.regfile.arm_faults(injector);
                let result = engine.run_loop();
                let log = engine
                    .dp
                    .regfile
                    .take_fault_log()
                    .expect("injector armed above");
                (result, log)
            }
            // Launch never started: every planned fault is untriggered.
            Err(e) => (Err(e), injector.finish()),
        }
    }
}

// ---------------------------------------------------------------------
// Internal pipeline structures
// ---------------------------------------------------------------------

/// One instruction as the issue stage needs it, decoded once per pc
/// when the engine is built.
#[derive(Clone, Copy, Debug)]
struct Decoded {
    instr: Instruction,
    /// The distinct source registers, in fetch order.
    srcs: SrcSet<usize>,
    dst: Option<usize>,
    is_mem: bool,
}

impl Decoded {
    fn new(instr: Instruction) -> Self {
        Decoded {
            instr,
            srcs: instr.unique_srcs(),
            dst: instr.dst().map(|r| r.index()),
            is_mem: instr.latency_class() == LatencyClass::Memory,
        }
    }
}

/// What a warp issues when nothing holds it back.
struct Candidate {
    pc: usize,
    op: Decoded,
    mask: u32,
    divergent: bool,
    synthetic: bool,
}

#[derive(Clone, Debug)]
struct Collector {
    slot: usize,
    pc: usize,
    instr: Instruction,
    mask: u32,
    divergent: bool,
    synthetic: bool,
    /// The distinct source registers, in fetch order.
    srcs: SrcSet<usize>,
    /// One fetch per source; only the first `srcs.len()` are in use.
    fetches: [Fetch; 2],
    /// Extra result latency from decompressing compressed operands: the
    /// decompressor sits *between* the register file and the execution
    /// units (Fig. 1), a pipelined stage that lengthens the dependent
    /// path without holding the collector.
    decomp_extra: u64,
}

impl Collector {
    fn operands(&self) -> &[Fetch] {
        &self.fetches[..self.srcs.len()]
    }
}

#[derive(Clone, Debug)]
enum WbState {
    Await {
        done_at: u64,
    },
    NeedCompressor,
    Compressing {
        done_at: u64,
        compressed: CompressedRegister,
    },
    Ready {
        compressed: CompressedRegister,
        not_before: u64,
    },
}

#[derive(Clone, Debug)]
struct WbEntry {
    /// Push order: the writeback queue is kept sorted by it.
    seq: u64,
    pc: usize,
    write: PendingWrite,
    state: WbState,
}

impl WbEntry {
    /// The cycle an entry still in [`WbState::Await`] comes due.
    fn due_at(&self) -> u64 {
        match self.state {
            WbState::Await { done_at } => done_at,
            _ => unreachable!("only awaiting entries are parked"),
        }
    }
}

struct Engine<'a, 'p> {
    cfg: &'a GpuConfig,
    kernel: &'a Kernel,
    launch: &'a LaunchConfig,
    memory: &'a mut GlobalMemory,
    probes: &'a mut Probes<'p>,
    dp: Datapath,
    ports: BankPorts,
    scoreboard: Scoreboard,
    /// The kernel decoded once, indexed by pc.
    decoded: Vec<Decoded>,
    warps: Vec<Option<WarpState>>,
    /// Resident warps: the occupied entries of `warps`.
    resident: usize,
    /// Slots whose warp drained this cycle, retired at its end.
    drained: Vec<usize>,
    /// Per slot, the pc of a scoreboard or LSU-order stall that still
    /// holds: nothing that could clear it has happened since it was
    /// found. Cleared when one of the slot's instructions dispatches or
    /// one of its writes retires, and when a warp launches into it.
    hazard_wait: Vec<Option<usize>>,
    /// Per slot, the first bank of its register-file cluster
    /// (`slot % num_clusters`), where its operand reads and result
    /// writes claim their bank range.
    bank_base: Vec<usize>,
    collectors: Vec<Option<Collector>>,
    /// In-flight results past their execution latency, in push order:
    /// the order compressor slots and write ports are offered in.
    writebacks: Vec<WbEntry>,
    /// Results still inside their execution latency, one FIFO per
    /// delay (`done_at` minus the push cycle). Pushes come in cycle
    /// order, so each FIFO is ordered by `done_at` and by `seq` alike.
    awaiting: Vec<(u64, VecDeque<WbEntry>)>,
    /// Sequence number of the next pushed result.
    next_seq: u64,
    sched_last: Vec<Option<usize>>,
    /// Per scheduler, its resident slots, oldest launch first: the GTO
    /// priority order.
    by_age: Vec<Vec<usize>>,
    /// Stall counters indexed by pc, folded into `stats.stalls` at run
    /// end.
    pc_stalls: Vec<PcStalls>,
    /// Coalescer traffic indexed by pc, folded into `stats.mem` at run
    /// end.
    pc_mem: Vec<PcMemTraffic>,
    now: u64,
    comp_starts: usize,
    decomp_starts: usize,
    next_block: usize,
    last_block: usize,
    stats: SimStats,
    last_progress: u64,
    /// Independent RAW/WAW/WAR re-check of every issue/capture/retire.
    #[cfg(feature = "sanitize")]
    oracle: crate::sanitize::HazardOracle,
}

/// Declare a deadlock after this many cycles without an issue or retire.
const DEADLOCK_WINDOW: u64 = 100_000;

impl<'a, 'p> Engine<'a, 'p> {
    fn new(
        cfg: &'a GpuConfig,
        kernel: &'a Kernel,
        launch: &'a LaunchConfig,
        memory: &'a mut GlobalMemory,
        probes: &'a mut Probes<'p>,
    ) -> Result<Self, SimError> {
        let max_resident = datapath::max_resident(cfg, kernel);
        let warps_needed = launch.warps_per_block();
        if warps_needed > max_resident {
            return Err(SimError::BlockTooLarge {
                warps_needed,
                slots_available: max_resident,
            });
        }
        Ok(Engine {
            ports: BankPorts::new(cfg.regfile.num_banks),
            scoreboard: Scoreboard::new(max_resident, datapath::num_regs(kernel)),
            decoded: kernel.instrs().iter().copied().map(Decoded::new).collect(),
            warps: vec![None; max_resident],
            resident: 0,
            drained: Vec::new(),
            hazard_wait: vec![None; max_resident],
            bank_base: (0..max_resident)
                .map(|slot| slot % cfg.regfile.num_clusters() * cfg.regfile.banks_per_cluster)
                .collect(),
            collectors: vec![None; cfg.num_collectors],
            writebacks: Vec::new(),
            awaiting: Vec::new(),
            next_seq: 0,
            sched_last: vec![None; cfg.num_schedulers],
            by_age: vec![Vec::new(); cfg.num_schedulers],
            pc_stalls: vec![PcStalls::default(); kernel.len()],
            pc_mem: vec![PcMemTraffic::default(); kernel.len()],
            now: 0,
            comp_starts: 0,
            decomp_starts: 0,
            next_block: 0,
            last_block: launch.blocks(),
            stats: SimStats::default(),
            last_progress: 0,
            #[cfg(feature = "sanitize")]
            oracle: crate::sanitize::HazardOracle::new(
                kernel.name(),
                max_resident,
                datapath::num_regs(kernel),
            ),
            cfg,
            kernel,
            launch,
            memory,
            probes,
            dp: Datapath::new(cfg, cfg.regfile, kernel),
        })
    }

    /// The main cycle loop. It borrows the engine so `run_faulted` can
    /// recover the fault log from the register file after an `Err`
    /// return.
    fn run_loop(&mut self) -> Result<SimResult, SimError> {
        self.launch_blocks()?;
        while !self.is_done() {
            self.ports.begin_cycle();
            self.comp_starts = 0;
            self.decomp_starts = 0;
            self.writeback_stage()?;
            self.collector_stage()?;
            self.issue_stage();
            if self.cfg.census_interval > 0 && self.now.is_multiple_of(self.cfg.census_interval) {
                self.sample_census();
            }
            self.retire_warps();
            self.launch_blocks()?;
            self.now += 1;
            if self.now > self.cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.cfg.max_cycles,
                });
            }
            if self.now.saturating_sub(self.last_progress) > DEADLOCK_WINDOW {
                return Err(SimError::Deadlock { cycle: self.now });
            }
        }
        self.stats.cycles = self.now;
        self.stats.regfile = self.dp.regfile.stats(self.now);
        self.stats.gating = self.cfg.regfile.gating;
        self.stats.stalls.by_pc = nonzero_by_pc(&self.pc_stalls);
        self.stats.mem.by_pc = nonzero_by_pc(&self.pc_mem);
        Ok(SimResult {
            stats: mem::take(&mut self.stats),
        })
    }

    fn is_done(&self) -> bool {
        self.next_block >= self.last_block && self.resident == 0
    }

    // -----------------------------------------------------------------
    // Block launch / warp retirement
    // -----------------------------------------------------------------

    fn launch_blocks(&mut self) -> Result<(), SimError> {
        let wpb = self.launch.warps_per_block();
        loop {
            if self.next_block >= self.last_block {
                return Ok(());
            }
            if self.warps.len() - self.resident < wpb {
                return Ok(());
            }
            // The block's warps take the lowest free slots, in order.
            let block = self.next_block;
            let mut w = 0;
            for slot in 0..self.warps.len() {
                if w == wpb {
                    break;
                }
                if self.warps[slot].is_some() {
                    continue;
                }
                self.dp.allocate(slot, self.now)?;
                let full_mask = self.launch.coords(block, w).full_mask();
                self.warps[slot] = Some(WarpState::new(block, w, full_mask));
                self.resident += 1;
                self.hazard_wait[slot] = None;
                self.by_age[slot % self.cfg.num_schedulers].push(slot);
                w += 1;
            }
            self.next_block += 1;
        }
    }

    /// Notes the warp in `slot` for retirement if it just drained. Called
    /// wherever a warp finishes or an in-flight instruction leaves it.
    fn note_if_drained(&mut self, slot: usize) {
        if self.warps[slot].as_ref().is_some_and(WarpState::is_drained) {
            self.drained.push(slot);
        }
    }

    /// Frees the slots whose warps drained this cycle, lowest slot first.
    fn retire_warps(&mut self) {
        if self.drained.is_empty() {
            return;
        }
        let mut drained = mem::take(&mut self.drained);
        drained.sort_unstable();
        for &s in &drained {
            debug_assert!(self.warps[s].as_ref().is_some_and(WarpState::is_drained));
            debug_assert!(self.scoreboard.is_warp_idle(s));
            #[cfg(feature = "sanitize")]
            self.oracle.on_warp_free(s);
            if let Some(cap) = self.probes.final_regs.as_mut() {
                let w = self.warps[s].as_ref().expect("drained warp present");
                cap.insert((w.block, w.warp_in_block), self.dp.capture(s));
            }
            self.dp.free(s, self.now);
            self.warps[s] = None;
            self.resident -= 1;
            self.by_age[s % self.cfg.num_schedulers].retain(|&x| x != s);
        }
        drained.clear();
        self.drained = drained;
    }

    // -----------------------------------------------------------------
    // Issue
    // -----------------------------------------------------------------

    fn issue_stage(&mut self) {
        let n = self.cfg.num_schedulers;
        for s in 0..n {
            // The walk reads the age list while probes mutate the engine.
            let by_age = mem::take(&mut self.by_age[s]);
            let issued = walk(
                self.cfg.scheduler,
                s,
                n,
                self.warps.len(),
                &by_age,
                self.sched_last[s],
                |slot| self.is_ready(slot) && self.try_issue(slot),
            );
            self.by_age[s] = by_age;
            if let Some(slot) = issued {
                self.sched_last[s] = Some(slot);
                self.last_progress = self.now;
            }
        }
    }

    /// Whether the warp in `slot` may be offered an issue slot: resident,
    /// not finished and not waiting on a branch.
    fn is_ready(&self, slot: usize) -> bool {
        matches!(&self.warps[slot], Some(w) if !w.is_done() && !w.blocked)
    }

    /// What the ready warp in `slot` would issue now, or `Err(pc)` when a
    /// scoreboard or LSU-order hazard holds it at `pc`.
    fn issue_candidate(&self, slot: usize) -> Result<Candidate, usize> {
        let warp = self.warps[slot].as_ref().expect("ready warp resident");
        let pc = warp.stack.pc().expect("ready warp has a pc");
        let op = self.decoded[pc];
        let divergent = warp.is_divergent();

        // §5.2: a divergent write to a compressed register is preceded by
        // an injected dummy MOV that decompresses it in place.
        let inject = self.cfg.compression.is_enabled()
            && self.cfg.compression.divergence == DivergencePolicy::UncompressedWrites
            && divergent
            && op
                .dst
                .is_some_and(|d| self.dp.regfile.is_compressed(WarpSlot(slot), d));
        let (op, mask) = if inject {
            let d = op.instr.dst().expect("inject requires a destination");
            let mov = Instruction::Mov {
                dst: d,
                src: Operand::Reg(d),
            };
            (Decoded::new(mov), warp.full_mask)
        } else {
            (op, warp.stack.mask())
        };

        if !self.scoreboard.can_issue(slot, &op.srcs, op.dst) {
            return Err(pc);
        }
        // LSU ordering: memory effects happen at dispatch, so a new
        // load/store must wait until the warp's previous one has
        // dispatched — otherwise same-address accesses could reorder.
        if op.is_mem && warp.pending_mem > 0 {
            return Err(pc);
        }
        Ok(Candidate {
            pc,
            op,
            mask,
            divergent,
            synthetic: inject,
        })
    }

    /// Attempts to issue one instruction from the ready warp in `slot`.
    fn try_issue(&mut self, slot: usize) -> bool {
        if let Some(pc) = self.hazard_wait[slot] {
            debug_assert_eq!(
                self.issue_candidate(slot).err(),
                Some(pc),
                "cached hazard of slot {slot} no longer holds"
            );
            self.pc_stalls[pc].record(StallCause::Scoreboard);
            return false;
        }
        let Candidate {
            pc,
            op,
            mask,
            divergent,
            synthetic,
        } = match self.issue_candidate(slot) {
            Ok(c) => c,
            Err(pc) => {
                self.hazard_wait[slot] = Some(pc);
                self.pc_stalls[pc].record(StallCause::Scoreboard);
                return false;
            }
        };

        match op.instr {
            Instruction::Jmp { target } => {
                let warp = self.warps[slot].as_mut().expect("checked");
                warp.stack.jump(target);
                self.count_issue(divergent, synthetic);
                true
            }
            Instruction::Exit => {
                let warp = self.warps[slot].as_mut().expect("checked");
                warp.stack.exit_threads();
                self.note_if_drained(slot);
                self.count_issue(divergent, synthetic);
                true
            }
            _ => {
                let Some(ci) = self.collectors.iter().position(Option::is_none) else {
                    self.pc_stalls[pc].record(StallCause::CollectorFull);
                    return false;
                };
                let srcs = op.srcs;
                self.scoreboard.issue(slot, &srcs, op.dst);
                #[cfg(feature = "sanitize")]
                self.oracle.on_issue(slot, pc, &srcs, op.dst);
                let warp = self.warps[slot].as_mut().expect("checked");
                warp.inflight += 1;
                if op.is_mem {
                    warp.pending_mem += 1;
                }
                match op.instr {
                    Instruction::Bra { .. } => warp.blocked = true,
                    _ if synthetic => {} // pc unchanged; real instruction issues later
                    _ => warp.stack.advance(),
                }
                let fetches = [0, 1].map(|i| Fetch {
                    reg: srcs.get(i).copied().unwrap_or_default(),
                    value: None,
                });
                self.collectors[ci] = Some(Collector {
                    slot,
                    pc,
                    instr: op.instr,
                    mask,
                    divergent,
                    synthetic,
                    srcs,
                    fetches,
                    decomp_extra: 0,
                });
                self.count_issue(divergent, synthetic);
                true
            }
        }
    }

    fn count_issue(&mut self, divergent: bool, synthetic: bool) {
        if synthetic {
            self.stats.synthetic_movs += 1;
        } else {
            self.stats.instructions += 1;
            if divergent {
                self.stats.divergent_instructions += 1;
            }
        }
    }

    // -----------------------------------------------------------------
    // Operand collection and dispatch
    // -----------------------------------------------------------------

    fn collector_stage(&mut self) -> Result<(), SimError> {
        for ci in 0..self.collectors.len() {
            if self.collectors[ci].is_none() {
                continue;
            }
            if self.fetch_operands(ci)? {
                let c = self.collectors[ci].take().expect("checked");
                self.dispatch(c)?;
                self.last_progress = self.now;
            }
        }
        Ok(())
    }

    /// Fetches what it can of collector `ci`'s missing operands, in
    /// place, and says whether all of them are now in.
    fn fetch_operands(&mut self, ci: usize) -> Result<bool, SimError> {
        let c = self.collectors[ci].as_mut().expect("occupied collector");
        let bank_base = self.bank_base[c.slot];
        let mut complete = true;
        for f in c.fetches[..c.srcs.len()].iter_mut() {
            if f.value.is_some() {
                continue;
            }
            let indicator = self
                .dp
                .regfile
                .indicator(WarpSlot(c.slot), f.reg)
                .expect("operand register is allocated");
            let compressed = indicator.is_compressed();
            if compressed && self.decomp_starts >= self.cfg.compression.num_decompressors {
                self.stats.collector_retry_cycles += 1;
                self.pc_stalls[c.pc].record(StallCause::Decompressor);
                complete = false;
                continue;
            }
            let banks = indicator.banks_accessed();
            if !self.ports.try_read(bank_base..bank_base + banks) {
                self.stats.collector_retry_cycles += 1;
                self.pc_stalls[c.pc].record(StallCause::BankConflict);
                complete = false;
                continue;
            }
            f.value = Some(self.dp.read(c.slot, f.reg, self.now)?);
            if compressed {
                self.decomp_starts += 1;
                self.stats.decompressor_activations += 1;
                c.decomp_extra = c
                    .decomp_extra
                    .max(self.cfg.compression.decompression_latency);
            }
        }
        Ok(complete)
    }

    fn dispatch(&mut self, c: Collector) -> Result<(), SimError> {
        // Dispatch changes the slot's scoreboard, its pending memory
        // count and, for a branch, its SIMT stack: any cached stall is
        // stale.
        self.hazard_wait[c.slot] = None;
        self.scoreboard.release_reads(c.slot, &c.srcs);
        #[cfg(feature = "sanitize")]
        self.oracle.on_capture(c.slot, &c.srcs);
        let warp = self.warps[c.slot]
            .as_ref()
            .expect("warp alive while in flight");
        let effect = Lanes {
            kernel: self.kernel,
            launch: self.launch,
            block: warp.block,
            warp_in_block: warp.warp_in_block,
            pc: c.pc,
            mask: c.mask,
            operands: c.operands(),
        }
        .execute(c.instr, self.memory)?;
        let done_at = self.now + self.cfg.latency(c.instr.latency_class()) + c.decomp_extra;
        let warp = self.warps[c.slot].as_mut().expect("warp alive");
        match effect {
            Effect::Write { reg, value } => self.push_writeback(&c, reg, value, done_at),
            Effect::Load { reg, value, access } => {
                warp.pending_mem -= 1;
                self.record_mem(&access);
                self.push_writeback(&c, reg, value, done_at);
            }
            Effect::Store(access) => {
                warp.inflight -= 1;
                warp.pending_mem -= 1;
                self.record_mem(&access);
                self.note_if_drained(c.slot);
            }
            Effect::Branch {
                taken,
                target,
                reconv,
            } => {
                warp.stack.branch(taken, target, reconv);
                warp.blocked = false;
                warp.inflight -= 1;
                self.note_if_drained(c.slot);
            }
        }
        Ok(())
    }

    /// Charges coalescer traffic for one dispatched access (distinct
    /// 32-word segments across the active lanes) and feeds the armed
    /// memory-trace observer, if any.
    fn record_mem(&mut self, access: &MemEvent) {
        if access.mask == 0 {
            return;
        }
        let mut segs = [0u32; 32];
        let mut n = 0;
        for (_, a) in access.active_addrs() {
            if !segs[..n].contains(&(a >> 5)) {
                segs[n] = a >> 5;
                n += 1;
            }
        }
        let t = &mut self.pc_mem[access.pc];
        t.accesses += 1;
        t.transactions += n as u64;
        if let Some(observer) = self.probes.mem.as_mut() {
            observer(access);
        }
    }

    /// Parks a result in the FIFO of its delay until it comes due.
    fn push_writeback(&mut self, c: &Collector, reg: usize, value: WarpRegister, done_at: u64) {
        let delay = done_at - self.now;
        let fifo = match self.awaiting.iter().position(|(d, _)| *d == delay) {
            Some(i) => i,
            None => {
                self.awaiting.push((delay, VecDeque::new()));
                self.awaiting.len() - 1
            }
        };
        self.awaiting[fifo].1.push_back(WbEntry {
            seq: self.next_seq,
            pc: c.pc,
            write: PendingWrite {
                slot: c.slot,
                reg,
                value,
                mask: c.mask,
                divergent: c.divergent,
                synthetic: c.synthetic,
            },
            state: WbState::Await { done_at },
        });
        self.next_seq += 1;
    }

    /// Moves every result that comes due this cycle into the writeback
    /// queue at its push-order position. Merging the FIFO fronts by
    /// `seq` keeps the queue in push order, which is the priority order
    /// compressors and write ports are offered in.
    fn admit_due(&mut self) {
        loop {
            let mut next: Option<(usize, u64)> = None;
            for (i, (_, fifo)) in self.awaiting.iter().enumerate() {
                if let Some(e) = fifo.front() {
                    if e.due_at() <= self.now && next.is_none_or(|(_, seq)| e.seq < seq) {
                        next = Some((i, e.seq));
                    }
                }
            }
            let Some((i, seq)) = next else {
                return;
            };
            let e = self.awaiting[i].1.pop_front().expect("front checked");
            let at = self.writebacks.partition_point(|x| x.seq < seq);
            self.writebacks.insert(at, e);
        }
    }

    // -----------------------------------------------------------------
    // Writeback: merge → compress → bank write
    // -----------------------------------------------------------------

    /// Advances every in-flight result as far as it can go this cycle,
    /// oldest first. Results still inside their execution latency would
    /// only stall without a trace, so they wait in `awaiting` and are
    /// not visited. The queue is walked in place: a stalled entry stays
    /// where it is, and only retired entries leave it.
    fn writeback_stage(&mut self) -> Result<(), SimError> {
        self.admit_due();
        let mut queue = mem::take(&mut self.writebacks);
        let mut failed = None;
        queue.retain_mut(|e| {
            if failed.is_some() {
                return true;
            }
            loop {
                match self.step_writeback(e) {
                    Ok(StepOutcome::Progress) => continue,
                    Ok(StepOutcome::Stalled) => return true,
                    Ok(StepOutcome::Retired) => {
                        self.last_progress = self.now;
                        return false;
                    }
                    Err(err) => {
                        failed = Some(err);
                        return true;
                    }
                }
            }
        });
        self.writebacks = queue;
        failed.map_or(Ok(()), Err)
    }

    fn step_writeback(&mut self, e: &mut WbEntry) -> Result<StepOutcome, SimError> {
        let comp = &self.cfg.compression;
        match &e.state {
            WbState::Await { done_at } => {
                if self.now < *done_at {
                    return Ok(StepOutcome::Stalled);
                }
                self.dp.merge(&mut e.write, &mut self.stats, self.now)?;
                let w = &e.write;
                let skip_compressor = !comp.is_enabled()
                    || w.synthetic
                    || (w.divergent && comp.divergence == DivergencePolicy::UncompressedWrites);
                e.state = if skip_compressor {
                    WbState::Ready {
                        compressed: CompressedRegister::Uncompressed(w.value),
                        not_before: self.now,
                    }
                } else {
                    WbState::NeedCompressor
                };
                Ok(StepOutcome::Progress)
            }
            WbState::NeedCompressor => {
                if self.comp_starts >= comp.num_compressors {
                    return Ok(StepOutcome::Stalled);
                }
                self.comp_starts += 1;
                self.stats.compressor_activations += 1;
                let compressed = self.dp.codec.compress(&e.write.value);
                e.state = WbState::Compressing {
                    done_at: self.now + comp.compression_latency,
                    compressed,
                };
                Ok(StepOutcome::Progress)
            }
            WbState::Compressing {
                done_at,
                compressed,
            } => {
                if self.now < *done_at {
                    return Ok(StepOutcome::Stalled);
                }
                e.state = WbState::Ready {
                    compressed: *compressed,
                    not_before: self.now,
                };
                Ok(StepOutcome::Progress)
            }
            WbState::Ready {
                compressed,
                not_before,
            } => {
                if self.now < *not_before {
                    return Ok(StepOutcome::Stalled);
                }
                let bank_base = self.bank_base[e.write.slot];
                let banks = compressed.banks_required();
                if !self.ports.try_write(bank_base..bank_base + banks) {
                    self.pc_stalls[e.pc].record(StallCause::WritebackPort);
                    return Ok(StepOutcome::Stalled);
                }
                match self
                    .dp
                    .write(&e.write, *compressed, &mut self.stats, self.now)
                {
                    Ok(()) => {
                        self.retire_write(e, compressed.class());
                        Ok(StepOutcome::Retired)
                    }
                    Err(WriteError::NotReady { ready_at }) => {
                        self.pc_stalls[e.pc].record(StallCause::WritebackPort);
                        e.state = WbState::Ready {
                            compressed: *compressed,
                            not_before: ready_at,
                        };
                        Ok(StepOutcome::Stalled)
                    }
                    Err(WriteError::Unallocated) => {
                        unreachable!("warp cannot drain with writes in flight")
                    }
                }
            }
        }
    }

    /// Publishes a stored write and releases what it held.
    fn retire_write(&mut self, e: &WbEntry, class: CompressionClass) {
        let w = &e.write;
        if let Some(observer) = self.probes.writes.as_mut() {
            observer(&WriteEvent {
                pc: e.pc,
                value: w.value,
                class,
                divergent: w.divergent,
                synthetic: w.synthetic,
            });
        }
        // The write changes the slot's scoreboard and the stored form
        // of `w.reg`, which the §5.2 inject decision reads: any cached
        // stall is stale.
        self.hazard_wait[w.slot] = None;
        self.scoreboard.release_write(w.slot, w.reg);
        #[cfg(feature = "sanitize")]
        self.oracle.on_retire_write(w.slot, w.reg);
        let warp = self.warps[w.slot]
            .as_mut()
            .expect("warp alive while in flight");
        warp.inflight -= 1;
        self.note_if_drained(w.slot);
    }

    // -----------------------------------------------------------------
    // Census (Fig. 12)
    // -----------------------------------------------------------------

    fn sample_census(&mut self) {
        for slot in 0..self.warps.len() {
            let Some(w) = self.warps[slot].as_ref() else {
                continue;
            };
            if w.is_done() {
                continue;
            }
            let divergent = w.is_divergent();
            let (compressed, total) = self.dp.regfile.warp_census(WarpSlot(slot));
            if divergent {
                self.stats.census.div_compressed += compressed as u64;
                self.stats.census.div_total += total as u64;
            } else {
                self.stats.census.nondiv_compressed += compressed as u64;
                self.stats.census.nondiv_total += total as u64;
            }
        }
    }
}

/// Offers scheduler `s`'s warp slots to `probe` in `policy` priority
/// order and returns the first slot it accepts. `n` is the scheduler
/// count (scheduler `s` owns the slots `slot % n == s`), `by_age` the
/// scheduler's resident slots, oldest launch first, and `last` the slot
/// that issued last. `probe` also screens out the slots that are not
/// ready.
///
/// - GTO (greedy-then-oldest) offers `last` first, then `by_age`
///   without it.
/// - LRR (loose round-robin) offers the scheduler's slot ring, starting
///   just after `last` and wrapping around.
///
/// A rejected probe changes nothing a later probe reads, so walking
/// lazily visits the same warps as building the ready list first.
fn walk(
    policy: SchedulerPolicy,
    s: usize,
    n: usize,
    num_slots: usize,
    by_age: &[usize],
    last: Option<usize>,
    mut probe: impl FnMut(usize) -> bool,
) -> Option<usize> {
    match policy {
        SchedulerPolicy::Gto => {
            if let Some(l) = last {
                if probe(l) {
                    return Some(l);
                }
            }
            by_age
                .iter()
                .copied()
                .find(|&slot| Some(slot) != last && probe(slot))
        }
        SchedulerPolicy::Lrr => {
            let ring = num_slots.saturating_sub(s).div_ceil(n);
            let start = last.map_or(0, |l| ((l - s) / n + 1) % ring);
            (0..ring)
                .map(|k| s + (start + k) % ring * n)
                .find(|&slot| probe(slot))
        }
    }
}

enum StepOutcome {
    Progress,
    Stalled,
    Retired,
}

/// The per-pc counters that were ever charged, keyed by pc.
fn nonzero_by_pc<T: Copy + Default + PartialEq>(counters: &[T]) -> BTreeMap<usize, T> {
    counters
        .iter()
        .enumerate()
        .filter(|(_, c)| **c != T::default())
        .map(|(pc, c)| (pc, *c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simt_isa::{AluOp, KernelBuilder, Reg, Special};

    fn run_kernel(
        cfg: GpuConfig,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
    ) -> SimResult {
        GpuSim::new(cfg)
            .run(kernel, launch, memory)
            .expect("simulation succeeds")
    }

    /// mem[gtid] = gtid * 2 + 1
    fn affine_kernel() -> Kernel {
        let mut b = KernelBuilder::new("affine", 3);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.alu(AluOp::Mul, Reg(1), Reg(0).into(), Operand::Imm(2));
        b.alu(AluOp::Add, Reg(2), Reg(1).into(), Operand::Imm(1));
        b.st(Reg(0), 0, Reg(2));
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn straight_line_kernel_computes_correctly_baseline() {
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(128);
        run_kernel(
            GpuConfig::baseline(),
            &kernel,
            &LaunchConfig::new(2, 64),
            &mut mem,
        );
        for i in 0..128 {
            assert_eq!(mem.word(i).unwrap(), (i * 2 + 1) as u32, "word {i}");
        }
    }

    #[test]
    fn straight_line_kernel_computes_correctly_compressed() {
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(128);
        let r = run_kernel(
            GpuConfig::warped_compression(),
            &kernel,
            &LaunchConfig::new(2, 64),
            &mut mem,
        );
        for i in 0..128 {
            assert_eq!(mem.word(i).unwrap(), (i * 2 + 1) as u32, "word {i}");
        }
        // Affine values compress; some writes must be compressed.
        assert!(r.stats.writes_compressed > 0);
        assert!(r.stats.compression_ratio() > 1.0);
    }

    #[test]
    fn compressed_run_accesses_fewer_banks() {
        let kernel = affine_kernel();
        let launch = LaunchConfig::new(2, 64);
        let mut m1 = GlobalMemory::zeroed(128);
        let base = run_kernel(GpuConfig::baseline(), &kernel, &launch, &mut m1);
        let mut m2 = GlobalMemory::zeroed(128);
        let wc = run_kernel(GpuConfig::warped_compression(), &kernel, &launch, &mut m2);
        assert!(
            wc.stats.regfile.total_accesses() < base.stats.regfile.total_accesses(),
            "wc {} vs base {}",
            wc.stats.regfile.total_accesses(),
            base.stats.regfile.total_accesses()
        );
    }

    #[test]
    fn divergent_kernel_counts_divergence() {
        // if (tid < 16) r1 = 1 else r1 = 2; mem[gtid] = r1
        let mut b = KernelBuilder::new("div", 3);
        b.mov(Reg(0), Operand::Special(Special::Tid));
        b.alu(AluOp::SetLt, Reg(1), Reg(0).into(), Operand::Imm(16));
        let then = b.label();
        let merge = b.label();
        b.bra(Reg(1), then, merge);
        b.mov(Reg(2), Operand::Imm(2)); // else path (fallthrough)
        b.jmp(merge);
        b.bind(then);
        b.mov(Reg(2), Operand::Imm(1));
        b.bind(merge);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.st(Reg(0), 0, Reg(2));
        b.exit();
        let kernel = b.build().unwrap();

        let mut mem = GlobalMemory::zeroed(32);
        let r = run_kernel(
            GpuConfig::warped_compression(),
            &kernel,
            &LaunchConfig::new(1, 32),
            &mut mem,
        );
        for i in 0..32 {
            assert_eq!(mem.word(i).unwrap(), if i < 16 { 1 } else { 2 }, "word {i}");
        }
        assert!(r.stats.divergent_instructions > 0);
        assert!(r.stats.nondivergent_ratio() < 1.0);
    }

    #[test]
    fn divergent_writes_to_compressed_registers_inject_movs() {
        // r2 starts compressed (uniform write), then a divergent write
        // hits it -> dummy MOV must be injected.
        let mut b = KernelBuilder::new("movinject", 3);
        b.mov(Reg(0), Operand::Special(Special::Tid));
        b.mov(Reg(2), Operand::Imm(7)); // compressed <4,0>
        b.alu(AluOp::SetLt, Reg(1), Reg(0).into(), Operand::Imm(8));
        let then = b.label();
        let merge = b.label();
        b.bra(Reg(1), then, merge);
        b.jmp(merge);
        b.bind(then);
        b.alu(AluOp::Mul, Reg(2), Reg(0).into(), Reg(0).into()); // divergent write to r2
        b.bind(merge);
        b.st(Reg(0), 0, Reg(2));
        b.exit();
        let kernel = b.build().unwrap();

        let mut mem = GlobalMemory::zeroed(32);
        let r = run_kernel(
            GpuConfig::warped_compression(),
            &kernel,
            &LaunchConfig::new(1, 32),
            &mut mem,
        );
        assert!(r.stats.synthetic_movs > 0, "expected injected MOVs");
        for i in 0..32u32 {
            assert_eq!(mem.word(i as usize).unwrap(), if i < 8 { i * i } else { 7 });
        }
    }

    #[test]
    fn no_movs_without_compression() {
        let mut b = KernelBuilder::new("nomov", 3);
        b.mov(Reg(0), Operand::Special(Special::Tid));
        b.mov(Reg(2), Operand::Imm(7));
        b.alu(AluOp::SetLt, Reg(1), Reg(0).into(), Operand::Imm(8));
        let then = b.label();
        let merge = b.label();
        b.bra(Reg(1), then, merge);
        b.jmp(merge);
        b.bind(then);
        b.mov(Reg(2), Operand::Imm(9));
        b.bind(merge);
        b.exit();
        let kernel = b.build().unwrap();
        let mut mem = GlobalMemory::zeroed(1);
        let r = run_kernel(
            GpuConfig::baseline(),
            &kernel,
            &LaunchConfig::new(1, 32),
            &mut mem,
        );
        assert_eq!(r.stats.synthetic_movs, 0);
    }

    #[test]
    fn loop_kernel_terminates_and_counts() {
        // for (i = 0; i < 10; i++) acc += i; mem[gtid] = acc
        let mut b = KernelBuilder::new("loop", 4);
        b.mov(Reg(0), Operand::Imm(0)); // i
        b.mov(Reg(1), Operand::Imm(0)); // acc
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
        let kernel = b.build().unwrap();
        let mut mem = GlobalMemory::zeroed(32);
        let r = run_kernel(
            GpuConfig::warped_compression(),
            &kernel,
            &LaunchConfig::new(1, 32),
            &mut mem,
        );
        for i in 0..32 {
            assert_eq!(mem.word(i).unwrap(), 45);
        }
        assert!(r.stats.instructions >= 4 * 10);
    }

    #[test]
    fn stall_breakdown_partitions_the_retry_aggregate() {
        // The legacy aggregate counts exactly the operand-fetch retry
        // causes; every other cause is attributed separately. Checked on
        // a run busy enough to exercise conflicts and hazards.
        let kernel = affine_kernel();
        let launch = LaunchConfig::new(4, 64);
        for cfg in [GpuConfig::baseline(), GpuConfig::warped_compression()] {
            let mut mem = GlobalMemory::zeroed(256);
            let r = run_kernel(cfg, &kernel, &launch, &mut mem);
            let fetch: u64 = r
                .stats
                .stalls
                .by_pc
                .values()
                .map(|p| p.operand_fetch())
                .sum();
            assert_eq!(
                fetch, r.stats.collector_retry_cycles,
                "bank_conflict + decompressor must equal collector_retry_cycles"
            );
            // Every stalled pc is a real program counter.
            for &pc in r.stats.stalls.by_pc.keys() {
                assert!(kernel.instr(pc).is_some(), "stall at unknown pc {pc}");
            }
            // The dependent ALU chain must block on the scoreboard at
            // least once somewhere.
            assert!(r.stats.stalls.total(StallCause::Scoreboard) > 0);
        }
    }

    #[test]
    fn memory_fault_is_reported() {
        let mut b = KernelBuilder::new("oob", 1);
        b.mov(Reg(0), Operand::Imm(1_000_000));
        b.st(Reg(0), 0, Reg(0));
        b.exit();
        let kernel = b.build().unwrap();
        let mut mem = GlobalMemory::zeroed(4);
        let err = GpuSim::new(GpuConfig::baseline())
            .run(&kernel, &LaunchConfig::new(1, 32), &mut mem)
            .unwrap_err();
        match err {
            SimError::MemoryAt {
                ref kernel,
                block,
                warp_in_block,
                pc,
                fault,
            } => {
                assert_eq!(kernel, "oob");
                assert_eq!((block, warp_in_block), (0, 0));
                assert_eq!(pc, 1);
                assert_eq!(fault.addr, 1_000_000);
                let msg = err.to_string();
                assert!(msg.contains("`oob`"), "context in message: {msg}");
                assert!(msg.contains("pc 1"), "pc in message: {msg}");
            }
            other => panic!("expected attributed memory fault, got {other:?}"),
        }
    }

    #[test]
    fn mem_trace_reports_addresses_and_coalescing() {
        // tid-indexed store (coalesced, 1 transaction) then a strided
        // load at stride 2 (64 words → 2 segments per access).
        let mut b = KernelBuilder::new("trace", 3);
        b.mov(Reg(0), Operand::Special(Special::Tid));
        b.alu(AluOp::Mul, Reg(1), Operand::Reg(Reg(0)), Operand::Imm(2));
        b.st(Reg(0), 0, Reg(0));
        b.ld(Reg(2), Reg(1), 0);
        b.exit();
        let kernel = b.build().unwrap();
        let mut mem = GlobalMemory::zeroed(64);
        let mut events = Vec::new();
        let r = GpuSim::new(GpuConfig::baseline())
            .run_mem_observed(&kernel, &LaunchConfig::new(1, 32), &mut mem, &mut |e| {
                events.push(*e)
            })
            .unwrap();
        assert_eq!(events.len(), 2);
        let st = &events[0];
        assert!(st.is_store);
        assert_eq!((st.pc, st.block, st.warp_in_block), (2, 0, 0));
        assert_eq!(st.mask, u32::MAX);
        let addrs: Vec<u32> = st.active_addrs().map(|(_, a)| a).collect();
        assert_eq!(addrs, (0..32).collect::<Vec<u32>>());
        let ld = &events[1];
        assert!(!ld.is_store);
        assert_eq!(ld.addrs[5], 10);
        // Coalescing traffic: the store touches one 32-word segment,
        // the strided load two.
        assert_eq!(r.stats.mem.at(2).accesses, 1);
        assert_eq!(r.stats.mem.at(2).transactions, 1);
        assert_eq!(r.stats.mem.at(3).accesses, 1);
        assert_eq!(r.stats.mem.at(3).transactions, 2);
        assert_eq!(r.stats.mem.total_accesses(), 2);
    }

    #[test]
    fn block_too_large_is_reported() {
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(4);
        // 49 warps per block exceeds the 48-slot SM.
        let err = GpuSim::new(GpuConfig::baseline())
            .run(&kernel, &LaunchConfig::new(1, 49 * 32), &mut mem)
            .unwrap_err();
        assert!(matches!(err, SimError::BlockTooLarge { .. }));
    }

    #[test]
    fn many_blocks_round_robin_through_slots() {
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(32 * 64);
        run_kernel(
            GpuConfig::warped_compression(),
            &kernel,
            &LaunchConfig::new(64, 32),
            &mut mem,
        );
        for i in 0..(32 * 64) {
            assert_eq!(mem.word(i).unwrap(), (i * 2 + 1) as u32);
        }
    }

    #[test]
    fn lrr_scheduler_also_completes() {
        let mut cfg = GpuConfig::warped_compression();
        cfg.scheduler = SchedulerPolicy::Lrr;
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(256);
        run_kernel(cfg, &kernel, &LaunchConfig::new(4, 64), &mut mem);
        for i in 0..256 {
            assert_eq!(mem.word(i).unwrap(), (i * 2 + 1) as u32);
        }
    }

    #[test]
    fn observer_sees_register_writes() {
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(32);
        let mut events = Vec::new();
        GpuSim::new(GpuConfig::warped_compression())
            .run_observed(&kernel, &LaunchConfig::new(1, 32), &mut mem, &mut |e| {
                events.push(*e)
            })
            .unwrap();
        assert_eq!(events.len() as u64, 3); // three register-writing instructions
        assert!(events.iter().all(|e| !e.divergent && !e.synthetic));
        // First write is gtid: 0..32.
        assert_eq!(events[0].value.lane(5), 5);
    }

    #[test]
    fn one_probed_run_sees_what_the_single_probe_runs_see() {
        // Two blocks of 64 threads: lanes with tid < 40 load mem[gtid]
        // inside a divergent branch; every lane then stores
        // mem[gtid] + tid to mem[128 + gtid].
        let mut b = KernelBuilder::new("probes", 4);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.mov(Reg(1), Operand::Special(Special::Tid));
        b.mov(Reg(2), Operand::Imm(7));
        b.alu(AluOp::SetLt, Reg(3), Reg(1).into(), Operand::Imm(40));
        let then = b.label();
        let merge = b.label();
        b.bra(Reg(3), then, merge);
        b.jmp(merge);
        b.bind(then);
        b.ld(Reg(2), Reg(0), 0);
        b.bind(merge);
        b.alu(AluOp::Add, Reg(2), Reg(2).into(), Reg(1).into());
        b.st(Reg(0), 128, Reg(2));
        b.exit();
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::new(2, 64);
        let sim = GpuSim::new(GpuConfig::warped_compression());
        let fresh = || GlobalMemory::from_words((0..256).map(|i| i * 3).collect());

        let mut writes = Vec::new();
        let mut accesses = Vec::new();
        let mut all_mem = fresh();
        let mut on_write = |e: &WriteEvent| writes.push(*e);
        let mut on_access = |e: &MemEvent| accesses.push(*e);
        let mut probes = Probes {
            writes: Some(&mut on_write),
            mem: Some(&mut on_access),
            final_regs: Some(FinalRegs::new()),
        };
        let all = sim
            .run_with(&kernel, &launch, &mut all_mem, &mut probes)
            .unwrap();
        let all_regs = probes.final_regs.take().unwrap();

        let mut obs_writes = Vec::new();
        let mut obs_mem = fresh();
        let observed = sim
            .run_observed(&kernel, &launch, &mut obs_mem, &mut |e| obs_writes.push(*e))
            .unwrap();
        let mut mem_accesses = Vec::new();
        let mut traced_mem = fresh();
        let traced = sim
            .run_mem_observed(&kernel, &launch, &mut traced_mem, &mut |e| {
                mem_accesses.push(*e)
            })
            .unwrap();
        let mut cap_mem = fresh();
        let (captured, regs) = sim.run_capturing(&kernel, &launch, &mut cap_mem).unwrap();

        assert!(all.stats.divergent_instructions > 0, "the branch diverges");
        assert!(accesses.iter().any(|a| !a.is_store) && accesses.iter().any(|a| a.is_store));
        for single in [&observed, &traced, &captured] {
            assert_eq!(&all, single);
        }
        assert_eq!(writes, obs_writes);
        assert_eq!(accesses, mem_accesses);
        assert_eq!(all_regs, regs);
        assert_eq!(all_regs.len(), 4, "two blocks of two warps");
        for mem in [&obs_mem, &traced_mem, &cap_mem] {
            assert_eq!(&all_mem, mem);
        }
        assert_eq!(all_mem.word(128 + 65).unwrap(), 65 * 3 + 1);
        assert_eq!(all_mem.word(128 + 127).unwrap(), 7 + 63);
    }

    #[test]
    fn compression_latency_slows_execution() {
        let kernel = affine_kernel();
        let launch = LaunchConfig::new(4, 64);
        let run_at = |cl: u64, dl: u64| {
            let mut cfg = GpuConfig::warped_compression();
            cfg.compression.compression_latency = cl;
            cfg.compression.decompression_latency = dl;
            let mut mem = GlobalMemory::zeroed(256);
            run_kernel(cfg, &kernel, &launch, &mut mem).stats.cycles
        };
        let fast = run_at(2, 1);
        let slow = run_at(8, 8);
        assert!(slow >= fast, "slow {slow} < fast {fast}");
    }

    #[cfg(feature = "faults")]
    #[test]
    fn run_faulted_accounts_for_every_fault_and_is_deterministic() {
        use gpu_faults::{FaultInjector, FaultPlan, ProtectionModel};
        let kernel = affine_kernel();
        let run_once = || {
            let plan = FaultPlan::generate(7, 16, 64);
            let inj = FaultInjector::new(plan, ProtectionModel::SecDed, true);
            let mut mem = GlobalMemory::zeroed(128);
            GpuSim::new(GpuConfig::warped_compression()).run_faulted(
                &kernel,
                &LaunchConfig::new(2, 64),
                &mut mem,
                inj,
            )
        };
        let (r1, log1) = run_once();
        let (r2, log2) = run_once();
        assert_eq!(r1, r2, "same plan must give the same outcome");
        assert_eq!(log1, log2, "same plan must give the same fault log");
        assert_eq!(log1.events.len(), 16, "every planned fault resolves");
        // SEC-DED: nothing slips through silently.
        assert_eq!(log1.silent(), 0);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn run_faulted_unprotected_still_completes_or_reports() {
        use gpu_faults::{FaultInjector, FaultPlan, ProtectionModel};
        let kernel = affine_kernel();
        let plan = FaultPlan::generate(42, 32, 128);
        let inj = FaultInjector::new(plan, ProtectionModel::Unprotected, false);
        let mut mem = GlobalMemory::zeroed(128);
        let (result, log) = GpuSim::new(GpuConfig::warped_compression()).run_faulted(
            &kernel,
            &LaunchConfig::new(2, 64),
            &mut mem,
            inj,
        );
        assert_eq!(log.events.len(), 32);
        // Unprotected: nothing is ever corrected or flagged.
        assert_eq!(log.corrected() + log.detected(), 0);
        if let Err(e) = result {
            // A corrupted stored form may fail decode, and a silently
            // corrupted address register may fault in memory downstream.
            assert!(
                matches!(e, SimError::Read { .. } | SimError::MemoryAt { .. }),
                "unexpected: {e}"
            );
        }
    }

    /// The issue order before the lazy walk: scheduler `s`'s ready
    /// slots, filtered out of every resident slot (`all_by_age`, oldest
    /// launch first) and then rotated to the policy's starting point.
    fn materialised_order(
        policy: SchedulerPolicy,
        s: usize,
        n: usize,
        num_slots: usize,
        all_by_age: &[usize],
        last: Option<usize>,
        ready: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let mut slots = Vec::new();
        match policy {
            SchedulerPolicy::Gto => {
                slots.extend(
                    all_by_age
                        .iter()
                        .copied()
                        .filter(|&slot| slot % n == s && ready(slot)),
                );
                if let Some(last) = last {
                    if let Some(pos) = slots.iter().position(|&x| x == last) {
                        slots[..=pos].rotate_right(1);
                    }
                }
            }
            SchedulerPolicy::Lrr => {
                slots.extend((s..num_slots).step_by(n).filter(|&slot| ready(slot)));
                if let Some(last) = last {
                    let split = slots.iter().position(|&x| x > last).unwrap_or(0);
                    slots.rotate_left(split);
                }
            }
        }
        slots
    }

    proptest! {
        #[test]
        fn lazy_walk_visits_the_materialised_order(
            n in 1usize..5,
            states in prop::collection::vec(0u8..3, 1..49),
            age_keys in prop::collection::vec(0u32..1000, 48),
            lasts in prop::collection::vec(0usize..64, 4),
            accept in 0usize..8,
            gto in any::<bool>(),
        ) {
            // Slot states: 0 free, 1 resident but not ready, 2 ready.
            let policy = if gto { SchedulerPolicy::Gto } else { SchedulerPolicy::Lrr };
            let num_slots = states.len();
            let ready = |slot: usize| states[slot] == 2;
            let mut all_by_age: Vec<usize> = (0..num_slots).filter(|&x| states[x] != 0).collect();
            all_by_age.sort_by_key(|&x| (age_keys[x], x));
            for (s, pick) in lasts.into_iter().enumerate().take(n) {
                // The last issuer is any slot of the scheduler, resident
                // or since retired, or none yet.
                let ring: Vec<usize> = (s..num_slots).step_by(n).collect();
                let last = ring.get(pick % (ring.len() + 1)).copied();
                let by_age: Vec<usize> =
                    all_by_age.iter().copied().filter(|&x| x % n == s).collect();
                let want = materialised_order(policy, s, n, num_slots, &all_by_age, last, ready);

                let mut seen = Vec::new();
                let none = walk(policy, s, n, num_slots, &by_age, last, |slot| {
                    if ready(slot) {
                        seen.push(slot);
                    }
                    false
                });
                prop_assert_eq!(none, None);
                prop_assert_eq!(&seen, &want);

                // A probe that accepts the `accept`-th ready slot stops
                // the walk there.
                let mut seen = Vec::new();
                let issued = walk(policy, s, n, num_slots, &by_age, last, |slot| {
                    if !ready(slot) {
                        return false;
                    }
                    seen.push(slot);
                    seen.len() > accept
                });
                prop_assert_eq!(issued, want.get(accept).copied());
                prop_assert_eq!(&seen[..], &want[..want.len().min(accept + 1)]);
            }
        }
    }

    #[test]
    fn gated_cycles_appear_only_with_compression() {
        let kernel = affine_kernel();
        let launch = LaunchConfig::new(2, 64);
        let mut m1 = GlobalMemory::zeroed(128);
        let base = run_kernel(GpuConfig::baseline(), &kernel, &launch, &mut m1);
        assert_eq!(base.stats.regfile.gated_cycles.iter().sum::<u64>(), 0);
        let mut m2 = GlobalMemory::zeroed(128);
        // Short kernel: disable the gating hysteresis so the gated
        // intervals are visible within the run.
        let mut cfg = GpuConfig::warped_compression();
        cfg.regfile.gating_hysteresis = 0;
        let wc = run_kernel(cfg, &kernel, &launch, &mut m2);
        assert!(wc.stats.regfile.gated_cycles.iter().sum::<u64>() > 0);
    }
}
