//! Static performance lower bounds: bank-conflict and scoreboard
//! interference analysis.
//!
//! The third leg of the static stack (correctness → compressibility →
//! performance): this module proves a *static* version of the paper's
//! "negligible slowdown" claim by deriving, per kernel and launch,
//! cycle / bank-access / energy-activity numbers the simulator can
//! never beat. Everything here is a **lower bound** on what the
//! cycle-level simulator measures — `wcsim perf` gates on exactly that
//! inequality.
//!
//! Three ingredients:
//!
//! 1. **Guaranteed bank conflicts.** All operand fetches of one warp go
//!    through one register-file cluster (`cluster = slot % 4`), and a
//!    register read claims the bank range `base .. base + footprint` —
//!    which always includes the cluster's base bank, whatever the
//!    footprint (8 banks uncompressed, 1/3/5 compressed). Two same-
//!    cycle fetches of one instruction therefore *always* collide, so
//!    an instruction with `k` distinct register sources is guaranteed
//!    `k·(k−1)/2` operand-fetch retry stalls per execution, under both
//!    the uncompressed and the compression-aware layout
//!    ([`ConflictSite`]).
//!
//! 2. **Scoreboard dependence DAG.** Per basic block (and per traced
//!    warp), a resource-constrained critical path over RAW/WAW/WAR
//!    edges and the issue/collector/compressor ports: one issue per
//!    warp per cycle, `max(1, k)` operand-collection cycles, the
//!    execution latency of the unit, plus compression (+2) and
//!    decompression (+1) passes where the machine guarantees them.
//!
//! 3. **Whole-kernel extension.** A launch-specialised concrete tracer
//!    replays each warp against an exact mirror of the simulator's
//!    SIMT stack: loop trip counts and branch outcomes are resolved
//!    from concrete parameter/thread-index arithmetic, falling back to
//!    [`absint`](crate::absint) per-lane ranges for unknown predicates
//!    and — when even those lose the branch — to the CFG's
//!    minimum-instructions-to-exit serialized-path floor (sound for
//!    every divergent interleaving, because both sides of a divergent
//!    branch only ever *add* instructions).
//!
//! The result is a [`PerfPrediction`]: a cycle lower bound (the max of
//! the issue-width, dependence-chain, and compressor-port bounds),
//! static minimum bank-access counts, and minimum compressor /
//! decompressor activations — the inputs `gpu-power` needs to price a
//! static dynamic-energy floor.

use std::collections::BTreeMap;

use bdi::{BdiCodec, ChoiceSet, CompressionClass, WARP_SIZE};
use simt_isa::{Instruction, Kernel, LatencyClass};

use crate::absint::{interpret, AbsintAnalysis, LaunchInfo};
use crate::cfg::Cfg;
use crate::dataflow::ReachingDefs;
use crate::launch::LaunchAnalysis;
use crate::memabs::{access_sites, MemSite};
use crate::trace::{StepOutcome, TimingState, TraceStep, WarpReplay, UNCOMPRESSED_BANKS};

/// The pipeline parameters the bounds are derived from — the subset of
/// the simulator's configuration that is architecturally visible to a
/// static analysis. Mirrors `gpu_sim::GpuConfig`, which this crate
/// cannot depend on (the dependency points the other way); the
/// `warped_compression`/`baseline` constructors carry the same Table 2
/// values, and `warped_compression::perfbound` re-derives the machine
/// from the live `GpuConfig` so the two can never drift in the join.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfMachine {
    /// Warp schedulers (issue ports): at most this many instructions
    /// issue per cycle, and each warp belongs to exactly one scheduler.
    pub num_schedulers: usize,
    /// Integer-ALU result latency in cycles.
    pub alu_latency: u64,
    /// SFU (mul/div/rem) result latency in cycles.
    pub sfu_latency: u64,
    /// Global-memory load latency in cycles.
    pub mem_latency: u64,
    /// The BDI choices the compressor may use (disabled = baseline).
    pub choices: ChoiceSet,
    /// Compressor-unit latency added to every compressed writeback.
    pub compression_latency: u64,
    /// Decompressor latency added when an operand is stored compressed.
    pub decompression_latency: u64,
    /// Compressor units: at most this many compressions start per cycle.
    pub num_compressors: usize,
    /// Whether divergent writes bypass the compressor and store
    /// uncompressed (the paper's §5.2 dummy-MOV policy).
    pub uncompressed_divergent_writes: bool,
}

impl PerfMachine {
    /// The paper's warped-compression design point (Table 2).
    pub fn warped_compression() -> Self {
        PerfMachine {
            num_schedulers: 2,
            alu_latency: 4,
            sfu_latency: 16,
            mem_latency: 100,
            choices: ChoiceSet::warped_compression(),
            compression_latency: 2,
            decompression_latency: 1,
            num_compressors: 2,
            uncompressed_divergent_writes: true,
        }
    }

    /// The uncompressed baseline: same pipeline, compression off.
    pub fn baseline() -> Self {
        PerfMachine {
            choices: ChoiceSet::disabled(),
            ..Self::warped_compression()
        }
    }

    /// Whether register compression is active.
    pub fn compression_enabled(&self) -> bool {
        !self.choices.is_disabled()
    }

    pub(crate) fn latency_of(&self, class: LatencyClass) -> u64 {
        match class {
            LatencyClass::Sfu => self.sfu_latency,
            LatencyClass::Memory => self.mem_latency,
            _ => self.alu_latency,
        }
    }
}

/// Concrete launch geometry the tracer specialises against. Unlike
/// [`LaunchInfo`], nothing is optional: the performance bound is a
/// statement about one specific launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PerfLaunch {
    /// Thread blocks in the grid.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Scalar kernel parameters (missing slots read as 0, like the
    /// simulator's `LaunchConfig::param`).
    pub params: Vec<u32>,
    /// The entire initial global-memory image, when captured. Arms the
    /// abstract memory-cell refinement of loads in the scheduler and
    /// lint pipeline (see [`LaunchInfo::initial_mem`]).
    pub initial_mem: Option<std::sync::Arc<Vec<u32>>>,
}

impl PerfLaunch {
    /// A launch with the given geometry and no parameters.
    pub fn new(blocks: usize, threads_per_block: usize) -> Self {
        PerfLaunch {
            blocks,
            threads_per_block,
            params: Vec::new(),
            initial_mem: None,
        }
    }

    /// Adds parameter values.
    pub fn with_params(mut self, params: Vec<u32>) -> Self {
        self.params = params;
        self
    }

    /// The `i`-th scalar parameter (missing slots read as 0, mirroring
    /// the simulator's `LaunchConfig::param`).
    pub fn param(&self, i: usize) -> u32 {
        self.params.get(i).copied().unwrap_or(0)
    }

    /// Warps per block at the architectural warp size.
    pub fn warps_per_block(&self) -> usize {
        self.threads_per_block.div_ceil(WARP_SIZE)
    }

    /// The same launch as the absint / memabs / memcell passes see it:
    /// the memory size is known exactly when the image is attached.
    pub fn absint_info(&self) -> LaunchInfo {
        LaunchInfo {
            params: self.params.clone(),
            blocks: Some(self.blocks as u32),
            threads_per_block: Some(self.threads_per_block as u32),
            mem_words: self.initial_mem.as_ref().map(|m| m.len() as u64),
            initial_mem: self.initial_mem.clone(),
        }
    }
}

/// A statically guaranteed same-cycle bank conflict at one pc: the
/// instruction reads `sources ≥ 2` distinct registers, and every
/// fetch claims a bank range starting at the warp's cluster base, so
/// the reads can never all complete in one cycle — under either
/// register layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictSite {
    /// The pc of the conflicting instruction.
    pub pc: usize,
    /// Distinct source registers fetched through the collector.
    pub sources: usize,
    /// Retry stalls every single execution is guaranteed to log
    /// (`sources·(sources−1)/2`: fetches resolve at most one per
    /// cycle, and every unfinished fetch logs a retry each cycle).
    pub min_stalls_per_execution: u64,
    /// Executions the concrete tracer proved must happen (exact-traced
    /// warps only; approximate warps contribute their exact prefix).
    pub min_executions: u64,
    /// `min_stalls_per_execution × min_executions` — the per-PC floor
    /// the simulator's `bank_conflict + decompressor` stall counters
    /// are gated against.
    pub min_stalls: u64,
    /// Banks the fetches claim per execution under the uncompressed
    /// layout (8 per source).
    pub banks_uncompressed: usize,
    /// Banks claimed per execution under the compression-aware layout,
    /// bounded from above by the absint compression classes of the
    /// reaching definitions (1/3/5/8 per source).
    pub banks_compressed_bound: usize,
}

/// A statically guaranteed memory-coalescing floor at one load/store
/// pc: from the abstract per-lane address set, every dispatch of this
/// instruction must issue at least `min_transactions_per_access`
/// 32-word-segment transactions, mirroring how [`ConflictSite`] floors
/// the register-bank stalls.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemFloor {
    /// The pc of the load/store.
    pub pc: usize,
    /// Whether the access is a store.
    pub is_store: bool,
    /// Access-pattern name from the address abstraction
    /// (`uniform` / `coalesced` / `strided` / `scattered`).
    pub pattern: String,
    /// Coalescer transactions every single dispatch must issue. Only
    /// sites proven non-divergent under full warps carry a floor above
    /// 1 (a partial or divergent mask can touch fewer segments).
    pub min_transactions_per_access: u64,
    /// Dispatches the concrete tracer proved must happen (exact-traced
    /// warps only; approximate warps contribute their exact prefix).
    pub min_executions: u64,
    /// `min_transactions_per_access × min_executions` — the per-PC
    /// floor the simulator's transaction counter is gated against.
    pub min_transactions: u64,
}

/// The dependence-DAG cycle bound of one basic block: what a single
/// warp must spend to execute the block once, from the scoreboard
/// edges (RAW/WAW/WAR via reaching definitions), the one-issue-per-
/// warp-per-cycle port, and the `max(1, k)` collector occupancy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockBound {
    /// Block id (index into the CFG's block list).
    pub block: usize,
    /// First pc of the block.
    pub start: usize,
    /// One past the last pc of the block.
    pub end: usize,
    /// Instructions in the block.
    pub instructions: u64,
    /// Critical-path cycles per execution of the block.
    pub chain_cycles: u64,
}

/// The static performance lower bound for one kernel × launch ×
/// machine. Every field is a floor on the corresponding simulator
/// counter; `wcsim perf` fails if any floor exceeds its measurement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PerfPrediction {
    /// Kernel name.
    pub kernel: String,
    /// Static cycle lower bound: the max of the issue-width,
    /// dependence-chain, and compressor-port bounds.
    pub cycle_lower_bound: u64,
    /// Issue-width bound: `⌈min_instructions / num_schedulers⌉`.
    pub issue_bound: u64,
    /// Dependence-chain bound: the slowest single warp's critical path
    /// (sound whatever the interleaving — that warp still has to run).
    pub chain_bound: u64,
    /// Compressor-port bound: `⌈compressor activations / units⌉`.
    pub compressor_bound: u64,
    /// Program instructions every run must issue (injected dummy MOVs
    /// are extra on top and deliberately not counted).
    pub min_instructions: u64,
    /// Bank read accesses every run must perform.
    pub min_bank_reads: u64,
    /// Bank write accesses every run must perform.
    pub min_bank_writes: u64,
    /// Compressor activations every run must perform.
    pub min_compressor_activations: u64,
    /// Decompressor activations every run must perform.
    pub min_decompressor_activations: u64,
    /// Guaranteed same-cycle bank-conflict sites, in pc order.
    pub conflicts: Vec<ConflictSite>,
    /// Guaranteed memory-coalescing floors, in pc order (one per
    /// reachable load/store).
    pub mem_floors: Vec<MemFloor>,
    /// Per-basic-block dependence-DAG bounds, in block order.
    pub block_bounds: Vec<BlockBound>,
    /// Warps the tracer replayed exactly to completion.
    pub exact_warps: usize,
    /// Warps that fell back to the serialized-path floor.
    pub approx_warps: usize,
}

impl PerfPrediction {
    /// Total static bank-access floor (reads + writes), the number the
    /// register file's `total_accesses()` is gated against.
    pub fn min_bank_accesses(&self) -> u64 {
        self.min_bank_reads + self.min_bank_writes
    }

    /// The conflict site at `pc`, if any.
    pub fn conflict_at(&self, pc: usize) -> Option<&ConflictSite> {
        self.conflicts.iter().find(|c| c.pc == pc)
    }

    /// The memory-coalescing floor at `pc`, if any.
    pub fn mem_floor_at(&self, pc: usize) -> Option<&MemFloor> {
        self.mem_floors.iter().find(|m| m.pc == pc)
    }

    /// Whether every warp was traced exactly (no serialized-path
    /// fallback) — on such kernels the instruction floor is in fact
    /// the exact dynamic instruction count.
    pub fn is_exact(&self) -> bool {
        self.approx_warps == 0
    }
}

/// Computes the static performance lower bound of `kernel` under
/// `launch` on `machine`.
///
/// The kernel must be structurally valid (it is, by construction of
/// [`Kernel`]); the bound is sound for the simulator's single-SM
/// execution of the full launch, which is how `run_workload` runs it.
///
/// The memory-coalescing floors read only the launch-wide access sites,
/// so the one launch-wide [`interpret`] the tracer replays against
/// also yields them; no per-warp memory analysis is needed.
pub fn bound_kernel(kernel: &Kernel, launch: &PerfLaunch, machine: &PerfMachine) -> PerfPrediction {
    let cfg = Cfg::build(kernel.instrs());
    let absint = plain_absint(kernel, launch, &cfg);
    let sites = access_sites(kernel.instrs(), &absint);
    bound_with_facts(kernel, launch, machine, &cfg, &absint, &sites)
}

/// Like [`bound_kernel`], reading the control-flow graph and the memory
/// floors' access sites from `analysis`, which must have been built
/// from `kernel` under `launch` ([`PerfLaunch::absint_info`]).
/// The floors are the same: the tracer keeps its own plain
/// [`interpret`], unrefined by the memory cells.
pub fn bound_kernel_with(
    kernel: &Kernel,
    launch: &PerfLaunch,
    machine: &PerfMachine,
    analysis: &LaunchAnalysis,
) -> PerfPrediction {
    debug_assert!(analysis.describes(launch), "analysis of another launch");
    let absint = plain_absint(kernel, launch, &analysis.cfg);
    bound_with_facts(
        kernel,
        launch,
        machine,
        &analysis.cfg,
        &absint,
        &analysis.mem.sites,
    )
}

/// The launch-wide absint fixpoint the tracer replays against, without
/// the memory-cell refinement.
fn plain_absint(kernel: &Kernel, launch: &PerfLaunch, cfg: &Cfg) -> AbsintAnalysis {
    let num_regs = usize::from(kernel.num_regs()).max(1);
    let info = launch.absint_info();
    interpret(kernel.name(), kernel.instrs(), num_regs, cfg, Some(&info))
}

fn bound_with_facts(
    kernel: &Kernel,
    launch: &PerfLaunch,
    machine: &PerfMachine,
    cfg: &Cfg,
    absint: &AbsintAnalysis,
    sites: &[MemSite],
) -> PerfPrediction {
    let instrs = kernel.instrs();
    let num_regs = usize::from(kernel.num_regs()).max(1);
    let dist = min_instructions_to_exit(instrs, cfg);
    let codec = BdiCodec::new(machine.choices.clone());

    let mut total = Totals::default();
    let mut exec_counts: BTreeMap<usize, u64> = BTreeMap::new();
    let mut chain_bound = 0u64;
    let (mut exact_warps, mut approx_warps) = (0usize, 0usize);
    let wpb = launch.warps_per_block();
    for block in 0..launch.blocks {
        for warp in 0..wpb {
            let mut tracer = WarpTracer::new(
                machine, &codec, launch, absint, &dist, instrs, num_regs, block, warp,
            );
            let out = tracer.run();
            total.add(&out.totals);
            chain_bound = chain_bound.max(out.chain);
            for (pc, n) in out.exec_counts {
                *exec_counts.entry(pc).or_insert(0) += n;
            }
            if out.exact {
                exact_warps += 1;
            } else {
                approx_warps += 1;
            }
        }
    }

    let issue_bound = total.instructions.div_ceil(machine.num_schedulers as u64);
    let compressor_bound = total
        .compressor_activations
        .div_ceil(machine.num_compressors as u64);
    let conflicts = conflict_sites(instrs, cfg, absint, machine, &exec_counts);
    let mem_floors = mem_floor_sites(sites, launch, &exec_counts);
    let block_bounds = block_bounds(instrs, cfg, machine, num_regs);

    PerfPrediction {
        kernel: kernel.name().to_string(),
        cycle_lower_bound: issue_bound.max(chain_bound).max(compressor_bound),
        issue_bound,
        chain_bound,
        compressor_bound,
        min_instructions: total.instructions,
        min_bank_reads: total.bank_reads,
        min_bank_writes: total.bank_writes,
        min_compressor_activations: total.compressor_activations,
        min_decompressor_activations: total.decompressor_activations,
        conflicts,
        mem_floors,
        block_bounds,
        exact_warps,
        approx_warps,
    }
}

// ---------------------------------------------------------------------
// Memory-coalescing floors
// ---------------------------------------------------------------------

fn mem_floor_sites(
    sites: &[MemSite],
    launch: &PerfLaunch,
    exec_counts: &BTreeMap<usize, u64>,
) -> Vec<MemFloor> {
    // The abstract per-access floor assumes all 32 lanes are active; a
    // partial trailing warp touches a subset of the segments, so floors
    // above 1 are only sound when every warp of the launch is full.
    // (Divergent sites already carry floor 1 from the abstraction.)
    let full_warps = launch.threads_per_block.is_multiple_of(WARP_SIZE);
    sites
        .iter()
        .map(|s| {
            let per_access = if full_warps { s.min_transactions } else { 1 };
            let execs = exec_counts.get(&s.pc).copied().unwrap_or(0);
            MemFloor {
                pc: s.pc,
                is_store: s.is_store,
                pattern: s.pattern.name().to_string(),
                min_transactions_per_access: per_access,
                min_executions: execs,
                min_transactions: per_access * execs,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Guaranteed conflict sites
// ---------------------------------------------------------------------

fn conflict_sites(
    instrs: &[Instruction],
    cfg: &Cfg,
    absint: &AbsintAnalysis,
    machine: &PerfMachine,
    exec_counts: &BTreeMap<usize, u64>,
) -> Vec<ConflictSite> {
    let rd = ReachingDefs::compute(instrs, instrs.len().max(1) as u8, cfg);
    let mut sites = Vec::new();
    for (pc, instr) in instrs.iter().enumerate() {
        let srcs = instr.unique_srcs();
        let k = srcs.len();
        if k < 2 || !cfg.is_reachable(pc) {
            continue;
        }
        // Fetches resolve at most one per cycle (all claim the cluster
        // base bank), and every still-pending fetch logs one retry per
        // cycle: with all k pending on the first collector cycle the
        // retries sum to at least k + (k−1) + … + 1 − k = k(k−1)/2.
        let per_exec = (k * (k - 1) / 2) as u64;
        let execs = exec_counts.get(&pc).copied().unwrap_or(0);
        let compressed_bound: usize = srcs
            .iter()
            .map(|&r| source_class_bound(&rd, absint, machine, pc, r).banks())
            .sum();
        sites.push(ConflictSite {
            pc,
            sources: k,
            min_stalls_per_execution: per_exec,
            min_executions: execs,
            min_stalls: per_exec * execs,
            banks_uncompressed: UNCOMPRESSED_BANKS * k,
            banks_compressed_bound: compressed_bound,
        });
    }
    sites
}

/// The compression class the operand `reg` of the instruction at `pc`
/// is guaranteed to be stored at or better, from the absint classes of
/// its reaching definitions (the entry definition is the compressed
/// all-zero register).
fn source_class_bound(
    rd: &ReachingDefs,
    absint: &AbsintAnalysis,
    machine: &PerfMachine,
    pc: usize,
    reg: usize,
) -> CompressionClass {
    if !machine.compression_enabled() {
        return CompressionClass::Uncompressed;
    }
    let mut worst = CompressionClass::Delta0;
    for def in rd.defs_reaching(pc, reg as u8) {
        let class = match def.pc {
            // Entry definition: registers zero-initialise, stored <4,0>.
            None => CompressionClass::Delta0,
            Some(def_pc) => absint
                .prediction
                .site_at(def_pc)
                .map(|s| s.class)
                .unwrap_or(CompressionClass::Uncompressed),
        };
        if class.banks() > worst.banks() {
            worst = class;
        }
    }
    worst
}

// ---------------------------------------------------------------------
// Per-block dependence-DAG bounds
// ---------------------------------------------------------------------

fn block_bounds(
    instrs: &[Instruction],
    cfg: &Cfg,
    machine: &PerfMachine,
    num_regs: usize,
) -> Vec<BlockBound> {
    let mut out = Vec::new();
    for (id, b) in cfg.blocks().iter().enumerate() {
        let mut timing = TimingState::new(num_regs);
        for instr in &instrs[b.start..b.end] {
            // Block bounds assume nothing about stored forms or
            // divergence: no decompression extra, no compressor pass —
            // only the scoreboard edges and port occupancies remain.
            timing.step(instr, machine, 0, 0);
        }
        out.push(BlockBound {
            block: id,
            start: b.start,
            end: b.end,
            instructions: (b.end - b.start) as u64,
            chain_cycles: timing.end() + 1,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Concrete per-warp tracer
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
struct Totals {
    instructions: u64,
    bank_reads: u64,
    bank_writes: u64,
    compressor_activations: u64,
    decompressor_activations: u64,
}

impl Totals {
    fn add(&mut self, o: &Totals) {
        self.instructions += o.instructions;
        self.bank_reads += o.bank_reads;
        self.bank_writes += o.bank_writes;
        self.compressor_activations += o.compressor_activations;
        self.decompressor_activations += o.decompressor_activations;
    }
}

struct TraceOutput {
    totals: Totals,
    chain: u64,
    exec_counts: BTreeMap<usize, u64>,
    exact: bool,
}

/// The perfbound driver over the shared [`WarpReplay`]: accumulates the
/// guaranteed activity counts and the per-warp timing floor, falling
/// back to the serialized-path floor when the replay loses precision.
struct WarpTracer<'a> {
    machine: &'a PerfMachine,
    dist: &'a [u64],
    replay: WarpReplay<'a>,
    timing: TimingState,
    totals: Totals,
    exec_counts: BTreeMap<usize, u64>,
}

impl<'a> WarpTracer<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        machine: &'a PerfMachine,
        codec: &'a BdiCodec,
        launch: &'a PerfLaunch,
        absint: &'a AbsintAnalysis,
        dist: &'a [u64],
        instrs: &'a [Instruction],
        num_regs: usize,
        block: usize,
        warp_in_block: usize,
    ) -> Self {
        WarpTracer {
            machine,
            dist,
            replay: WarpReplay::new(
                machine,
                codec,
                launch,
                absint,
                instrs,
                num_regs,
                block,
                warp_in_block,
            ),
            timing: TimingState::new(num_regs),
            totals: Totals::default(),
            exec_counts: BTreeMap::new(),
        }
    }

    fn run(&mut self) -> TraceOutput {
        loop {
            match self.replay.step() {
                StepOutcome::Done => {
                    return TraceOutput {
                        totals: self.totals,
                        chain: self.timing.end() + 1,
                        exec_counts: std::mem::take(&mut self.exec_counts),
                        exact: true,
                    }
                }
                StepOutcome::Lost(reason) => return self.fallback(reason.pc()),
                StepOutcome::Step(step) => self.count(&step),
            }
        }
    }

    /// Serialized-path floor from `pc`: whatever path execution takes
    /// from here, it issues at least `dist[pc]` more instructions at
    /// one per cycle. Counts already accumulated stay — they cover the
    /// exactly-replayed prefix, which every run must execute.
    fn fallback(&mut self, pc: usize) -> TraceOutput {
        let d = self.dist[pc];
        self.totals.instructions += d;
        TraceOutput {
            totals: self.totals,
            chain: (self.timing.end() + 1).max(self.timing.next_issue() + d),
            exec_counts: std::mem::take(&mut self.exec_counts),
            exact: false,
        }
    }

    /// Charges one replayed instruction's guaranteed counts and timing.
    fn count(&mut self, step: &TraceStep) {
        self.totals.instructions += 1;
        *self.exec_counts.entry(step.pc).or_insert(0) += 1;
        let enabled = self.machine.compression_enabled();
        let floor = if enabled { 1 } else { UNCOMPRESSED_BANKS };
        let mut decomp_extra = 0;
        for f in &step.sources {
            self.totals.bank_reads += f.banks.unwrap_or(floor) as u64;
            if f.compressed == Some(true) {
                self.totals.decompressor_activations += 1;
                decomp_extra = self.machine.decompression_latency;
            }
        }
        let comp_pass = if step.compresses {
            self.totals.compressor_activations += 1;
            self.machine.compression_latency
        } else {
            0
        };
        if step.dst.is_some() {
            self.totals.bank_writes += step.dst_banks.unwrap_or(floor) as u64;
        }
        self.timing
            .step(&step.instr, self.machine, decomp_extra, comp_pass);
    }
}

// ---------------------------------------------------------------------
// CFG shortest-path floor
// ---------------------------------------------------------------------

/// Per pc, the minimum number of instructions any execution continuing
/// from that pc must still issue (including the final `exit`). Sound
/// under divergence: both sides of a divergent branch execute, which
/// only adds instructions beyond the shorter side, and a warp whose
/// top entry pops at a reconvergence point continues executing there —
/// so some CFG path from `pc` to an `exit` is always a subsequence of
/// what gets issued.
fn min_instructions_to_exit(instrs: &[Instruction], cfg: &Cfg) -> Vec<u64> {
    const INF: u64 = u64::MAX / 2;
    let n = instrs.len();
    let mut dist = vec![INF; n];
    // Reverse BFS (uniform weight 1) from every exit.
    let mut queue = std::collections::VecDeque::new();
    for (pc, i) in instrs.iter().enumerate() {
        if matches!(i, Instruction::Exit) {
            dist[pc] = 1;
            queue.push_back(pc);
        }
    }
    while let Some(pc) = queue.pop_front() {
        for &p in cfg.preds(pc) {
            if dist[p] > dist[pc] + 1 {
                dist[p] = dist[pc] + 1;
                queue.push_back(p);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{AluOp, KernelBuilder, Operand, Reg, Special};

    fn straight_kernel() -> Kernel {
        // r0 = gtid; r1 = r0 * 2; r2 = r1 + r0; st [r0], r2
        let mut b = KernelBuilder::new("straight", 3);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.alu(AluOp::Mul, Reg(1), Reg(0).into(), Operand::Imm(2));
        b.alu(AluOp::Add, Reg(2), Reg(1).into(), Reg(0).into());
        b.st(Reg(0), 0, Reg(2));
        b.exit();
        b.build().unwrap()
    }

    fn loop_kernel() -> Kernel {
        // for (i = 0; i < 10; i++) acc += i
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

    #[test]
    fn straight_line_counts_are_exact() {
        let k = straight_kernel();
        let launch = PerfLaunch::new(2, 64);
        let p = bound_kernel(&k, &launch, &PerfMachine::warped_compression());
        assert!(p.is_exact());
        assert_eq!(p.exact_warps, 4);
        // 5 instructions × 4 warps.
        assert_eq!(p.min_instructions, 20);
        assert_eq!(p.issue_bound, 10);
        assert!(p.cycle_lower_bound >= p.chain_bound);
        assert!(p.chain_bound > 5, "chain must see the RAW latencies");
    }

    #[test]
    fn loop_trip_counts_resolve_concretely() {
        let k = loop_kernel();
        let p = bound_kernel(
            &k,
            &PerfLaunch::new(1, 32),
            &PerfMachine::warped_compression(),
        );
        assert!(p.is_exact());
        // 2 movs + 10×(3 alu + 1 bra) + exit = 43.
        assert_eq!(p.min_instructions, 43);
    }

    #[test]
    fn conflict_sites_cover_two_source_instructions() {
        let k = straight_kernel();
        let p = bound_kernel(
            &k,
            &PerfLaunch::new(1, 32),
            &PerfMachine::warped_compression(),
        );
        // pc 2 (add r2, r1, r0) and pc 3 (st [r0], r2) read two
        // distinct registers.
        let add = p.conflict_at(2).expect("add conflicts");
        assert_eq!(add.sources, 2);
        assert_eq!(add.min_stalls_per_execution, 1);
        assert_eq!(add.min_executions, 1);
        assert_eq!(add.banks_uncompressed, 16);
        assert!(add.banks_compressed_bound <= 16);
        assert!(p.conflict_at(3).is_some());
        assert!(p.conflict_at(0).is_none(), "mov has one source");
    }

    #[test]
    fn baseline_reads_full_banks() {
        let k = straight_kernel();
        let launch = PerfLaunch::new(1, 32);
        let base = bound_kernel(&k, &launch, &PerfMachine::baseline());
        let wc = bound_kernel(&k, &launch, &PerfMachine::warped_compression());
        assert!(base.min_bank_accesses() > wc.min_bank_accesses());
        assert_eq!(base.min_compressor_activations, 0);
        assert_eq!(base.compressor_bound, 0);
        assert!(wc.min_compressor_activations > 0);
    }

    #[test]
    fn divergent_branch_executes_both_sides() {
        // if (tid < 16) r1 = 1 else r1 = 2
        let mut b = KernelBuilder::new("div", 3);
        b.mov(Reg(0), Operand::Special(Special::Tid));
        b.alu(AluOp::SetLt, Reg(1), Reg(0).into(), Operand::Imm(16));
        let then = b.label();
        let merge = b.label();
        b.bra(Reg(1), then, merge);
        b.mov(Reg(2), Operand::Imm(2));
        b.jmp(merge);
        b.bind(then);
        b.mov(Reg(2), Operand::Imm(1));
        b.bind(merge);
        b.exit();
        let k = b.build().unwrap();
        let p = bound_kernel(
            &k,
            &PerfLaunch::new(1, 32),
            &PerfMachine::warped_compression(),
        );
        assert!(p.is_exact());
        // mov, setlt, bra, then both sides (mov/jmp + mov), exit.
        assert_eq!(p.min_instructions, 7);
    }

    #[test]
    fn unknown_predicate_falls_back_to_path_floor() {
        // Branch on a loaded value: statically unknowable.
        let mut b = KernelBuilder::new("load-branch", 2);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.ld(Reg(1), Reg(0), 0);
        let then = b.label();
        let merge = b.label();
        b.bra(Reg(1), then, merge);
        b.jmp(merge);
        b.bind(then);
        b.mov(Reg(0), Operand::Imm(7));
        b.bind(merge);
        b.exit();
        let k = b.build().unwrap();
        let p = bound_kernel(
            &k,
            &PerfLaunch::new(1, 32),
            &PerfMachine::warped_compression(),
        );
        assert!(!p.is_exact());
        assert_eq!(p.approx_warps, 1);
        // Exact prefix (mov, ld) + shortest path from the branch
        // (bra → jmp → exit).
        assert_eq!(p.min_instructions, 5);
    }

    #[test]
    fn absint_resolves_launch_uniform_predicates() {
        // Branch on a comparison against a parameter: the value is not
        // traced (it flows through a param), but absint pins it.
        let mut b = KernelBuilder::new("param-uniform", 2);
        b.mov(Reg(0), Operand::Param(0));
        b.alu(AluOp::SetLt, Reg(1), Operand::Imm(0), Reg(0).into());
        let body = b.label();
        let exit = b.label();
        b.bra(Reg(1), body, exit);
        b.jmp(exit);
        b.bind(body);
        b.mov(Reg(0), Operand::Imm(1));
        b.bind(exit);
        b.exit();
        let k = b.build().unwrap();
        let p = bound_kernel(
            &k,
            &PerfLaunch::new(1, 32).with_params(vec![5]),
            &PerfMachine::warped_compression(),
        );
        // The tracer knows the param value concretely, so the branch
        // resolves and the body executes.
        assert!(p.is_exact());
        assert_eq!(p.min_instructions, 5);
    }

    #[test]
    fn block_bounds_cover_every_block() {
        let k = loop_kernel();
        let cfg = Cfg::build(k.instrs());
        let p = bound_kernel(
            &k,
            &PerfLaunch::new(1, 32),
            &PerfMachine::warped_compression(),
        );
        assert_eq!(p.block_bounds.len(), cfg.blocks().len());
        for bb in &p.block_bounds {
            assert!(bb.chain_cycles >= bb.instructions, "{bb:?}");
        }
    }

    fn strided_kernel() -> Kernel {
        // st [gtid * 4] — every lane lands 4 words apart.
        let mut b = KernelBuilder::new("strided", 2);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.alu(AluOp::Mul, Reg(1), Reg(0).into(), Operand::Imm(4));
        b.st(Reg(1), 0, Reg(0));
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn mem_floors_cover_loads_and_stores() {
        let k = straight_kernel();
        let p = bound_kernel(
            &k,
            &PerfLaunch::new(1, 32),
            &PerfMachine::warped_compression(),
        );
        let st = p.mem_floor_at(3).expect("store floor");
        assert!(st.is_store);
        assert_eq!(st.pattern, "coalesced");
        assert_eq!(st.min_transactions_per_access, 1);
        assert_eq!(st.min_executions, 1);
        assert_eq!(st.min_transactions, 1);
    }

    #[test]
    fn strided_store_floors_above_one_transaction() {
        let k = strided_kernel();
        let p = bound_kernel(
            &k,
            &PerfLaunch::new(2, 64),
            &PerfMachine::warped_compression(),
        );
        let st = p.mem_floor_at(2).expect("store floor");
        assert_eq!(st.pattern, "strided");
        assert_eq!(st.min_transactions_per_access, 4);
        assert_eq!(st.min_executions, 4, "one dispatch per warp");
        assert_eq!(st.min_transactions, 16);
    }

    #[test]
    fn partial_warps_clamp_mem_floors_to_one() {
        let k = strided_kernel();
        // 40 threads per block: the trailing warp is partial, so the
        // per-access floor must degrade to 1.
        let p = bound_kernel(
            &k,
            &PerfLaunch::new(1, 40),
            &PerfMachine::warped_compression(),
        );
        let st = p.mem_floor_at(2).expect("store floor");
        assert_eq!(st.min_transactions_per_access, 1);
        assert_eq!(st.min_executions, 2);
    }

    #[test]
    fn min_dist_counts_the_shortest_path() {
        let k = loop_kernel();
        let cfg = Cfg::build(k.instrs());
        let d = min_instructions_to_exit(k.instrs(), &cfg);
        // From the exit itself: 1. From the branch: branch + exit = 2.
        assert_eq!(d[k.len() - 1], 1);
        assert_eq!(d[5], 2);
        // From entry: mov, mov, 3 alu, bra, exit = 7.
        assert_eq!(d[0], 7);
    }

    #[test]
    fn partial_warps_trace_with_ragged_masks() {
        let k = straight_kernel();
        // 40 threads: one full warp + one 8-thread warp per block.
        let p = bound_kernel(
            &k,
            &PerfLaunch::new(1, 40),
            &PerfMachine::warped_compression(),
        );
        assert!(p.is_exact());
        assert_eq!(p.exact_warps, 2);
        assert_eq!(p.min_instructions, 10);
    }
}
