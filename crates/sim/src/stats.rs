//! Simulation statistics and the register-write observation hook.

use std::collections::BTreeMap;

use bdi::{CompressionClass, WarpRegister};
use gpu_regfile::{GatingMode, RegFileStats};

/// One retired register write, delivered to the observer callback.
///
/// The `warped-compression` crate uses this stream for the value
/// similarity characterisation (Fig. 2), the full-BDI breakdown
/// (Fig. 5), and — via `pc` and `class` — the per-write-site
/// validation of the static compressibility predictions
/// (`wcsim predict`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WriteEvent {
    /// The pc of the producing instruction (for injected dummy MOVs,
    /// the pc of the program instruction they shadow).
    pub pc: usize,
    /// The full merged register value as stored.
    pub value: WarpRegister,
    /// The compression class of the form actually stored in the
    /// register file banks.
    pub class: CompressionClass,
    /// Whether the producing instruction executed divergently.
    pub divergent: bool,
    /// Whether this was an injected dummy MOV rather than program code.
    pub synthetic: bool,
}

/// One retired global-memory access, delivered to the memory-trace
/// observer callback.
///
/// The `warped-compression` crate joins this stream against the static
/// address abstraction (`simt-analysis::memabs`): every active lane's
/// address must fall inside the site's abstract access set, and a
/// kernel judged race-free must never trace a cross-warp conflicting
/// pair (`wcsim mem`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemEvent {
    /// The pc of the load/store instruction.
    pub pc: usize,
    /// The issuing warp's block index.
    pub block: usize,
    /// The issuing warp's index within its block.
    pub warp_in_block: usize,
    /// Active-lane mask at dispatch (bit `i` = lane `i`).
    pub mask: u32,
    /// Per-lane effective word addresses; only lanes set in `mask`
    /// are meaningful.
    pub addrs: [u32; 32],
    /// Per-lane data values — loaded words for a load, stored words
    /// for a store; only lanes set in `mask` are meaningful. Joined
    /// against the memory-cell value refinement
    /// (`simt-analysis::memcell`): every active lane of a refined load
    /// must lie in its abstract value.
    pub values: [u32; 32],
    /// Whether the access was a store.
    pub is_store: bool,
}

impl MemEvent {
    /// Iterator over the `(lane, address)` pairs of active lanes.
    pub fn active_addrs(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        (0..32)
            .filter(|lane| self.mask >> lane & 1 == 1)
            .map(|lane| (lane, self.addrs[lane]))
    }

    /// Iterator over the `(lane, value)` pairs of active lanes.
    pub fn active_values(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        (0..32)
            .filter(|lane| self.mask >> lane & 1 == 1)
            .map(|lane| (lane, self.values[lane]))
    }
}

/// Coalescer traffic charged to one program counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcMemTraffic {
    /// Dynamic load/store dispatches at this pc.
    pub accesses: u64,
    /// 32-word-segment transactions those dispatches required.
    pub transactions: u64,
}

/// Per-PC memory transaction counts for a whole run.
///
/// An access's transaction count is the number of distinct 32-word
/// segments its active lanes touch — the same coalescing model the
/// static analyzer's `min_transactions` floor assumes, so the floor
/// check is `floor ≤ transactions / accesses` per site.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemTrafficStats {
    /// Traffic counters per program counter.
    pub by_pc: BTreeMap<usize, PcMemTraffic>,
}

impl MemTrafficStats {
    /// Charges one access issuing `transactions` segment transactions
    /// at `pc`.
    pub fn record(&mut self, pc: usize, transactions: u64) {
        let t = self.by_pc.entry(pc).or_default();
        t.accesses += 1;
        t.transactions += transactions;
    }

    /// The counters charged to `pc` (zero if it never accessed memory).
    pub fn at(&self, pc: usize) -> PcMemTraffic {
        self.by_pc.get(&pc).copied().unwrap_or_default()
    }

    /// Run-wide access count.
    pub fn total_accesses(&self) -> u64 {
        self.by_pc.values().map(|t| t.accesses).sum()
    }

    /// Run-wide transaction count.
    pub fn total_transactions(&self) -> u64 {
        self.by_pc.values().map(|t| t.transactions).sum()
    }
}

/// The Fig. 12 census: compressed-register counts sampled periodically,
/// bucketed by the sampled warp's divergence phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CensusStats {
    /// Compressed registers observed while the owning warp was
    /// non-divergent.
    pub nondiv_compressed: u64,
    /// Registers observed while the owning warp was non-divergent.
    pub nondiv_total: u64,
    /// Compressed registers observed during divergence.
    pub div_compressed: u64,
    /// Registers observed during divergence.
    pub div_total: u64,
}

impl CensusStats {
    /// Fraction of registers compressed in non-divergent phases.
    pub fn nondiv_fraction(&self) -> f64 {
        fraction(self.nondiv_compressed, self.nondiv_total)
    }

    /// Fraction of registers compressed in divergent phases, or `None`
    /// if the benchmark never diverged (the paper's "N/A" bars).
    pub fn div_fraction(&self) -> Option<f64> {
        (self.div_total > 0).then(|| fraction(self.div_compressed, self.div_total))
    }
}

fn fraction(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Why a pipeline opportunity was lost for one cycle.
///
/// Each variant maps to exactly one stall site in the engine, so the
/// per-cause totals partition cleanly: the legacy aggregate
/// `collector_retry_cycles` equals `BankConflict + Decompressor` by
/// construction (tested below), and the static analyzer's per-PC
/// conflict bounds are compared against exactly that pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// An operand fetch lost the bank read-port arbitration.
    BankConflict,
    /// An operand fetch of a compressed register hit the per-cycle
    /// decompressor limit.
    Decompressor,
    /// Issue blocked on a scoreboard hazard (RAW/WAW/WAR) or on LSU
    /// memory ordering.
    Scoreboard,
    /// Issue found no free operand collector.
    CollectorFull,
    /// Writeback lost the bank write-port arbitration (or the target
    /// bank was still waking up).
    WritebackPort,
}

impl StallCause {
    /// All causes, in the order stall tables render them.
    pub const ALL: [StallCause; 5] = [
        StallCause::BankConflict,
        StallCause::Decompressor,
        StallCause::Scoreboard,
        StallCause::CollectorFull,
        StallCause::WritebackPort,
    ];

    /// Stable snake_case name (used by the JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::BankConflict => "bank_conflict",
            StallCause::Decompressor => "decompressor",
            StallCause::Scoreboard => "scoreboard",
            StallCause::CollectorFull => "collector_full",
            StallCause::WritebackPort => "writeback_port",
        }
    }
}

/// Per-cause stall cycles charged to one program counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcStalls {
    /// Operand-fetch bank-port losses.
    pub bank_conflict: u64,
    /// Operand-fetch decompressor-limit losses.
    pub decompressor: u64,
    /// Scoreboard / memory-ordering issue blocks.
    pub scoreboard: u64,
    /// Collector-full issue blocks.
    pub collector_full: u64,
    /// Writeback write-port losses.
    pub writeback_port: u64,
}

impl PcStalls {
    /// Count for one cause.
    pub fn get(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::BankConflict => self.bank_conflict,
            StallCause::Decompressor => self.decompressor,
            StallCause::Scoreboard => self.scoreboard,
            StallCause::CollectorFull => self.collector_full,
            StallCause::WritebackPort => self.writeback_port,
        }
    }

    /// Charges one lost cycle to `cause`.
    pub(crate) fn record(&mut self, cause: StallCause) {
        *match cause {
            StallCause::BankConflict => &mut self.bank_conflict,
            StallCause::Decompressor => &mut self.decompressor,
            StallCause::Scoreboard => &mut self.scoreboard,
            StallCause::CollectorFull => &mut self.collector_full,
            StallCause::WritebackPort => &mut self.writeback_port,
        } += 1;
    }

    /// Stalls charged to this pc across every cause.
    pub fn total(&self) -> u64 {
        StallCause::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// The operand-fetch retry portion — the pair the legacy aggregate
    /// counter and the static conflict bound both refer to.
    pub fn operand_fetch(&self) -> u64 {
        self.bank_conflict + self.decompressor
    }
}

/// Per-PC, per-cause stall attribution for a whole run.
///
/// Keyed by the pc of the stalled instruction (for injected dummy MOVs,
/// the pc of the program instruction they shadow — same convention as
/// [`WriteEvent::pc`]). The `BTreeMap` keeps report iteration
/// deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallStats {
    /// Stall counters per program counter.
    pub by_pc: BTreeMap<usize, PcStalls>,
}

impl StallStats {
    /// Charges one lost cycle at `pc` to `cause`.
    pub fn record(&mut self, pc: usize, cause: StallCause) {
        self.by_pc.entry(pc).or_default().record(cause);
    }

    /// The counters charged to `pc` (zero if it never stalled).
    pub fn at(&self, pc: usize) -> PcStalls {
        self.by_pc.get(&pc).copied().unwrap_or_default()
    }

    /// Run-wide total for one cause.
    pub fn total(&self, cause: StallCause) -> u64 {
        self.by_pc.values().map(|p| p.get(cause)).sum()
    }

    /// Run-wide total across all causes.
    pub fn grand_total(&self) -> u64 {
        self.by_pc.values().map(PcStalls::total).sum()
    }
}

/// Aggregate statistics of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Warp instructions issued from program code (excludes injected
    /// MOVs).
    pub instructions: u64,
    /// Injected dummy MOV instructions (§5.2, Fig. 11).
    pub synthetic_movs: u64,
    /// Program instructions issued while the warp was divergent (Fig. 3).
    pub divergent_instructions: u64,
    /// Register writes retired.
    pub writes: u64,
    /// Register writes stored in compressed form.
    pub writes_compressed: u64,
    /// Logical bytes of non-divergent register writes (128 × writes).
    pub nondiv_logical_bytes: u64,
    /// Bytes actually stored for non-divergent writes.
    pub nondiv_stored_bytes: u64,
    /// Logical bytes of divergent register writes.
    pub div_logical_bytes: u64,
    /// Bytes actually stored for divergent writes.
    pub div_stored_bytes: u64,
    /// Compressor-unit activations.
    pub compressor_activations: u64,
    /// Decompressor-unit activations.
    pub decompressor_activations: u64,
    /// Cycles an issue opportunity was lost to bank-port conflicts
    /// (operand fetch retries). Kept as the aggregate of the
    /// `bank_conflict` and `decompressor` causes in [`SimStats::stalls`].
    pub collector_retry_cycles: u64,
    /// Per-PC, per-cause stall attribution.
    pub stalls: StallStats,
    /// Per-PC memory coalescer traffic.
    pub mem: MemTrafficStats,
    /// The Fig. 12 census samples.
    pub census: CensusStats,
    /// Register file bank counters (reads/writes/gating).
    pub regfile: RegFileStats,
    /// The leakage-management mode the run used (needed to price the
    /// low-power bank-cycles: gated cycles leak nothing, drowsy cycles
    /// leak a fraction).
    pub gating: GatingMode,
}

impl SimStats {
    /// Total instructions including injected MOVs.
    pub fn total_instructions(&self) -> u64 {
        self.instructions + self.synthetic_movs
    }

    /// Fraction of program instructions that executed non-divergently
    /// (Fig. 3; paper average 79 %).
    pub fn nondivergent_ratio(&self) -> f64 {
        if self.instructions == 0 {
            return 1.0;
        }
        1.0 - self.divergent_instructions as f64 / self.instructions as f64
    }

    /// Injected-MOV fraction of total instructions (Fig. 11; paper <2 %).
    pub fn mov_fraction(&self) -> f64 {
        let total = self.total_instructions();
        if total == 0 {
            return 0.0;
        }
        self.synthetic_movs as f64 / total as f64
    }

    /// Compression ratio of non-divergent register writes (Fig. 8 first
    /// bars; paper average 2.5).
    pub fn compression_ratio_nondiv(&self) -> f64 {
        ratio(self.nondiv_logical_bytes, self.nondiv_stored_bytes)
    }

    /// Compression ratio of divergent register writes (Fig. 8 second
    /// bars; paper average 1.3), or `None` without divergence.
    pub fn compression_ratio_div(&self) -> Option<f64> {
        (self.div_logical_bytes > 0).then(|| ratio(self.div_logical_bytes, self.div_stored_bytes))
    }

    /// Overall compression ratio across all writes.
    pub fn compression_ratio(&self) -> f64 {
        ratio(
            self.nondiv_logical_bytes + self.div_logical_bytes,
            self.nondiv_stored_bytes + self.div_stored_bytes,
        )
    }
}

fn ratio(logical: u64, stored: u64) -> f64 {
    if stored == 0 {
        1.0
    } else {
        logical as f64 / stored as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_fractions() {
        let c = CensusStats {
            nondiv_compressed: 75,
            nondiv_total: 100,
            div_compressed: 10,
            div_total: 40,
        };
        assert!((c.nondiv_fraction() - 0.75).abs() < 1e-12);
        assert!((c.div_fraction().unwrap() - 0.25).abs() < 1e-12);
        let none = CensusStats::default();
        assert_eq!(none.div_fraction(), None);
        assert_eq!(none.nondiv_fraction(), 0.0);
    }

    #[test]
    fn ratios() {
        let s = SimStats {
            instructions: 100,
            divergent_instructions: 21,
            synthetic_movs: 2,
            nondiv_logical_bytes: 1280,
            nondiv_stored_bytes: 512,
            div_logical_bytes: 128,
            div_stored_bytes: 128,
            ..Default::default()
        };
        assert!((s.nondivergent_ratio() - 0.79).abs() < 1e-12);
        assert!((s.mov_fraction() - 2.0 / 102.0).abs() < 1e-12);
        assert!((s.compression_ratio_nondiv() - 2.5).abs() < 1e-12);
        assert!((s.compression_ratio_div().unwrap() - 1.0).abs() < 1e-12);
        assert!((s.compression_ratio() - 1408.0 / 640.0).abs() < 1e-12);
        assert_eq!(s.total_instructions(), 102);
    }

    #[test]
    fn stall_stats_record_and_total() {
        let mut s = StallStats::default();
        s.record(3, StallCause::BankConflict);
        s.record(3, StallCause::BankConflict);
        s.record(3, StallCause::Decompressor);
        s.record(7, StallCause::Scoreboard);
        s.record(9, StallCause::WritebackPort);
        s.record(9, StallCause::CollectorFull);
        assert_eq!(s.at(3).bank_conflict, 2);
        assert_eq!(s.at(3).operand_fetch(), 3);
        assert_eq!(s.at(7).scoreboard, 1);
        assert_eq!(s.at(42), PcStalls::default());
        assert_eq!(s.total(StallCause::BankConflict), 2);
        assert_eq!(s.grand_total(), 6);
        let per_cause: u64 = StallCause::ALL.iter().map(|&c| s.total(c)).sum();
        assert_eq!(per_cause, s.grand_total(), "causes partition the total");
    }

    #[test]
    fn mem_traffic_record_and_totals() {
        let mut m = MemTrafficStats::default();
        m.record(4, 1);
        m.record(4, 3);
        m.record(9, 2);
        assert_eq!(m.at(4).accesses, 2);
        assert_eq!(m.at(4).transactions, 4);
        assert_eq!(m.at(42), PcMemTraffic::default());
        assert_eq!(m.total_accesses(), 3);
        assert_eq!(m.total_transactions(), 6);
    }

    #[test]
    fn mem_event_active_addrs_respects_mask() {
        let mut addrs = [0u32; 32];
        addrs[0] = 10;
        addrs[5] = 50;
        let mut values = [0u32; 32];
        values[0] = 7;
        values[5] = 9;
        let e = MemEvent {
            pc: 2,
            block: 0,
            warp_in_block: 1,
            mask: 1 | 1 << 5,
            addrs,
            values,
            is_store: false,
        };
        let got: Vec<(usize, u32)> = e.active_addrs().collect();
        assert_eq!(got, vec![(0, 10), (5, 50)]);
        let vals: Vec<(usize, u32)> = e.active_values().collect();
        assert_eq!(vals, vec![(0, 7), (5, 9)]);
    }

    #[test]
    fn stall_cause_names_are_stable() {
        let names: Vec<&str> = StallCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "bank_conflict",
                "decompressor",
                "scoreboard",
                "collector_full",
                "writeback_port"
            ]
        );
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = SimStats::default();
        assert_eq!(s.nondivergent_ratio(), 1.0);
        assert_eq!(s.mov_fraction(), 0.0);
        assert_eq!(s.compression_ratio(), 1.0);
        assert_eq!(s.compression_ratio_div(), None);
    }
}
