//! Warp-value abstract interpretation and static compressibility
//! prediction.
//!
//! The paper's §3 observation is that warp register values are
//! structurally predictable: warp-uniform (loop counters, block
//! constants), affine in the lane index (thread-index arithmetic), or
//! of narrow dynamic range. This module derives those classes at
//! compile time — the direction explored by Angerd et al. for
//! compile-time-assisted register compression — by running a forward
//! fixpoint over the [`Cfg`] with a four-point abstract domain per
//! register per program point:
//!
//! * [`AbsVal::Uniform`]`(r)` — all 32 lanes hold one common value in
//!   `r`. Uniformity survives *every* deterministic ALU op (equal
//!   inputs give equal outputs, wrapping included), so a `Uniform`
//!   value is ⟨4,0⟩-compressible regardless of its range.
//! * [`AbsVal::LaneAffine`]`{base, stride}` — lane *i* holds
//!   `base + stride·i` (mod 2³²) for one shared `base` in the range.
//!   BDI deltas are wrapping subtractions, so the deltas from lane 0
//!   are exactly `stride·i` no matter how the base overflows: the
//!   compression class depends on the stride alone.
//! * [`AbsVal::NarrowRange`]`(r)` — each lane independently holds some
//!   value in `r`; no cross-lane structure, but the lane-0 deltas are
//!   bounded by the range width.
//! * [`AbsVal::Top`] — anything.
//!
//! # Divergence-aware joins
//!
//! When a branch's condition is *not* provably warp-uniform, the warp
//! may split, and register writes inside the branch's divergence
//! region execute under a partial lane mask: the stored register mixes
//! lanes produced by different paths and different loop iterations.
//! Path-union [`AbsVal::join`] is unsound there — joining
//! `Uniform(5)` with `Uniform(7)` claims all lanes are still equal,
//! while the physical register may hold a 5/7 lane mixture. At
//! masked writes, and at the branch's reconvergence point for every
//! register written inside the region, the analysis therefore uses the
//! *mixing* join [`AbsVal::mix`], which only preserves values that are
//! lane-determined (every lane pinned to one value) and degrades
//! everything else to its per-lane range hull. Registers *not*
//! written inside the region keep full structure across
//! reconvergence.
//!
//! Branch uniformity is itself a fixpoint: the analysis first assumes
//! every branch uniform, and restarts (at most once per branch)
//! whenever an assumed-uniform condition turns out non-uniform.
//!
//! # Output
//!
//! Each abstract value maps onto the shared BDI [`CompressionClass`]
//! taxonomy, yielding a per-write-site [`KernelPrediction`] that
//! `wcsim predict` validates against the simulator's measured
//! per-write classes: a *sound* prediction never claims a smaller
//! bank footprint than any dynamic execution of the site produces.
//! The analysis assumes full warps (launches whose block size is a
//! multiple of 32); given a [`LaunchInfo`] with a ragged block size it
//! degrades every write site to a mixing write rather than produce
//! unsound claims.

use std::fmt;

use bdi::{CompressionClass, WARP_SIZE};
use simt_isa::{AluOp, Instruction, Operand, Special};

use crate::cfg::Cfg;
use crate::dataflow::RegSet;

const I32MIN: i64 = i32::MIN as i64;
const I32MAX: i64 = i32::MAX as i64;
/// Highest lane index of a warp.
const LAST_LANE: i64 = (WARP_SIZE - 1) as i64;
/// Changed joins at one pc before range widening kicks in.
const WIDEN_AFTER: u32 = 12;

/// A closed signed interval within the 32-bit range (`lo ≤ hi`).
///
/// Bounds are kept as `i64` so interval arithmetic can detect 32-bit
/// overflow exactly, but every constructed range lies within
/// `[i32::MIN, i32::MAX]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Range {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Range {
    /// The full signed 32-bit range.
    pub const FULL: Range = Range {
        lo: I32MIN,
        hi: I32MAX,
    };

    /// The range holding exactly `v`.
    pub fn singleton(v: i32) -> Range {
        Range {
            lo: i64::from(v),
            hi: i64::from(v),
        }
    }

    /// A range from bounds known to lie within the 32-bit range.
    pub(crate) fn of(lo: i64, hi: i64) -> Range {
        debug_assert!(lo <= hi && lo >= I32MIN && hi <= I32MAX);
        Range { lo, hi }
    }

    /// `Some` when the bounds fit the 32-bit range — i.e. a wrap-prone
    /// computation provably did not wrap — `None` otherwise.
    fn checked(lo: i64, hi: i64) -> Option<Range> {
        (lo >= I32MIN && hi <= I32MAX).then_some(Range { lo, hi })
    }

    /// Intersects bounds that are valid on the *true* (wrap-free)
    /// results with the representable range.
    fn clamped(lo: i64, hi: i64) -> Range {
        Range {
            lo: lo.max(I32MIN),
            hi: hi.min(I32MAX),
        }
    }

    /// Smallest range containing both.
    pub fn hull(a: Range, b: Range) -> Range {
        Range {
            lo: a.lo.min(b.lo),
            hi: a.hi.max(b.hi),
        }
    }

    /// Whether `v` lies in the range.
    pub fn contains(&self, v: i32) -> bool {
        self.lo <= i64::from(v) && i64::from(v) <= self.hi
    }

    /// `hi − lo`.
    pub fn width(&self) -> i64 {
        self.hi - self.lo
    }

    /// The single value, if the range holds exactly one.
    pub fn as_singleton(&self) -> Option<i32> {
        (self.lo == self.hi).then_some(self.lo as i32)
    }

    /// Whether every value in the range is ≥ 0.
    pub fn is_nonneg(&self) -> bool {
        self.lo >= 0
    }

    /// Whether this is the full 32-bit range.
    pub fn is_full(&self) -> bool {
        *self == Range::FULL
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_singleton() {
            write!(f, "{v}")
        } else if self.is_full() {
            f.write_str("i32")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// The abstract value of one warp register at one program point.
///
/// Concretisation: a set of possible 32-lane value vectors. Lane
/// values are 32-bit words; ranges constrain their two's-complement
/// (`i32`) reinterpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbsVal {
    /// All lanes hold one common value in the range.
    Uniform(Range),
    /// Lane `i` holds `base + stride·i` (mod 2³²) for one shared
    /// `base` in the range. The stride is the wrapped 32-bit
    /// representative (a stride of −1 and one of 2³²−1 are the same).
    LaneAffine {
        /// Range of the shared lane-0 value.
        base: Range,
        /// Per-lane increment.
        stride: i32,
    },
    /// Each lane independently holds some value in the range.
    NarrowRange(Range),
    /// No information.
    Top,
}

impl AbsVal {
    /// The abstract zero every register starts as (the register file
    /// zero-initialises).
    pub fn zero() -> AbsVal {
        AbsVal::Uniform(Range::singleton(0))
    }

    /// Normalising affine constructor: stride 0 is just `Uniform`.
    fn affine(base: Range, stride: i32) -> AbsVal {
        if stride == 0 {
            AbsVal::Uniform(base)
        } else {
            AbsVal::LaneAffine { base, stride }
        }
    }

    /// Normalising per-lane-range constructor: a singleton range pins
    /// every lane to the same value (`Uniform`), and the full range
    /// carries no information (`Top`).
    pub(crate) fn narrow(r: Range) -> AbsVal {
        if r.is_full() {
            AbsVal::Top
        } else if r.as_singleton().is_some() {
            AbsVal::Uniform(r)
        } else {
            AbsVal::NarrowRange(r)
        }
    }

    /// Affine view: `Uniform(r)` is affine with stride 0.
    fn as_affine(&self) -> Option<(Range, i32)> {
        match *self {
            AbsVal::Uniform(r) => Some((r, 0)),
            AbsVal::LaneAffine { base, stride } => Some((base, stride)),
            _ => None,
        }
    }

    /// The common value when this is a known-uniform singleton.
    fn uniform_singleton(&self) -> Option<i32> {
        match self {
            AbsVal::Uniform(r) => r.as_singleton(),
            _ => None,
        }
    }

    /// Whether all lanes are known equal.
    pub fn is_uniform(&self) -> bool {
        matches!(self, AbsVal::Uniform(_))
    }

    /// Adds a compile-time constant to every lane (the `ld`/`st` offset
    /// fold). Affinity survives base wrapping — the per-lane deltas are
    /// unchanged — so an affine value keeps its stride and at worst
    /// loses its base range.
    pub fn add_const(&self, offset: i32) -> AbsVal {
        let off = i64::from(offset);
        match *self {
            AbsVal::Uniform(r) => {
                AbsVal::Uniform(Range::checked(r.lo + off, r.hi + off).unwrap_or(Range::FULL))
            }
            AbsVal::LaneAffine { base, stride } => AbsVal::affine(
                Range::checked(base.lo + off, base.hi + off).unwrap_or(Range::FULL),
                stride,
            ),
            AbsVal::NarrowRange(r) => match Range::checked(r.lo + off, r.hi + off) {
                Some(r) => AbsVal::narrow(r),
                None => AbsVal::Top,
            },
            AbsVal::Top => AbsVal::Top,
        }
    }

    /// Mask-aware soundness oracle: whether the active lanes of a
    /// concrete vector are consistent with this abstract value.
    /// Inactive lanes are unconstrained (a memory access only produces
    /// addresses on active lanes).
    pub fn contains_masked(&self, lanes: &[u32; WARP_SIZE], mask: u32) -> bool {
        let active = (0..WARP_SIZE).filter(|&i| mask & (1 << i) != 0);
        match *self {
            AbsVal::Uniform(r) => {
                let mut first = None;
                for i in active {
                    match first {
                        None => {
                            if !r.contains(lanes[i] as i32) {
                                return false;
                            }
                            first = Some(lanes[i]);
                        }
                        Some(v) => {
                            if lanes[i] != v {
                                return false;
                            }
                        }
                    }
                }
                true
            }
            AbsVal::LaneAffine { base, stride } => {
                // Every active lane must agree on one shared base
                // `lanes[i] − stride·i` (mod 2³²) within the range.
                let mut shared = None;
                for i in active {
                    let b = lanes[i].wrapping_sub((stride as u32).wrapping_mul(i as u32));
                    match shared {
                        None => {
                            if !base.contains(b as i32) {
                                return false;
                            }
                            shared = Some(b);
                        }
                        Some(v) => {
                            if b != v {
                                return false;
                            }
                        }
                    }
                }
                true
            }
            AbsVal::NarrowRange(r) => {
                for i in active {
                    if !r.contains(lanes[i] as i32) {
                        return false;
                    }
                }
                true
            }
            AbsVal::Top => true,
        }
    }

    /// A range covering every individual lane's value, when one is
    /// known. `None` means some lane may hold anything (`Top`, and
    /// affine values whose lane-31 value may wrap).
    pub fn per_lane_range(&self) -> Option<Range> {
        match *self {
            AbsVal::Uniform(r) | AbsVal::NarrowRange(r) => Some(r),
            AbsVal::LaneAffine { base, stride } => {
                let span = i64::from(stride) * LAST_LANE;
                Range::checked(base.lo + span.min(0), base.hi + span.max(0))
            }
            AbsVal::Top => None,
        }
    }

    /// Whether every lane's value is uniquely determined, so that a
    /// lane mask mixing different executions of this value cannot
    /// produce anything new.
    pub fn lane_determined(&self) -> bool {
        match self {
            AbsVal::Uniform(r) => r.as_singleton().is_some(),
            AbsVal::LaneAffine { base, .. } => base.as_singleton().is_some(),
            _ => false,
        }
    }

    /// The BDI compression class every concrete value of this abstract
    /// value is guaranteed to achieve or beat (the classes nest).
    pub fn class(&self) -> CompressionClass {
        match *self {
            // Equal lanes stay equal: <4,0> fits for any range.
            AbsVal::Uniform(_) => CompressionClass::Delta0,
            // Wrapping deltas from lane 0 are exactly stride·i.
            AbsVal::LaneAffine { stride, .. } => {
                let worst = i64::from(stride).abs() * LAST_LANE;
                if worst <= i64::from(i8::MAX) {
                    CompressionClass::Delta1
                } else if worst <= i64::from(i16::MAX) {
                    CompressionClass::Delta2
                } else {
                    CompressionClass::Uncompressed
                }
            }
            // Deltas from lane 0 are bounded by the range width.
            AbsVal::NarrowRange(r) => {
                if r.width() <= i64::from(i8::MAX) {
                    CompressionClass::Delta1
                } else if r.width() <= i64::from(i16::MAX) {
                    CompressionClass::Delta2
                } else {
                    CompressionClass::Uncompressed
                }
            }
            AbsVal::Top => CompressionClass::Uncompressed,
        }
    }

    /// Soundness oracle: whether a concrete vector of lane values lies
    /// in this abstract value's concretisation.
    pub fn contains(&self, lanes: &[u32; WARP_SIZE]) -> bool {
        match *self {
            AbsVal::Uniform(r) => {
                lanes.iter().all(|&v| v == lanes[0]) && r.contains(lanes[0] as i32)
            }
            AbsVal::LaneAffine { base, stride } => {
                base.contains(lanes[0] as i32)
                    && lanes.iter().enumerate().all(|(i, &v)| {
                        v == lanes[0].wrapping_add((stride as u32).wrapping_mul(i as u32))
                    })
            }
            AbsVal::NarrowRange(r) => lanes.iter().all(|&v| r.contains(v as i32)),
            AbsVal::Top => true,
        }
    }

    /// Path-union join: both operands describe whole alternative warp
    /// executions (all lanes arrived the same way), so cross-lane
    /// structure survives when the kinds agree.
    pub fn join(a: &AbsVal, b: &AbsVal) -> AbsVal {
        match (a, b) {
            (AbsVal::Top, _) | (_, AbsVal::Top) => AbsVal::Top,
            (AbsVal::Uniform(ra), AbsVal::Uniform(rb)) => AbsVal::Uniform(Range::hull(*ra, *rb)),
            (
                AbsVal::LaneAffine {
                    base: b1,
                    stride: s1,
                },
                AbsVal::LaneAffine {
                    base: b2,
                    stride: s2,
                },
            ) if s1 == s2 => AbsVal::affine(Range::hull(*b1, *b2), *s1),
            _ => AbsVal::range_hull(a, b),
        }
    }

    /// Mixing join: each lane of the result may independently come
    /// from either operand (divergent reconvergence, partial-mask
    /// writes, loops whose lanes exit at different iterations).
    /// Cross-lane structure survives only when both sides are the
    /// *same* lane-determined value — mixing identical vectors is a
    /// no-op.
    pub fn mix(a: &AbsVal, b: &AbsVal) -> AbsVal {
        if a == b && a.lane_determined() {
            a.clone()
        } else {
            AbsVal::range_hull(a, b)
        }
    }

    /// Collapses a value to what per-lane mixing can still guarantee:
    /// lane-determined values survive intact, everything else keeps
    /// only its per-lane range.
    fn stabilize(&self) -> AbsVal {
        if self.lane_determined() {
            self.clone()
        } else {
            match self.per_lane_range() {
                Some(r) => AbsVal::narrow(r),
                None => AbsVal::Top,
            }
        }
    }

    fn range_hull(a: &AbsVal, b: &AbsVal) -> AbsVal {
        match (a.per_lane_range(), b.per_lane_range()) {
            (Some(ra), Some(rb)) => AbsVal::narrow(Range::hull(ra, rb)),
            _ => AbsVal::Top,
        }
    }

    /// Range widening: a bound that grew between `old` and `new` jumps
    /// to the 32-bit extreme, cutting off slow ascending chains (loop
    /// counters). Kind changes pass through unchanged — the kind
    /// order `{Uniform, LaneAffine} → NarrowRange → Top` is finite and
    /// acyclic, so only ranges can ascend forever.
    fn widen(old: &AbsVal, new: &AbsVal) -> AbsVal {
        fn wr(o: Range, n: Range) -> Range {
            Range {
                lo: if n.lo < o.lo { I32MIN } else { n.lo },
                hi: if n.hi > o.hi { I32MAX } else { n.hi },
            }
        }
        match (old, new) {
            (AbsVal::Uniform(ro), AbsVal::Uniform(rn)) => AbsVal::Uniform(wr(*ro, *rn)),
            (
                AbsVal::LaneAffine {
                    base: bo,
                    stride: so,
                },
                AbsVal::LaneAffine {
                    base: bn,
                    stride: sn,
                },
            ) if so == sn => AbsVal::affine(wr(*bo, *bn), *sn),
            (AbsVal::NarrowRange(ro), AbsVal::NarrowRange(rn)) => AbsVal::narrow(wr(*ro, *rn)),
            _ => new.clone(),
        }
    }
}

impl fmt::Display for AbsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsVal::Uniform(r) => write!(f, "uniform({r})"),
            AbsVal::LaneAffine { base, stride } => {
                write!(f, "affine({base} + {stride}*lane)")
            }
            AbsVal::NarrowRange(r) => write!(f, "narrow({r})"),
            AbsVal::Top => f.write_str("top"),
        }
    }
}

/// Launch-time facts that sharpen the abstract interpretation:
/// parameter values and grid geometry make `Param` operands and the
/// special registers (`%tid`, `%gtid`, …) concrete or tightly ranged.
///
/// All fields are optional knowledge; [`LaunchInfo::default`] knows
/// nothing and the analysis stays sound, just less precise. Without
/// any launch info the analysis assumes full warps — the caller is
/// responsible for only trusting predictions against launches whose
/// block size is a multiple of 32. A known ragged block size passed
/// *in* a `LaunchInfo` is handled conservatively (every write becomes
/// a masked write).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaunchInfo {
    /// Kernel parameter values, indexed by `Operand::Param` slot.
    pub params: Vec<u32>,
    /// Number of thread blocks in the grid, when known.
    pub blocks: Option<u32>,
    /// Threads per block, when known.
    pub threads_per_block: Option<u32>,
    /// Global memory size in words, when known (bounds the
    /// `possible-out-of-bounds` address lint).
    pub mem_words: Option<u64>,
    /// The *entire* initial global-memory image, when known. Feeds the
    /// abstract memory-cell analysis ([`memcell`](crate::memcell)):
    /// loads from provably store-free words refine to the image's
    /// value range instead of `Top`. Must cover all of memory
    /// (`len == mem_words`) — a partial image disables the cell
    /// domain rather than risking an unsound seed.
    pub initial_mem: Option<std::sync::Arc<Vec<u32>>>,
}

impl LaunchInfo {
    /// Whether every warp of this launch runs with all 32 lanes
    /// active. Unknown geometry is assumed full-warp (documented
    /// precondition); a known ragged block size returns `false`.
    pub(crate) fn full_warps(&self) -> bool {
        match self.threads_per_block {
            Some(t) => t > 0 && (t as usize).is_multiple_of(WARP_SIZE),
            None => true,
        }
    }
}

/// Statically predicted compression class for one register write site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SitePrediction {
    /// The pc of the writing instruction.
    pub pc: usize,
    /// The destination register.
    pub reg: u8,
    /// The class every dynamic write at this site is guaranteed to
    /// achieve or beat.
    pub class: CompressionClass,
    /// Whether the site sits inside the divergence region of some
    /// possibly-non-uniform branch. Such writes may execute under a
    /// partial lane mask, and the simulator stores divergent writes
    /// uncompressed, so their class is pinned to `Uncompressed`.
    pub divergent_region: bool,
    /// The post-write abstract value of the destination register.
    pub value: AbsVal,
}

/// Static uniformity verdict for one branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchVerdict {
    /// The pc of the `bra` instruction.
    pub pc: usize,
    /// Whether the condition is provably warp-uniform: every lane
    /// always takes the same side, so the branch never diverges.
    pub uniform: bool,
}

/// The static compressibility report for one kernel: one prediction
/// per reachable register write site plus per-branch uniformity
/// verdicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelPrediction {
    /// Kernel name.
    pub kernel: String,
    /// Write-site predictions, in pc order.
    pub sites: Vec<SitePrediction>,
    /// Branch verdicts, in pc order.
    pub branches: Vec<BranchVerdict>,
}

impl KernelPrediction {
    /// The prediction for the write site at `pc`, if any.
    pub fn site_at(&self, pc: usize) -> Option<&SitePrediction> {
        self.sites.iter().find(|s| s.pc == pc)
    }

    /// A static lower bound on the number of 16-byte register banks
    /// the bank-level power gating of §6 can keep gated during *every*
    /// register write of this kernel: even the worst (least
    /// compressible) site still leaves `8 − banks` banks untouched.
    /// Zero when some site has no predicted compression, or when the
    /// kernel writes no registers at all.
    pub fn min_gateable_banks(&self) -> usize {
        self.sites
            .iter()
            .map(|s| 8 - s.class.banks())
            .min()
            .unwrap_or(0)
    }

    /// Fraction of write sites with an informative (non-`Top`)
    /// abstract value; 1.0 for kernels without write sites.
    pub fn informative_fraction(&self) -> f64 {
        if self.sites.is_empty() {
            return 1.0;
        }
        let n = self.sites.iter().filter(|s| s.value != AbsVal::Top).count();
        n as f64 / self.sites.len() as f64
    }

    /// Fraction of write sites predicted compressed (class better
    /// than `Uncompressed`); 1.0 for kernels without write sites.
    pub fn compressed_fraction(&self) -> f64 {
        if self.sites.is_empty() {
            return 1.0;
        }
        let n = self
            .sites
            .iter()
            .filter(|s| s.class.is_compressed())
            .count();
        n as f64 / self.sites.len() as f64
    }
}

/// The full result of abstract interpretation: per-pc abstract states
/// for the soundness oracle plus the distilled [`KernelPrediction`].
#[derive(Clone, Debug)]
pub struct AbsintAnalysis {
    ins: Vec<Option<Vec<AbsVal>>>,
    divergent: Vec<bool>,
    /// The distilled per-site report.
    pub prediction: KernelPrediction,
}

impl AbsintAnalysis {
    /// The abstract register state on entry to `pc`, or `None` when
    /// `pc` is unreachable.
    pub fn state_at(&self, pc: usize) -> Option<&[AbsVal]> {
        self.ins.get(pc).and_then(|s| s.as_deref())
    }

    /// Whether `pc` sits inside the divergence region of some
    /// possibly-non-uniform branch (or the launch has a ragged block
    /// size), so the instruction may execute under a partial lane
    /// mask. Mirrors [`SitePrediction::divergent_region`], but covers
    /// every pc — including loads and stores, which have no write
    /// site.
    pub fn divergent_at(&self, pc: usize) -> bool {
        self.divergent.get(pc).copied().unwrap_or(false)
    }
}

/// Runs the warp-value abstract interpretation over a kernel body.
///
/// `cfg` must be the CFG of `instrs`, and the kernel must already have
/// passed the structural lints (in-range branch targets and register
/// indices) — run them first, as [`analyze`](crate::analyze) does.
/// `launch`, when given, sharpens `Param` and special-register
/// operands with concrete launch facts.
pub fn interpret(
    kernel: &str,
    instrs: &[Instruction],
    num_regs: usize,
    cfg: &Cfg,
    launch: Option<&LaunchInfo>,
) -> AbsintAnalysis {
    Interp {
        instrs,
        num_regs,
        cfg,
        launch,
        focus: None,
        cells: None,
    }
    .run(kernel)
}

/// Like [`interpret`], but with an abstract memory-cell table
/// ([`memcell::CellTable`](crate::memcell::CellTable)) refining loads:
/// a `ld` whose abstract address set lies inside tracked cells takes
/// the join of the cell values instead of `Top`/`Uniform(full)`. Only
/// sound against a table whose invariant holds for this kernel and
/// launch — [`memcell::analyze_cells`](crate::memcell::analyze_cells)
/// establishes that by post-fixpoint verification.
pub fn interpret_with_cells(
    kernel: &str,
    instrs: &[Instruction],
    num_regs: usize,
    cfg: &Cfg,
    launch: Option<&LaunchInfo>,
    cells: Option<&crate::memcell::CellTable>,
) -> AbsintAnalysis {
    Interp {
        instrs,
        num_regs,
        cfg,
        launch,
        focus: None,
        cells,
    }
    .run(kernel)
}

/// One specific warp of a concrete launch, pinning the warp-dependent
/// special registers (`%bid`, `%warpid`, and the bases of `%tid` /
/// `%gtid`) to singletons. Used by the memory abstract interpretation
/// ([`memabs`](crate::memabs)) to derive *per-warp* address sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarpFocus {
    /// Block index in the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp_in_block: u32,
}

/// Like [`interpret`], but specialised to one warp of the launch: the
/// warp-dependent specials become singletons, so thread-index-derived
/// addresses resolve to per-warp affine sets instead of launch-wide
/// hulls. Requires known grid geometry in `launch` for the focus to
/// sharpen anything (unknown fields degrade exactly as in
/// [`interpret`]).
pub fn interpret_for_warp(
    kernel: &str,
    instrs: &[Instruction],
    num_regs: usize,
    cfg: &Cfg,
    launch: &LaunchInfo,
    focus: WarpFocus,
) -> AbsintAnalysis {
    Interp {
        instrs,
        num_regs,
        cfg,
        launch: Some(launch),
        focus: Some(focus),
        cells: None,
    }
    .run(kernel)
}

struct Interp<'a> {
    instrs: &'a [Instruction],
    num_regs: usize,
    cfg: &'a Cfg,
    launch: Option<&'a LaunchInfo>,
    focus: Option<WarpFocus>,
    cells: Option<&'a crate::memcell::CellTable>,
}

impl Interp<'_> {
    fn run(&self, kernel: &str) -> AbsintAnalysis {
        let n = self.instrs.len();
        let branch_pcs: Vec<usize> = (0..n)
            .filter(|&pc| matches!(self.instrs[pc], Instruction::Bra { .. }))
            .collect();
        // Assume every branch uniform; restart whenever an
        // assumed-uniform condition turns out non-uniform. Each
        // restart flags at least one more branch, so at most
        // `branch_pcs.len() + 1` rounds run.
        let mut nonuniform = vec![false; n];
        loop {
            let (in_region, mix_regs) = self.regions(&nonuniform);
            let ins = self.fixpoint(&in_region, &mix_regs);
            let mut flagged = false;
            for &pc in &branch_pcs {
                if nonuniform[pc] {
                    continue;
                }
                if let (Instruction::Bra { pred, .. }, Some(st)) = (&self.instrs[pc], &ins[pc]) {
                    if !st[pred.index()].is_uniform() {
                        nonuniform[pc] = true;
                        flagged = true;
                    }
                }
            }
            if !flagged {
                return self.collect(kernel, ins, &in_region, &branch_pcs, &nonuniform);
            }
        }
    }

    /// The union of the divergence regions of all flagged branches
    /// (pcs whose writes may execute under a partial mask), and, per
    /// pc, the registers that must be combined with the mixing join
    /// when control flow arrives there (registers written inside a
    /// region whose reconvergence point that pc is).
    fn regions(&self, nonuniform: &[bool]) -> (Vec<bool>, Vec<RegSet>) {
        let n = self.instrs.len();
        let mut mix_regs = vec![RegSet::EMPTY; n];
        let full = self.launch.is_none_or(LaunchInfo::full_warps);
        // A ragged block size means the tail warp runs *every*
        // instruction masked, so every write mixes with stale lanes.
        let mut in_region = vec![!full; n];
        for (pc, &nonuni) in nonuniform.iter().enumerate() {
            if !nonuni {
                continue;
            }
            if let Instruction::Bra { target, reconv, .. } = self.instrs[pc] {
                let region = self.cfg.region(&[target, pc + 1], reconv);
                let mut written = RegSet::EMPTY;
                for (p, &inside) in region.iter().enumerate() {
                    if inside {
                        in_region[p] = true;
                        if let Some(dst) = self.instrs[p].dst() {
                            written.insert(dst.index() as u8);
                        }
                    }
                }
                if reconv < n {
                    mix_regs[reconv].union_with(&written);
                }
            }
        }
        (in_region, mix_regs)
    }

    fn fixpoint(&self, in_region: &[bool], mix_regs: &[RegSet]) -> Vec<Option<Vec<AbsVal>>> {
        let n = self.instrs.len();
        let mut ins: Vec<Option<Vec<AbsVal>>> = vec![None; n];
        let mut joins = vec![0u32; n];
        if n == 0 {
            return ins;
        }
        ins[0] = Some(vec![AbsVal::zero(); self.num_regs]);
        let mut work = vec![0usize];
        while let Some(pc) = work.pop() {
            let Some(st) = ins[pc].clone() else { continue };
            let out = self.transfer(pc, st, in_region);
            for &succ in self.cfg.succs(pc) {
                if self.combine_at(succ, out.clone(), &mut ins, &mut joins, mix_regs) {
                    work.push(succ);
                }
            }
        }
        ins
    }

    /// Merges `incoming` into the state at `succ`; returns whether it
    /// changed. Registers in `mix_regs[succ]` (written inside a
    /// divergence region reconverging here) are first stabilized —
    /// even on a first arrival, since a loop's reconvergence mixes
    /// *iterations*, not just the two halves of one split — and then
    /// combined with the mixing join; all other registers use the
    /// path-union join.
    fn combine_at(
        &self,
        succ: usize,
        mut incoming: Vec<AbsVal>,
        ins: &mut [Option<Vec<AbsVal>>],
        joins: &mut [u32],
        mix_regs: &[RegSet],
    ) -> bool {
        let mset = &mix_regs[succ];
        for r in mset.iter() {
            let r = r as usize;
            incoming[r] = incoming[r].stabilize();
        }
        if ins[succ].is_none() {
            ins[succ] = Some(incoming);
            return true;
        }
        let cur = ins[succ].as_mut().expect("just checked");
        let widen = joins[succ] >= WIDEN_AFTER;
        let mut changed = false;
        for r in 0..self.num_regs {
            let j = if mset.contains(r as u8) {
                AbsVal::mix(&cur[r], &incoming[r])
            } else {
                AbsVal::join(&cur[r], &incoming[r])
            };
            if j != cur[r] {
                cur[r] = if widen { AbsVal::widen(&cur[r], &j) } else { j };
                changed = true;
            }
        }
        if changed {
            joins[succ] += 1;
        }
        changed
    }

    /// Executes the instruction at `pc` on a copy of its in-state.
    /// Writes inside a divergence region may carry a partial lane
    /// mask: the register file merges the new value into the old one
    /// lane-wise, so the post-state is the mixing join of both.
    fn transfer(&self, pc: usize, mut st: Vec<AbsVal>, in_region: &[bool]) -> Vec<AbsVal> {
        let new = match &self.instrs[pc] {
            Instruction::Mov { src, .. } => Some(self.operand(src, &st)),
            Instruction::Alu { op, a, b, .. } => {
                Some(eval_op(*op, &self.operand(a, &st), &self.operand(b, &st)))
            }
            // All active lanes of a load read the same memory word
            // when the address register is warp-uniform (the
            // simulator dispatches one warp instruction atomically),
            // so the loaded value is uniform too — of unknown range.
            // An armed memory-cell table sharpens either case: an
            // in-bounds address set whose words all carry tracked
            // value ranges bounds the loaded value itself.
            Instruction::Ld { base, offset, .. } => {
                let refined = self
                    .cells
                    .and_then(|c| c.refine(&st[base.index()].add_const(*offset)));
                Some(match refined {
                    Some(v) => v,
                    None if st[base.index()].is_uniform() => AbsVal::Uniform(Range::FULL),
                    None => AbsVal::Top,
                })
            }
            _ => None,
        };
        if let (Some(new), Some(dst)) = (new, self.instrs[pc].dst()) {
            let d = dst.index();
            st[d] = if in_region[pc] {
                AbsVal::mix(&st[d], &new)
            } else {
                new
            };
        }
        st
    }

    fn operand(&self, op: &Operand, st: &[AbsVal]) -> AbsVal {
        match *op {
            Operand::Reg(r) => st[r.index()].clone(),
            Operand::Imm(v) => AbsVal::Uniform(Range::singleton(v)),
            // Parameters are per-launch constants: always uniform,
            // concrete when the launch is known.
            Operand::Param(i) => match self.launch.and_then(|l| l.params.get(i as usize)) {
                Some(&v) => AbsVal::Uniform(Range::singleton(v as i32)),
                None => AbsVal::Uniform(Range::FULL),
            },
            Operand::Special(s) => self.special(s),
        }
    }

    /// Abstract values of the special registers, matching the
    /// simulator's dispatch semantics exactly: within one warp,
    /// `%tid = warp_in_block·32 + lane` and
    /// `%gtid = block·block_dim + %tid` (mod 2³²) are affine in the
    /// lane with stride 1, everything else is warp-uniform.
    fn special(&self, s: Special) -> AbsVal {
        let blocks = self.launch.and_then(|l| l.blocks);
        let tpb = self.launch.and_then(|l| l.threads_per_block);
        let w = WARP_SIZE as i64;
        // Warp-focused interpretation: the warp-dependent specials are
        // concrete for one (block, warp) pair, exactly mirroring the
        // simulator's dispatch arithmetic (wrapping mod 2³²).
        if let Some(f) = self.focus {
            let warp_base = f.warp_in_block.wrapping_mul(WARP_SIZE as u32);
            match s {
                Special::Tid => {
                    return AbsVal::affine(Range::singleton(warp_base as i32), 1);
                }
                Special::GlobalTid => {
                    if let Some(t) = tpb {
                        let base = f.block.wrapping_mul(t).wrapping_add(warp_base);
                        return AbsVal::affine(Range::singleton(base as i32), 1);
                    }
                }
                Special::Bid => return AbsVal::Uniform(Range::singleton(f.block as i32)),
                Special::WarpId => {
                    return AbsVal::Uniform(Range::singleton(f.warp_in_block as i32))
                }
                _ => {}
            }
        }
        match s {
            Special::LaneId => AbsVal::affine(Range::singleton(0), 1),
            Special::Tid => {
                let base = match tpb {
                    Some(t) if t > 0 => Range::of(0, (i64::from(t) - 1) / w * w),
                    _ => Range::FULL,
                };
                AbsVal::affine(base, 1)
            }
            Special::GlobalTid => {
                let base = match (blocks, tpb) {
                    (Some(b), Some(t)) if b > 0 && t > 0 => {
                        Range::checked(0, i64::from(b) * i64::from(t) - w).unwrap_or(Range::FULL)
                    }
                    _ => Range::FULL,
                };
                AbsVal::affine(base, 1)
            }
            Special::Bid => AbsVal::Uniform(match blocks {
                Some(b) if b > 0 => Range::clamped(0, i64::from(b) - 1),
                _ => Range::FULL,
            }),
            Special::BlockDim => AbsVal::Uniform(match tpb {
                Some(t) => Range::singleton(t as i32),
                None => Range::FULL,
            }),
            Special::GridDim => AbsVal::Uniform(match blocks {
                Some(b) => Range::singleton(b as i32),
                None => Range::FULL,
            }),
            Special::WarpId => AbsVal::Uniform(match tpb {
                Some(t) if t > 0 => Range::of(0, (i64::from(t) - 1) / w),
                _ => Range::FULL,
            }),
        }
    }

    fn collect(
        &self,
        kernel: &str,
        ins: Vec<Option<Vec<AbsVal>>>,
        in_region: &[bool],
        branch_pcs: &[usize],
        nonuniform: &[bool],
    ) -> AbsintAnalysis {
        let mut sites = Vec::new();
        for (pc, slot) in ins.iter().enumerate() {
            let (Some(st), Some(dst)) = (slot, self.instrs[pc].dst()) else {
                continue;
            };
            let post = self.transfer(pc, st.clone(), in_region);
            let value = post[dst.index()].clone();
            // The simulator stores writes issued under divergence
            // uncompressed (`DivergencePolicy::UncompressedWrites`),
            // so a site inside a divergence region can only be
            // soundly promised the full footprint.
            let class = if in_region[pc] {
                CompressionClass::Uncompressed
            } else {
                value.class()
            };
            sites.push(SitePrediction {
                pc,
                reg: dst.index() as u8,
                class,
                divergent_region: in_region[pc],
                value,
            });
        }
        let branches = branch_pcs
            .iter()
            .filter(|&&pc| ins[pc].is_some())
            .map(|&pc| BranchVerdict {
                pc,
                uniform: !nonuniform[pc],
            })
            .collect();
        AbsintAnalysis {
            ins,
            divergent: in_region.to_vec(),
            prediction: KernelPrediction {
                kernel: kernel.to_string(),
                sites,
                branches,
            },
        }
    }
}

/// Abstract transfer function of one ALU op, mirroring
/// [`AluOp::apply`] lane-wise. Every op is deterministic, so uniform
/// operands *always* produce a uniform result — at worst of unknown
/// range — which is the single most load-bearing fact of the domain
/// (`Uniform` is ⟨4,0⟩-compressible regardless of range).
fn eval_op(op: AluOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    // Exact constant fold when both operands are known uniform values.
    if let (Some(x), Some(y)) = (a.uniform_singleton(), b.uniform_singleton()) {
        let r = op.apply(x as u32, y as u32);
        return AbsVal::Uniform(Range::singleton(r as i32));
    }
    let both_uniform = a.is_uniform() && b.is_uniform();
    let refined = match op {
        AluOp::Add => add(a, b),
        AluOp::Sub => sub(a, b),
        AluOp::Mul => mul(a, b),
        AluOp::Div | AluOp::Rem => {
            // |a/b| ≤ |a| and |a%b| ≤ |a|; division by zero yields 0
            // and MIN/−1 wraps back to MIN — all inside the magnitude
            // hull of `a`'s range extended through zero.
            a.per_lane_range().map(|ra| {
                let r = Range::clamped(ra.lo.min(-ra.hi).min(0), ra.hi.max(-ra.lo).max(0));
                if both_uniform {
                    AbsVal::Uniform(r)
                } else {
                    AbsVal::narrow(r)
                }
            })
        }
        AluOp::Min | AluOp::Max => minmax(op, a, b, both_uniform),
        AluOp::And | AluOp::Or | AluOp::Xor => bitop(op, a, b, both_uniform),
        AluOp::Shl | AluOp::Shr => shift(op, a, b, both_uniform),
        AluOp::SetLt | AluOp::SetLe | AluOp::SetEq | AluOp::SetNe => {
            return compare(op, a, b, both_uniform);
        }
    };
    refined.unwrap_or(if both_uniform {
        // No range information survived, but equal inputs still give
        // equal outputs lane-wise.
        AbsVal::Uniform(Range::FULL)
    } else {
        AbsVal::Top
    })
}

fn add(a: &AbsVal, b: &AbsVal) -> Option<AbsVal> {
    // Affine + affine stays affine mod 2³²: strides and bases add
    // independently. A base hull that may wrap degrades to the full
    // base range, not to Top — affinity itself survives wrapping.
    if let (Some((b1, s1)), Some((b2, s2))) = (a.as_affine(), b.as_affine()) {
        let base = Range::checked(b1.lo + b2.lo, b1.hi + b2.hi).unwrap_or(Range::FULL);
        return Some(AbsVal::affine(base, s1.wrapping_add(s2)));
    }
    let (ra, rb) = (a.per_lane_range()?, b.per_lane_range()?);
    Range::checked(ra.lo + rb.lo, ra.hi + rb.hi).map(AbsVal::narrow)
}

fn sub(a: &AbsVal, b: &AbsVal) -> Option<AbsVal> {
    if let (Some((b1, s1)), Some((b2, s2))) = (a.as_affine(), b.as_affine()) {
        let base = Range::checked(b1.lo - b2.hi, b1.hi - b2.lo).unwrap_or(Range::FULL);
        return Some(AbsVal::affine(base, s1.wrapping_sub(s2)));
    }
    let (ra, rb) = (a.per_lane_range()?, b.per_lane_range()?);
    Range::checked(ra.lo - rb.hi, ra.hi - rb.lo).map(AbsVal::narrow)
}

/// Interval product; bound magnitudes are ≤ 2³¹ so the corner
/// products fit `i64` exactly.
fn mul_bound(x: Range, y: Range) -> Option<Range> {
    let corners = [x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi];
    let lo = corners.into_iter().min().expect("non-empty");
    let hi = corners.into_iter().max().expect("non-empty");
    Range::checked(lo, hi)
}

fn mul(a: &AbsVal, b: &AbsVal) -> Option<AbsVal> {
    // Affine × uniform constant: multiplication distributes mod 2³²,
    // so the stride scales and affinity survives base wrapping.
    let scaled = |v: &AbsVal, c: i32| {
        v.as_affine().map(|(base, stride)| {
            let base = mul_bound(base, Range::singleton(c)).unwrap_or(Range::FULL);
            AbsVal::affine(base, stride.wrapping_mul(c))
        })
    };
    if let Some(v) = b.uniform_singleton().and_then(|c| scaled(a, c)) {
        return Some(v);
    }
    if let Some(v) = a.uniform_singleton().and_then(|c| scaled(b, c)) {
        return Some(v);
    }
    let (ra, rb) = (a.per_lane_range()?, b.per_lane_range()?);
    if a.is_uniform() && b.is_uniform() {
        return Some(AbsVal::Uniform(mul_bound(ra, rb).unwrap_or(Range::FULL)));
    }
    mul_bound(ra, rb).map(AbsVal::narrow)
}

fn minmax(op: AluOp, a: &AbsVal, b: &AbsVal, both_uniform: bool) -> Option<AbsVal> {
    let (ra, rb) = (a.per_lane_range()?, b.per_lane_range()?);
    let r = match op {
        AluOp::Min => Range::of(ra.lo.min(rb.lo), ra.hi.min(rb.hi)),
        _ => Range::of(ra.lo.max(rb.lo), ra.hi.max(rb.hi)),
    };
    Some(if both_uniform {
        AbsVal::Uniform(r)
    } else {
        AbsVal::narrow(r)
    })
}

fn bitop(op: AluOp, a: &AbsVal, b: &AbsVal, both_uniform: bool) -> Option<AbsVal> {
    let nonneg = |v: &AbsVal| v.per_lane_range().filter(Range::is_nonneg);
    let (ra, rb) = (nonneg(a), nonneg(b));
    let r = match op {
        // x & y clears bits: bounded by either non-negative operand.
        AluOp::And => match (ra, rb) {
            (Some(ra), Some(rb)) => Range::of(0, ra.hi.min(rb.hi)),
            (Some(ra), None) => Range::of(0, ra.hi),
            (None, Some(rb)) => Range::of(0, rb.hi),
            (None, None) => return None,
        },
        // x | y ≤ x + y and x ^ y ≤ x + y for non-negative operands,
        // and the sign bit stays clear.
        _ => Range::clamped(0, ra?.hi + rb?.hi),
    };
    Some(if both_uniform {
        AbsVal::Uniform(r)
    } else {
        AbsVal::narrow(r)
    })
}

fn shift(op: AluOp, a: &AbsVal, b: &AbsVal, both_uniform: bool) -> Option<AbsVal> {
    // Shifts are only bounded for non-negative (sign bit clear)
    // values; the hardware masks the amount to 5 bits.
    let ra = a.per_lane_range().filter(Range::is_nonneg)?;
    let k = b.uniform_singleton().map(|k| (k as u32) & 31);
    let r = match op {
        AluOp::Shl => {
            let k = k?;
            Range::checked(ra.lo << k, ra.hi << k)?
        }
        // Logical right shift of a non-negative value only shrinks it.
        _ => match k {
            Some(k) => Range::of(ra.lo >> k, ra.hi >> k),
            None => Range::of(0, ra.hi),
        },
    };
    Some(if both_uniform {
        AbsVal::Uniform(r)
    } else {
        AbsVal::narrow(r)
    })
}

fn compare(op: AluOp, a: &AbsVal, b: &AbsVal, both_uniform: bool) -> AbsVal {
    let ra = a.per_lane_range().unwrap_or(Range::FULL);
    let rb = b.per_lane_range().unwrap_or(Range::FULL);
    // A comparison decided by the per-lane ranges has the same outcome
    // in every lane: the result is uniform even for non-uniform
    // operands (e.g. `gtid < N` with N past the last thread).
    let decided = match op {
        AluOp::SetLt => {
            if ra.hi < rb.lo {
                Some(true)
            } else if ra.lo >= rb.hi {
                Some(false)
            } else {
                None
            }
        }
        AluOp::SetLe => {
            if ra.hi <= rb.lo {
                Some(true)
            } else if ra.lo > rb.hi {
                Some(false)
            } else {
                None
            }
        }
        AluOp::SetEq | AluOp::SetNe => {
            let eq = if ra.as_singleton().is_some() && ra == rb {
                Some(true)
            } else if ra.hi < rb.lo || rb.hi < ra.lo {
                Some(false)
            } else {
                None
            };
            if op == AluOp::SetEq {
                eq
            } else {
                eq.map(|v| !v)
            }
        }
        _ => unreachable!("compare called with a non-comparison op"),
    };
    match decided {
        Some(v) => AbsVal::Uniform(Range::singleton(i32::from(v))),
        // Undecided: still always 0 or 1 per lane.
        None if both_uniform => AbsVal::Uniform(Range::of(0, 1)),
        None => AbsVal::narrow(Range::of(0, 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{Kernel, KernelBuilder, Reg};

    fn analyze(kernel: &Kernel, launch: Option<&LaunchInfo>) -> AbsintAnalysis {
        let cfg = Cfg::build(kernel.instrs());
        interpret(
            kernel.name(),
            kernel.instrs(),
            kernel.num_regs() as usize,
            &cfg,
            launch,
        )
    }

    fn uni(v: i32) -> AbsVal {
        AbsVal::Uniform(Range::singleton(v))
    }

    #[test]
    fn normalising_constructors() {
        assert_eq!(AbsVal::affine(Range::singleton(3), 0), uni(3));
        assert_eq!(AbsVal::narrow(Range::FULL), AbsVal::Top);
        assert_eq!(AbsVal::narrow(Range::singleton(9)), uni(9));
        assert!(matches!(
            AbsVal::narrow(Range::of(0, 5)),
            AbsVal::NarrowRange(_)
        ));
    }

    #[test]
    fn class_mapping_follows_stride_and_width() {
        assert_eq!(
            AbsVal::Uniform(Range::FULL).class(),
            CompressionClass::Delta0
        );
        let aff = |s| AbsVal::LaneAffine {
            base: Range::FULL,
            stride: s,
        };
        assert_eq!(aff(1).class(), CompressionClass::Delta1);
        assert_eq!(aff(4).class(), CompressionClass::Delta1); // 4·31 = 124
        assert_eq!(aff(-4).class(), CompressionClass::Delta1);
        assert_eq!(aff(5).class(), CompressionClass::Delta2); // 5·31 = 155
        assert_eq!(aff(1057).class(), CompressionClass::Delta2); // 1057·31 = 32767
        assert_eq!(aff(1058).class(), CompressionClass::Uncompressed);
        assert_eq!(
            AbsVal::NarrowRange(Range::of(0, 127)).class(),
            CompressionClass::Delta1
        );
        assert_eq!(
            AbsVal::NarrowRange(Range::of(0, 128)).class(),
            CompressionClass::Delta2
        );
        assert_eq!(
            AbsVal::NarrowRange(Range::of(-20000, 20000)).class(),
            CompressionClass::Uncompressed
        );
        assert_eq!(AbsVal::Top.class(), CompressionClass::Uncompressed);
    }

    #[test]
    fn join_keeps_structure_but_mix_does_not() {
        // Path union of two uniform singletons is still uniform …
        assert_eq!(
            AbsVal::join(&uni(5), &uni(7)),
            AbsVal::Uniform(Range::of(5, 7))
        );
        // … but a lane mixture of them is not: mix degrades to the
        // per-lane hull, which is the soundness-critical difference.
        assert_eq!(
            AbsVal::mix(&uni(5), &uni(7)),
            AbsVal::NarrowRange(Range::of(5, 7))
        );
        // Mixing a lane-determined value with itself is a no-op.
        assert_eq!(AbsVal::mix(&uni(5), &uni(5)), uni(5));
        let lane = AbsVal::affine(Range::singleton(0), 1);
        assert_eq!(AbsVal::mix(&lane, &lane), lane);
        // Same-stride affine path union hulls the base.
        assert_eq!(
            AbsVal::join(
                &AbsVal::affine(Range::singleton(0), 2),
                &AbsVal::affine(Range::singleton(10), 2)
            ),
            AbsVal::affine(Range::of(0, 10), 2)
        );
    }

    #[test]
    fn contains_oracle() {
        let lanes_eq = [7u32; WARP_SIZE];
        assert!(uni(7).contains(&lanes_eq));
        assert!(!uni(8).contains(&lanes_eq));
        assert!(!AbsVal::narrow(Range::of(0, 6)).contains(&lanes_eq));
        let mut ramp = [0u32; WARP_SIZE];
        for (i, v) in ramp.iter_mut().enumerate() {
            *v = 100 + 3 * i as u32;
        }
        assert!(AbsVal::affine(Range::of(0, 200), 3).contains(&ramp));
        assert!(!AbsVal::affine(Range::of(0, 200), 2).contains(&ramp));
        assert!(!uni(100).contains(&ramp));
        assert!(AbsVal::Top.contains(&ramp));
        // Wrapped affine: a base near u32::MAX reinterprets negative.
        let mut wrapped = [0u32; WARP_SIZE];
        for (i, v) in wrapped.iter_mut().enumerate() {
            *v = u32::MAX.wrapping_add(i as u32); // -1, 0, 1, …
        }
        assert!(AbsVal::affine(Range::singleton(-1), 1).contains(&wrapped));
    }

    #[test]
    fn straight_line_thread_index_is_affine() {
        let mut b = KernelBuilder::new("ramp", 3);
        b.mov(Reg(0), Operand::Special(Special::LaneId));
        b.alu(AluOp::Mul, Reg(1), Operand::Reg(Reg(0)), Operand::Imm(4));
        b.alu(
            AluOp::Add,
            Reg(2),
            Operand::Reg(Reg(1)),
            Operand::Imm(0x1000),
        );
        b.st(Reg(2), 0, Reg(1));
        b.exit();
        let k = b.build().unwrap();
        let p = analyze(&k, None).prediction;
        // r0 = lane (stride 1), r1 = 4·lane, r2 = 0x1000 + 4·lane:
        // all affine with |stride·31| ≤ 127 → Delta1 (3 banks).
        assert_eq!(p.site_at(0).unwrap().class, CompressionClass::Delta1);
        assert_eq!(
            p.site_at(1).unwrap().value,
            AbsVal::affine(Range::singleton(0), 4)
        );
        assert_eq!(p.site_at(1).unwrap().class, CompressionClass::Delta1);
        assert_eq!(
            p.site_at(2).unwrap().value,
            AbsVal::affine(Range::singleton(0x1000), 4)
        );
        assert_eq!(p.informative_fraction(), 1.0);
        assert_eq!(p.compressed_fraction(), 1.0);
        assert_eq!(p.min_gateable_banks(), 5);
        assert!(p.branches.is_empty());
    }

    #[test]
    fn uniform_counted_loop_stays_uniform() {
        // r0 = trip count (param); r1 = counter; loop while r1 < r0.
        // The branch condition is uniform, so no divergence region
        // exists and the counter stays Uniform (Delta0) even after
        // widening opens its range.
        let mut b = KernelBuilder::new("loop", 3);
        let head = b.label();
        let exit = b.label();
        b.mov(Reg(0), Operand::Param(0));
        b.bind(head);
        b.alu(
            AluOp::SetLt,
            Reg(2),
            Operand::Reg(Reg(1)),
            Operand::Reg(Reg(0)),
        );
        b.alu(AluOp::SetEq, Reg(2), Operand::Reg(Reg(2)), Operand::Imm(0));
        b.bra(Reg(2), exit, exit);
        b.alu(AluOp::Add, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1));
        b.jmp(head);
        b.bind(exit);
        b.exit();
        let k = b.build().unwrap();
        let p = analyze(&k, None).prediction;
        assert_eq!(p.branches.len(), 1);
        assert!(p.branches[0].uniform, "uniform trip count never diverges");
        for s in &p.sites {
            assert_eq!(
                s.class,
                CompressionClass::Delta0,
                "site @{}: {}",
                s.pc,
                s.value
            );
            assert!(!s.divergent_region);
        }
        assert_eq!(p.min_gateable_banks(), 7);
    }

    #[test]
    fn divergent_branch_mixes_written_registers() {
        // Branch on a lane-dependent predicate; the then-block writes
        // r2. After reconvergence r2 is a lane mixture (not Uniform),
        // and the in-region write site is predicted Uncompressed.
        let mut b = KernelBuilder::new("div", 4);
        let merge = b.label();
        b.mov(Reg(0), Operand::Special(Special::LaneId));
        b.alu(AluOp::SetLt, Reg(1), Operand::Reg(Reg(0)), Operand::Imm(16));
        b.alu(AluOp::SetEq, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(0));
        b.bra(Reg(1), merge, merge);
        b.mov(Reg(2), Operand::Imm(7)); // pc 4, masked write
        b.bind(merge);
        b.mov(Reg(3), Operand::Reg(Reg(2))); // pc 5, after reconvergence
        b.st(Reg(0), 0, Reg(3));
        b.exit();
        let k = b.build().unwrap();
        let a = analyze(&k, None);
        let p = &a.prediction;
        let verdict = p.branches.iter().find(|v| v.pc == 3).unwrap();
        assert!(!verdict.uniform);
        let masked = p.site_at(4).unwrap();
        assert!(masked.divergent_region);
        assert_eq!(masked.class, CompressionClass::Uncompressed);
        // r2 at the merge mixes 0 (untaken lanes) and 7: a narrow
        // range, not Uniform — the unsoundness the mixing join fixes.
        let after = p.site_at(5).unwrap();
        assert!(!after.value.is_uniform(), "r2 copy is {}", after.value);
        assert_eq!(after.value, AbsVal::narrow(Range::of(0, 7)));
        assert_eq!(after.class, CompressionClass::Delta1);
        // r0 (lane id) was not written in the region: affinity
        // survives reconvergence.
        let st = a.state_at(5).unwrap();
        assert_eq!(st[0], AbsVal::affine(Range::singleton(0), 1));
    }

    #[test]
    fn uniform_load_address_gives_uniform_value() {
        let mut b = KernelBuilder::new("ldu", 2);
        b.mov(Reg(0), Operand::Imm(64));
        b.ld(Reg(1), Reg(0), 0);
        b.st(Reg(0), 4, Reg(1));
        b.exit();
        let k = b.build().unwrap();
        let a = analyze(&k, None);
        let s = a.prediction.site_at(1).unwrap();
        assert_eq!(s.value, AbsVal::Uniform(Range::FULL));
        assert_eq!(s.class, CompressionClass::Delta0);
    }

    #[test]
    fn launch_info_sharpens_specials_and_params() {
        let launch = LaunchInfo {
            params: vec![640, 7],
            blocks: Some(10),
            threads_per_block: Some(64),
            mem_words: None,
            initial_mem: None,
        };
        let mut b = KernelBuilder::new("special", 5);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.mov(Reg(1), Operand::Param(0));
        b.alu(
            AluOp::SetLt,
            Reg(2),
            Operand::Reg(Reg(0)),
            Operand::Reg(Reg(1)),
        );
        b.mov(Reg(3), Operand::Special(Special::Bid));
        b.mov(Reg(4), Operand::Special(Special::BlockDim));
        b.exit();
        let k = b.build().unwrap();
        let p = analyze(&k, Some(&launch)).prediction;
        // gtid ∈ 0 + lane… with base up to 640 − 32; every lane value
        // is < 640 = param 0, so the guard is decided uniform-true.
        assert_eq!(
            p.site_at(0).unwrap().value,
            AbsVal::affine(Range::of(0, 608), 1)
        );
        assert_eq!(p.site_at(1).unwrap().value, uni(640));
        assert_eq!(p.site_at(2).unwrap().value, uni(1));
        assert_eq!(
            p.site_at(3).unwrap().value,
            AbsVal::Uniform(Range::of(0, 9))
        );
        assert_eq!(p.site_at(4).unwrap().value, uni(64));
    }

    #[test]
    fn ragged_block_size_degrades_every_write() {
        let launch = LaunchInfo {
            params: vec![],
            blocks: Some(1),
            threads_per_block: Some(48), // partial tail warp
            mem_words: None,
            initial_mem: None,
        };
        let mut b = KernelBuilder::new("ragged", 1);
        b.mov(Reg(0), Operand::Imm(3));
        b.st(Reg(0), 0, Reg(0));
        b.exit();
        let k = b.build().unwrap();
        let s = analyze(&k, Some(&launch))
            .prediction
            .site_at(0)
            .cloned()
            .unwrap();
        assert!(s.divergent_region);
        assert_eq!(s.class, CompressionClass::Uncompressed);
    }

    #[test]
    fn widening_terminates_open_loops() {
        // A loop whose exit condition the analysis cannot decide:
        // without widening the counter's range would ascend forever.
        let mut b = KernelBuilder::new("open", 3);
        let head = b.label();
        let exit = b.label();
        b.mov(Reg(0), Operand::Param(0));
        b.bind(head);
        b.alu(
            AluOp::SetLt,
            Reg(2),
            Operand::Reg(Reg(1)),
            Operand::Reg(Reg(0)),
        );
        b.alu(AluOp::SetEq, Reg(2), Operand::Reg(Reg(2)), Operand::Imm(0));
        b.bra(Reg(2), exit, exit);
        b.alu(AluOp::Add, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(3));
        b.jmp(head);
        b.bind(exit);
        b.exit();
        let k = b.build().unwrap();
        let p = analyze(&k, None).prediction; // unknown trip count
        let counter = &p.site_at(4).unwrap().value;
        assert!(counter.is_uniform(), "counter is {counter}");
        assert_eq!(counter.class(), CompressionClass::Delta0);
    }

    #[test]
    fn eval_op_algebra() {
        let lane = AbsVal::affine(Range::singleton(0), 1);
        // lane·4 + 16: affine stride 4.
        let scaled = eval_op(AluOp::Mul, &lane, &uni(4));
        assert_eq!(scaled, AbsVal::affine(Range::singleton(0), 4));
        let off = eval_op(AluOp::Add, &scaled, &uni(16));
        assert_eq!(off, AbsVal::affine(Range::singleton(16), 4));
        // lane − lane: strides cancel to uniform zero.
        assert_eq!(eval_op(AluOp::Sub, &lane, &lane), uni(0));
        // Unknown-uniform ops stay uniform (the load-bearing rule).
        let u = AbsVal::Uniform(Range::FULL);
        assert_eq!(eval_op(AluOp::Mul, &u, &u), AbsVal::Uniform(Range::FULL));
        assert_eq!(eval_op(AluOp::Xor, &u, &u), AbsVal::Uniform(Range::FULL));
        // Div magnitude bound.
        let a = AbsVal::narrow(Range::of(-10, 100));
        assert_eq!(
            eval_op(AluOp::Div, &a, &AbsVal::Top),
            AbsVal::narrow(Range::of(-100, 100))
        );
        // And with one non-negative side bounds the result.
        let mask = AbsVal::narrow(Range::of(0, 255));
        assert_eq!(
            eval_op(AluOp::And, &AbsVal::Top, &mask),
            AbsVal::narrow(Range::of(0, 255))
        );
        // Shr of a non-negative range by an unknown amount.
        let x = AbsVal::narrow(Range::of(512, 1000));
        assert_eq!(
            eval_op(AluOp::Shr, &x, &AbsVal::Top),
            AbsVal::narrow(Range::of(0, 1000))
        );
        // Decided comparison over affine operands is uniform.
        let g = AbsVal::affine(Range::of(0, 608), 1);
        assert_eq!(eval_op(AluOp::SetLt, &g, &uni(640)), uni(1));
        assert_eq!(eval_op(AluOp::SetLt, &g, &uni(0)), uni(0));
        // Undecided comparison is still a 0/1 narrow range.
        assert_eq!(
            eval_op(AluOp::SetLt, &g, &uni(100)),
            AbsVal::narrow(Range::of(0, 1))
        );
    }

    #[test]
    fn exact_fold_matches_wrapping_semantics() {
        assert_eq!(
            eval_op(AluOp::Add, &uni(i32::MAX), &uni(1)),
            uni(i32::MIN) // wraps exactly like the ALU
        );
        assert_eq!(eval_op(AluOp::Div, &uni(7), &uni(0)), uni(0));
        assert_eq!(eval_op(AluOp::Shr, &uni(-1), &uni(1)), uni(i32::MAX));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(uni(3).to_string(), "uniform(3)");
        assert_eq!(
            AbsVal::affine(Range::singleton(16), 4).to_string(),
            "affine(16 + 4*lane)"
        );
        assert_eq!(
            AbsVal::narrow(Range::of(0, 5)).to_string(),
            "narrow([0, 5])"
        );
        assert_eq!(AbsVal::Top.to_string(), "top");
    }
}
