//! Address-focused abstract interpretation: static memory analysis.
//!
//! The warp-value domain of [`absint`](crate::absint) classifies
//! *register* values as `Uniform` / `LaneAffine` / `NarrowRange` —
//! exactly the shapes that flow into effective addresses (`base +
//! offset` with a per-lane base). This module propagates that domain
//! into every load/store site, producing per-site **abstract access
//! sets**, and builds three consumers on top:
//!
//! * a **cross-warp race/alias analyzer**: the interpretation is
//!   re-run once per concrete `(block, warp)` pair of the launch
//!   ([`absint::interpret_for_warp`]), pinning the warp-dependent
//!   special registers to singletons, so each site gets a *per-warp*
//!   address set; two warps race when some store's set may overlap
//!   another warp's access set. A launch with no such pair is
//!   *warp-isolated* (`race_free == Some(true)`).
//! * a **coalescing classifier**: the lane stride of an address
//!   determines a sound lower bound on the number of 32-word memory
//!   transactions every full-mask dispatch of that site must issue
//!   (the floor `perfbound` folds into its report and the simulator
//!   validates).
//! * a **store-to-load forwarding analysis** (the precision payoff):
//!   in a warp-isolated launch, a load whose matching store is
//!   *must-available* on every path — no intervening may-aliasing or
//!   address-unknown store, base register untouched — is guaranteed
//!   to read back that warp's own data, so the static issue
//!   scheduler's replay can resolve it from a shadow memory instead
//!   of bailing ([`crate::schedule`], [`crate::trace`]).
//!
//! Soundness contract (machine-checked by `warped_compression::mem`
//! against traced `MemEvent`s): for every traced access at pc `p` by
//! warp `(b, w)`, the active lanes' addresses lie inside the per-warp
//! abstract address set ([`AbsVal::contains_masked`]); if the launch
//! is reported race-free, no traced conflicting cross-warp pair
//! exists; and every site's transaction floor is ≤ the measured
//! transaction count.

use std::collections::{BTreeMap, BTreeSet};

use simt_isa::Instruction;

use crate::absint::{
    interpret, interpret_for_warp, AbsVal, AbsintAnalysis, LaunchInfo, Range, WarpFocus,
};
use crate::cfg::Cfg;
use crate::dataflow::ReachingDefs;

use bdi::WARP_SIZE;

/// Words per memory transaction: the coalescer serves one aligned
/// 32-word (128-byte) segment per transaction, mirroring the access
/// granularity of the paper's Fermi-class memory system.
pub const SEGMENT_WORDS: u64 = 32;

/// Per-warp specialisation cap: launches with more warps than this
/// skip the per-warp re-interpretation (race verdict `None`), keeping
/// the analysis linear in practice. Every suite workload is far
/// below it.
const MAX_FOCUS_WARPS: usize = 256;

/// The statically provable shape of one site's per-lane addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    /// All active lanes touch one word: one transaction, a broadcast.
    Uniform,
    /// Lane stride ±1: consecutive words, at most two segments, and
    /// never provably more than one.
    Coalesced,
    /// A known lane stride of magnitude ≥ 2: the warp provably spans
    /// multiple segments every full-mask dispatch.
    Strided(i32),
    /// No provable cross-lane structure (data-dependent gathers).
    Scattered,
}

impl AccessPattern {
    /// Short stable name, for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AccessPattern::Uniform => "uniform",
            AccessPattern::Coalesced => "coalesced",
            AccessPattern::Strided(_) => "strided",
            AccessPattern::Scattered => "scattered",
        }
    }
}

/// One static load/store site with its abstract access set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemSite {
    /// The pc of the `ld`/`st` instruction.
    pub pc: usize,
    /// Whether the site writes memory.
    pub is_store: bool,
    /// The base address register.
    pub base: u8,
    /// The constant word offset folded into the address.
    pub offset: i32,
    /// Launch-wide abstract per-lane address (`base + offset` over
    /// every warp of every block).
    pub address: AbsVal,
    /// The provable coalescing shape of the address.
    pub pattern: AccessPattern,
    /// A sound lower bound on transactions per *full-mask* dispatch
    /// of this site (1 when the site may execute under a partial
    /// mask — a lone active lane always coalesces).
    pub min_transactions: u64,
    /// Whether the site sits inside a divergence region (or the
    /// launch has ragged blocks), so dispatches may be partial-mask.
    pub divergent: bool,
}

/// A statically detected cross-warp conflicting access pair: the
/// store at `store_pc` (in some warp) and the access at `other_pc`
/// (in some *different* warp) may touch the same word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RacePair {
    /// The storing site.
    pub store_pc: usize,
    /// The conflicting site (may equal `store_pc`: the same store
    /// executed by two warps).
    pub other_pc: usize,
    /// Whether the conflicting site also writes.
    pub other_is_store: bool,
    /// Whether the overlap is *proven*: both sites' addresses are
    /// lane-determined for some warp pair and their concrete sets
    /// intersect. A non-must pair is a may-overlap of ranges only.
    pub must: bool,
}

/// Per-warp specialised address sets for every site.
#[derive(Clone, Debug, PartialEq, Eq)]
struct WarpAddresses {
    block: u32,
    warp_in_block: u32,
    /// Indexed parallel to [`MemAbs::sites`]; `None` when the site is
    /// unreachable under this warp's specialisation.
    values: Vec<Option<AbsVal>>,
}

/// The full static memory report for one kernel under one launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemAbs {
    /// Kernel name.
    pub kernel: String,
    /// Every reachable load/store site, in pc order.
    pub sites: Vec<MemSite>,
    /// The cross-warp race verdict: `Some(true)` means *no* store's
    /// per-warp address set may overlap any other warp's access set
    /// (warp-isolated); `Some(false)` means some pair may conflict;
    /// `None` means the launch geometry was unknown or too large to
    /// specialise per warp.
    pub race_free: Option<bool>,
    /// The conflicting pairs behind a `Some(false)` verdict, deduped
    /// by site pair, must-pairs first.
    pub races: Vec<RacePair>,
    /// Load pc → matching store pc: loads the static forwarding
    /// analysis proves always read back the same warp's own
    /// must-available store. Non-empty only for warp-isolated
    /// full-warp launches.
    pub forwardable: BTreeMap<usize, usize>,
    warp_addresses: Vec<WarpAddresses>,
}

impl MemAbs {
    /// The index into [`sites`](Self::sites) of the site at `pc`.
    pub fn site_index(&self, pc: usize) -> Option<usize> {
        self.sites.iter().position(|s| s.pc == pc)
    }

    /// Whether the launch is proven warp-isolated (no cross-warp
    /// conflicting pair can exist).
    pub fn warp_isolated(&self) -> bool {
        self.race_free == Some(true)
    }

    /// The abstract per-lane address of site `site` as seen by warp
    /// `(block, warp_in_block)`: the per-warp specialised value when
    /// one was computed, the launch-wide value otherwise. `None` when
    /// the per-warp interpretation proved the site unreachable for
    /// this warp (no access can be traced there).
    pub fn address_for(&self, site: usize, block: u32, warp_in_block: u32) -> Option<&AbsVal> {
        match self
            .warp_addresses
            .iter()
            .find(|w| w.block == block && w.warp_in_block == warp_in_block)
        {
            Some(w) => w.values.get(site).and_then(|v| v.as_ref()),
            None => self.sites.get(site).map(|s| &s.address),
        }
    }
}

/// Runs the memory abstract interpretation over a kernel body.
///
/// `cfg` must be the CFG of `instrs` and the kernel must already have
/// passed the structural lints, exactly as for
/// [`interpret`](crate::absint::interpret). `launch` gates the
/// cross-warp analysis: without known grid geometry only the
/// launch-wide access sets and coalescing floors are produced
/// (`race_free == None`).
pub fn analyze_mem(
    kernel: &str,
    instrs: &[Instruction],
    num_regs: u8,
    cfg: &Cfg,
    launch: Option<&LaunchInfo>,
) -> MemAbs {
    let absint = interpret(kernel, instrs, usize::from(num_regs), cfg, launch);
    let sites = access_sites(instrs, &absint);

    // Per-warp specialisation, when the geometry is known and small.
    let mut warp_addresses = Vec::new();
    let geometry = launch.and_then(|l| Some((l, l.blocks?, l.threads_per_block?)));
    if let Some((launch, blocks, tpb)) = geometry {
        let wpb = (tpb as usize).div_ceil(WARP_SIZE);
        if tpb > 0 && blocks > 0 && (blocks as usize).saturating_mul(wpb) <= MAX_FOCUS_WARPS {
            for block in 0..blocks {
                for warp in 0..wpb as u32 {
                    let focus = WarpFocus {
                        block,
                        warp_in_block: warp,
                    };
                    let wa = interpret_for_warp(
                        kernel,
                        instrs,
                        usize::from(num_regs),
                        cfg,
                        launch,
                        focus,
                    );
                    let values = sites
                        .iter()
                        .map(|s| {
                            wa.state_at(s.pc)
                                .map(|st| st[usize::from(s.base)].add_const(s.offset))
                        })
                        .collect();
                    warp_addresses.push(WarpAddresses {
                        block,
                        warp_in_block: warp,
                        values,
                    });
                }
            }
        }
    }

    let (race_free, races) = if warp_addresses.is_empty() {
        (None, Vec::new())
    } else {
        race_analysis(&sites, &warp_addresses)
    };

    let forwardable = if race_free == Some(true)
        && launch.is_some_and(LaunchInfo::full_warps)
        && !warp_addresses.is_empty()
    {
        forwarding_analysis(instrs, num_regs, cfg, &absint, &sites, &warp_addresses)
    } else {
        BTreeMap::new()
    };

    MemAbs {
        kernel: kernel.to_string(),
        sites,
        race_free,
        races,
        forwardable,
        warp_addresses,
    }
}

/// Every reachable load/store site of `instrs` with its launch-wide
/// access set under the absint fixpoint `absint`, in pc order.
pub(crate) fn access_sites(instrs: &[Instruction], absint: &AbsintAnalysis) -> Vec<MemSite> {
    let mut sites = Vec::new();
    for (pc, instr) in instrs.iter().enumerate() {
        let Some((base, offset, is_store)) = access_of(instr) else {
            continue;
        };
        let Some(st) = absint.state_at(pc) else {
            continue; // unreachable: no access can happen here
        };
        let address = st[usize::from(base)].add_const(offset);
        let divergent = absint.divergent_at(pc);
        let (pattern, min_transactions) = classify_access(&address, divergent);
        sites.push(MemSite {
            pc,
            is_store,
            base,
            offset,
            address,
            pattern,
            min_transactions,
            divergent,
        });
    }
    sites
}

/// The `(base, offset, is_store)` of a memory instruction.
fn access_of(instr: &Instruction) -> Option<(u8, i32, bool)> {
    match *instr {
        Instruction::Ld { base, offset, .. } => Some((base.index() as u8, offset, false)),
        Instruction::St { base, offset, .. } => Some((base.index() as u8, offset, true)),
        _ => None,
    }
}

/// The coalescing pattern of an abstract address and a sound lower
/// bound on transactions per full-mask dispatch.
///
/// The stride bound: sampled addresses `base + s·i` (mod 2³²) for
/// lanes `i < 32`. For `2 ≤ |s| ≤ 31` the pairwise circular distance
/// is exactly `|s|·|i−j| ≤ 961 < 2³¹`, so two lanes share an aligned
/// 32-word segment only when `|i−j| ≤ ⌊31/|s|⌋`; a segment therefore
/// holds at most `⌊31/|s|⌋+1` lanes and the warp needs at least
/// `⌈32/(⌊31/|s|⌋+1)⌉` transactions. For `|s| ≥ 32` adjacent lanes
/// have circular distance `min(s, 2³²−s) ≥ 32 > 31`, so they can
/// never share a segment: at least 2 transactions. A divergent site
/// may dispatch with one active lane, which always coalesces: floor 1.
fn classify_access(address: &AbsVal, divergent: bool) -> (AccessPattern, u64) {
    let pattern = match *address {
        AbsVal::Uniform(_) => AccessPattern::Uniform,
        AbsVal::LaneAffine { stride, .. } => {
            if stride == 1 || stride == -1 {
                AccessPattern::Coalesced
            } else {
                AccessPattern::Strided(stride)
            }
        }
        AbsVal::NarrowRange(_) | AbsVal::Top => AccessPattern::Scattered,
    };
    let min = if divergent {
        1
    } else {
        match pattern {
            AccessPattern::Strided(s) => {
                let m = u64::from(s.unsigned_abs());
                if m >= SEGMENT_WORDS {
                    2
                } else {
                    let per_segment = (SEGMENT_WORDS - 1) / m + 1;
                    (WARP_SIZE as u64).div_ceil(per_segment)
                }
            }
            _ => 1,
        }
    };
    (pattern, min)
}

/// The per-warp per-site address range (`None` = may be anything).
fn warp_range(wa: &WarpAddresses, site: usize) -> Option<Range> {
    wa.values[site].as_ref().and_then(AbsVal::per_lane_range)
}

/// The exact concrete address set of a lane-determined per-warp
/// value, sorted. `None` when any lane's address is not pinned.
fn concrete_set(v: &AbsVal) -> Option<Vec<u32>> {
    match *v {
        AbsVal::Uniform(r) => Some(vec![r.as_singleton()? as u32]),
        AbsVal::LaneAffine { base, stride } => {
            let b = base.as_singleton()? as u32;
            let mut set: Vec<u32> = (0..WARP_SIZE as u32)
                .map(|i| b.wrapping_add((stride as u32).wrapping_mul(i)))
                .collect();
            set.sort_unstable();
            Some(set)
        }
        _ => None,
    }
    .map(|mut s: Vec<u32>| {
        s.dedup();
        s
    })
}

/// Whether two ranges intersect (unknown ranges intersect everything).
fn ranges_overlap(a: Option<Range>, b: Option<Range>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.lo <= b.hi && b.lo <= a.hi,
        _ => true,
    }
}

/// Whether two sorted concrete sets intersect.
fn sets_intersect(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Cross-warp conflicting-pair detection over the per-warp address
/// sets. A pair conflicts when, for some two *different* warps, a
/// store's address range may overlap the other access's range; it is
/// a *must* conflict when both addresses are lane-determined for that
/// warp pair and their concrete sets intersect.
fn race_analysis(sites: &[MemSite], warps: &[WarpAddresses]) -> (Option<bool>, Vec<RacePair>) {
    // Precompute per (site, warp) ranges and concrete sets.
    let ranges: Vec<Vec<Option<Range>>> = warps
        .iter()
        .map(|wa| (0..sites.len()).map(|s| warp_range(wa, s)).collect())
        .collect();
    let concrete: Vec<Vec<Option<Vec<u32>>>> = warps
        .iter()
        .map(|wa| {
            (0..sites.len())
                .map(|s| wa.values[s].as_ref().and_then(concrete_set))
                .collect()
        })
        .collect();

    let mut pairs: BTreeMap<(usize, usize), RacePair> = BTreeMap::new();
    for (i, si) in sites.iter().enumerate() {
        if !si.is_store {
            continue;
        }
        for (j, sj) in sites.iter().enumerate() {
            // A store conflicts with any access, including itself run
            // by two different warps; pairs are keyed by the storing
            // site's pc.
            for (w1, rw1) in ranges.iter().enumerate() {
                for (w2, rw2) in ranges.iter().enumerate() {
                    if w1 == w2 {
                        continue;
                    }
                    // Unreachable for this warp: no access, no race.
                    if warps[w1].values[i].is_none() || warps[w2].values[j].is_none() {
                        continue;
                    }
                    if !ranges_overlap(rw1[i], rw2[j]) {
                        continue;
                    }
                    let must = matches!(
                        (&concrete[w1][i], &concrete[w2][j]),
                        (Some(a), Some(b)) if sets_intersect(a, b)
                    ) && !si.divergent
                        && !sj.divergent;
                    let entry = pairs.entry((si.pc, sj.pc)).or_insert(RacePair {
                        store_pc: si.pc,
                        other_pc: sj.pc,
                        other_is_store: sj.is_store,
                        must,
                    });
                    entry.must |= must;
                }
            }
        }
    }
    let mut races: Vec<RacePair> = pairs.into_values().collect();
    races.sort_by_key(|r| (!r.must, r.store_pc, r.other_pc));
    (Some(races.is_empty()), races)
}

/// Conservative load-taint: a definition is tainted when it is a
/// load, when any source has a tainted reaching definition, or when a
/// masked merge mixes in a tainted old value. This over-approximates
/// the set of registers whose values the static replay may not know —
/// it deliberately does *not* exploit forwarding (that is what it
/// feeds), so it is a superset of the refined taint the lint pipeline
/// computes.
fn conservative_taint(
    instrs: &[Instruction],
    cfg: &Cfg,
    rd: &ReachingDefs,
    absint: &AbsintAnalysis,
) -> Vec<bool> {
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
            let Some(dst) = instr.dst() else { continue };
            let src_taint = instr
                .src_regs()
                .into_iter()
                .any(|r| def_tainted(&tainted, pc, r.index() as u8));
            let merge_taint =
                absint.divergent_at(pc) && def_tainted(&tainted, pc, dst.index() as u8);
            if matches!(instr, Instruction::Ld { .. }) || src_taint || merge_taint {
                tainted[pc] = true;
                changed = true;
            }
        }
    }
    tainted
}

/// Whether two sites may touch a common word *within one warp*: true
/// when, for some warp, the per-warp ranges overlap. Used as the
/// alias-kill rule of the forwarding dataflow; abstract ranges
/// over-approximate each warp's concrete addresses, so a `false`
/// verdict proves disjointness in every warp.
fn intra_warp_may_alias(warps: &[WarpAddresses], a: usize, b: usize) -> bool {
    warps.iter().any(|wa| {
        wa.values[a].is_some()
            && wa.values[b].is_some()
            && ranges_overlap(warp_range(wa, a), warp_range(wa, b))
    })
}

/// Must-available-store dataflow + matching: the forwarding analysis.
///
/// Forward "available stores" over the CFG (meet = intersection): a
/// store becomes available when it executes full-mask with a
/// replay-known base, and is killed by a redefinition of its base
/// register, by any store that may alias it in some warp, or by any
/// store whose address the replay may not know (conservative taint) —
/// the replay clears its shadow on such stores. A load forwards when
/// a store with the *same* `(base, offset)` is available on every
/// path: the base register is untouched in between, so the concrete
/// address vectors are identical and every active lane hits the
/// shadow. Caller guarantees warp isolation and full warps, so the
/// shadow value is also what global memory holds.
fn forwarding_analysis(
    instrs: &[Instruction],
    num_regs: u8,
    cfg: &Cfg,
    absint: &AbsintAnalysis,
    sites: &[MemSite],
    warps: &[WarpAddresses],
) -> BTreeMap<usize, usize> {
    let rd = ReachingDefs::compute(instrs, num_regs, cfg);
    let tainted = conservative_taint(instrs, cfg, &rd, absint);
    let def_tainted = |at: usize, reg: u8| {
        rd.defs_reaching(at, reg)
            .iter()
            .any(|d| d.pc.is_some_and(|p| tainted[p]))
    };
    let site_of = |pc: usize| sites.iter().position(|s| s.pc == pc);

    // avail[pc] = stores must-available on entry; None = unreached.
    let n = instrs.len();
    let mut avail: Vec<Option<BTreeSet<usize>>> = vec![None; n];
    if n == 0 {
        return BTreeMap::new();
    }
    avail[0] = Some(BTreeSet::new());
    let mut work = vec![0usize];
    while let Some(pc) = work.pop() {
        let Some(mut out) = avail[pc].clone() else {
            continue;
        };
        // Kill stores whose base register this instruction redefines.
        if let Some(dst) = instrs[pc].dst() {
            out.retain(|&s_pc| {
                site_of(s_pc).is_none_or(|s| usize::from(sites[s].base) != dst.index())
            });
        }
        if let Instruction::St { base, .. } = instrs[pc] {
            let opaque = def_tainted(pc, base.index() as u8);
            if opaque {
                // Replay-unknown address: the shadow is cleared.
                out.clear();
            } else if let Some(t) = site_of(pc) {
                out.retain(|&s_pc| {
                    site_of(s_pc).is_some_and(|s| !intra_warp_may_alias(warps, s, t))
                });
                if !sites[t].divergent {
                    out.insert(pc);
                }
            } else {
                // Unreachable per launch-wide absint yet reached here:
                // cannot happen, but stay sound.
                out.clear();
            }
        }
        for &succ in cfg.succs(pc) {
            let changed = match &mut avail[succ] {
                slot @ None => {
                    *slot = Some(out.clone());
                    true
                }
                Some(cur) => {
                    let before = cur.len();
                    cur.retain(|s| out.contains(s));
                    cur.len() != before
                }
            };
            if changed {
                work.push(succ);
            }
        }
    }

    let mut forwardable = BTreeMap::new();
    for (pc, instr) in instrs.iter().enumerate() {
        let Instruction::Ld { base, offset, .. } = *instr else {
            continue;
        };
        let Some(l) = site_of(pc) else { continue };
        if sites[l].divergent {
            continue; // partial-mask loads may miss shadow lanes
        }
        let Some(stores) = &avail[pc] else { continue };
        // Same (base, offset) ⇒ identical address vectors; pick the
        // latest such store (an earlier one is killed by the later
        // one's own may-alias rule, but be explicit).
        let matched = stores
            .iter()
            .rev()
            .find(|&&s_pc| {
                site_of(s_pc).is_some_and(|s| {
                    sites[s].base == base.index() as u8 && sites[s].offset == offset
                })
            })
            .copied();
        if let Some(s_pc) = matched {
            forwardable.insert(pc, s_pc);
        }
    }
    forwardable
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{AluOp, Operand, Reg, Special};

    fn mem_of(instrs: &[Instruction], launch: Option<&LaunchInfo>) -> MemAbs {
        let cfg = Cfg::build(instrs);
        analyze_mem("t", instrs, 8, &cfg, launch)
    }

    fn launch(blocks: u32, tpb: u32) -> LaunchInfo {
        LaunchInfo {
            params: Vec::new(),
            blocks: Some(blocks),
            threads_per_block: Some(tpb),
            mem_words: None,
            initial_mem: None,
        }
    }

    #[test]
    fn coalesced_tid_store_is_race_free_across_warps() {
        // st [gtid + 0] ← gtid: every warp owns a disjoint 32-word
        // window, textbook coalesced and warp-isolated.
        let instrs = vec![
            Instruction::Mov {
                dst: Reg(0),
                src: Operand::Special(Special::GlobalTid),
            },
            Instruction::St {
                base: Reg(0),
                offset: 0,
                src: Reg(0),
            },
            Instruction::Exit,
        ];
        let m = mem_of(&instrs, Some(&launch(2, 64)));
        assert_eq!(m.sites.len(), 1);
        assert_eq!(m.sites[0].pattern, AccessPattern::Coalesced);
        assert_eq!(m.sites[0].min_transactions, 1);
        assert_eq!(m.race_free, Some(true), "races: {:?}", m.races);
    }

    #[test]
    fn shared_uniform_store_is_a_must_race() {
        // Every warp stores to word 5: a proven cross-warp conflict.
        let instrs = vec![
            Instruction::Mov {
                dst: Reg(0),
                src: Operand::Imm(5),
            },
            Instruction::St {
                base: Reg(0),
                offset: 0,
                src: Reg(0),
            },
            Instruction::Exit,
        ];
        let m = mem_of(&instrs, Some(&launch(1, 64)));
        assert_eq!(m.race_free, Some(false));
        assert!(m.races.iter().any(|r| r.must && r.store_pc == 1));
    }

    #[test]
    fn strided_access_has_a_transaction_floor() {
        // addr = gtid * 4: stride 4 ⇒ 8 lanes per 32-word segment ⇒
        // at least 4 transactions per dispatch.
        let instrs = vec![
            Instruction::Mov {
                dst: Reg(0),
                src: Operand::Special(Special::GlobalTid),
            },
            Instruction::Alu {
                op: AluOp::Mul,
                dst: Reg(1),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(4),
            },
            Instruction::Ld {
                dst: Reg(2),
                base: Reg(1),
                offset: 0,
            },
            Instruction::Exit,
        ];
        let m = mem_of(&instrs, Some(&launch(1, 32)));
        let site = &m.sites[0];
        assert_eq!(site.pattern, AccessPattern::Strided(4));
        assert_eq!(site.min_transactions, 4);
    }

    #[test]
    fn forwarding_matches_store_to_load_in_isolated_launch() {
        // st [gtid] ← x; ld [gtid]: same (base, offset), no
        // intervening store, warp-isolated ⇒ forwardable.
        let instrs = vec![
            Instruction::Mov {
                dst: Reg(0),
                src: Operand::Special(Special::GlobalTid),
            },
            Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(1),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(100),
            },
            Instruction::St {
                base: Reg(0),
                offset: 0,
                src: Reg(1),
            },
            Instruction::Ld {
                dst: Reg(2),
                base: Reg(0),
                offset: 0,
            },
            Instruction::Exit,
        ];
        let m = mem_of(&instrs, Some(&launch(2, 32)));
        assert_eq!(m.race_free, Some(true));
        assert_eq!(m.forwardable.get(&3), Some(&2));
    }

    #[test]
    fn opaque_store_blocks_forwarding() {
        // The store at pc 4 has a loaded (replay-unknown) base: it
        // clears the shadow, so the load at pc 5 must not forward.
        let instrs = vec![
            Instruction::Mov {
                dst: Reg(0),
                src: Operand::Special(Special::GlobalTid),
            },
            Instruction::St {
                base: Reg(0),
                offset: 0,
                src: Reg(0),
            },
            Instruction::Ld {
                dst: Reg(1),
                base: Reg(0),
                offset: 64,
            },
            Instruction::Alu {
                op: AluOp::And,
                dst: Reg(1),
                a: Operand::Reg(Reg(1)),
                b: Operand::Imm(3),
            },
            Instruction::St {
                base: Reg(1),
                offset: 0,
                src: Reg(0),
            },
            Instruction::Ld {
                dst: Reg(2),
                base: Reg(0),
                offset: 0,
            },
            Instruction::Exit,
        ];
        let m = mem_of(&instrs, Some(&launch(1, 32)));
        assert!(
            !m.forwardable.contains_key(&5),
            "forwardable: {:?}",
            m.forwardable
        );
    }

    #[test]
    fn unknown_geometry_gives_no_race_verdict() {
        let instrs = vec![
            Instruction::Mov {
                dst: Reg(0),
                src: Operand::Special(Special::GlobalTid),
            },
            Instruction::St {
                base: Reg(0),
                offset: 0,
                src: Reg(0),
            },
            Instruction::Exit,
        ];
        let m = mem_of(&instrs, None);
        assert_eq!(m.race_free, None);
        assert!(m.forwardable.is_empty());
        assert_eq!(m.sites.len(), 1);
    }
}
