//! Static memory analysis vs. traced accesses (`wcsim mem`).
//!
//! The address abstract interpretation in [`simt_analysis::memabs`]
//! claims three things about a kernel under a launch:
//!
//! 1. **containment** — every load/store site's per-warp abstract
//!    address set covers every address any active lane of that warp
//!    can generate at that pc,
//! 2. **race verdict** — a `race_free == Some(true)` launch has *no*
//!    cross-warp conflicting access pair (a store and any access of
//!    the same word by a different warp); a `Some(false)` verdict
//!    lists every pair that may conflict,
//! 3. **transaction floors** — the perfbound coalescing floors
//!    ([`simt_analysis::MemFloor`]) never exceed what the simulated
//!    coalescer actually issued.
//!
//! This module machine-checks all three: it runs the kernel under the
//! warped-compression design point with per-access tracing
//! ([`gpu_sim::GpuSim::run_mem_observed`]) and joins every traced
//! [`MemEvent`] against the static verdicts. A traced address outside
//! its site's abstract set, a traced conflict inside a "race-free"
//! launch, a traced conflicting pair the static race list missed, or
//! a floor the measured traffic undercuts are each an **unsound
//! miss** — any occurrence is a bug in the abstract domain and is
//! surfaced as a hard error by the CLI (`wcsim mem`, the CI gate).
//!
//! The report also attributes the static issue scheduler's verdict:
//! either the kernel closed statically (possibly thanks to the
//! forwarding analysis arming shadow-memory replay), or the named
//! [`ScheduleBail`] reason it fell back on.

use std::collections::BTreeMap;

use gpu_sim::{GpuSim, MemEvent, SimError, SimStats};
use gpu_workloads::Workload;
use rayon::prelude::*;
use simt_analysis::{
    bound_kernel_with, schedule_kernel_with, IssuePlan, LaunchAnalysis, MemAbs, PerfPrediction,
    ScheduleBail,
};

use crate::design::DesignPoint;
use crate::launch::LaunchFacts;
use crate::perfbound::perf_machine;

/// One static load/store site joined with its traced traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteCheck {
    /// The pc of the `ld`/`st`.
    pub pc: usize,
    /// Whether the site writes memory.
    pub is_store: bool,
    /// The static coalescing pattern name (`uniform` / `coalesced` /
    /// `strided` / `scattered`).
    pub pattern: String,
    /// Whether the site sits in a divergence region.
    pub divergent: bool,
    /// Warp dispatches the run traced at this pc.
    pub accesses: u64,
    /// Memory transactions (32-word segments) the coalescer issued
    /// across those dispatches.
    pub transactions: u64,
    /// Traced dispatches with some active lane's address *outside*
    /// the site's per-warp abstract address set — must be zero.
    pub escapes: u64,
    /// The perfbound floor on total transactions at this pc (zero
    /// when the floor analysis proved no executions).
    pub min_transactions: u64,
    /// The perfbound floor on dispatches at this pc.
    pub min_executions: u64,
}

impl SiteCheck {
    /// Whether the measured traffic respects both perfbound floors.
    pub fn floor_holds(&self) -> bool {
        self.min_transactions <= self.transactions && self.min_executions <= self.accesses
    }
}

/// One cross-warp conflicting access pair the *run* actually produced:
/// a traced store and a traced access of the same word by different
/// warps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TracedConflict {
    /// The storing pc.
    pub store_pc: usize,
    /// The conflicting access's pc.
    pub other_pc: usize,
    /// Whether the conflicting access also writes.
    pub other_is_store: bool,
    /// Whether the static race list predicted this pair. `false` under
    /// a `race_free == Some(false)` verdict is an unsound miss; under
    /// `race_free == Some(true)` *any* traced conflict is one.
    pub predicted: bool,
}

/// How the static issue scheduler fared on this kernel, for the
/// precision-payoff attribution `wcsim mem` reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleCheck {
    /// Whether the scheduler closed the kernel statically.
    pub static_mode: bool,
    /// The named bail reason when it did not (`unknown-predicate`,
    /// `fuel-exhausted`, `block-too-large`).
    pub bail: Option<String>,
    /// The pc precision was lost at, for the predicate-driven bails.
    pub bail_pc: Option<usize>,
    /// Loads the forwarding analysis proved statically resolvable
    /// from the warp's own must-available store.
    pub forwardable_loads: usize,
    /// Loads the abstract memory cells refined to a bounded value.
    pub refined_loads: usize,
}

/// The full static-vs-traced memory report for one kernel.
#[derive(Clone, Debug)]
pub struct MemReport {
    /// Benchmark name.
    pub kernel: String,
    /// The static cross-warp race verdict (`None`: geometry unknown
    /// or too large to specialise per warp).
    pub race_free: Option<bool>,
    /// Statically detected conflicting pairs.
    pub static_races: usize,
    /// Per-site joins, in pc order.
    pub sites: Vec<SiteCheck>,
    /// Traced accesses at pcs the static analysis claims are
    /// unreachable (no site) — must be zero.
    pub untracked_accesses: u64,
    /// Load pcs the abstract memory cells refined to a bounded value.
    pub refined_loads: usize,
    /// Traced load dispatches whose loaded value fell *outside* its
    /// refined abstract value — must be zero (γ-containment of the
    /// memcell refinement).
    pub refined_value_escapes: u64,
    /// Cross-warp conflicting pairs the run actually produced,
    /// deduped by site pair.
    pub traced_conflicts: Vec<TracedConflict>,
    /// Scheduler attribution for this kernel.
    pub schedule: ScheduleCheck,
}

impl MemReport {
    /// Total traced dispatches that escaped their abstract address set.
    pub fn escape_count(&self) -> u64 {
        self.sites.iter().map(|s| s.escapes).sum()
    }

    /// Traced conflicts the static race analysis failed to predict
    /// (every entry under `race_free == Some(true)`, the unpredicted
    /// ones under `Some(false)`; none can be charged when the verdict
    /// is `None`).
    pub fn missed_conflicts(&self) -> Vec<TracedConflict> {
        match self.race_free {
            Some(true) => self.traced_conflicts.clone(),
            Some(false) => self
                .traced_conflicts
                .iter()
                .filter(|c| !c.predicted)
                .copied()
                .collect(),
            None => Vec::new(),
        }
    }

    /// The machine-checked soundness invariant `wcsim mem` gates CI
    /// on: no address escaped its abstract set, no access hit a
    /// statically-unreachable pc, no traced conflict evaded the race
    /// verdict, and every transaction floor held.
    pub fn is_sound(&self) -> bool {
        self.violations().is_empty()
    }

    /// Which soundness checks failed, as human-readable labels.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.escape_count() > 0 {
            v.push(format!(
                "{} traced dispatch(es) escaped their abstract address set",
                self.escape_count()
            ));
        }
        if self.untracked_accesses > 0 {
            v.push(format!(
                "{} traced access(es) at statically-unreachable pcs",
                self.untracked_accesses
            ));
        }
        if self.refined_value_escapes > 0 {
            v.push(format!(
                "{} traced load dispatch(es) escaped their refined abstract value",
                self.refined_value_escapes
            ));
        }
        for c in self.missed_conflicts() {
            v.push(format!(
                "traced cross-warp conflict @{} vs @{} evaded the race verdict",
                c.store_pc, c.other_pc
            ));
        }
        for s in self.sites.iter().filter(|s| !s.floor_holds()) {
            v.push(format!(
                "measured traffic at @{} undercuts its static floor",
                s.pc
            ));
        }
        v
    }
}

/// The stable name of a bail reason, for reports.
fn bail_name(bail: &ScheduleBail) -> &'static str {
    match bail {
        ScheduleBail::UnknownPredicate { .. } => "unknown-predicate",
        ScheduleBail::FuelExhausted { .. } => "fuel-exhausted",
        ScheduleBail::BlockTooLarge { .. } => "block-too-large",
    }
}

/// One warp's traced touch of one word: who, where, and whether it
/// wrote. The race join collects these per address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Touch {
    warp: (usize, usize),
    pc: usize,
    is_store: bool,
}

/// What one run's memory probe observed, joined access by access
/// against the static half of the memory gate, a [`LaunchAnalysis`]
/// (its per-site abstract address sets and race verdict, and its
/// refined load values): address escapes and refined-value escapes per
/// pc, accesses at statically-unreachable pcs, and every warp's touches
/// per word for the race join.
#[derive(Clone, Debug, Default)]
pub(crate) struct MemTally {
    escapes: BTreeMap<usize, u64>,
    value_escapes: BTreeMap<usize, u64>,
    untracked: u64,
    touches: BTreeMap<u32, Vec<Touch>>,
}

impl MemTally {
    /// Joins one traced access (the memory probe's body): containment
    /// of every active lane's address, the per-word touch, and — for
    /// loads the memcell domain refined — γ-containment of every active
    /// lane's loaded value in the refined abstract value.
    pub(crate) fn record(&mut self, analysis: &LaunchAnalysis, event: &MemEvent) {
        if !event.is_store {
            if let Some(refined) = analysis.cells.refined.get(&event.pc) {
                if !refined.contains_masked(&event.values, event.mask) {
                    *self.value_escapes.entry(event.pc).or_default() += 1;
                }
            }
        }
        for (_, addr) in event.active_addrs() {
            let touch = Touch {
                warp: (event.block, event.warp_in_block),
                pc: event.pc,
                is_store: event.is_store,
            };
            let slot = self.touches.entry(addr).or_default();
            if !slot.contains(&touch) {
                slot.push(touch);
            }
        }
        let Some(site) = analysis.mem.site_index(event.pc) else {
            self.untracked += 1;
            return;
        };
        let contained = match analysis.mem.address_for(
            site,
            u32::try_from(event.block).unwrap_or(u32::MAX),
            u32::try_from(event.warp_in_block).unwrap_or(u32::MAX),
        ) {
            // A per-warp `None` means the interpretation proved this warp
            // never reaches the site — yet here is a traced access.
            None => false,
            Some(abs) => abs.contains_masked(&event.addrs, event.mask),
        };
        if !contained {
            *self.escapes.entry(event.pc).or_default() += 1;
        }
    }

    /// The deduped cross-warp conflicting pairs among the touches, each
    /// marked against the static race list.
    fn conflicts(&self, mem: &MemAbs) -> Vec<TracedConflict> {
        let mut pairs: BTreeMap<(usize, usize, bool), bool> = BTreeMap::new();
        for accessors in self.touches.values() {
            for a in accessors {
                if !a.is_store {
                    continue;
                }
                for b in accessors {
                    if a.warp == b.warp {
                        continue;
                    }
                    let predicted = mem
                        .races
                        .iter()
                        .any(|r| r.store_pc == a.pc && r.other_pc == b.pc);
                    pairs
                        .entry((a.pc, b.pc, b.is_store))
                        .and_modify(|p| *p &= predicted)
                        .or_insert(predicted);
                }
            }
        }
        pairs
            .into_iter()
            .map(
                |((store_pc, other_pc, other_is_store), predicted)| TracedConflict {
                    store_pc,
                    other_pc,
                    other_is_store,
                    predicted,
                },
            )
            .collect()
    }
}

/// Joins the memory claims of `analysis` against what one run traced:
/// the tally of its accesses, its per-pc traffic against the perfbound
/// transaction floors in `floors`, and the scheduler's verdict `plan`
/// for the attribution.
pub(crate) fn mem_join(
    kernel: &str,
    analysis: &LaunchAnalysis,
    tally: &MemTally,
    stats: &SimStats,
    floors: &PerfPrediction,
    plan: &Result<IssuePlan, ScheduleBail>,
) -> MemReport {
    let (mem, cells) = (&analysis.mem, &analysis.cells);
    let sites = mem
        .sites
        .iter()
        .map(|s| {
            let traffic = stats.mem.at(s.pc);
            let floor = floors.mem_floor_at(s.pc);
            SiteCheck {
                pc: s.pc,
                is_store: s.is_store,
                pattern: s.pattern.name().to_string(),
                divergent: s.divergent,
                accesses: traffic.accesses,
                transactions: traffic.transactions,
                escapes: tally.escapes.get(&s.pc).copied().unwrap_or(0),
                min_transactions: floor.map_or(0, |f| f.min_transactions),
                min_executions: floor.map_or(0, |f| f.min_executions),
            }
        })
        .collect();

    let bail = plan.as_ref().err();
    let schedule = ScheduleCheck {
        static_mode: bail.is_none(),
        bail: bail.map(|b| bail_name(b).to_string()),
        bail_pc: bail.and_then(ScheduleBail::pc),
        forwardable_loads: mem.forwardable.len(),
        refined_loads: cells.refined.len(),
    };

    MemReport {
        kernel: kernel.to_string(),
        race_free: mem.race_free,
        static_races: mem.races.len(),
        sites,
        untracked_accesses: tally.untracked,
        refined_loads: cells.refined.len(),
        refined_value_escapes: tally.value_escapes.values().sum(),
        traced_conflicts: tally.conflicts(mem),
        schedule,
    }
}

/// Runs the static memory analysis and the traced simulation on one
/// workload and joins the two.
///
/// The simulation uses the paper's warped-compression design point —
/// memory addresses and the coalescer are design-point independent,
/// so one traced run checks the static claims for all of them.
///
/// # Errors
///
/// Propagates any [`SimError`] from the traced run (including
/// attributed memory faults, which the typed
/// [`SimError::MemoryAt`](gpu_sim::SimError) path reports instead of
/// panicking).
pub fn mem_workload(workload: &Workload) -> Result<MemReport, SimError> {
    let kernel = workload.kernel();
    let launch = workload.launch();
    let mut memory = workload.fresh_memory();
    let facts = LaunchFacts::new(launch, &memory, true);
    let analysis = LaunchAnalysis::new(kernel, Some(&facts.info));
    let sim_cfg = DesignPoint::WarpedCompression.config();
    let machine = perf_machine(&sim_cfg);
    let floors = bound_kernel_with(kernel, &facts.perf, &machine, &analysis);

    let mut tally = MemTally::default();
    let sim = GpuSim::new(sim_cfg);
    let result = sim.run_mem_observed(kernel, launch, &mut memory, &mut |event| {
        tally.record(&analysis, event);
    })?;
    let residency = sim.max_resident_warps(kernel);
    let plan = schedule_kernel_with(kernel, &facts.perf, &machine, residency, &analysis);
    Ok(mem_join(
        workload.name(),
        &analysis,
        &tally,
        &result.stats,
        &floors,
        &plan,
    ))
}

/// Checks every workload, in parallel, in suite order.
///
/// # Errors
///
/// Fails on the earliest workload (in suite order) that errors.
pub fn mem_suite(workloads: &[Workload]) -> Result<Vec<MemReport>, SimError> {
    workloads.par_iter().map(mem_workload).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lib_is_race_free_and_sound() {
        let w = gpu_workloads::by_name("lib").unwrap();
        let r = mem_workload(&w).unwrap();
        assert_eq!(r.kernel, "lib");
        assert!(r.is_sound(), "violations: {:?}", r.violations());
        assert!(!r.sites.is_empty());
        assert!(r.sites.iter().any(|s| s.accesses > 0));
    }

    #[test]
    fn divergent_kernel_joins_soundly() {
        let w = gpu_workloads::by_name("bfs").unwrap();
        let r = mem_workload(&w).unwrap();
        assert!(r.is_sound(), "violations: {:?}", r.violations());
        assert_eq!(r.untracked_accesses, 0);
    }

    #[test]
    fn race_free_suite_kernels_trace_no_conflicts() {
        // Any kernel the static analysis proves warp-isolated must
        // trace zero cross-warp conflicts — this is the heart of the
        // race-verdict soundness gate.
        let mut isolated = 0;
        for w in gpu_workloads::suite() {
            let r = mem_workload(&w).unwrap();
            if r.race_free == Some(true) {
                isolated += 1;
                assert!(
                    r.traced_conflicts.is_empty(),
                    "{}: traced conflicts under a race-free verdict: {:?}",
                    r.kernel,
                    r.traced_conflicts
                );
            }
        }
        assert!(isolated > 0, "some suite kernel must be warp-isolated");
    }

    #[test]
    fn fallback_kernels_name_their_bail() {
        for w in gpu_workloads::suite() {
            let r = mem_workload(&w).unwrap();
            if !r.schedule.static_mode {
                let bail = r.schedule.bail.as_deref().expect("bail name");
                assert!(
                    ["unknown-predicate", "fuel-exhausted", "block-too-large"].contains(&bail),
                    "{}: unexpected bail `{bail}`",
                    r.kernel
                );
            }
        }
    }
}
