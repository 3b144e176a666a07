//! One launch, analysed once.
//!
//! The lints ([`analyze_with_launch`](crate::analyze_with_launch)), the
//! issue scheduler ([`schedule_kernel`](crate::schedule_kernel)) and
//! the memory gate all read the same three facts about a kernel under
//! a launch: its control-flow graph, the abstract memory cells (with
//! the absint fixpoint they refine) and the address abstraction. A
//! [`LaunchAnalysis`] computes each once, so a caller that needs more
//! than one of those consumers pays for `analyze_cells` and
//! `analyze_mem` once instead of once per consumer. The plain entry
//! points stay as wrappers that build what they read for a single use.
//!
//! The perfbound floors read only the CFG and the launch-wide access
//! sites. [`bound_kernel_with`](crate::bound_kernel_with) takes them
//! from here when a caller has built the analysis anyway; the plain
//! [`bound_kernel`](crate::bound_kernel) derives the sites from its own
//! launch-wide `interpret` and never runs memabs' per-warp passes.

use simt_isa::{Instruction, Kernel};

use crate::absint::LaunchInfo;
use crate::cfg::Cfg;
use crate::memabs::{analyze_mem, MemAbs};
use crate::memcell::{analyze_cells, MemCells};
use crate::perfbound::PerfLaunch;

/// The shared static facts of one kernel under one [`LaunchInfo`].
///
/// The `*_with` consumers take the kernel alongside it; it must be the
/// kernel the analysis was built from.
#[derive(Clone, Debug)]
pub struct LaunchAnalysis {
    /// The launch facts every pass was specialised against.
    pub launch: Option<LaunchInfo>,
    /// The kernel's control-flow graph.
    pub cfg: Cfg,
    /// The abstract memory cells and the absint fixpoint they refine
    /// (the plain fixpoint when no verified image is armed).
    pub cells: MemCells,
    /// The address abstraction, coalescing floors and cross-warp race
    /// verdict.
    pub mem: MemAbs,
}

impl LaunchAnalysis {
    /// Analyses `kernel` under `launch`.
    pub fn new(kernel: &Kernel, launch: Option<&LaunchInfo>) -> LaunchAnalysis {
        LaunchAnalysis::of_instrs(kernel.name(), kernel.instrs(), kernel.num_regs(), launch)
    }

    /// Analyses a structurally valid instruction sequence (one that
    /// passes the structural lints).
    pub(crate) fn of_instrs(
        name: &str,
        instrs: &[Instruction],
        num_regs: u8,
        launch: Option<&LaunchInfo>,
    ) -> LaunchAnalysis {
        let cfg = Cfg::build(instrs);
        let cells = analyze_cells(name, instrs, usize::from(num_regs), &cfg, launch);
        let mem = analyze_mem(name, instrs, num_regs, &cfg, launch);
        LaunchAnalysis {
            launch: launch.cloned(),
            cfg,
            cells,
            mem,
        }
    }

    /// Whether this analysis was specialised against exactly the
    /// launch `perf` describes (the perfbound and scheduler view).
    pub(crate) fn describes(&self, perf: &PerfLaunch) -> bool {
        self.launch.as_ref() == Some(&perf.absint_info())
    }
}
