//! Warp-execution semantics shared by every engine that runs a kernel:
//! the dynamic simulator, the scheduled replayer and the static
//! tracer all execute warps through the definitions here, so they
//! agree by construction.
//!
//! * [`SimtStack`] — the SIMT reconvergence stack (GPGPU-Sim style).
//!   Each warp carries a stack of `(pc, active mask, reconvergence pc)`
//!   entries. Execution always proceeds at the top entry. On a
//!   divergent branch the current entry is rewritten to wait at the
//!   reconvergence point and one entry per outcome is pushed; an entry
//!   pops when its pc reaches its reconvergence pc, merging its threads
//!   back. This exactly reproduces the divergence/reconvergence phases
//!   whose compression behaviour §3 and §5.2 characterise.
//! * [`WarpCoords`] — where a warp sits in its launch: its full thread
//!   mask and the per-lane values of every [`Special`] register.
//! * [`taken_mask`] — which active lanes a branch predicate sends to
//!   the target.

use crate::operand::Special;

/// Threads per warp (Table 2: 32). Thread masks are `u32`, one bit per
/// lane.
pub const WARP_SIZE: usize = 32;

/// Sentinel reconvergence pc of the base entry: never popped by pc match.
const TOP_LEVEL: usize = usize::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    pc: usize,
    mask: u32,
    reconv: usize,
}

/// Per-warp SIMT reconvergence stack.
///
/// # Example
///
/// ```
/// use simt_isa::SimtStack;
///
/// let mut s = SimtStack::new(0xF, 0);          // 4 threads at pc 0
/// s.branch(0x3, 10, 5);                        // threads 0,1 take; reconv at 5
/// assert_eq!(s.pc(), Some(10));                // taken path runs first
/// assert_eq!(s.mask(), 0x3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimtStack {
    entries: Vec<Entry>,
}

impl SimtStack {
    /// A converged warp of the given threads starting at `start_pc`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_mask` is zero — a warp needs at least one
    /// thread.
    pub fn new(initial_mask: u32, start_pc: usize) -> Self {
        assert!(initial_mask != 0, "warp needs a non-empty initial mask");
        SimtStack {
            entries: vec![Entry {
                pc: start_pc,
                mask: initial_mask,
                reconv: TOP_LEVEL,
            }],
        }
    }

    /// Current pc, or `None` once every thread has exited.
    pub fn pc(&self) -> Option<usize> {
        self.entries.last().map(|e| e.pc)
    }

    /// Current active mask (0 when the warp is done).
    pub fn mask(&self) -> u32 {
        self.entries.last().map(|e| e.mask).unwrap_or(0)
    }

    /// Whether the warp is executing below top level — i.e. some threads
    /// are parked at a reconvergence point. Combined with a partial mask
    /// this is the "divergent" state of §3.
    pub fn is_diverged(&self) -> bool {
        self.entries.len() > 1
    }

    /// The divergent execution phase of §3: below top level, or with
    /// fewer than the warp's `full_mask` threads active.
    pub fn is_divergent(&self, full_mask: u32) -> bool {
        self.is_diverged() || self.mask() != full_mask
    }

    /// Stack depth (1 = converged).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Advances past a non-control instruction: `pc += 1`, then pops any
    /// entries that reached their reconvergence point.
    pub fn advance(&mut self) {
        if let Some(top) = self.entries.last_mut() {
            top.pc += 1;
        }
        self.pop_reconverged();
    }

    /// Unconditional jump of the whole active mask.
    pub fn jump(&mut self, target: usize) {
        if let Some(top) = self.entries.last_mut() {
            top.pc = target;
        }
        self.pop_reconverged();
    }

    /// Resolves a conditional branch at the current pc.
    ///
    /// `taken_mask` must be a subset of the current mask. Returns `true`
    /// if the branch diverged (both outcomes non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `taken_mask` has bits outside the active mask or the
    /// stack is empty.
    pub fn branch(&mut self, taken_mask: u32, target: usize, reconv: usize) -> bool {
        let top = *self.entries.last().expect("branch on finished warp");
        assert_eq!(taken_mask & !top.mask, 0, "taken mask outside active mask");
        let fall_mask = top.mask & !taken_mask;
        let fall_pc = top.pc + 1;
        let diverged = taken_mask != 0 && fall_mask != 0;
        if !diverged {
            let top = self.entries.last_mut().expect("checked non-empty");
            top.pc = if taken_mask != 0 { target } else { fall_pc };
        } else {
            // Current entry waits at the reconvergence point; push the
            // fall-through path, then the taken path (runs first).
            let top = self.entries.last_mut().expect("checked non-empty");
            top.pc = reconv;
            self.entries.push(Entry {
                pc: fall_pc,
                mask: fall_mask,
                reconv,
            });
            self.entries.push(Entry {
                pc: target,
                mask: taken_mask,
                reconv,
            });
        }
        self.pop_reconverged();
        diverged
    }

    /// Retires the currently active threads (an `exit` instruction):
    /// removes them from every stack entry and drops empty entries.
    pub fn exit_threads(&mut self) {
        let mask = self.mask();
        for e in &mut self.entries {
            e.mask &= !mask;
        }
        self.entries.retain(|e| e.mask != 0);
        self.pop_reconverged();
    }

    /// Whether every thread has exited.
    pub fn is_done(&self) -> bool {
        self.entries.is_empty()
    }

    fn pop_reconverged(&mut self) {
        while let Some(top) = self.entries.last() {
            if self.entries.len() > 1 && top.pc == top.reconv {
                self.entries.pop();
            } else {
                break;
            }
        }
    }
}

/// The position of one warp in its launch: everything its special
/// registers and its thread mask depend on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarpCoords {
    /// Blocks in the grid.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// This warp's block index.
    pub block: usize,
    /// This warp's index within its block.
    pub warp_in_block: usize,
}

impl WarpCoords {
    /// The lanes that hold a thread: all 32, except in the trailing
    /// warp of a block whose size is not a multiple of [`WARP_SIZE`]
    /// (and none for a warp index past the block's end).
    pub fn full_mask(&self) -> u32 {
        let threads = self
            .threads_per_block
            .saturating_sub(self.warp_in_block * WARP_SIZE);
        if threads >= WARP_SIZE {
            u32::MAX
        } else {
            (1u32 << threads) - 1
        }
    }

    /// The value special register `s` holds in `lane`. Arithmetic wraps
    /// modulo 2³², as 32-bit hardware registers do.
    pub fn special(&self, s: Special, lane: usize) -> u32 {
        let tid = (self.warp_in_block * WARP_SIZE + lane) as u32;
        let tpb = self.threads_per_block as u32;
        match s {
            Special::Tid => tid,
            Special::Bid => self.block as u32,
            Special::BlockDim => tpb,
            Special::GridDim => self.blocks as u32,
            Special::GlobalTid => (self.block as u32).wrapping_mul(tpb).wrapping_add(tid),
            Special::LaneId => lane as u32,
            Special::WarpId => self.warp_in_block as u32,
        }
    }
}

/// The lanes of `mask` whose predicate is non-zero: a branch's taken
/// mask, always a subset of the active mask.
pub fn taken_mask(mask: u32, pred: &[u32; WARP_SIZE]) -> u32 {
    pred.iter()
        .enumerate()
        .filter(|&(lane, &p)| mask & (1 << lane) != 0 && p != 0)
        .fold(0, |taken, (lane, _)| taken | 1 << lane)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_execution() {
        let mut s = SimtStack::new(0xFFFF_FFFF, 0);
        s.advance();
        s.advance();
        assert_eq!(s.pc(), Some(2));
        assert_eq!(s.mask(), 0xFFFF_FFFF);
        assert!(!s.is_diverged());
    }

    #[test]
    fn uniform_taken_branch_jumps() {
        let mut s = SimtStack::new(0xF, 0);
        assert!(!s.branch(0xF, 7, 9));
        assert_eq!(s.pc(), Some(7));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn uniform_not_taken_branch_falls_through() {
        let mut s = SimtStack::new(0xF, 3);
        assert!(!s.branch(0, 7, 9));
        assert_eq!(s.pc(), Some(4));
    }

    #[test]
    fn divergent_branch_runs_taken_then_fall_then_reconverges() {
        // if (tid < 2) { pc 1..3 } else { pc 3.. } reconv at 5
        let mut s = SimtStack::new(0xF, 0);
        assert!(s.branch(0x3, 3, 5));
        // Taken path first.
        assert_eq!((s.pc(), s.mask()), (Some(3), 0x3));
        assert!(s.is_diverged());
        assert!(s.is_divergent(0xF));
        s.advance(); // pc 4
        s.advance(); // pc 5 == reconv -> pop to fall path
        assert_eq!((s.pc(), s.mask()), (Some(1), 0xC));
        s.advance(); // 2
        s.advance(); // 3
        s.advance(); // 4
        s.advance(); // 5 == reconv -> pop to base
        assert_eq!((s.pc(), s.mask()), (Some(5), 0xF));
        assert!(!s.is_diverged());
        assert!(!s.is_divergent(0xF));
        // A converged warp short of its full mask still runs divergently.
        assert!(s.is_divergent(0x1F));
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(0xF, 0);
        s.branch(0x3, 10, 20); // outer
        assert_eq!((s.pc(), s.mask()), (Some(10), 0x3));
        s.branch(0x1, 15, 18); // inner, within taken path
        assert_eq!((s.pc(), s.mask()), (Some(15), 0x1));
        // base(reconv) + outer-fall + outer-taken(waiting) + inner-fall +
        // inner-taken = 5 entries.
        assert_eq!(s.depth(), 5);
        // Inner taken reaches 18 -> inner fall (pc 11, mask 0x2).
        s.jump(18);
        assert_eq!((s.pc(), s.mask()), (Some(11), 0x2));
        // Inner fall reaches 18 -> inner reconv entry (mask 0x3) at 18.
        s.jump(18);
        assert_eq!((s.pc(), s.mask()), (Some(18), 0x3));
        // Proceed to outer reconv 20 -> outer fall path pc 1 mask 0xC.
        s.jump(20);
        assert_eq!((s.pc(), s.mask()), (Some(1), 0xC));
        s.jump(20);
        assert_eq!((s.pc(), s.mask()), (Some(20), 0xF));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn loop_branch_diverges_each_trip() {
        // while (pred) body; branch at pc 2 back to 1, reconv (exit) at 3.
        let mut s = SimtStack::new(0x7, 2);
        // Two threads keep looping, one exits.
        assert!(s.branch(0x3, 1, 3));
        assert_eq!((s.pc(), s.mask()), (Some(1), 0x3));
        s.advance(); // pc 2 (branch again)
                     // Now all remaining threads exit the loop.
        assert!(!s.branch(0x0, 1, 3));
        // Fall-through entry reaches pc 3 == reconv, pops; base entry at 3.
        assert_eq!((s.pc(), s.mask()), (Some(3), 0x7));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn exit_under_divergence_keeps_other_paths() {
        let mut s = SimtStack::new(0xF, 0);
        s.branch(0x3, 10, 20);
        // Taken threads exit inside the branch.
        s.exit_threads();
        // Fall path continues.
        assert_eq!((s.pc(), s.mask()), (Some(1), 0xC));
        // Fall path reconverges and finishes at top level.
        s.jump(20);
        assert_eq!((s.pc(), s.mask()), (Some(20), 0xC));
        s.exit_threads();
        assert!(s.is_done());
        assert_eq!(s.mask(), 0);
        assert_eq!(s.pc(), None);
    }

    #[test]
    fn full_warp_exit_finishes() {
        let mut s = SimtStack::new(u32::MAX, 0);
        s.exit_threads();
        assert!(s.is_done());
    }

    #[test]
    #[should_panic(expected = "non-empty initial mask")]
    fn empty_mask_rejected() {
        let _ = SimtStack::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "outside active mask")]
    fn taken_mask_must_be_subset() {
        let mut s = SimtStack::new(0x1, 0);
        s.branch(0x2, 1, 2);
    }

    #[test]
    fn special_registers_of_a_partial_trailing_warp() {
        // Block 2 of 3, 40 threads per block: warp 1 holds threads 32..40.
        let w = WarpCoords {
            blocks: 3,
            threads_per_block: 40,
            block: 2,
            warp_in_block: 1,
        };
        assert_eq!(w.full_mask(), 0xFF);
        let table = [
            (Special::Tid, [32, 39]),
            (Special::Bid, [2, 2]),
            (Special::BlockDim, [40, 40]),
            (Special::GridDim, [3, 3]),
            (Special::GlobalTid, [112, 119]),
            (Special::LaneId, [0, 7]),
            (Special::WarpId, [1, 1]),
        ];
        for (s, want) in table {
            assert_eq!([w.special(s, 0), w.special(s, 7)], want, "{s}");
        }
        let first = WarpCoords {
            warp_in_block: 0,
            ..w
        };
        assert_eq!(first.full_mask(), u32::MAX);
    }

    #[test]
    fn global_tid_wraps_modulo_2_32() {
        // 2^25 * 256 = 2^33 ≡ 0 (mod 2^32).
        let w = WarpCoords {
            blocks: 1 << 26,
            threads_per_block: 256,
            block: 1 << 25,
            warp_in_block: 3,
        };
        assert_eq!(w.special(Special::GlobalTid, 5), 3 * 32 + 5);
    }

    #[test]
    fn taken_mask_stays_inside_the_active_mask() {
        let mut pred = [0u32; WARP_SIZE];
        pred[1] = 1;
        pred[2] = 7;
        pred[31] = u32::MAX;
        assert_eq!(taken_mask(u32::MAX, &pred), 0x8000_0006);
        assert_eq!(taken_mask(0x3, &pred), 0x2);
        assert_eq!(taken_mask(0, &pred), 0);
    }
}
