//! Per-warp runtime state.

use simt_isa::SimtStack;

/// A resident warp's execution context: identity within its block plus
/// the SIMT stack. Register values live in the register file, not here.
#[derive(Clone, Debug)]
pub struct WarpState {
    /// Index of this warp's block in the grid.
    pub block: usize,
    /// Warp index within the block.
    pub warp_in_block: usize,
    /// Bits set for threads that exist (partial last warp has fewer).
    pub full_mask: u32,
    /// SIMT reconvergence stack.
    pub stack: SimtStack,
    /// Waiting on an unresolved branch: cannot issue.
    pub blocked: bool,
    /// In-flight instructions (issue .. retire); a warp frees its slot
    /// only when done and drained.
    pub inflight: usize,
    /// Memory instructions issued but not yet dispatched. The LSU keeps
    /// per-warp program order for memory effects, so a warp may not issue
    /// a new load/store while one is still collecting operands.
    pub pending_mem: usize,
}

impl WarpState {
    /// Creates a warp of the threads in `full_mask`, ready to run from
    /// pc 0.
    ///
    /// # Panics
    ///
    /// Panics if `full_mask` is zero (see [`SimtStack::new`]).
    pub fn new(block: usize, warp_in_block: usize, full_mask: u32) -> Self {
        WarpState {
            block,
            warp_in_block,
            full_mask,
            stack: SimtStack::new(full_mask, 0),
            blocked: false,
            inflight: 0,
            pending_mem: 0,
        }
    }

    /// Whether the warp currently executes with a partial mask or below
    /// top level — the paper's "divergent" execution phase.
    pub fn is_divergent(&self) -> bool {
        !self.stack.is_done() && self.stack.is_divergent(self.full_mask)
    }

    /// All threads exited.
    pub fn is_done(&self) -> bool {
        self.stack.is_done()
    }

    /// Done and no in-flight instructions: slot may be recycled.
    pub fn is_drained(&self) -> bool {
        self.is_done() && self.inflight == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_warp_mask() {
        let w = WarpState::new(0, 0, u32::MAX);
        assert_eq!(w.full_mask, u32::MAX);
        assert!(!w.is_divergent());
        assert!(!w.is_done());
    }

    #[test]
    fn partial_warp_mask() {
        let w = WarpState::new(0, 1, 0xFF);
        assert_eq!(w.full_mask, 0xFF);
        // A partial warp running all its threads is not divergent.
        assert!(!w.is_divergent());
    }

    #[test]
    fn divergence_detection() {
        let mut w = WarpState::new(0, 0, 0xF);
        w.stack.branch(0x3, 5, 9);
        assert!(w.is_divergent());
    }

    #[test]
    fn drained_requires_no_inflight() {
        let mut w = WarpState::new(0, 0, 0x1);
        w.inflight = 1;
        w.stack.exit_threads();
        assert!(w.is_done());
        assert!(!w.is_drained());
        w.inflight = 0;
        assert!(w.is_drained());
    }
}
