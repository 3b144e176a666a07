//! Kernel launch configuration: grid geometry and scalar parameters.

use std::error::Error;
use std::fmt;

use simt_isa::{WarpCoords, WARP_SIZE};

/// A structurally invalid launch geometry, reported by
/// [`LaunchConfig::try_new`] — the typed path for untrusted input
/// (CLI arguments, fuzzed cases) where a panic would be wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// The grid had zero blocks.
    ZeroBlocks,
    /// A block had zero threads.
    ZeroThreads,
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::ZeroBlocks => write!(f, "launch needs at least one block"),
            LaunchError::ZeroThreads => {
                write!(f, "launch needs at least one thread per block")
            }
        }
    }
}

impl Error for LaunchError {}

/// A kernel launch: `<<<blocks, threads_per_block>>>(params…)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    blocks: usize,
    threads_per_block: usize,
    params: Vec<u32>,
}

impl LaunchConfig {
    /// A launch with no scalar parameters.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` or `threads_per_block` is zero. Use
    /// [`LaunchConfig::try_new`] when the geometry comes from
    /// untrusted input.
    pub fn new(blocks: usize, threads_per_block: usize) -> Self {
        match Self::try_new(blocks, threads_per_block) {
            Ok(launch) => launch,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validating counterpart of [`LaunchConfig::new`]: returns a typed
    /// [`LaunchError`] instead of panicking on degenerate geometry.
    ///
    /// # Errors
    ///
    /// [`LaunchError::ZeroBlocks`] / [`LaunchError::ZeroThreads`] when
    /// the respective dimension is zero.
    pub fn try_new(blocks: usize, threads_per_block: usize) -> Result<Self, LaunchError> {
        if blocks == 0 {
            return Err(LaunchError::ZeroBlocks);
        }
        if threads_per_block == 0 {
            return Err(LaunchError::ZeroThreads);
        }
        Ok(LaunchConfig {
            blocks,
            threads_per_block,
            params: Vec::new(),
        })
    }

    /// Adds the scalar kernel parameters readable via `Operand::Param(i)`.
    pub fn with_params(mut self, params: Vec<u32>) -> Self {
        self.params = params;
        self
    }

    /// Number of thread blocks in the grid.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> usize {
        self.threads_per_block
    }

    /// Scalar parameter `i`, or 0 when absent (CUDA would fault; a benign
    /// default keeps kernel authoring forgiving and deterministic).
    pub fn param(&self, i: usize) -> u32 {
        self.params.get(i).copied().unwrap_or(0)
    }

    /// All parameters.
    pub fn params(&self) -> &[u32] {
        &self.params
    }

    /// Warps needed per block.
    pub fn warps_per_block(&self) -> usize {
        self.threads_per_block.div_ceil(WARP_SIZE)
    }

    /// Where warp `warp_in_block` of `block` sits in this launch.
    pub(crate) fn coords(&self, block: usize, warp_in_block: usize) -> WarpCoords {
        WarpCoords {
            blocks: self.blocks,
            threads_per_block: self.threads_per_block,
            block,
            warp_in_block,
        }
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> usize {
        self.blocks * self.threads_per_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let l = LaunchConfig::new(3, 96);
        assert_eq!(l.blocks(), 3);
        assert_eq!(l.threads_per_block(), 96);
        assert_eq!(l.warps_per_block(), 3);
        assert_eq!(l.total_threads(), 288);
    }

    #[test]
    fn partial_warp_rounds_up() {
        assert_eq!(LaunchConfig::new(1, 33).warps_per_block(), 2);
    }

    #[test]
    fn params_default_to_zero() {
        let l = LaunchConfig::new(1, 32).with_params(vec![7, 8]);
        assert_eq!(l.param(0), 7);
        assert_eq!(l.param(1), 8);
        assert_eq!(l.param(2), 0);
        assert_eq!(l.params(), &[7, 8]);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_panics() {
        let _ = LaunchConfig::new(0, 32);
    }

    #[test]
    #[should_panic(expected = "thread per block")]
    fn zero_threads_panics() {
        let _ = LaunchConfig::new(1, 0);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(LaunchConfig::try_new(0, 32), Err(LaunchError::ZeroBlocks));
        assert_eq!(LaunchConfig::try_new(1, 0), Err(LaunchError::ZeroThreads));
        let l = LaunchConfig::try_new(2, 64).unwrap();
        assert_eq!((l.blocks(), l.threads_per_block()), (2, 64));
    }
}
