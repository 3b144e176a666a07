//! Registers, special values and instruction operands.

use std::fmt;

/// An architectural (warp) register index.
///
/// Each thread of the warp holds its own 32-bit value for this register;
/// the set of 32 values is the *warp register* that warped-compression
/// compresses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// The register index as a usize, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Built-in per-thread or per-block values, the CUDA specials that drive
/// the thread-index value patterns of §3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within the block (`threadIdx.x`): differs by 1 between
    /// consecutive lanes — the canonical ⟨4,1⟩-compressible value.
    Tid,
    /// Block index (`blockIdx.x`): uniform across the warp.
    Bid,
    /// Threads per block (`blockDim.x`): uniform.
    BlockDim,
    /// Blocks in the grid (`gridDim.x`): uniform.
    GridDim,
    /// Global thread id: `Bid * BlockDim + Tid`.
    GlobalTid,
    /// Lane id within the warp (0..32): like `Tid` modulo warp size.
    LaneId,
    /// Warp id within the block: uniform across the warp.
    WarpId,
}

impl fmt::Display for Special {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Special::Tid => "%tid",
            Special::Bid => "%ctaid",
            Special::BlockDim => "%ntid",
            Special::GridDim => "%nctaid",
            Special::GlobalTid => "%gtid",
            Special::LaneId => "%laneid",
            Special::WarpId => "%warpid",
        };
        f.write_str(s)
    }
}

/// A source operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register value (per-thread).
    Reg(Reg),
    /// An immediate constant (uniform).
    Imm(i32),
    /// A scalar kernel parameter (uniform), by parameter index.
    Param(u8),
    /// A hardware special value.
    Special(Special),
}

impl Operand {
    /// The register read by this operand, if any — used by the scoreboard
    /// and the operand-collector model to count bank reads.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => r.fmt(f),
            Operand::Imm(v) => write!(f, "{v}"),
            Operand::Param(i) => write!(f, "param[{i}]"),
            Operand::Special(s) => s.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_reg_extraction() {
        assert_eq!(Operand::Reg(Reg(3)).reg(), Some(Reg(3)));
        assert_eq!(Operand::Imm(5).reg(), None);
        assert_eq!(Operand::Param(0).reg(), None);
        assert_eq!(Operand::Special(Special::Tid).reg(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Operand::from(Reg(2)), Operand::Reg(Reg(2)));
        assert_eq!(Operand::from(-7), Operand::Imm(-7));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg(12).to_string(), "r12");
        assert_eq!(Operand::Special(Special::Tid).to_string(), "%tid");
        assert_eq!(Operand::Param(2).to_string(), "param[2]");
    }
}
