//! Instructions and execution-latency classes.

use std::fmt;

use crate::operand::{Operand, Reg};

/// Two-source ALU operations. All operate on 32-bit values per thread;
/// comparisons produce 0/1 predicates in a regular register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 32 bits).
    Mul,
    /// Signed division (0 when the divisor is 0, like CUDA's UB made tame).
    Div,
    /// Signed remainder (0 when the divisor is 0).
    Rem,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (modulo 32).
    Shl,
    /// Logical shift right (modulo 32).
    Shr,
    /// Signed less-than, producing 0/1.
    SetLt,
    /// Signed less-or-equal, producing 0/1.
    SetLe,
    /// Equality, producing 0/1.
    SetEq,
    /// Inequality, producing 0/1.
    SetNe,
}

impl AluOp {
    /// Applies the operation to two 32-bit values (signed semantics where
    /// relevant), per thread.
    pub fn apply(self, a: u32, b: u32) -> u32 {
        let (sa, sb) = (a as i32, b as i32);
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if sb == 0 {
                    0
                } else {
                    sa.wrapping_div(sb) as u32
                }
            }
            AluOp::Rem => {
                if sb == 0 {
                    0
                } else {
                    sa.wrapping_rem(sb) as u32
                }
            }
            AluOp::Min => sa.min(sb) as u32,
            AluOp::Max => sa.max(sb) as u32,
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b & 31),
            AluOp::Shr => a.wrapping_shr(b & 31),
            AluOp::SetLt => u32::from(sa < sb),
            AluOp::SetLe => u32::from(sa <= sb),
            AluOp::SetEq => u32::from(a == b),
            AluOp::SetNe => u32::from(a != b),
        }
    }

    /// The pipeline latency class of this operation.
    pub fn latency_class(self) -> LatencyClass {
        match self {
            AluOp::Mul | AluOp::Div | AluOp::Rem => LatencyClass::Sfu,
            _ => LatencyClass::Alu,
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::Min => "min",
            AluOp::Max => "max",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::SetLt => "set.lt",
            AluOp::SetLe => "set.le",
            AluOp::SetEq => "set.eq",
            AluOp::SetNe => "set.ne",
        };
        f.write_str(s)
    }
}

/// Coarse execution-latency classes used by the pipeline model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LatencyClass {
    /// Simple integer ALU op.
    Alu,
    /// Special-function / long-latency arithmetic (mul, div).
    Sfu,
    /// Global memory access.
    Memory,
    /// Control flow.
    Control,
}

/// One SIMT instruction. `Pc`s inside instructions are resolved indices
/// into the kernel's instruction vector ([`KernelBuilder`] resolves labels
/// at build time).
///
/// [`KernelBuilder`]: crate::KernelBuilder
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instruction {
    /// `dst = src` (also the decompression dummy-MOV the arbiter injects —
    /// the simulator synthesises those, kernels may also use real MOVs).
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = op(a, b)` per thread.
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left source.
        a: Operand,
        /// Right source.
        b: Operand,
    },
    /// Global load: `dst = mem[base + offset]` (word addressed, per
    /// thread).
    Ld {
        /// Destination register.
        dst: Reg,
        /// Register holding the word address.
        base: Reg,
        /// Constant word offset.
        offset: i32,
    },
    /// Global store: `mem[base + offset] = src` (word addressed, per
    /// thread).
    St {
        /// Register holding the word address.
        base: Reg,
        /// Constant word offset.
        offset: i32,
        /// Register holding the value to store.
        src: Reg,
    },
    /// Conditional branch: threads with `pred != 0` jump to `target`, the
    /// rest fall through; `reconv` is the immediate post-dominator where
    /// both paths re-join (explicit, so the simulator's SIMT stack never
    /// has to compute post-dominators).
    Bra {
        /// Predicate register (0 = fall through, non-zero = taken).
        pred: Reg,
        /// Taken-path target pc.
        target: usize,
        /// Reconvergence pc.
        reconv: usize,
    },
    /// Unconditional jump (uniform across the warp).
    Jmp {
        /// Target pc.
        target: usize,
    },
    /// Warp terminates.
    Exit,
}

/// How an instruction transfers control, as seen by static analyses.
///
/// This is the view `simt-analysis` builds its control-flow graph from:
/// it separates the taken edge of a branch from its reconvergence point
/// (which the SIMT stack uses, but which is *not* a successor edge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlFlow {
    /// Execution continues at `pc + 1`.
    FallThrough,
    /// Divergent branch: successors are `target` and `pc + 1`; `reconv`
    /// is where the warp re-joins.
    Branch {
        /// Taken-path target pc.
        target: usize,
        /// Reconvergence pc.
        reconv: usize,
    },
    /// Unconditional jump: single successor `target`.
    Jump {
        /// Target pc.
        target: usize,
    },
    /// Warp terminates: no successors.
    Exit,
}

/// The source registers of one instruction, in operand order: at most
/// two, held inline. It is `Copy` and derefs to a slice, so asking an
/// instruction for its sources — which the engines do on every issue
/// attempt — allocates nothing.
#[derive(Clone, Copy)]
pub struct SrcSet<T> {
    regs: [T; 2],
    len: u8,
}

impl<T: Copy + Default> SrcSet<T> {
    fn new() -> Self {
        SrcSet {
            regs: [T::default(); 2],
            len: 0,
        }
    }

    fn push(&mut self, r: T) {
        self.regs[usize::from(self.len)] = r;
        self.len += 1;
    }
}

impl<T: Copy + Default> Extend<T> for SrcSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

impl<T> std::ops::Deref for SrcSet<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.regs[..usize::from(self.len)]
    }
}

impl<T: fmt::Debug> fmt::Debug for SrcSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> IntoIterator for SrcSet<T> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(usize::from(self.len))
    }
}

impl<'a, T> IntoIterator for &'a SrcSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Instruction {
    /// Destination register, if the instruction writes one. Register
    /// writes are exactly the events warped-compression compresses.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Instruction::Mov { dst, .. }
            | Instruction::Alu { dst, .. }
            | Instruction::Ld { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Source registers read through the operand collector (at most two,
    /// which is what sizes the decompressor pool in §5.1).
    pub fn src_regs(&self) -> SrcSet<Reg> {
        let mut srcs = SrcSet::new();
        match self {
            Instruction::Mov { src, .. } => srcs.extend(src.reg()),
            Instruction::Alu { a, b, .. } => srcs.extend(a.reg().into_iter().chain(b.reg())),
            Instruction::Ld { base, .. } => srcs.push(*base),
            Instruction::St { base, src, .. } => srcs.extend([*base, *src]),
            Instruction::Bra { pred, .. } => srcs.push(*pred),
            Instruction::Jmp { .. } | Instruction::Exit => {}
        }
        srcs
    }

    /// Distinct source registers in first-use order: one operand-
    /// collector fetch each, the order every engine fetches them in.
    pub fn unique_srcs(&self) -> SrcSet<usize> {
        let mut srcs = SrcSet::new();
        for r in self.src_regs() {
            if !srcs.contains(&r.index()) {
                srcs.push(r.index());
            }
        }
        srcs
    }

    /// The latency class the pipeline model schedules this instruction in.
    pub fn latency_class(&self) -> LatencyClass {
        match self {
            Instruction::Alu { op, .. } => op.latency_class(),
            Instruction::Mov { .. } => LatencyClass::Alu,
            Instruction::Ld { .. } | Instruction::St { .. } => LatencyClass::Memory,
            Instruction::Bra { .. } | Instruction::Jmp { .. } | Instruction::Exit => {
                LatencyClass::Control
            }
        }
    }

    /// Whether this is a control-flow instruction.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instruction::Bra { .. } | Instruction::Jmp { .. } | Instruction::Exit
        )
    }

    /// The control transfer this instruction performs, for CFG builders.
    pub fn control_flow(&self) -> ControlFlow {
        match *self {
            Instruction::Bra { target, reconv, .. } => ControlFlow::Branch { target, reconv },
            Instruction::Jmp { target } => ControlFlow::Jump { target },
            Instruction::Exit => ControlFlow::Exit,
            _ => ControlFlow::FallThrough,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Mov { dst, src } => write!(f, "mov {dst}, {src}"),
            Instruction::Alu { op, dst, a, b } => write!(f, "{op} {dst}, {a}, {b}"),
            Instruction::Ld { dst, base, offset } => write!(f, "ld {dst}, [{base}{offset:+}]"),
            Instruction::St { base, offset, src } => write!(f, "st [{base}{offset:+}], {src}"),
            Instruction::Bra {
                pred,
                target,
                reconv,
            } => {
                write!(f, "bra {pred}, @{target} (reconv @{reconv})")
            }
            Instruction::Jmp { target } => write!(f, "jmp @{target}"),
            Instruction::Exit => f.write_str("exit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_arithmetic_semantics() {
        assert_eq!(AluOp::Add.apply(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u32::MAX);
        assert_eq!(AluOp::Mul.apply(7, 6), 42);
        assert_eq!(AluOp::Min.apply((-5i32) as u32, 3), (-5i32) as u32);
        assert_eq!(AluOp::Max.apply((-5i32) as u32, 3), 3);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(AluOp::Div.apply(10, 0), 0);
        assert_eq!(AluOp::Rem.apply(10, 0), 0);
    }

    #[test]
    fn signed_division() {
        assert_eq!(AluOp::Div.apply((-10i32) as u32, 3) as i32, -3);
        assert_eq!(AluOp::Rem.apply((-10i32) as u32, 3) as i32, -1);
    }

    #[test]
    fn division_overflow_does_not_panic() {
        // i32::MIN / -1 overflows a naive div.
        assert_eq!(
            AluOp::Div.apply(i32::MIN as u32, (-1i32) as u32),
            i32::MIN as u32
        );
    }

    #[test]
    fn comparisons_are_signed() {
        assert_eq!(AluOp::SetLt.apply((-1i32) as u32, 0), 1);
        assert_eq!(AluOp::SetLe.apply(5, 5), 1);
        assert_eq!(AluOp::SetEq.apply(3, 4), 0);
        assert_eq!(AluOp::SetNe.apply(3, 4), 1);
    }

    #[test]
    fn shifts_mask_their_amount() {
        assert_eq!(AluOp::Shl.apply(1, 33), 2);
        assert_eq!(AluOp::Shr.apply(4, 33), 2);
    }

    #[test]
    fn dst_and_sources() {
        let i = Instruction::Alu {
            op: AluOp::Add,
            dst: Reg(1),
            a: Reg(2).into(),
            b: Reg(3).into(),
        };
        assert_eq!(i.dst(), Some(Reg(1)));
        assert_eq!(*i.src_regs(), [Reg(2), Reg(3)]);

        let st = Instruction::St {
            base: Reg(4),
            offset: 0,
            src: Reg(5),
        };
        assert_eq!(st.dst(), None);
        assert_eq!(*st.src_regs(), [Reg(4), Reg(5)]);

        let bra = Instruction::Bra {
            pred: Reg(6),
            target: 0,
            reconv: 1,
        };
        assert_eq!(*bra.src_regs(), [Reg(6)]);
    }

    #[test]
    fn unique_srcs_fetch_each_register_once() {
        let add = Instruction::Alu {
            op: AluOp::Add,
            dst: Reg(1),
            a: Reg(1).into(),
            b: Reg(1).into(),
        };
        assert_eq!(*add.unique_srcs(), [1]);
        let st = Instruction::St {
            base: Reg(4),
            offset: 0,
            src: Reg(4),
        };
        assert_eq!(*st.unique_srcs(), [4]);
        let ld = Instruction::Ld {
            dst: Reg(0),
            base: Reg(3),
            offset: 1,
        };
        assert_eq!(*ld.unique_srcs(), [3]);
        assert!(Instruction::Exit.unique_srcs().is_empty());
    }

    #[test]
    fn latency_classes() {
        assert_eq!(AluOp::Add.latency_class(), LatencyClass::Alu);
        assert_eq!(AluOp::Mul.latency_class(), LatencyClass::Sfu);
        let ld = Instruction::Ld {
            dst: Reg(0),
            base: Reg(1),
            offset: 0,
        };
        assert_eq!(ld.latency_class(), LatencyClass::Memory);
        assert!(Instruction::Exit.is_control());
    }

    #[test]
    fn control_flow_classification() {
        let add = Instruction::Alu {
            op: AluOp::Add,
            dst: Reg(0),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        };
        assert_eq!(add.control_flow(), ControlFlow::FallThrough);
        let bra = Instruction::Bra {
            pred: Reg(0),
            target: 3,
            reconv: 5,
        };
        assert_eq!(
            bra.control_flow(),
            ControlFlow::Branch {
                target: 3,
                reconv: 5
            }
        );
        assert_eq!(
            Instruction::Jmp { target: 2 }.control_flow(),
            ControlFlow::Jump { target: 2 }
        );
        assert_eq!(Instruction::Exit.control_flow(), ControlFlow::Exit);
    }

    #[test]
    fn display_round_trip_visually() {
        let i = Instruction::Alu {
            op: AluOp::SetLt,
            dst: Reg(1),
            a: Reg(2).into(),
            b: Operand::Imm(4),
        };
        assert_eq!(i.to_string(), "set.lt r1, r2, 4");
    }
}
