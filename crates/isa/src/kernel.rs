//! Kernels: validated instruction sequences plus register demand.

use std::error::Error;
use std::fmt;

use crate::instr::{ControlFlow, Instruction};

/// A validated kernel: what a CUDA `__global__` function compiles to in
/// this ISA.
///
/// Invariants enforced at construction:
/// * every branch/jump target and reconvergence pc is in range,
/// * every register index referenced is `< num_regs`,
/// * the last reachable instruction cannot fall off the end (the kernel
///   ends in `Exit` or an unconditional `Jmp`).
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    name: String,
    instrs: Vec<Instruction>,
    num_regs: u8,
}

impl Kernel {
    /// Validates and wraps an instruction sequence.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] describing the first violated invariant.
    pub fn new(
        name: impl Into<String>,
        instrs: Vec<Instruction>,
        num_regs: u8,
    ) -> Result<Self, KernelError> {
        let name = name.into();
        if instrs.is_empty() {
            return Err(KernelError::Empty);
        }
        for (pc, instr) in instrs.iter().enumerate() {
            for r in instr.src_regs().into_iter().chain(instr.dst()) {
                if r.index() >= num_regs as usize {
                    return Err(KernelError::RegisterOutOfRange {
                        pc,
                        reg: r.index(),
                        num_regs,
                    });
                }
            }
            match *instr {
                Instruction::Bra { target, reconv, .. } => {
                    if target >= instrs.len() {
                        return Err(KernelError::TargetOutOfRange { pc, target });
                    }
                    if reconv >= instrs.len() {
                        return Err(KernelError::TargetOutOfRange { pc, target: reconv });
                    }
                }
                Instruction::Jmp { target } if target >= instrs.len() => {
                    return Err(KernelError::TargetOutOfRange { pc, target });
                }
                _ => {}
            }
        }
        match instrs.last() {
            Some(Instruction::Exit | Instruction::Jmp { .. }) => {}
            // `None` is unreachable (emptiness checked above), but treating
            // it as FallsOffEnd keeps this arm panic-free.
            Some(_) | None => return Err(KernelError::FallsOffEnd),
        }
        Ok(Kernel {
            name,
            instrs,
            num_regs,
        })
    }

    /// Kernel name (used in reports and figures).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction at `pc`, or `None` past the end.
    pub fn instr(&self, pc: usize) -> Option<&Instruction> {
        self.instrs.get(pc)
    }

    /// All instructions in order.
    pub fn instrs(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the kernel has no instructions (never true: construction
    /// rejects empty kernels, but the method keeps clippy and callers
    /// honest).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Architectural registers each thread of this kernel needs.
    pub fn num_regs(&self) -> u8 {
        self.num_regs
    }

    /// The pcs execution can continue at after the instruction at `pc`.
    ///
    /// Reconvergence points are SIMT-stack metadata, not successor edges,
    /// so they are *not* included. `Exit` and out-of-range pcs have no
    /// successors. Branches whose taken target equals the fall-through pc
    /// report it once.
    pub fn successors(&self, pc: usize) -> Vec<usize> {
        match self.instrs.get(pc).map(Instruction::control_flow) {
            Some(ControlFlow::FallThrough) => vec![pc + 1],
            Some(ControlFlow::Branch { target, .. }) if target == pc + 1 => vec![pc + 1],
            Some(ControlFlow::Branch { target, .. }) => vec![target, pc + 1],
            Some(ControlFlow::Jump { target }) => vec![target],
            Some(ControlFlow::Exit) | None => Vec::new(),
        }
    }

    /// Writes a human-readable disassembly listing into `out`.
    ///
    /// # Errors
    ///
    /// Propagates errors from the underlying writer; writing to a
    /// `String` cannot fail.
    pub fn write_disassembly<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        writeln!(out, ".kernel {} (regs: {})", self.name, self.num_regs)?;
        for (pc, i) in self.instrs.iter().enumerate() {
            writeln!(out, "  @{pc:<4} {i}")?;
        }
        Ok(())
    }

    /// A human-readable disassembly listing.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        // Writing into a String is infallible.
        let _ = self.write_disassembly(&mut out);
        out
    }
}

/// Kernel validation failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// The instruction list was empty.
    Empty,
    /// A branch or jump points past the end of the kernel.
    TargetOutOfRange {
        /// Pc of the offending instruction.
        pc: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// An instruction references a register ≥ `num_regs`.
    RegisterOutOfRange {
        /// Pc of the offending instruction.
        pc: usize,
        /// The offending register index.
        reg: usize,
        /// The declared register count.
        num_regs: u8,
    },
    /// The last instruction is not `Exit`/`Jmp`, so execution would run
    /// past the end.
    FallsOffEnd,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Empty => f.write_str("kernel has no instructions"),
            KernelError::TargetOutOfRange { pc, target } => {
                write!(f, "instruction @{pc} targets out-of-range pc @{target}")
            }
            KernelError::RegisterOutOfRange { pc, reg, num_regs } => {
                write!(
                    f,
                    "instruction @{pc} references r{reg} but kernel declares {num_regs} registers"
                )
            }
            KernelError::FallsOffEnd => f.write_str("kernel does not end in exit or jmp"),
        }
    }
}

impl Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::AluOp;
    use crate::operand::{Operand, Reg};

    fn exit() -> Instruction {
        Instruction::Exit
    }

    #[test]
    fn empty_kernel_rejected() {
        assert_eq!(Kernel::new("k", vec![], 1).unwrap_err(), KernelError::Empty);
    }

    #[test]
    fn register_bounds_checked() {
        let bad = Instruction::Mov {
            dst: Reg(4),
            src: Operand::Imm(0),
        };
        let err = Kernel::new("k", vec![bad, exit()], 4).unwrap_err();
        assert_eq!(
            err,
            KernelError::RegisterOutOfRange {
                pc: 0,
                reg: 4,
                num_regs: 4
            }
        );
    }

    #[test]
    fn branch_targets_checked() {
        let bad = Instruction::Bra {
            pred: Reg(0),
            target: 9,
            reconv: 1,
        };
        let err = Kernel::new("k", vec![bad, exit()], 1).unwrap_err();
        assert_eq!(err, KernelError::TargetOutOfRange { pc: 0, target: 9 });
    }

    #[test]
    fn reconv_targets_checked() {
        let bad = Instruction::Bra {
            pred: Reg(0),
            target: 1,
            reconv: 7,
        };
        let err = Kernel::new("k", vec![bad, exit()], 1).unwrap_err();
        assert_eq!(err, KernelError::TargetOutOfRange { pc: 0, target: 7 });
    }

    #[test]
    fn must_end_in_exit_or_jmp() {
        let mov = Instruction::Mov {
            dst: Reg(0),
            src: Operand::Imm(1),
        };
        assert_eq!(
            Kernel::new("k", vec![mov], 1).unwrap_err(),
            KernelError::FallsOffEnd
        );
        assert!(Kernel::new("k", vec![mov, Instruction::Jmp { target: 0 }], 1).is_ok());
    }

    #[test]
    fn valid_kernel_accessors() {
        let instrs = vec![
            Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(0),
                a: Operand::Imm(1),
                b: Operand::Imm(2),
            },
            exit(),
        ];
        let k = Kernel::new("adder", instrs.clone(), 1).unwrap();
        assert_eq!(k.name(), "adder");
        assert_eq!(k.len(), 2);
        assert!(!k.is_empty());
        assert_eq!(k.num_regs(), 1);
        assert_eq!(k.instrs(), &instrs[..]);
        assert_eq!(k.instr(0), Some(&instrs[0]));
        assert_eq!(k.instr(5), None);
    }

    #[test]
    fn disassembly_lists_every_pc() {
        let k = Kernel::new(
            "d",
            vec![
                Instruction::Mov {
                    dst: Reg(0),
                    src: Operand::Imm(3),
                },
                exit(),
            ],
            1,
        )
        .unwrap();
        let text = k.disassemble();
        assert!(text.contains(".kernel d"));
        assert!(text.contains("@0"));
        assert!(text.contains("mov r0, 3"));
        assert!(text.contains("exit"));
    }

    #[test]
    fn successor_edges() {
        let k = Kernel::new(
            "s",
            vec![
                Instruction::Mov {
                    dst: Reg(0),
                    src: Operand::Imm(1),
                },
                Instruction::Bra {
                    pred: Reg(0),
                    target: 3,
                    reconv: 4,
                },
                Instruction::Jmp { target: 4 },
                Instruction::Bra {
                    pred: Reg(0),
                    target: 4,
                    reconv: 4,
                },
                exit(),
            ],
            1,
        )
        .unwrap();
        assert_eq!(k.successors(0), vec![1]);
        assert_eq!(k.successors(1), vec![3, 2]);
        assert_eq!(k.successors(2), vec![4]);
        // Taken target == fall-through: reported once.
        assert_eq!(k.successors(3), vec![4]);
        assert_eq!(k.successors(4), Vec::<usize>::new());
        assert_eq!(k.successors(99), Vec::<usize>::new());
    }

    #[test]
    fn error_display() {
        let e = KernelError::RegisterOutOfRange {
            pc: 3,
            reg: 9,
            num_regs: 4,
        };
        assert!(e.to_string().contains("r9"));
    }
}
