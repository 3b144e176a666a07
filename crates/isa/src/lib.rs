//! A minimal SIMT instruction set for the Warped-Compression reproduction.
//!
//! The paper's evaluation runs CUDA benchmarks on GPGPU-Sim. This crate is
//! the front half of our substitute substrate: a small, strongly-typed
//! SIMT ISA in which the `gpu-workloads` crate expresses kernels that
//! mirror the register-value behaviour of the Rodinia / Parboil
//! benchmarks, and which the `gpu-sim` crate executes cycle by cycle.
//!
//! The ISA is deliberately close to the subset of PTX/SASS the paper's
//! observations depend on:
//!
//! * 2-source / 1-destination register instructions (this is what sizes
//!   the operand collectors, compressors and decompressors in §5.1),
//! * special values (`tid`, `ctaid`, …) and uniform kernel parameters —
//!   the two sources of the value similarity characterised in §3,
//! * word-addressed global loads/stores,
//! * structured branches carrying an explicit reconvergence label, which
//!   lets every engine maintain the classic SIMT reconvergence stack
//!   ([`SimtStack`]) defined here, once.
//!
//! # Example
//!
//! ```
//! use simt_isa::{AluOp, KernelBuilder, Operand, Reg, Special};
//!
//! // r1 = tid; r2 = r1 + param0; store r2 to mem[r1]
//! let mut b = KernelBuilder::new("saxpy_like", 3);
//! let (r0, r1, r2) = (Reg(0), Reg(1), Reg(2));
//! b.mov(r1, Operand::Special(Special::Tid));
//! b.alu(AluOp::Add, r2, Operand::Reg(r1), Operand::Param(0));
//! b.st(r1, 0, r2);
//! b.mov(r0, Operand::Imm(0)); // keep r0 live so num_regs is honest
//! b.exit();
//! let kernel = b.build().unwrap();
//! assert_eq!(kernel.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod builder;
mod instr;
mod kernel;
mod operand;
mod simt;

pub use asm::{assemble, to_asm, write_asm, AsmError, AsmErrorKind};
pub use builder::{BuildError, KernelBuilder, Label};
pub use instr::{AluOp, ControlFlow, Instruction, LatencyClass, SrcSet};
pub use kernel::{Kernel, KernelError};
pub use operand::{Operand, Reg, Special};
pub use simt::{taken_mask, SimtStack, WarpCoords, WARP_SIZE};
