//! Cycle-level SIMT GPU core simulator.
//!
//! This crate plays the role GPGPU-Sim plays in the paper's methodology
//! (§6.1): it executes [`simt_isa`] kernels on a detailed model of one
//! streaming multiprocessor with
//!
//! * dual warp schedulers (Greedy-Then-Oldest or Loose Round-Robin,
//!   Table 2 / §6.5),
//! * a SIMT reconvergence stack per warp for branch divergence — the
//!   single [`simt_isa::SimtStack`], the same one the static tracer in
//!   `simt-analysis` runs warps on,
//! * a scoreboard (RAW/WAW/WAR) and operand collectors fetching operands
//!   through the banked register file's per-bank ports,
//! * a compression-aware writeback path: results pass through a limited
//!   pool of compressor units (2-cycle latency by default), compressed
//!   operand reads pass through decompressor units (1 cycle), and the
//!   dummy-MOV mechanism of §5.2 decompresses registers that are about to
//!   be written divergently,
//! * bank-level power gating with a 10-cycle wake-up stall (§5.3).
//!
//! [`GpuSim::run_scheduled`] replays an ahead-of-time issue plan instead
//! of arbitrating dynamically. Both engines execute lanes, read
//! operands and write results through one shared register datapath, so
//! they differ only in timing.
//!
//! [`GpuSim::run_with`] arms any combination of [`Probes`] on one
//! dynamic run: a register-write observer, a memory-access observer and
//! final-register capture. The soundness gates join what one probed run
//! observed against their static claims; `run`, `run_observed`,
//! `run_capturing` and `run_mem_observed` are shorthands for one probe
//! each.
//!
//! The output is a [`SimResult`]: cycle count, instruction and divergence
//! statistics, compression ratios, and the raw bank activity that the
//! `gpu-power` crate turns into the paper's energy numbers.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{GpuConfig, GpuSim, LaunchConfig, GlobalMemory};
//! use simt_isa::{AluOp, KernelBuilder, Operand, Reg, Special};
//!
//! // mem[gtid] = gtid + 10
//! let mut b = KernelBuilder::new("fill", 2);
//! b.mov(Reg(0), Operand::Special(Special::GlobalTid));
//! b.alu(AluOp::Add, Reg(1), Reg(0).into(), Operand::Imm(10));
//! b.st(Reg(0), 0, Reg(1));
//! b.exit();
//! let kernel = b.build()?;
//!
//! let mut memory = GlobalMemory::zeroed(64);
//! let launch = LaunchConfig::new(2, 32);
//! let result = GpuSim::new(GpuConfig::warped_compression())
//!     .run(&kernel, &launch, &mut memory)?;
//! assert_eq!(memory.word(63).unwrap(), 73);
//! assert!(result.stats.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod datapath;
mod launch;
mod memory;
#[cfg(feature = "sanitize")]
mod sanitize;
mod scheduled;
mod scoreboard;
mod sm;
mod stats;
mod warp;

pub use config::{CompressionConfig, DivergencePolicy, GpuConfig, SchedulerPolicy};
pub use launch::{LaunchConfig, LaunchError};
pub use memory::{GlobalMemory, MemoryFault};
pub use scheduled::ScheduledResult;
pub use sm::{FinalRegs, GpuSim, Probes, SimError, SimResult};
pub use stats::{
    CensusStats, MemEvent, MemTrafficStats, PcMemTraffic, PcStalls, SimStats, StallCause,
    StallStats, WriteEvent,
};
