//! The register datapath both engines share.
//!
//! The dynamic engine ([`sm`](crate::sm)) and the scheduled replayer
//! ([`scheduled`](crate::scheduled)) differ in *when* things happen —
//! each keeps its own timing, arbitration, scoreboard and stall
//! statistics — but not in *what* a warp-instruction computes or how a
//! result reaches the banked register file. That part lives here, once:
//!
//! * [`Datapath::read`] reads and decompresses an operand, failing with
//!   [`SimError::Read`];
//! * [`Lanes::execute`] runs the Mov/Alu/Ld/St/Bra lane bodies, failing
//!   with [`SimError::MemoryAt`] on an out-of-range access;
//! * [`Datapath::merge`] folds the stored value into the inactive lanes
//!   of a partial write, including the decompress-merge-recompress
//!   counted read;
//! * [`Datapath::write`] stores a result and does its byte accounting;
//! * [`Datapath::capture`] reads a drained warp's final registers.
//!
//! With the `sanitize` feature the datapath also keeps the uncompressed
//! shadow register file every decompressed read is checked against.

use bdi::{BdiCodec, CompressedRegister, WarpRegister, WARP_REGISTER_BYTES};
use gpu_regfile::{ReadError, RegFileConfig, RegisterFile, WarpSlot, WriteError};
use simt_isa::{taken_mask, Instruction, Kernel, Operand, WARP_SIZE};

use crate::config::{DivergencePolicy, GpuConfig};
use crate::launch::LaunchConfig;
use crate::memory::GlobalMemory;
use crate::sm::SimError;
use crate::stats::{MemEvent, SimStats};

// A warp register holds one ISA lane per codec lane.
const _: () = assert!(WARP_SIZE == bdi::WARP_SIZE);

/// One source operand of an instruction in operand collection: the
/// register, and its decompressed value once fetched.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fetch {
    pub(crate) reg: usize,
    pub(crate) value: Option<WarpRegister>,
}

/// A result on its way into the register file.
#[derive(Clone, Debug)]
pub(crate) struct PendingWrite {
    pub(crate) slot: usize,
    pub(crate) reg: usize,
    /// The computed lanes; after [`Datapath::merge`], the full register.
    pub(crate) value: WarpRegister,
    /// Lanes the instruction executed under.
    pub(crate) mask: u32,
    pub(crate) divergent: bool,
    /// An injected §5.2 dummy MOV (not a program instruction).
    pub(crate) synthetic: bool,
}

/// What a dispatched warp-instruction did.
#[derive(Clone, Debug)]
pub(crate) enum Effect {
    /// A Mov or Alu result for register `reg`.
    Write { reg: usize, value: WarpRegister },
    /// A load's result for register `reg` and its accesses.
    Load {
        reg: usize,
        value: WarpRegister,
        access: MemEvent,
    },
    /// A store's accesses.
    Store(MemEvent),
    /// A resolved conditional branch.
    Branch {
        taken: u32,
        target: usize,
        reconv: usize,
    },
}

/// One warp-instruction at dispatch, with everything its lanes read.
pub(crate) struct Lanes<'a> {
    pub(crate) kernel: &'a Kernel,
    pub(crate) launch: &'a LaunchConfig,
    pub(crate) block: usize,
    pub(crate) warp_in_block: usize,
    pub(crate) pc: usize,
    pub(crate) mask: u32,
    /// The collected source operands.
    pub(crate) operands: &'a [Fetch],
}

impl Lanes<'_> {
    /// Executes `instr` over the active lanes. Memory effects happen
    /// here, in lane order.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryAt`] when an active lane accesses memory out
    /// of range; lanes before it have already taken effect.
    pub(crate) fn execute(
        &self,
        instr: Instruction,
        memory: &mut GlobalMemory,
    ) -> Result<Effect, SimError> {
        Ok(match instr {
            Instruction::Mov { dst, src } => Effect::Write {
                reg: dst.index(),
                value: self.operand(src),
            },
            Instruction::Alu { op, dst, a, b } => {
                let (a, b) = (self.operand(a), self.operand(b));
                Effect::Write {
                    reg: dst.index(),
                    value: WarpRegister::from_fn(|lane| op.apply(a.lane(lane), b.lane(lane))),
                }
            }
            Instruction::Ld { dst, base, offset } => {
                let mut access = self.access(base.index(), offset, false);
                for lane in self.active() {
                    access.values[lane] = memory
                        .load(access.addrs[lane])
                        .map_err(|fault| self.fault(fault))?;
                }
                Effect::Load {
                    reg: dst.index(),
                    value: WarpRegister::new(access.values),
                    access,
                }
            }
            Instruction::St { base, offset, src } => {
                let mut access = self.access(base.index(), offset, true);
                let words = self.reg(src.index());
                for lane in self.active() {
                    access.values[lane] = words.lane(lane);
                    memory
                        .store(access.addrs[lane], access.values[lane])
                        .map_err(|fault| self.fault(fault))?;
                }
                Effect::Store(access)
            }
            Instruction::Bra {
                pred,
                target,
                reconv,
            } => Effect::Branch {
                taken: taken_mask(self.mask, self.reg(pred.index()).as_lanes()),
                target,
                reconv,
            },
            Instruction::Jmp { .. } | Instruction::Exit => {
                unreachable!("control-only instructions never dispatch")
            }
        })
    }

    fn active(&self) -> impl Iterator<Item = usize> + '_ {
        (0..WARP_SIZE).filter(|lane| self.mask & (1 << lane) != 0)
    }

    fn reg(&self, reg: usize) -> &WarpRegister {
        self.operands
            .iter()
            .find(|f| f.reg == reg)
            .and_then(|f| f.value.as_ref())
            .expect("dispatch requires all operands")
    }

    fn operand(&self, op: Operand) -> WarpRegister {
        match op {
            Operand::Reg(r) => *self.reg(r.index()),
            Operand::Imm(v) => WarpRegister::splat(v as u32),
            Operand::Param(i) => WarpRegister::splat(self.launch.param(i as usize)),
            Operand::Special(s) => {
                let coords = self.launch.coords(self.block, self.warp_in_block);
                WarpRegister::from_fn(|lane| coords.special(s, lane))
            }
        }
    }

    /// A memory access with the active lanes' effective addresses
    /// (zero in inactive lanes) and values still to fill in.
    fn access(&self, base: usize, offset: i32, is_store: bool) -> MemEvent {
        let base = self.reg(base);
        let mut addrs = [0u32; WARP_SIZE];
        for lane in self.active() {
            addrs[lane] = base.lane(lane).wrapping_add(offset as u32);
        }
        MemEvent {
            pc: self.pc,
            block: self.block,
            warp_in_block: self.warp_in_block,
            mask: self.mask,
            addrs,
            values: [0; WARP_SIZE],
            is_store,
        }
    }

    fn fault(&self, fault: crate::memory::MemoryFault) -> SimError {
        SimError::MemoryAt {
            kernel: self.kernel.name().to_string(),
            block: self.block,
            warp_in_block: self.warp_in_block,
            pc: self.pc,
            fault,
        }
    }
}

/// The codec and the banked register file, as one unit.
pub(crate) struct Datapath {
    pub(crate) codec: BdiCodec,
    pub(crate) regfile: RegisterFile,
    num_regs: usize,
    /// The stored form every register starts in: a compressed zero when
    /// compression is on, an uncompressed one otherwise.
    initial: CompressedRegister,
    /// Whether a divergent partial write reads the old value through
    /// the banks (the rejected §5.2 decompress-merge-recompress policy).
    counted_merge: bool,
    /// Uncompressed mirror every decompressed read is checked against.
    #[cfg(feature = "sanitize")]
    shadow: gpu_regfile::ShadowRegisterFile,
}

impl Datapath {
    /// A datapath for `kernel` under `cfg`, with register-file geometry
    /// `regfile` (the replayer zeroes its wake-up latencies).
    pub(crate) fn new(cfg: &GpuConfig, regfile: RegFileConfig, kernel: &Kernel) -> Self {
        let comp = &cfg.compression;
        let codec = BdiCodec::new(comp.choices.clone());
        let initial = if comp.is_enabled() {
            codec.compress(&WarpRegister::ZERO)
        } else {
            CompressedRegister::Uncompressed(WarpRegister::ZERO)
        };
        Datapath {
            regfile: RegisterFile::new(regfile),
            num_regs: num_regs(kernel),
            initial,
            counted_merge: comp.is_enabled()
                && comp.divergence == DivergencePolicy::DecompressMergeRecompress,
            #[cfg(feature = "sanitize")]
            shadow: gpu_regfile::ShadowRegisterFile::new(),
            codec,
        }
    }

    /// Allocates a launching warp's registers in `slot`.
    pub(crate) fn allocate(&mut self, slot: usize, now: u64) -> Result<(), SimError> {
        self.regfile
            .allocate_warp_with(WarpSlot(slot), self.num_regs, &self.initial, now)?;
        #[cfg(feature = "sanitize")]
        self.shadow.allocate_warp(
            WarpSlot(slot),
            self.num_regs,
            self.codec.decompress(&self.initial),
        );
        Ok(())
    }

    /// Reads and decompresses operand `reg` of `slot` (through the
    /// fault injector, when one is armed).
    pub(crate) fn read(
        &mut self,
        slot: usize,
        reg: usize,
        now: u64,
    ) -> Result<WarpRegister, SimError> {
        let sample = self
            .regfile
            .try_read(WarpSlot(slot), reg, now)
            .map_err(|source| SimError::Read { slot, reg, source })?;
        let value = self.decompress(slot, reg, &sample.register)?;
        #[cfg(feature = "sanitize")]
        {
            if sample.fault == Some(gpu_regfile::FaultDisposition::SilentCorruption) {
                // The injector claims the delivered value is wrong; the
                // shadow must agree, or the classification lies.
                assert!(
                    !self.shadow.matches(WarpSlot(slot), reg, &value),
                    "sanitize: injector reported silent corruption of slot {slot} r{reg} \
                     but the delivered value matches the shadow",
                );
            } else {
                self.shadow.check_read(WarpSlot(slot), reg, &value);
            }
        }
        Ok(value)
    }

    /// Folds the stored value into the inactive lanes of a partial
    /// write. Under per-lane write enables this costs nothing; under
    /// decompress-merge-recompress a divergent merge is a counted bank
    /// read (and a decompressor pass when the old value is compressed).
    ///
    /// The merge read bypasses the fault injector: the injection point
    /// is operand fetch, and a pending corruption of the destination is
    /// about to be overwritten (the injector resolves it as masked on
    /// the subsequent write).
    pub(crate) fn merge(
        &mut self,
        w: &mut PendingWrite,
        stats: &mut SimStats,
        now: u64,
    ) -> Result<(), SimError> {
        if w.mask == u32::MAX {
            return Ok(());
        }
        let stored = if self.counted_merge && w.divergent {
            let read = self.regfile.read(WarpSlot(w.slot), w.reg, now);
            if read.register.is_compressed() {
                stats.decompressor_activations += 1;
            }
            *read.register
        } else {
            self.regfile
                .peek(WarpSlot(w.slot), w.reg)
                .copied()
                .ok_or(SimError::Read {
                    slot: w.slot,
                    reg: w.reg,
                    source: ReadError::Unallocated,
                })?
        };
        let old = self.decompress(w.slot, w.reg, &stored)?;
        #[cfg(feature = "sanitize")]
        self.shadow.check_read(WarpSlot(w.slot), w.reg, &old);
        w.value = old.merge_masked(&w.value, w.mask);
        Ok(())
    }

    /// Writes `stored`, the stored form of the merged `w.value`, and
    /// accounts its bytes (dummy MOVs move no program data, so they
    /// count as writes but not as logical or stored bytes).
    ///
    /// # Errors
    ///
    /// The register file's [`WriteError`]; nothing is accounted then.
    pub(crate) fn write(
        &mut self,
        w: &PendingWrite,
        stored: CompressedRegister,
        stats: &mut SimStats,
        now: u64,
    ) -> Result<(), WriteError> {
        self.regfile.write(WarpSlot(w.slot), w.reg, stored, now)?;
        #[cfg(feature = "sanitize")]
        self.shadow.record_write(WarpSlot(w.slot), w.reg, &w.value);
        stats.writes += 1;
        if stored.is_compressed() {
            stats.writes_compressed += 1;
        }
        if !w.synthetic {
            let (logical, bytes) = (WARP_REGISTER_BYTES as u64, stored.stored_len() as u64);
            if w.divergent {
                stats.div_logical_bytes += logical;
                stats.div_stored_bytes += bytes;
            } else {
                stats.nondiv_logical_bytes += logical;
                stats.nondiv_stored_bytes += bytes;
            }
        }
        Ok(())
    }

    /// The decompressed registers of the warp in `slot`, which must
    /// still be allocated.
    pub(crate) fn capture(&self, slot: usize) -> Vec<WarpRegister> {
        (0..self.num_regs)
            .map(|r| {
                let stored = self
                    .regfile
                    .peek(WarpSlot(slot), r)
                    .expect("still allocated");
                self.codec.decompress(stored)
            })
            .collect()
    }

    /// Frees a drained warp's registers.
    pub(crate) fn free(&mut self, slot: usize, now: u64) {
        #[cfg(feature = "sanitize")]
        self.shadow.free_warp(WarpSlot(slot));
        self.regfile.free_warp(WarpSlot(slot), now);
    }

    /// Decodes with the stored-form validation of
    /// [`BdiCodec::try_decompress`], failing with [`SimError::Read`].
    fn decompress(
        &self,
        slot: usize,
        reg: usize,
        stored: &CompressedRegister,
    ) -> Result<WarpRegister, SimError> {
        self.codec
            .try_decompress(stored)
            .map_err(|e| SimError::Read {
                slot,
                reg,
                source: ReadError::Corrupted(e),
            })
    }
}

/// Registers each warp of `kernel` allocates (at least one).
pub(crate) fn num_regs(kernel: &Kernel) -> usize {
    usize::from(kernel.num_regs()).max(1)
}

/// Resident-warp slots `cfg` offers `kernel`: the SM's warp slots,
/// capped by register-file capacity.
pub(crate) fn max_resident(cfg: &GpuConfig, kernel: &Kernel) -> usize {
    cfg.max_warps_per_sm
        .min(RegisterFile::new(cfg.regfile).max_slots(num_regs(kernel)))
}
