//! The compression-aware register file.

use std::error::Error;
use std::fmt;

use bdi::{CompressedRegister, CompressionIndicator};

use crate::bank::Bank;
use crate::config::RegFileConfig;
use crate::stats::RegFileStats;

/// A hardware warp slot within one SM (0..max_warps). Warp slot *s* maps
/// to bank cluster `s % num_clusters`, so consecutively-launched warps
/// spread across clusters — the allocation the paper assumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WarpSlot(pub usize);

/// One architectural register's stored state.
#[derive(Clone, Debug)]
struct StoredReg {
    value: CompressedRegister,
    /// Banks of the cluster currently holding valid chunks of this
    /// register (always `value.banks_required()` after a write).
    footprint: usize,
}

#[derive(Clone, Debug)]
struct WarpAlloc {
    base_entry: usize,
    regs: Vec<StoredReg>,
}

/// Result of a register read.
#[derive(Debug)]
pub struct ReadResult<'a> {
    /// The stored (possibly compressed) register.
    pub register: &'a CompressedRegister,
    /// Number of banks the arbiter had to access (1/3/5/8).
    pub banks_accessed: usize,
}

/// Result of a fallible register read ([`RegisterFile::try_read`]).
///
/// Owns the register value instead of borrowing it: under fault
/// injection the delivered value may differ from the stored one, so no
/// reference into storage can represent it.
#[derive(Clone, Copy, Debug)]
pub struct ReadSample {
    /// The delivered (possibly compressed, possibly corrupted) register.
    pub register: CompressedRegister,
    /// Number of banks the arbiter had to access (1/3/5/8).
    pub banks_accessed: usize,
    /// What fault injection did to this read, if anything.
    pub fault: Option<FaultDisposition>,
}

/// What the fault injector did to a read that still delivered a value.
///
/// Mirrors `gpu_faults::ReadDisposition`, but is always compiled so
/// [`ReadSample`] has one shape with and without the `faults` feature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDisposition {
    /// Corruption present but semantically invisible.
    Masked,
    /// SEC-DED restored the written bits.
    Corrected,
    /// A wrong value is being delivered undetected.
    SilentCorruption,
}

/// Read failures ([`RegisterFile::try_read`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The (slot, reg) pair was never allocated.
    Unallocated,
    /// The stored form failed structural validation — corrupted state
    /// reached the decoder.
    Corrupted(bdi::DecodeError),
    /// Register protection detected an uncorrectable bit error (the
    /// machine-check case; only reachable with fault injection armed).
    Uncorrectable,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Unallocated => f.write_str("register read from unallocated warp slot"),
            ReadError::Corrupted(e) => write!(f, "register read returned corrupt state: {e}"),
            ReadError::Uncorrectable => {
                f.write_str("uncorrectable bit error detected on register read")
            }
        }
    }
}

impl Error for ReadError {}

/// Allocation failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegFileError {
    /// The warp slot is already allocated.
    SlotInUse(WarpSlot),
    /// Not enough entries left in the slot's cluster for this many
    /// registers.
    OutOfEntries {
        /// The requested slot.
        slot: WarpSlot,
        /// Registers requested per thread.
        num_regs: usize,
        /// Entries each bank has in total.
        entries_per_bank: usize,
    },
    /// The slot index exceeds what the bank geometry can address.
    SlotOutOfRange(WarpSlot),
}

impl fmt::Display for RegFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegFileError::SlotInUse(s) => write!(f, "warp slot {} already allocated", s.0),
            RegFileError::OutOfEntries { slot, num_regs, entries_per_bank } => write!(
                f,
                "allocating {num_regs} registers for slot {} exceeds {entries_per_bank} entries per bank",
                slot.0
            ),
            RegFileError::SlotOutOfRange(s) => write!(f, "warp slot {} out of range", s.0),
        }
    }
}

impl Error for RegFileError {}

/// Write failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteError {
    /// One or more destination banks are waking from power gating; retry
    /// at the given cycle. The wake-up of every needed bank has been
    /// initiated (they wake in parallel).
    NotReady {
        /// First cycle at which all destination banks will be powered.
        ready_at: u64,
    },
    /// The (slot, reg) pair was never allocated.
    Unallocated,
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::NotReady { ready_at } => {
                write!(f, "destination banks waking, ready at cycle {ready_at}")
            }
            WriteError::Unallocated => f.write_str("register write to unallocated warp slot"),
        }
    }
}

impl Error for WriteError {}

/// The banked, compression-aware register file of Fig. 1.
///
/// Logically it stores one [`CompressedRegister`] per allocated
/// (warp slot, architectural register) pair; physically it tracks which
/// banks hold valid chunks, drives the power-gating state machine, and
/// counts every bank access for the energy model.
#[derive(Clone, Debug)]
pub struct RegisterFile {
    cfg: RegFileConfig,
    banks: Vec<Bank>,
    warps: Vec<Option<WarpAlloc>>,
    /// Armed fault injector, if any ([`arm_faults`](Self::arm_faults)).
    #[cfg(feature = "faults")]
    injector: Option<gpu_faults::FaultInjector>,
}

impl RegisterFile {
    /// Creates an empty register file with the given geometry.
    pub fn new(cfg: RegFileConfig) -> Self {
        let banks = (0..cfg.num_banks)
            .map(|_| Bank::new(cfg.gating.is_enabled(), cfg.gating_hysteresis))
            .collect();
        RegisterFile {
            cfg,
            banks,
            warps: Vec::new(),
            #[cfg(feature = "faults")]
            injector: None,
        }
    }

    /// Arms fault injection: every subsequent write and
    /// [`try_read`](Self::try_read) passes through the injector. The
    /// plain [`read`](Self::read) path stays fault-free (it is the
    /// golden reference).
    #[cfg(feature = "faults")]
    pub fn arm_faults(&mut self, injector: gpu_faults::FaultInjector) {
        self.injector = Some(injector);
    }

    /// Disarms the injector and produces its event log (unread
    /// corruption resolves as latent, untriggered specs as such).
    /// Returns `None` if faults were never armed.
    #[cfg(feature = "faults")]
    pub fn take_fault_log(&mut self) -> Option<gpu_faults::FaultLog> {
        self.injector.take().map(gpu_faults::FaultInjector::finish)
    }

    /// The configured geometry.
    pub fn config(&self) -> &RegFileConfig {
        &self.cfg
    }

    /// Maximum warp slots addressable given `num_regs` registers per
    /// thread: each cluster offers `entries_per_bank / num_regs` slots.
    pub fn max_slots(&self, num_regs: usize) -> usize {
        if num_regs == 0 {
            return 0;
        }
        self.cfg.num_clusters() * (self.cfg.entries_per_bank / num_regs)
    }

    /// Allocates `num_regs` registers for a warp, initialising every
    /// register to `initial` (the baseline passes an uncompressed zero —
    /// full 8-bank footprint, no gating opportunity; warped-compression
    /// passes a ⟨4,0⟩ zero — 1 bank).
    ///
    /// Banks that receive valid entries are powered on immediately
    /// (allocation happens at launch, off the execution critical path).
    ///
    /// # Errors
    ///
    /// See [`RegFileError`].
    pub fn allocate_warp(
        &mut self,
        slot: WarpSlot,
        num_regs: usize,
        now: u64,
    ) -> Result<(), RegFileError> {
        self.allocate_warp_with(
            slot,
            num_regs,
            &CompressedRegister::Uncompressed(Default::default()),
            now,
        )
    }

    /// Like [`allocate_warp`](Self::allocate_warp) but with an explicit
    /// initial register value (shared by all `num_regs` registers).
    pub fn allocate_warp_with(
        &mut self,
        slot: WarpSlot,
        num_regs: usize,
        initial: &CompressedRegister,
        now: u64,
    ) -> Result<(), RegFileError> {
        let clusters = self.cfg.num_clusters();
        let within = slot.0 / clusters;
        let base_entry = within * num_regs;
        if base_entry + num_regs > self.cfg.entries_per_bank {
            return if num_regs > self.cfg.entries_per_bank {
                Err(RegFileError::OutOfEntries {
                    slot,
                    num_regs,
                    entries_per_bank: self.cfg.entries_per_bank,
                })
            } else {
                Err(RegFileError::SlotOutOfRange(slot))
            };
        }
        if self.warps.len() <= slot.0 {
            self.warps.resize(slot.0 + 1, None);
        }
        if self.warps[slot.0].is_some() {
            return Err(RegFileError::SlotInUse(slot));
        }
        let footprint = initial.banks_required();
        let cluster = slot.0 % clusters;
        for b in 0..footprint {
            let bank = &mut self.banks[cluster * self.cfg.banks_per_cluster + b];
            for _ in 0..num_regs {
                bank.add_valid();
            }
            // Launch-time power-on: not modelled as a runtime wake-up.
            bank.ensure_on(now, 0);
        }
        let regs = (0..num_regs)
            .map(|_| StoredReg {
                value: *initial,
                footprint,
            })
            .collect();
        self.warps[slot.0] = Some(WarpAlloc { base_entry, regs });
        Ok(())
    }

    /// Releases a warp's registers, gating banks that become empty.
    pub fn free_warp(&mut self, slot: WarpSlot, now: u64) {
        let Some(alloc) = self.warps.get_mut(slot.0).and_then(Option::take) else {
            return;
        };
        let cluster = slot.0 % self.cfg.num_clusters();
        for reg in &alloc.regs {
            for b in 0..reg.footprint {
                self.banks[cluster * self.cfg.banks_per_cluster + b]
                    .remove_valid(now, self.cfg.gating.is_enabled());
            }
        }
        #[cfg(feature = "faults")]
        if let Some(injector) = self.injector.as_mut() {
            injector.on_free(slot.0 as u32);
        }
    }

    /// The 2-bit compression-range indicator the bank arbiter consults
    /// before issuing bank reads (§4). Returns `None` if unallocated.
    pub fn indicator(&self, slot: WarpSlot, reg: usize) -> Option<CompressionIndicator> {
        self.stored(slot, reg).map(|s| s.value.indicator())
    }

    /// Whether the register currently sits in compressed state.
    pub fn is_compressed(&self, slot: WarpSlot, reg: usize) -> bool {
        self.stored(slot, reg)
            .map(|s| s.value.is_compressed())
            .unwrap_or(false)
    }

    /// Reads a register, counting one access on each bank it occupies.
    ///
    /// # Panics
    ///
    /// Panics if the (slot, reg) pair is unallocated — reads of
    /// unallocated registers are a simulator bug, not a runtime condition.
    pub fn read(&mut self, slot: WarpSlot, reg: usize, now: u64) -> ReadResult<'_> {
        let cluster = slot.0 % self.cfg.num_clusters();
        let bank_base = cluster * self.cfg.banks_per_cluster;
        let alloc = self
            .warps
            .get(slot.0)
            .and_then(Option::as_ref)
            .expect("read of unallocated warp");
        let stored = alloc.regs.get(reg).expect("read of unallocated register");
        let footprint = stored.footprint;
        for b in 0..footprint {
            debug_assert!(
                self.banks[bank_base + b].is_ready(now),
                "read hit a gated bank"
            );
        }
        for b in 0..footprint {
            self.banks[bank_base + b].record_read();
        }
        let alloc = self.warps[slot.0].as_ref().expect("checked above");
        ReadResult {
            register: &alloc.regs[reg].value,
            banks_accessed: footprint,
        }
    }

    /// Fallible read: like [`read`](Self::read) but surfaces unallocated
    /// registers and corrupted/uncorrectable state as a typed
    /// [`ReadError`] instead of panicking, and routes the access through
    /// the fault injector when one is armed — so the value delivered may
    /// legitimately differ from the value stored.
    pub fn try_read(
        &mut self,
        slot: WarpSlot,
        reg: usize,
        now: u64,
    ) -> Result<ReadSample, ReadError> {
        let cluster = slot.0 % self.cfg.num_clusters();
        let bank_base = cluster * self.cfg.banks_per_cluster;
        let Some(stored) = self.stored(slot, reg) else {
            return Err(ReadError::Unallocated);
        };
        let footprint = stored.footprint;
        let value = stored.value;
        for b in 0..footprint {
            debug_assert!(
                self.banks[bank_base + b].is_ready(now),
                "read hit a gated bank"
            );
        }
        for b in 0..footprint {
            self.banks[bank_base + b].record_read();
        }
        #[cfg(feature = "faults")]
        if let Some(injector) = self.injector.as_mut() {
            return match injector.on_read(slot.0 as u32, reg as u16, &value) {
                Ok(None) => Ok(ReadSample {
                    register: value,
                    banks_accessed: footprint,
                    fault: None,
                }),
                Ok(Some((delivered, disposition))) => {
                    delivered.validate().map_err(ReadError::Corrupted)?;
                    Ok(ReadSample {
                        register: delivered,
                        banks_accessed: footprint,
                        fault: Some(match disposition {
                            gpu_faults::ReadDisposition::Masked => FaultDisposition::Masked,
                            gpu_faults::ReadDisposition::Corrected => FaultDisposition::Corrected,
                            gpu_faults::ReadDisposition::SilentCorruption => {
                                FaultDisposition::SilentCorruption
                            }
                        }),
                    })
                }
                Err(gpu_faults::DetectedFault) => Err(ReadError::Uncorrectable),
            };
        }
        value.validate().map_err(ReadError::Corrupted)?;
        Ok(ReadSample {
            register: value,
            banks_accessed: footprint,
            fault: None,
        })
    }

    /// Writes a register value (already compressed or not by the caller's
    /// compressor unit), updating valid bits and power gating.
    ///
    /// On success returns the number of banks written. If the value needs
    /// banks that are currently gated, their wake-up is initiated and
    /// `WriteError::NotReady` tells the caller when to retry — the stored
    /// value is unchanged until then (the paper charges this as the
    /// 10-cycle bank wake-up stall).
    ///
    /// # Errors
    ///
    /// See [`WriteError`].
    pub fn write(
        &mut self,
        slot: WarpSlot,
        reg: usize,
        value: CompressedRegister,
        now: u64,
    ) -> Result<usize, WriteError> {
        let cluster = slot.0 % self.cfg.num_clusters();
        let bank_base = cluster * self.cfg.banks_per_cluster;
        let wakeup = self.cfg.effective_wakeup_latency();
        let gating = self.cfg.gating.is_enabled();
        let new_footprint = value.banks_required();

        let Some(alloc) = self.warps.get(slot.0).and_then(Option::as_ref) else {
            return Err(WriteError::Unallocated);
        };
        if reg >= alloc.regs.len() {
            return Err(WriteError::Unallocated);
        }

        // Wake every destination bank in parallel.
        let mut ready_at = None;
        for b in 0..new_footprint {
            if let Some(r) = self.banks[bank_base + b].ensure_on(now, wakeup) {
                ready_at = Some(ready_at.map_or(r, |cur: u64| cur.max(r)));
            }
        }
        if let Some(ready_at) = ready_at {
            return Err(WriteError::NotReady { ready_at });
        }

        let alloc = self.warps[slot.0].as_mut().expect("checked above");
        let stored = &mut alloc.regs[reg];
        let old_footprint = stored.footprint;
        stored.value = value;
        stored.footprint = new_footprint;

        for b in new_footprint..old_footprint {
            self.banks[bank_base + b].remove_valid(now, gating);
        }
        for b in old_footprint..new_footprint {
            self.banks[bank_base + b].add_valid();
        }
        for b in 0..new_footprint {
            self.banks[bank_base + b].record_write();
        }
        #[cfg(feature = "faults")]
        if let Some(injector) = self.injector.as_mut() {
            // The stored value stays clean; any injected corruption lives
            // in the injector and is merged in on try_read.
            injector.on_write(slot.0 as u32, reg as u16, &value);
        }
        Ok(new_footprint)
    }

    /// Looks at a stored register *without* counting a bank access.
    ///
    /// Hardware analogue: per-lane write-enable merging on a write does
    /// not read the SRAM arrays, so the simulator uses `peek` when it
    /// needs the old value functionally but must not charge read energy.
    pub fn peek(&self, slot: WarpSlot, reg: usize) -> Option<&CompressedRegister> {
        self.stored(slot, reg).map(|s| &s.value)
    }

    /// Counts (compressed, total) over one warp's allocated registers —
    /// the per-warp Fig. 12 sample.
    pub fn warp_census(&self, slot: WarpSlot) -> (usize, usize) {
        let Some(alloc) = self.warps.get(slot.0).and_then(Option::as_ref) else {
            return (0, 0);
        };
        let compressed = alloc
            .regs
            .iter()
            .filter(|r| r.value.is_compressed())
            .count();
        (compressed, alloc.regs.len())
    }

    /// Counts (compressed, total) over all currently-allocated registers —
    /// the Fig. 12 sample.
    pub fn compressed_census(&self) -> (usize, usize) {
        let mut compressed = 0;
        let mut total = 0;
        for alloc in self.warps.iter().flatten() {
            for reg in &alloc.regs {
                total += 1;
                if reg.value.is_compressed() {
                    compressed += 1;
                }
            }
        }
        (compressed, total)
    }

    /// Entry index (within each bank) where `reg` of `slot` lives.
    pub fn entry_of(&self, slot: WarpSlot, reg: usize) -> Option<usize> {
        let alloc = self.warps.get(slot.0)?.as_ref()?;
        (reg < alloc.regs.len()).then_some(alloc.base_entry + reg)
    }

    /// Direct view of one bank's state (valid-entry count, power state,
    /// counters) — for invariant checks and debugging tools.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_banks`.
    pub fn bank(&self, index: usize) -> &Bank {
        &self.banks[index]
    }

    /// Snapshot of per-bank counters, with gated intervals closed at
    /// `end_cycle`.
    pub fn stats(&self, end_cycle: u64) -> RegFileStats {
        RegFileStats {
            bank_reads: self.banks.iter().map(Bank::reads).collect(),
            bank_writes: self.banks.iter().map(Bank::writes).collect(),
            gated_cycles: self
                .banks
                .iter()
                .map(|b| b.gated_cycles_at(end_cycle))
                .collect(),
            wakeups: self.banks.iter().map(Bank::wakeups).sum(),
            total_cycles: end_cycle,
        }
    }

    fn stored(&self, slot: WarpSlot, reg: usize) -> Option<&StoredReg> {
        self.warps.get(slot.0)?.as_ref()?.regs.get(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GatingMode;
    use bdi::{BdiCodec, WarpRegister};

    fn wc_file() -> RegisterFile {
        RegisterFile::new(RegFileConfig::paper_baseline())
    }

    /// Gating with no hysteresis: banks gate the moment they empty, which
    /// makes wake-up timing exact for the tests below.
    fn eager_gating_file() -> RegisterFile {
        RegisterFile::new(RegFileConfig {
            gating_hysteresis: 0,
            ..RegFileConfig::paper_baseline()
        })
    }

    fn baseline_file() -> RegisterFile {
        RegisterFile::new(RegFileConfig {
            gating: GatingMode::Off,
            ..RegFileConfig::paper_baseline()
        })
    }

    fn compressed_zero() -> CompressedRegister {
        BdiCodec::default().compress(&WarpRegister::ZERO)
    }

    /// Writes, transparently riding out a bank wake-up stall.
    fn write_retry(
        rf: &mut RegisterFile,
        slot: WarpSlot,
        reg: usize,
        v: CompressedRegister,
        now: u64,
    ) -> usize {
        match rf.write(slot, reg, v, now) {
            Ok(n) => n,
            Err(WriteError::NotReady { ready_at }) => rf.write(slot, reg, v, ready_at).unwrap(),
            Err(e) => panic!("write failed: {e}"),
        }
    }

    #[test]
    fn allocate_read_write_round_trip() {
        let mut rf = wc_file();
        rf.allocate_warp_with(WarpSlot(0), 4, &compressed_zero(), 0)
            .unwrap();
        let codec = BdiCodec::default();
        let v = WarpRegister::from_fn(|t| 7 * t as u32);
        write_retry(&mut rf, WarpSlot(0), 2, codec.compress(&v), 0);
        let r = rf.read(WarpSlot(0), 2, 20);
        assert_eq!(codec.decompress(r.register), v);
    }

    #[test]
    fn double_allocation_rejected() {
        let mut rf = wc_file();
        rf.allocate_warp(WarpSlot(3), 4, 0).unwrap();
        assert_eq!(
            rf.allocate_warp(WarpSlot(3), 4, 0),
            Err(RegFileError::SlotInUse(WarpSlot(3)))
        );
    }

    #[test]
    fn slot_out_of_range_rejected() {
        let mut rf = wc_file();
        // 256 entries / 64 regs = 4 slots per cluster, 16 total (0..16).
        assert!(rf.allocate_warp(WarpSlot(15), 64, 0).is_ok());
        assert_eq!(
            rf.allocate_warp(WarpSlot(16), 64, 0),
            Err(RegFileError::SlotOutOfRange(WarpSlot(16)))
        );
    }

    #[test]
    fn too_many_regs_rejected() {
        let mut rf = wc_file();
        assert!(matches!(
            rf.allocate_warp(WarpSlot(0), 257, 0),
            Err(RegFileError::OutOfEntries { .. })
        ));
    }

    #[test]
    fn max_slots_matches_geometry() {
        let rf = wc_file();
        assert_eq!(rf.max_slots(21), 4 * (256 / 21)); // 48 — the Table 2 warp limit
        assert_eq!(rf.max_slots(0), 0);
    }

    #[test]
    fn uncompressed_write_touches_eight_banks() {
        let mut rf = baseline_file();
        rf.allocate_warp(WarpSlot(0), 2, 0).unwrap();
        let v = WarpRegister::from_fn(|t| (t as u32).wrapping_mul(0x9E37_79B9));
        let banks = rf
            .write(WarpSlot(0), 0, CompressedRegister::Uncompressed(v), 0)
            .unwrap();
        assert_eq!(banks, 8);
        assert_eq!(rf.read(WarpSlot(0), 0, 1).banks_accessed, 8);
    }

    #[test]
    fn compressed_write_touches_fewer_banks() {
        let mut rf = wc_file();
        rf.allocate_warp_with(WarpSlot(0), 2, &compressed_zero(), 0)
            .unwrap();
        let codec = BdiCodec::default();
        let banks = rf
            .write(WarpSlot(0), 0, codec.compress(&WarpRegister::splat(9)), 0)
            .unwrap();
        assert_eq!(banks, 1);
    }

    #[test]
    fn growing_footprint_requires_wakeup() {
        let mut rf = eager_gating_file();
        rf.allocate_warp_with(WarpSlot(0), 2, &compressed_zero(), 0)
            .unwrap();
        // Banks 1..8 of cluster 0 are gated (only bank 0 holds the <4,0>
        // zeros). Writing an uncompressed value needs all 8.
        let v = WarpRegister::from_fn(|t| (t as u32).wrapping_mul(0x85EB_CA6B));
        let err = rf
            .write(WarpSlot(0), 0, CompressedRegister::Uncompressed(v), 100)
            .unwrap_err();
        assert_eq!(err, WriteError::NotReady { ready_at: 110 });
        // Retry at ready time succeeds.
        assert_eq!(
            rf.write(WarpSlot(0), 0, CompressedRegister::Uncompressed(v), 110)
                .unwrap(),
            8
        );
    }

    #[test]
    fn shrinking_footprint_gates_upper_banks() {
        let mut rf = eager_gating_file();
        rf.allocate_warp_with(WarpSlot(0), 1, &compressed_zero(), 0)
            .unwrap();
        let v = WarpRegister::from_fn(|t| (t as u32).wrapping_mul(0x85EB_CA6B));
        // Grow to 8 banks (stalls on the wake-up of banks 1..8 first).
        write_retry(
            &mut rf,
            WarpSlot(0),
            0,
            CompressedRegister::Uncompressed(v),
            0,
        );
        // Shrink back to 1 bank: banks 1..8 of cluster 0 empty at cycle 20.
        let codec = BdiCodec::default();
        rf.write(WarpSlot(0), 0, codec.compress(&WarpRegister::splat(1)), 20)
            .unwrap();
        let stats = rf.stats(120);
        for b in 1..8 {
            assert_eq!(stats.gated_cycles[b], 100, "bank {b}");
        }
        // Bank 0 never gated after allocation at cycle 0.
        assert_eq!(stats.gated_cycles[0], 0);
    }

    #[test]
    fn hysteresis_avoids_wakeup_thrash() {
        // With the default hysteresis, an oscillating footprint close in
        // time never pays a wake-up.
        let mut rf = wc_file();
        rf.allocate_warp_with(WarpSlot(0), 1, &compressed_zero(), 0)
            .unwrap();
        let wide = CompressedRegister::Uncompressed(WarpRegister::from_fn(|t| {
            (t as u32).wrapping_mul(0x85EB_CA6B)
        }));
        let narrow = BdiCodec::default().compress(&WarpRegister::splat(1));
        for t in 0..20 {
            rf.write(WarpSlot(0), 0, wide, t * 10).unwrap();
            rf.write(WarpSlot(0), 0, narrow, t * 10 + 5).unwrap();
        }
        assert_eq!(rf.stats(200).wakeups, 0);
    }

    #[test]
    fn baseline_never_gates() {
        let mut rf = baseline_file();
        rf.allocate_warp(WarpSlot(0), 4, 0).unwrap();
        rf.free_warp(WarpSlot(0), 50);
        let stats = rf.stats(1000);
        assert!(stats.gated_cycles.iter().all(|&c| c == 0));
    }

    #[test]
    fn census_counts_compressed_registers() {
        let mut rf = wc_file();
        rf.allocate_warp_with(WarpSlot(0), 3, &compressed_zero(), 0)
            .unwrap();
        assert_eq!(rf.compressed_census(), (3, 3));
        let v = WarpRegister::from_fn(|t| (t as u32).wrapping_mul(0x85EB_CA6B));
        let _ = rf.write(WarpSlot(0), 1, CompressedRegister::Uncompressed(v), 0);
        // First write stalls on wakeup; retry after it completes.
        rf.write(WarpSlot(0), 1, CompressedRegister::Uncompressed(v), 10)
            .unwrap();
        assert_eq!(rf.compressed_census(), (2, 3));
    }

    #[test]
    fn warps_in_different_clusters_use_disjoint_banks() {
        let mut rf = baseline_file();
        rf.allocate_warp(WarpSlot(0), 2, 0).unwrap(); // cluster 0
        rf.allocate_warp(WarpSlot(1), 2, 0).unwrap(); // cluster 1
        let v = WarpRegister::splat(1);
        rf.write(WarpSlot(1), 0, CompressedRegister::Uncompressed(v), 0)
            .unwrap();
        let stats = rf.stats(1);
        assert_eq!(stats.bank_writes[0], 0);
        assert_eq!(stats.bank_writes[8], 1);
    }

    #[test]
    fn entry_mapping_packs_cluster_neighbours() {
        let mut rf = wc_file();
        rf.allocate_warp(WarpSlot(0), 10, 0).unwrap(); // cluster 0, within 0
        rf.allocate_warp(WarpSlot(4), 10, 0).unwrap(); // cluster 0, within 1
        assert_eq!(rf.entry_of(WarpSlot(0), 3), Some(3));
        assert_eq!(rf.entry_of(WarpSlot(4), 3), Some(13));
        assert_eq!(rf.entry_of(WarpSlot(4), 10), None);
    }

    #[test]
    fn write_to_unallocated_is_an_error() {
        let mut rf = wc_file();
        let v = CompressedRegister::Uncompressed(WarpRegister::ZERO);
        assert_eq!(rf.write(WarpSlot(0), 0, v, 0), Err(WriteError::Unallocated));
        rf.allocate_warp(WarpSlot(0), 2, 0).unwrap();
        assert_eq!(rf.write(WarpSlot(0), 5, v, 0), Err(WriteError::Unallocated));
    }

    #[test]
    fn try_read_returns_typed_error_for_unallocated() {
        let mut rf = wc_file();
        assert_eq!(
            rf.try_read(WarpSlot(0), 0, 0).unwrap_err(),
            ReadError::Unallocated
        );
        rf.allocate_warp(WarpSlot(0), 2, 0).unwrap();
        assert_eq!(
            rf.try_read(WarpSlot(0), 5, 0).unwrap_err(),
            ReadError::Unallocated
        );
    }

    #[test]
    fn try_read_matches_read_and_counts_banks() {
        let mut rf = wc_file();
        rf.allocate_warp_with(WarpSlot(0), 2, &compressed_zero(), 0)
            .unwrap();
        let codec = BdiCodec::default();
        let v = WarpRegister::from_fn(|t| 11 + t as u32);
        write_retry(&mut rf, WarpSlot(0), 1, codec.compress(&v), 0);
        let sample = rf.try_read(WarpSlot(0), 1, 20).unwrap();
        assert_eq!(sample.banks_accessed, 3);
        assert_eq!(sample.fault, None);
        assert_eq!(codec.decompress(&sample.register), v);
        // Bank read counters were charged exactly like read().
        assert_eq!(rf.stats(20).bank_reads[0], 1);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn armed_injector_corrupts_try_read_but_not_read() {
        use gpu_faults::{
            FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultTarget, ProtectionModel,
        };
        let plan = FaultPlan {
            seed: 0,
            specs: vec![FaultSpec {
                id: 0,
                at_write: 1,
                target: FaultTarget::Payload,
                kind: FaultKind::TransientSingle,
                bit_a: 1, // bit 1 of the base word: changes every lane
                bit_b: 0,
                stuck_bank: 0,
                stuck_bit: 0,
                stuck_value: false,
            }],
        };
        let mut rf = wc_file();
        rf.arm_faults(FaultInjector::new(
            plan,
            ProtectionModel::Unprotected,
            false,
        ));
        rf.allocate_warp_with(WarpSlot(0), 1, &compressed_zero(), 0)
            .unwrap();
        let codec = BdiCodec::default();
        let v = WarpRegister::splat(4);
        write_retry(&mut rf, WarpSlot(0), 0, codec.compress(&v), 0);
        let sample = rf.try_read(WarpSlot(0), 0, 20).unwrap();
        assert_eq!(sample.fault, Some(FaultDisposition::SilentCorruption));
        assert_ne!(codec.decompress(&sample.register), v);
        // The golden read path still sees the clean stored value.
        let clean = rf.read(WarpSlot(0), 0, 21);
        assert_eq!(codec.decompress(clean.register), v);
        let log = rf.take_fault_log().unwrap();
        assert_eq!(log.silent(), 1);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn secded_armed_injector_detects_double_flip() {
        use gpu_faults::{
            FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultTarget, ProtectionModel,
        };
        let plan = FaultPlan {
            seed: 0,
            specs: vec![FaultSpec {
                id: 0,
                at_write: 1,
                target: FaultTarget::Payload,
                kind: FaultKind::TransientDouble,
                bit_a: 1,
                bit_b: 2, // same 64-bit word as bit 1: double-error syndrome
                stuck_bank: 0,
                stuck_bit: 0,
                stuck_value: false,
            }],
        };
        let mut rf = wc_file();
        rf.arm_faults(FaultInjector::new(plan, ProtectionModel::SecDed, false));
        rf.allocate_warp_with(WarpSlot(0), 1, &compressed_zero(), 0)
            .unwrap();
        let codec = BdiCodec::default();
        write_retry(
            &mut rf,
            WarpSlot(0),
            0,
            codec.compress(&WarpRegister::splat(4)),
            0,
        );
        assert_eq!(
            rf.try_read(WarpSlot(0), 0, 20).unwrap_err(),
            ReadError::Uncorrectable
        );
        assert_eq!(rf.take_fault_log().unwrap().detected(), 1);
    }

    #[test]
    fn free_warp_allows_reallocation() {
        let mut rf = wc_file();
        rf.allocate_warp(WarpSlot(0), 4, 0).unwrap();
        rf.free_warp(WarpSlot(0), 10);
        rf.allocate_warp(WarpSlot(0), 4, 10).unwrap();
    }

    #[test]
    fn indicator_reflects_stored_form() {
        use bdi::CompressionIndicator;
        let mut rf = wc_file();
        rf.allocate_warp_with(WarpSlot(0), 1, &compressed_zero(), 0)
            .unwrap();
        assert_eq!(
            rf.indicator(WarpSlot(0), 0),
            Some(CompressionIndicator::Delta0)
        );
        let codec = BdiCodec::default();
        let v = WarpRegister::from_fn(|t| 100 + t as u32);
        write_retry(&mut rf, WarpSlot(0), 0, codec.compress(&v), 0);
        assert_eq!(
            rf.indicator(WarpSlot(0), 0),
            Some(CompressionIndicator::Delta1)
        );
        assert_eq!(rf.indicator(WarpSlot(1), 0), None);
    }
}
