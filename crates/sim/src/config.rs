//! Simulator configuration (the paper's Table 2).

use bdi::ChoiceSet;
use gpu_regfile::RegFileConfig;
use simt_isa::LatencyClass;

/// Warp scheduling policy (§6.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerPolicy {
    /// Greedy-Then-Oldest: keep issuing from the same warp until it
    /// stalls, then switch to the oldest ready warp (Table 2 default).
    Gto,
    /// Loose Round-Robin: rotate to the next ready warp every cycle.
    Lrr,
}

/// How divergent register writes interact with compression (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DivergencePolicy {
    /// The paper's choice: registers written by divergent instructions
    /// are stored uncompressed; a compressed destination is first
    /// decompressed by an injected dummy MOV.
    UncompressedWrites,
    /// The rejected alternative: read + decompress the old value, merge
    /// the active lanes, recompress, store. No MOVs, but extra reads,
    /// decompressions and compressor work on every divergent write.
    DecompressMergeRecompress,
}

/// Compression datapath configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressionConfig {
    /// The BDI choices the compressor may use. `ChoiceSet::disabled()`
    /// yields the no-compression baseline.
    pub choices: ChoiceSet,
    /// Divergent-write handling.
    pub divergence: DivergencePolicy,
    /// Compression pipeline latency in cycles (Table 2: 2; Fig. 20 sweeps
    /// 2/4/8).
    pub compression_latency: u64,
    /// Decompression pipeline latency in cycles (Table 2: 1; Fig. 21
    /// sweeps 2/4/8).
    pub decompression_latency: u64,
    /// Compressor units per SM (Table 2: 2) — at most this many
    /// compressions can start per cycle.
    pub num_compressors: usize,
    /// Decompressor units per SM (Table 2: 4) — at most this many
    /// compressed-operand reads can start per cycle.
    pub num_decompressors: usize,
}

impl CompressionConfig {
    /// The paper's warped-compression configuration.
    pub fn warped_compression() -> Self {
        CompressionConfig {
            choices: ChoiceSet::warped_compression(),
            divergence: DivergencePolicy::UncompressedWrites,
            compression_latency: 2,
            decompression_latency: 1,
            num_compressors: 2,
            num_decompressors: 4,
        }
    }

    /// The uncompressed baseline: no compressor hardware at all.
    pub fn disabled() -> Self {
        CompressionConfig {
            choices: ChoiceSet::disabled(),
            ..CompressionConfig::warped_compression()
        }
    }

    /// Whether compression is active.
    pub fn is_enabled(&self) -> bool {
        !self.choices.is_disabled()
    }
}

/// Full single-SM configuration.
///
/// Constructors [`GpuConfig::baseline`] and
/// [`GpuConfig::warped_compression`] give the two designs the paper
/// compares; everything else is a field tweak away.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuConfig {
    /// Maximum resident warps per SM (Table 2: 48).
    pub max_warps_per_sm: usize,
    /// Warp schedulers per SM (Table 2: 2); warp slot *s* belongs to
    /// scheduler `s % num_schedulers`.
    pub num_schedulers: usize,
    /// Scheduling policy (Table 2: GTO).
    pub scheduler: SchedulerPolicy,
    /// Operand-collector units buffering in-flight operand fetches.
    pub num_collectors: usize,
    /// Dependent-issue latency of simple ALU ops, cycles.
    pub alu_latency: u64,
    /// Latency of mul/div (SFU-class) ops, cycles.
    pub sfu_latency: u64,
    /// Global memory round-trip latency, cycles.
    pub mem_latency: u64,
    /// Register file geometry and gating.
    pub regfile: RegFileConfig,
    /// Compression datapath.
    pub compression: CompressionConfig,
    /// Cycles interval at which the Fig. 12 compressed-register census is
    /// sampled.
    pub census_interval: u64,
    /// Hard cycle cap — exceeding it aborts the run with
    /// [`SimError::CycleLimit`](crate::SimError).
    pub max_cycles: u64,
}

impl GpuConfig {
    /// The paper's baseline GPU: no compression, no power gating.
    pub fn baseline() -> Self {
        GpuConfig {
            max_warps_per_sm: 48,
            num_schedulers: 2,
            scheduler: SchedulerPolicy::Gto,
            num_collectors: 8,
            alu_latency: 4,
            sfu_latency: 16,
            mem_latency: 100,
            regfile: RegFileConfig {
                gating: gpu_regfile::GatingMode::Off,
                ..RegFileConfig::paper_baseline()
            },
            compression: CompressionConfig::disabled(),
            census_interval: 128,
            max_cycles: 200_000_000,
        }
    }

    /// The paper's warped-compression GPU: BDI compression with dynamic
    /// ⟨4,0⟩/⟨4,1⟩/⟨4,2⟩ selection, dummy-MOV divergence handling and
    /// bank-level power gating.
    pub fn warped_compression() -> Self {
        GpuConfig {
            regfile: RegFileConfig::paper_baseline(),
            compression: CompressionConfig::warped_compression(),
            ..GpuConfig::baseline()
        }
    }

    /// Cycles from dispatch until a result of latency class `class` is
    /// ready for writeback.
    pub fn latency(&self, class: LatencyClass) -> u64 {
        match class {
            LatencyClass::Sfu => self.sfu_latency,
            LatencyClass::Memory => self.mem_latency,
            LatencyClass::Alu | LatencyClass::Control => self.alu_latency,
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::warped_compression()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_no_compression_or_gating() {
        let c = GpuConfig::baseline();
        assert!(!c.compression.is_enabled());
        assert!(!c.regfile.gating.is_enabled());
    }

    #[test]
    fn warped_compression_matches_table_2() {
        let c = GpuConfig::warped_compression();
        assert!(c.compression.is_enabled());
        assert!(c.regfile.gating.is_enabled());
        assert_eq!(c.compression.compression_latency, 2);
        assert_eq!(c.compression.decompression_latency, 1);
        assert_eq!(c.compression.num_compressors, 2);
        assert_eq!(c.compression.num_decompressors, 4);
        assert_eq!(c.max_warps_per_sm, 48);
        assert_eq!(c.num_schedulers, 2);
        assert_eq!(c.scheduler, SchedulerPolicy::Gto);
    }
}
