//! Named design points of the paper's evaluation.

use bdi::{ChoiceSet, FixedChoice};
use gpu_sim::{DivergencePolicy, GpuConfig, SchedulerPolicy};

/// A named hardware design point evaluated somewhere in §6. Each maps to
/// a complete [`GpuConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DesignPoint {
    /// The uncompressed baseline GPU (no compressor hardware, no gating).
    Baseline,
    /// Full warped-compression: dynamic ⟨4,0⟩/⟨4,1⟩/⟨4,2⟩, dummy-MOV
    /// divergence handling, bank power gating (the paper's proposal).
    WarpedCompression,
    /// §6.6 ablation: only one fixed compression choice.
    Only(FixedChoice),
    /// §5.2 alternative: decompress-merge-recompress on divergent writes
    /// instead of dummy MOVs.
    DecompressMergeRecompress,
    /// §6.5: warped-compression under the Loose Round-Robin scheduler.
    WarpedCompressionLrr,
    /// §6.4 baseline comparison point: baseline under LRR.
    BaselineLrr,
    /// Leakage-policy ablation: warped-compression with *drowsy* banks
    /// (the prior-work alternative to §5.3's power gating — 1-cycle
    /// wake-up but only partial leakage savings).
    WarpedCompressionDrowsy,
    /// §6.8 sweeps: warped-compression with explicit compression /
    /// decompression latencies.
    Latency {
        /// Compression latency in cycles (paper default 2; Fig. 20
        /// sweeps 2/4/8).
        compression: u64,
        /// Decompression latency in cycles (paper default 1; Fig. 21
        /// sweeps 2/4/8).
        decompression: u64,
    },
}

impl DesignPoint {
    /// Materialises the design point as a simulator configuration.
    pub fn config(self) -> GpuConfig {
        match self {
            DesignPoint::Baseline => GpuConfig::baseline(),
            DesignPoint::WarpedCompression => GpuConfig::warped_compression(),
            DesignPoint::Only(choice) => {
                let mut cfg = GpuConfig::warped_compression();
                cfg.compression.choices = ChoiceSet::only(choice);
                cfg
            }
            DesignPoint::DecompressMergeRecompress => {
                let mut cfg = GpuConfig::warped_compression();
                cfg.compression.divergence = DivergencePolicy::DecompressMergeRecompress;
                cfg
            }
            DesignPoint::WarpedCompressionLrr => {
                let mut cfg = GpuConfig::warped_compression();
                cfg.scheduler = SchedulerPolicy::Lrr;
                cfg
            }
            DesignPoint::BaselineLrr => {
                let mut cfg = GpuConfig::baseline();
                cfg.scheduler = SchedulerPolicy::Lrr;
                cfg
            }
            DesignPoint::WarpedCompressionDrowsy => {
                let mut cfg = GpuConfig::warped_compression();
                cfg.regfile.gating = gpu_regfile::GatingMode::Drowsy;
                cfg
            }
            DesignPoint::Latency {
                compression,
                decompression,
            } => {
                let mut cfg = GpuConfig::warped_compression();
                cfg.compression.compression_latency = compression;
                cfg.compression.decompression_latency = decompression;
                cfg
            }
        }
    }

    /// Short label for reports and figure legends.
    pub fn label(self) -> String {
        match self {
            DesignPoint::Baseline => "baseline".into(),
            DesignPoint::WarpedCompression => "warped-compression".into(),
            DesignPoint::Only(c) => format!("only{c}"),
            DesignPoint::DecompressMergeRecompress => "decompress-merge-recompress".into(),
            DesignPoint::WarpedCompressionLrr => "warped-compression-lrr".into(),
            DesignPoint::BaselineLrr => "baseline-lrr".into(),
            DesignPoint::WarpedCompressionDrowsy => "warped-compression-drowsy".into(),
            DesignPoint::Latency {
                compression,
                decompression,
            } => {
                format!("latency-c{compression}-d{decompression}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_disables_everything() {
        let cfg = DesignPoint::Baseline.config();
        assert!(!cfg.compression.is_enabled());
        assert!(!cfg.regfile.gating.is_enabled());
    }

    #[test]
    fn only_choice_restricts_the_set() {
        let cfg = DesignPoint::Only(FixedChoice::Delta1).config();
        assert_eq!(cfg.compression.choices.choices(), &[FixedChoice::Delta1]);
    }

    #[test]
    fn dmr_changes_divergence_policy_only() {
        let cfg = DesignPoint::DecompressMergeRecompress.config();
        assert_eq!(
            cfg.compression.divergence,
            DivergencePolicy::DecompressMergeRecompress
        );
        assert!(cfg.compression.is_enabled());
    }

    #[test]
    fn lrr_points_change_scheduler() {
        assert_eq!(
            DesignPoint::WarpedCompressionLrr.config().scheduler,
            SchedulerPolicy::Lrr
        );
        assert_eq!(
            DesignPoint::BaselineLrr.config().scheduler,
            SchedulerPolicy::Lrr
        );
        assert!(!DesignPoint::BaselineLrr.config().compression.is_enabled());
    }

    #[test]
    fn latency_point_sets_both_knobs() {
        let cfg = DesignPoint::Latency {
            compression: 8,
            decompression: 4,
        }
        .config();
        assert_eq!(cfg.compression.compression_latency, 8);
        assert_eq!(cfg.compression.decompression_latency, 4);
    }

    #[test]
    fn labels_are_unique() {
        let points = [
            DesignPoint::Baseline,
            DesignPoint::WarpedCompression,
            DesignPoint::Only(FixedChoice::Delta0),
            DesignPoint::Only(FixedChoice::Delta1),
            DesignPoint::Only(FixedChoice::Delta2),
            DesignPoint::DecompressMergeRecompress,
            DesignPoint::WarpedCompressionLrr,
            DesignPoint::BaselineLrr,
            DesignPoint::WarpedCompressionDrowsy,
            DesignPoint::Latency {
                compression: 4,
                decompression: 1,
            },
        ];
        let mut labels: Vec<String> = points.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), points.len());
    }
}
