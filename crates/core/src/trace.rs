//! Register-write traces: capture once, analyse many times.
//!
//! A [`WriteTrace`] records every register write of a simulation run.
//! Because compression decisions are purely a function of the written
//! values, a single captured trace can then be re-priced under *any*
//! [`ChoiceSet`] offline — the paper's §6.6 style design-space questions
//! ("what would ⟨4,1⟩-only compress?") answered without re-simulating.

use bdi::{BdiCodec, ChoiceSet, CompressionClass, WarpRegister, WARP_REGISTER_BYTES};
use gpu_sim::WriteEvent;

use crate::explorer::ChoiceBreakdown;
use crate::similarity::SimilarityHistogram;

/// A recorded stream of register writes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WriteTrace {
    values: Vec<WarpRegister>,
    divergent: Vec<bool>,
}

impl WriteTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one write event (synthetic MOVs are skipped — they rewrite
    /// existing values).
    pub fn record(&mut self, event: &WriteEvent) {
        if event.synthetic {
            return;
        }
        self.values.push(event.value);
        self.divergent.push(event.divergent);
    }

    /// Number of recorded writes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates `(value, divergent)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&WarpRegister, bool)> + '_ {
        self.values.iter().zip(self.divergent.iter().copied())
    }

    /// The compression ratio this trace would achieve under `choices`,
    /// with divergent writes stored uncompressed (the §5.2 policy).
    pub fn compression_ratio_under(&self, choices: &ChoiceSet) -> f64 {
        let codec = BdiCodec::new(choices.clone());
        let mut logical = 0u64;
        let mut stored = 0u64;
        for (value, divergent) in self.iter() {
            logical += WARP_REGISTER_BYTES as u64;
            stored += if divergent {
                WARP_REGISTER_BYTES as u64
            } else {
                codec.compress(value).stored_len() as u64
            };
        }
        if stored == 0 {
            1.0
        } else {
            logical as f64 / stored as f64
        }
    }

    /// The Fig. 2 similarity histogram of the trace.
    pub fn similarity(&self) -> SimilarityHistogram {
        let mut h = SimilarityHistogram::new();
        for (value, divergent) in self.iter() {
            h.record(&replay_event(*value, divergent));
        }
        h
    }

    /// The Fig. 5 full-BDI breakdown of the trace.
    pub fn breakdown(&self) -> ChoiceBreakdown {
        let mut b = ChoiceBreakdown::new();
        for (value, divergent) in self.iter() {
            b.record(&replay_event(*value, divergent));
        }
        b
    }
}

/// Traces record only what the offline collectors consume; pc and the
/// stored compression class are meaningful only during a live run.
fn replay_event(value: WarpRegister, divergent: bool) -> WriteEvent {
    WriteEvent {
        pc: 0,
        value,
        class: CompressionClass::Uncompressed,
        divergent,
        synthetic: false,
    }
}

impl Extend<WriteEvent> for WriteTrace {
    fn extend<T: IntoIterator<Item = WriteEvent>>(&mut self, iter: T) {
        for e in iter {
            self.record(&e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdi::FixedChoice;

    fn event(value: WarpRegister, divergent: bool) -> WriteEvent {
        replay_event(value, divergent)
    }

    fn sample_trace() -> WriteTrace {
        let mut t = WriteTrace::new();
        t.record(&event(WarpRegister::splat(7), false)); // <4,0>
        t.record(&event(WarpRegister::from_fn(|l| l as u32), false)); // <4,1>
        t.record(&event(
            WarpRegister::from_fn(|l| (l as u32).wrapping_mul(0x9E37_79B9)),
            false,
        ));
        t.record(&event(WarpRegister::splat(1), true)); // divergent: stored raw
        t
    }

    #[test]
    fn records_and_iterates() {
        let t = sample_trace();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.iter().filter(|(_, d)| *d).count(), 1);
    }

    #[test]
    fn synthetic_events_are_skipped() {
        let mut t = WriteTrace::new();
        t.record(&WriteEvent {
            synthetic: true,
            ..replay_event(WarpRegister::ZERO, false)
        });
        assert!(t.is_empty());
    }

    #[test]
    fn ratio_under_respects_choice_set() {
        let t = sample_trace();
        let full = t.compression_ratio_under(&ChoiceSet::warped_compression());
        let d0 = t.compression_ratio_under(&ChoiceSet::only(FixedChoice::Delta0));
        let none = t.compression_ratio_under(&ChoiceSet::disabled());
        assert!(full > d0, "dynamic {full} should beat <4,0>-only {d0}");
        assert!((none - 1.0).abs() < 1e-12);
        // 4 writes of 128 B; stored: 4 + 35 + 128 + 128 = 295.
        assert!((full - 512.0 / 295.0).abs() < 1e-12);
    }

    #[test]
    fn trace_analyses_match_online_collectors() {
        // Replaying the trace through the similarity/breakdown collectors
        // must equal feeding events online.
        let t = sample_trace();
        let sim = t.similarity();
        assert_eq!(sim.total(false), 3);
        assert_eq!(sim.total(true), 1);
        let br = t.breakdown();
        assert_eq!(br.total(), 4);
        assert_eq!(br.uncompressed(), 1);
    }

    #[test]
    fn extend_collects_events() {
        let mut t = WriteTrace::new();
        t.extend(vec![
            event(WarpRegister::splat(1), false),
            event(WarpRegister::splat(2), true),
        ]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn trace_from_a_real_run_predicts_the_run_ratio() {
        // Capture a trace from one simulation and check the offline ratio
        // matches the simulator's own nondivergent accounting.
        use crate::design::DesignPoint;
        let w = gpu_workloads::by_name("lib").unwrap();
        let mut trace = WriteTrace::new();
        let mut memory = w.fresh_memory();
        let result = gpu_sim::GpuSim::new(DesignPoint::WarpedCompression.config())
            .run_observed(w.kernel(), w.launch(), &mut memory, &mut |e| {
                trace.record(e)
            })
            .unwrap();
        let offline = trace.compression_ratio_under(&ChoiceSet::warped_compression());
        let online = result.stats.compression_ratio();
        assert!(
            (offline - online).abs() < 1e-9,
            "offline {offline} vs online {online}"
        );
    }
}
