//! Memoised simulation campaign: one run per (design point, workload).

use std::collections::HashMap;

use gpu_workloads::Workload;
use rayon::prelude::*;
use warped_compression::{run_suite, DesignPoint, RunOutput};

/// Runs and caches suite results per design point, so the ~20 figures
/// share simulations instead of re-running them.
///
/// Keyed directly by [`DesignPoint`] (`Copy + Eq + Hash`), so lookups
/// never allocate a label string.
pub struct Campaign {
    workloads: Vec<Workload>,
    cache: HashMap<DesignPoint, Vec<RunOutput>>,
}

impl Campaign {
    /// A campaign over an explicit workload list (tests use small lists).
    pub fn new(workloads: Vec<Workload>) -> Self {
        assert!(
            !workloads.is_empty(),
            "campaign needs at least one workload"
        );
        Campaign {
            workloads,
            cache: HashMap::new(),
        }
    }

    /// A campaign over the full 18-benchmark suite.
    pub fn full_suite() -> Self {
        Campaign::new(gpu_workloads::suite())
    }

    /// The benchmark names, in figure order.
    pub fn names(&self) -> Vec<&str> {
        self.workloads.iter().map(|w| w.name()).collect()
    }

    /// The workloads themselves.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// Results for one design point, simulating on first use.
    ///
    /// # Panics
    ///
    /// Panics if a simulation fails — the suite workloads are validated
    /// to run cleanly under every design point, so failure is a bug.
    pub fn results(&mut self, point: DesignPoint) -> &[RunOutput] {
        self.cache.entry(point).or_insert_with(|| {
            run_suite(&point.config(), &self.workloads)
                .unwrap_or_else(|e| panic!("design point {} failed: {e}", point.label()))
        })
    }

    /// Simulates every not-yet-cached design point concurrently, so later
    /// [`results`](Self::results) calls are cache hits.
    ///
    /// Design points fan out in parallel and each point's suite fans out
    /// across workloads in turn (a shared thread budget prevents
    /// oversubscription). Simulations are deterministic and results land
    /// in the cache keyed by point, so figure output is byte-identical to
    /// running every point serially. Duplicate entries in `points` are
    /// simulated once.
    ///
    /// # Panics
    ///
    /// Panics if a simulation fails, like [`results`](Self::results).
    pub fn prefetch(&mut self, points: &[DesignPoint]) {
        let mut missing: Vec<DesignPoint> = Vec::new();
        for &p in points {
            if !self.cache.contains_key(&p) && !missing.contains(&p) {
                missing.push(p);
            }
        }
        let runs: Vec<(DesignPoint, Vec<RunOutput>)> = missing
            .par_iter()
            .map(|&p| {
                let runs = run_suite(&p.config(), &self.workloads)
                    .unwrap_or_else(|e| panic!("design point {} failed: {e}", p.label()));
                (p, runs)
            })
            .collect();
        self.cache.extend(runs);
    }

    /// Number of design points simulated so far.
    pub fn points_run(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Campaign {
        Campaign::new(vec![gpu_workloads::by_name("lib").unwrap()])
    }

    #[test]
    fn results_are_memoised() {
        let mut c = tiny();
        let cycles_first = c.results(DesignPoint::WarpedCompression)[0].stats.cycles;
        assert_eq!(c.points_run(), 1);
        let cycles_again = c.results(DesignPoint::WarpedCompression)[0].stats.cycles;
        assert_eq!(c.points_run(), 1, "second call must hit the cache");
        assert_eq!(cycles_first, cycles_again);
    }

    #[test]
    fn prefetch_fills_cache_and_matches_serial_runs() {
        let mut c = tiny();
        // Duplicates collapse; both points land in the cache.
        c.prefetch(&[
            DesignPoint::Baseline,
            DesignPoint::WarpedCompression,
            DesignPoint::Baseline,
        ]);
        assert_eq!(c.points_run(), 2);
        let cycles = c.results(DesignPoint::Baseline)[0].stats.cycles;
        assert_eq!(
            c.points_run(),
            2,
            "results after prefetch must hit the cache"
        );
        // A prefetched run is identical to a lazily-run one.
        let mut serial = tiny();
        assert_eq!(
            serial.results(DesignPoint::Baseline)[0].stats.cycles,
            cycles
        );
    }

    #[test]
    fn names_match_workloads() {
        let c = tiny();
        assert_eq!(c.names(), vec!["lib"]);
        assert_eq!(c.workloads().len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_campaign_rejected() {
        let _ = Campaign::new(Vec::new());
    }
}
