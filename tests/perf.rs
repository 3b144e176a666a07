//! Suite-wide validation of the static performance bounds.
//!
//! The acceptance bars for `wcsim perf`: every one of the 18 workloads
//! is sound (no measurement beats a static cycle / bank-access / energy
//! floor, and every guaranteed-conflict site's stall floor is met), and
//! the cycle bound is tight — at least half the measured cycles — on
//! the affine/uniform-heavy kernels the analysis exists to capture.

use warped_compression::{perf_suite, perf_workload, DesignPoint};
use warped_compression_suite::prelude::*;

#[test]
fn every_workload_bound_is_sound() {
    let reports =
        perf_suite(&suite(), DesignPoint::WarpedCompression).expect("suite bounds cleanly");
    assert_eq!(reports.len(), 18);
    for r in &reports {
        assert!(
            r.comparison.measured_within_static_bound(),
            "{}: a measurement beat a static floor (cycles {} vs {}, accesses {} vs {})",
            r.kernel,
            r.comparison.static_cycles,
            r.comparison.measured_cycles,
            r.comparison.static_bank_accesses,
            r.comparison.measured_bank_accesses,
        );
        assert!(
            r.is_sound(),
            "{}: unsound conflict sites: {:?}",
            r.kernel,
            r.unsound_sites()
        );
        assert!(
            r.prediction.min_instructions <= r.measured_instructions,
            "{}: instruction floor {} beats measured {}",
            r.kernel,
            r.prediction.min_instructions,
            r.measured_instructions,
        );
    }
}

#[test]
fn uniform_kernels_get_tight_cycle_bounds() {
    // `lib`, `stencil` and `pathfinder` are uniform-control kernels
    // whose trip counts the launch-specialized tracer resolves
    // concretely; the dependence-DAG bound must recover at least half
    // of their measured cycles.
    for name in ["lib", "stencil", "pathfinder"] {
        let w = by_name(name).unwrap();
        let r = perf_workload(&w, DesignPoint::WarpedCompression).unwrap();
        assert!(
            r.cycle_tightness() >= 0.5,
            "{name}: cycle tightness {:.2} below 0.5 ({} static vs {} measured)",
            r.cycle_tightness(),
            r.comparison.static_cycles,
            r.comparison.measured_cycles,
        );
        assert!(r.prediction.is_exact(), "{name}: tracer should be exact");
    }
}

#[test]
fn baseline_design_bounds_are_also_sound() {
    // The bound is design-aware: under the baseline point there is no
    // compression latency and every access touches all 8 banks.
    let workloads = vec![by_name("lib").unwrap(), by_name("bfs").unwrap()];
    let reports = perf_suite(&workloads, DesignPoint::Baseline).unwrap();
    assert_eq!(reports.len(), 2);
    for r in &reports {
        assert_eq!(r.design, DesignPoint::Baseline.label());
        assert!(
            r.is_sound(),
            "{} (baseline): {:?}",
            r.kernel,
            r.unsound_sites()
        );
    }
}

#[test]
fn divergent_kernels_fall_back_soundly() {
    // Kernels with data-dependent branches use the serialized-path
    // floor; the bound must stay sound and the report must record the
    // approximation.
    let w = by_name("bfs").unwrap();
    let r = perf_workload(&w, DesignPoint::WarpedCompression).unwrap();
    assert!(r.is_sound());
    assert!(
        r.prediction.approx_warps > 0,
        "bfs diverges data-dependently; some warps must be approximate"
    );
}
