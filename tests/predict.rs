//! Suite-wide validation of the static compressibility prediction.
//!
//! The acceptance bars for `wcsim predict`: zero unsound misses across
//! all 18 workloads, a conservative static gateable-bank bound for
//! every kernel, a high exact-site fraction on the affine/uniform-heavy
//! kernels, and uniform-branch verdicts that agree with the simulator's
//! divergence counters.

use simt_analysis::{analyze, analyze_with_launch};
use simt_isa::Kernel;
use warped_compression::{
    predict_suite, run_workload, static_prediction, DesignPoint, FuzzCase, LaunchFacts,
};
use warped_compression_suite::prelude::*;

#[test]
fn no_workload_has_an_unsound_site() {
    let reports = predict_suite(&suite()).expect("suite predicts cleanly");
    assert_eq!(reports.len(), 18);
    for r in &reports {
        assert_eq!(
            r.unsound_count(),
            0,
            "{}: a write stored a larger form than statically predicted: {:?}",
            r.kernel,
            r.sites
                .iter()
                .filter(|s| s.outcome == warped_compression::SiteOutcome::UnsoundMiss)
                .collect::<Vec<_>>()
        );
        assert!(
            r.comparison.measured_within_static_bound(),
            "{}: static bound {} exceeds measured gated banks {}",
            r.kernel,
            r.comparison.static_gateable_banks_per_write,
            r.comparison.measured_gated_banks_per_write
        );
        assert!(r.is_sound(), "{}", r.kernel);
    }
}

#[test]
fn affine_heavy_kernels_get_mostly_exact_classes() {
    // `lib` and `pathfinder` are built from uniform scalars and affine
    // thread-index arithmetic — the shapes the abstract domain exists
    // to capture. The prediction must be exact (and informative) on a
    // solid majority of their write sites.
    for name in ["lib", "pathfinder"] {
        let w = by_name(name).unwrap();
        let r = warped_compression::predict_workload(&w).unwrap();
        assert!(
            r.exact_fraction() >= 0.6,
            "{name}: exact fraction {:.2} below 0.6",
            r.exact_fraction()
        );
        assert!(
            r.prediction.informative_fraction() >= 0.6,
            "{name}: informative fraction {:.2} below 0.6",
            r.prediction.informative_fraction()
        );
    }
}

#[test]
fn uniform_branch_verdicts_agree_with_divergence_counters() {
    // Static claim: a kernel whose every branch is provably uniform
    // never issues a divergent instruction. Checked against the
    // simulator's own counter for all 18 workloads.
    let mut saw_all_uniform = false;
    let mut saw_divergent = false;
    for w in suite() {
        let prediction = analyze(w.kernel()).prediction.expect("workloads verify");
        let all_uniform = prediction.branches.iter().all(|b| b.uniform);
        let run = run_workload(&DesignPoint::WarpedCompression.config(), &w).unwrap();
        if all_uniform {
            saw_all_uniform = true;
            assert_eq!(
                run.stats.divergent_instructions,
                0,
                "{}: every branch is statically uniform, yet the run diverged",
                w.name()
            );
        } else {
            saw_divergent = true;
        }
    }
    // The suite must exercise both sides of the cross-check.
    assert!(saw_all_uniform, "no workload is fully uniform");
    assert!(saw_divergent, "no workload has a non-uniform branch");
}

#[test]
fn bfs_diverges_and_its_branch_is_not_called_uniform() {
    let w = by_name("bfs").unwrap();
    let prediction = analyze(w.kernel()).prediction.unwrap();
    assert!(
        prediction.branches.iter().any(|b| !b.uniform),
        "bfs has a per-thread loop; some branch must be non-uniform"
    );
    let run = run_workload(&DesignPoint::WarpedCompression.config(), &w).unwrap();
    assert!(run.stats.divergent_instructions > 0);
}

/// The predict gate's static claim for `kernel` launched as `launch`
/// over `memory`, checked against what the full lint pipeline reports
/// for the same launch, so `wcsim predict` and `wcsim analyze` cannot
/// drift apart.
fn assert_claim_matches_analyze(kernel: &Kernel, launch: &LaunchConfig, memory: &GlobalMemory) {
    let facts = LaunchFacts::new(launch, memory, false);
    let analyzed = analyze_with_launch(kernel, Some(&facts.info)).prediction;
    assert_eq!(
        Some(static_prediction(kernel, launch, memory)),
        analyzed,
        "{}: the predict gate's claim differs from analyze's",
        kernel.name()
    );
}

#[test]
fn predict_claim_equals_the_lint_pipelines_prediction() {
    for w in suite() {
        assert_claim_matches_analyze(w.kernel(), w.launch(), &w.fresh_memory());
    }
    for case in (0..200).map(|i| FuzzCase::generate(42, i)) {
        let mut image = case.init_words.clone();
        image.resize(case.mem_words, 0);
        let launch = LaunchConfig::new(case.blocks, case.threads_per_block);
        assert_claim_matches_analyze(&case.kernel, &launch, &GlobalMemory::from_words(image));
    }
}
