//! Fault-injection integration tests (`cargo test --features faults`).
//!
//! These exercise the full stack the `wcsim faults` subcommand is built
//! on: the seeded fault campaign must be bit-for-bit deterministic, and
//! the resilient runner must isolate a panicking item without losing
//! the other kernels' results. With the `sanitize` feature also on, the
//! shadow register file cross-checks every fault classification the
//! injector makes.

#![cfg(feature = "faults")]

use gpu_faults::ProtectionModel;
use gpu_workloads::{by_name, suite, Workload};
use warped_compression::{
    run_fault_campaign, run_many_resilient, DesignPoint, RunStatus, DEFAULT_SEED,
};

/// Same campaign seed ⇒ identical records, field for field — the
/// property `wcsim faults` relies on for byte-identical reports.
#[test]
fn fault_campaign_is_deterministic_for_equal_seeds() {
    let workloads: Vec<Workload> = ["lib", "aes", "pathfinder"]
        .iter()
        .map(|n| by_name(n).expect("workload exists"))
        .collect();
    let run = || run_fault_campaign(&workloads, ProtectionModel::SecDed, 6, DEFAULT_SEED);
    let a = run();
    let b = run();
    assert_eq!(a.len(), 3);
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.name, rb.name);
        assert_eq!(ra.status, rb.status, "{}: report must be stable", ra.name);
        let report = ra.status.output().expect("SEC-DED campaign completes");
        assert_eq!(
            report.log.events.len(),
            6,
            "{}: every fault accounted",
            ra.name
        );
        assert_eq!(
            report.log.silent(),
            0,
            "{}: ECC masks single-bit flips",
            ra.name
        );
    }
}

/// A deliberately panicking 19th item must not cost the 18 real
/// workloads their results: the report degrades to partial, in input
/// order, with the panic captured in its record.
#[test]
fn panicking_item_yields_partial_report_for_the_rest() {
    let mut names: Vec<String> = suite().iter().map(|w| w.name().to_string()).collect();
    names.insert(4, "poison".to_string());
    let cfg = DesignPoint::WarpedCompression.config();
    let records = run_many_resilient(&names, &|n: &String| n.clone(), &|n: &String| {
        if n == "poison" {
            panic!("deliberate test panic");
        }
        let w = by_name(n).expect("workload exists");
        let mut memory = w.fresh_memory();
        gpu_sim::GpuSim::new(cfg.clone()).run(w.kernel(), w.launch(), &mut memory)
    });
    assert_eq!(records.len(), 19);
    for (record, name) in records.iter().zip(&names) {
        assert_eq!(&record.name, name, "records stay in input order");
    }
    let (poisoned, rest): (Vec<_>, Vec<_>) = records.iter().partition(|r| r.name == "poison");
    match &poisoned[0].status {
        RunStatus::Panicked { message, .. } => {
            assert!(message.contains("deliberate test panic"), "got: {message}");
        }
        other => panic!("poison item must be recorded as panicked, got {other:?}"),
    }
    assert_eq!(rest.len(), 18);
    for r in rest {
        let run = r.status.output();
        assert!(run.is_some(), "{} must survive the poison item", r.name);
        assert!(run.unwrap().is_ok(), "{} must simulate cleanly", r.name);
    }
}

/// Negative test: the sanitizer's shadow register file must *detect* an
/// unprotected flip — `matches` is the primitive the simulator uses to
/// cross-check the injector's silent-corruption classification.
#[cfg(feature = "sanitize")]
#[test]
fn shadow_file_catches_an_unprotected_flip() {
    use bdi::WarpRegister;
    use gpu_regfile::{ShadowRegisterFile, WarpSlot};

    let mut shadow = ShadowRegisterFile::new();
    let slot = WarpSlot(0);
    shadow.allocate_warp(slot, 4, WarpRegister::from_fn(|_| 0));
    let clean = WarpRegister::from_fn(|tid| 0x800 + tid as u32);
    shadow.record_write(slot, 2, &clean);
    assert!(shadow.matches(slot, 2, &clean));

    let mut flipped = clean;
    flipped.set_lane(7, flipped.lane(7) ^ (1 << 13));
    assert!(
        !shadow.matches(slot, 2, &flipped),
        "a single-bit flip must not slip past the shadow file"
    );
}

/// With `sanitize` on, the simulator asserts every silent corruption
/// the injector reports really did diverge from the shadow value (and
/// every clean read really is clean) — so an unprotected campaign
/// completing *is* the cross-check passing.
#[cfg(feature = "sanitize")]
#[test]
fn unprotected_campaign_classifications_survive_sanitizer_cross_check() {
    let workloads = vec![by_name("pathfinder").expect("workload exists")];
    let records = run_fault_campaign(&workloads, ProtectionModel::Unprotected, 8, DEFAULT_SEED);
    assert_eq!(records.len(), 1);
    // A corrupted address register may legitimately fault downstream
    // (the report then says `completed: false`); what must NOT happen is
    // a sanitizer panic (misclassification).
    assert!(
        records[0].status.output().is_some(),
        "expected completion or a reported fault"
    );
}
