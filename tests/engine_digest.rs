//! The dynamic engine's complete statistics, pinned per (design, kernel).
//!
//! Every suite kernel runs under six design points that between them
//! reach every engine path: the baseline, warped-compression, the LRR
//! scheduler, decompress-merge-recompress, a single-choice codec and a
//! slower compressor/decompressor. Each run's `SimStats` is hashed field
//! by field — per-pc stall attribution, per-pc memory traffic, the
//! census, every per-bank register-file counter and the cycle count
//! included — and compared against `tests/data/engine_digest.txt`.
//!
//! A second table, `tests/data/engine_digest_fuzz.txt`, pins the same
//! six design points over 200 random kernels from the fuzzer's
//! generator (seed 42), each with its own launch geometry and initial
//! memory image. Random kernels reach divergence, injected MOVs and
//! LSU-order stalls in mixes the suite does not. A run that fails would
//! be pinned by its error text; none of these 200 fails today.
//!
//! A third, small table pins the engine's failing exits: a kernel that
//! spins past its cycle cap (`CycleLimit`) and one that stores past the
//! end of global memory (`MemoryAt`), each under the same six designs
//! and hashed by its error text.
//!
//! A change meant only to make the engine faster must leave both tables
//! untouched. On a mismatch the test prints the table it computed to
//! stderr, so a change that is *meant* to alter timing can commit the
//! new table alongside its justification.

mod digest;

use digest::{assert_table_matches, text_digest, Fnv};
use warped_compression_suite::isa::assemble;
use warped_compression_suite::prelude::*;
use warped_compression_suite::sim::{SimError, SimStats, StallCause};
use warped_compression_suite::wc::{FuzzCase, DEFAULT_CYCLE_BUDGET};

const TABLE: &str = include_str!("data/engine_digest.txt");
const FUZZ_TABLE: &str = include_str!("data/engine_digest_fuzz.txt");

/// Random kernels pinned by the fuzz table.
const FUZZ_CASES: usize = 200;

fn designs() -> [DesignPoint; 6] {
    [
        DesignPoint::Baseline,
        DesignPoint::WarpedCompression,
        DesignPoint::WarpedCompressionLrr,
        DesignPoint::DecompressMergeRecompress,
        DesignPoint::Only(FixedChoice::Delta1),
        DesignPoint::Latency {
            compression: 4,
            decompression: 4,
        },
    ]
}

/// Digest of every field of `s`. The exhaustive destructuring makes a
/// new `SimStats` field a compile error here until it is hashed too.
fn digest(s: &SimStats) -> u64 {
    let SimStats {
        cycles,
        instructions,
        synthetic_movs,
        divergent_instructions,
        writes,
        writes_compressed,
        nondiv_logical_bytes,
        nondiv_stored_bytes,
        div_logical_bytes,
        div_stored_bytes,
        compressor_activations,
        decompressor_activations,
        collector_retry_cycles,
        stalls,
        mem,
        census,
        regfile,
        gating,
    } = s;
    let mut h = Fnv::new();
    h.words(&[
        *cycles,
        *instructions,
        *synthetic_movs,
        *divergent_instructions,
        *writes,
        *writes_compressed,
        *nondiv_logical_bytes,
        *nondiv_stored_bytes,
        *div_logical_bytes,
        *div_stored_bytes,
        *compressor_activations,
        *decompressor_activations,
        *collector_retry_cycles,
    ]);
    h.word(stalls.by_pc.len() as u64);
    for (&pc, p) in &stalls.by_pc {
        h.word(pc as u64);
        for cause in StallCause::ALL {
            h.word(p.get(cause));
        }
    }
    h.word(mem.by_pc.len() as u64);
    for (&pc, t) in &mem.by_pc {
        h.words(&[pc as u64, t.accesses, t.transactions]);
    }
    h.words(&[
        census.nondiv_compressed,
        census.nondiv_total,
        census.div_compressed,
        census.div_total,
    ]);
    h.words(&regfile.bank_reads);
    h.words(&regfile.bank_writes);
    h.words(&regfile.gated_cycles);
    h.words(&[regfile.wakeups, regfile.total_cycles]);
    h.text(&format!("{gating:?}"));
    h.0
}

/// The suite table as this build computes it, one `design kernel
/// cycles digest` row per run.
fn computed() -> String {
    let suite = suite();
    let mut out = String::new();
    for design in designs() {
        let runs = warped_compression_suite::wc::run_suite(&design.config(), &suite)
            .expect("suite runs cleanly");
        for r in runs {
            out.push_str(&format!(
                "{} {} {} {:016x}\n",
                design.label(),
                r.name,
                r.stats.cycles,
                digest(&r.stats)
            ));
        }
    }
    out
}

/// The fuzz table as this build computes it: one `design case cycles
/// digest` row per run, or `design case err digest-of-error-text` for a
/// run that fails. Each run gets the fuzzer's cycle budget.
fn computed_fuzz() -> String {
    let cases: Vec<FuzzCase> = (0..FUZZ_CASES).map(|i| FuzzCase::generate(42, i)).collect();
    let mut out = String::new();
    for design in designs() {
        let mut cfg = design.config();
        cfg.max_cycles = cfg.max_cycles.min(DEFAULT_CYCLE_BUDGET);
        let sim = GpuSim::new(cfg);
        for case in &cases {
            let mut image = case.init_words.clone();
            image.resize(case.mem_words, 0);
            let mut memory = GlobalMemory::from_words(image);
            let launch = LaunchConfig::new(case.blocks, case.threads_per_block);
            let row = match sim.run(&case.kernel, &launch, &mut memory) {
                Ok(r) => format!("{} {:016x}", r.stats.cycles, digest(&r.stats)),
                Err(e) => format!("err {:016x}", text_digest(&e.to_string())),
            };
            out.push_str(&format!(
                "{} {} {row}\n",
                design.label(),
                case.kernel.name()
            ));
        }
    }
    out
}

/// A kernel that never exits: each warp spins on a backward `jmp`.
const SPIN: &str = "
.kernel spin regs 2
    mov r0, %tid
@top:
    mul r1, r0, 3
    add r0, r1, 1
    jmp @top
";

/// A kernel whose last warps store past the end of a 64-word memory.
const OOB_STORE: &str = "
.kernel oob_store regs 2
    mov r0, %gtid
    add r1, r0, 7
    st [r0+0], r1
    exit
";

/// The cycle cap the spinning kernel runs into.
const SPIN_CAP: u64 = 5_000;

/// Each failing run's `design kernel err digest-of-error-text` row, as
/// pinned when the table was generated.
const FAILING_TABLE: &str = "\
baseline spin err 278ddea14fa82357
baseline oob_store err f138dcb8908859ff
warped-compression spin err 278ddea14fa82357
warped-compression oob_store err f138dcb8908859ff
warped-compression-lrr spin err 278ddea14fa82357
warped-compression-lrr oob_store err f138dcb8908859ff
decompress-merge-recompress spin err 278ddea14fa82357
decompress-merge-recompress oob_store err f138dcb8908859ff
only<4,1> spin err 278ddea14fa82357
only<4,1> oob_store err f138dcb8908859ff
latency-c4-d4 spin err 278ddea14fa82357
latency-c4-d4 oob_store err f138dcb8908859ff
";

/// The failing-exits table as this build computes it. Each run must
/// fail the way its kernel was built to, so a regenerated table cannot
/// pin a different exit.
fn computed_failing() -> String {
    let spin = assemble(SPIN).expect("spin assembles");
    let oob = assemble(OOB_STORE).expect("oob_store assembles");
    let mut out = String::new();
    for design in designs() {
        let mut cfg = design.config();
        cfg.max_cycles = SPIN_CAP;
        let err = GpuSim::new(cfg)
            .run(
                &spin,
                &LaunchConfig::new(2, 64),
                &mut GlobalMemory::zeroed(64),
            )
            .expect_err("spin never exits");
        assert!(
            matches!(err, SimError::CycleLimit { limit: SPIN_CAP }),
            "{err}"
        );
        out.push_str(&format!(
            "{} spin err {:016x}\n",
            design.label(),
            text_digest(&err.to_string())
        ));
        let err = GpuSim::new(design.config())
            .run(
                &oob,
                &LaunchConfig::new(2, 48),
                &mut GlobalMemory::zeroed(64),
            )
            .expect_err("oob_store faults");
        assert!(matches!(err, SimError::MemoryAt { .. }), "{err}");
        out.push_str(&format!(
            "{} oob_store err {:016x}\n",
            design.label(),
            text_digest(&err.to_string())
        ));
    }
    out
}

#[test]
fn engine_statistics_match_the_committed_table() {
    assert_table_matches(TABLE, &computed(), "18 kernels x 6 designs");
}

#[test]
fn engine_statistics_on_random_kernels_match_the_committed_table() {
    assert_table_matches(FUZZ_TABLE, &computed_fuzz(), "200 fuzz kernels x 6 designs");
}

#[test]
fn failing_exits_match_the_pinned_table() {
    assert_table_matches(
        FAILING_TABLE,
        &computed_failing(),
        "2 failing kernels x 6 designs",
    );
}

#[test]
fn digest_sees_per_pc_attribution() {
    // Moving one stall or one transaction to another pc, with totals
    // unchanged, must change the digest.
    let mut a = SimStats::default();
    a.stalls.record(3, StallCause::Scoreboard);
    a.mem.record(5, 2);
    let mut b = SimStats::default();
    b.stalls.record(4, StallCause::Scoreboard);
    b.mem.record(5, 2);
    assert_ne!(digest(&a), digest(&b));
    let mut c = SimStats::default();
    c.stalls.record(3, StallCause::Scoreboard);
    c.mem.record(6, 2);
    assert_ne!(digest(&a), digest(&c));
    assert_eq!(digest(&a), digest(&a.clone()));
}
