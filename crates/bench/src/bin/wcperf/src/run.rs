//! One benchmark run: set-up, verification, warm-up, the timed passes
//! and, for a traced run, the traced passes.

use std::collections::BTreeMap;
use std::time::Instant;

use warped_compression::catch_panic;

use crate::metrics::{layer_values, RUN_LEVEL};
use crate::stats::{fastest_samples, median, pass_seconds, percentile, reportable_percentile};
use crate::trace::{chrome_trace, Counters, Recorder};
use crate::workloads::{self, Bench};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Latency samples the percentiles need: p95 of 200 keeps ten beyond.
const MIN_SAMPLES: usize = 200;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where a traced run writes its Chrome trace (default under the
    /// cargo target directory).
    pub trace_out: Option<String>,
}

pub struct RunReport {
    pub passes: usize,
    pub ops_per_pass: usize,
    /// Latency samples the percentiles are taken over.
    pub samples: usize,
    /// The percentile `op_ms_p95` stands for must have ten samples
    /// beyond it; this is the highest that does.
    pub reportable: Option<f64>,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// End-to-end metrics of the untraced passes, in catalogue order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics of the traced passes (traced runs only).
    pub per_layer: Option<BTreeMap<&'static str, f64>>,
    /// Share of the traced passes' wall time the op spans cover.
    pub coverage: Option<f64>,
    pub trace_file: Option<String>,
    /// Deterministic model outputs, for the report.
    pub model: Vec<(&'static str, f64)>,
}

/// Counts every op run and keeps each failure's message.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                false
            }
        }
    }
}

/// Runs `f` with panics caught and reported as failures.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_panic(f).unwrap_or_else(|p| Err(format!("panicked: {}", p.message)))
}

/// A permutation of `0..n` drawn from SplitMix64 seeded by the run seed
/// and the pass number (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut state = seed ^ (pass as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Per-op latencies (seconds, successful runs only) and per-pass
/// counters.
struct Passes {
    samples: Vec<Vec<f64>>,
    counters: Vec<Counters>,
}

fn run_passes(
    bench: &dyn Bench,
    passes: usize,
    seed: u64,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Passes {
    let ops = bench.ops();
    let mut samples = vec![Vec::with_capacity(passes); ops.len()];
    let mut counters = Vec::with_capacity(passes);
    for pass in 0..passes {
        for i in shuffled(ops.len(), seed, pass) {
            let op = &ops[i];
            rec.begin(op.kind, &op.detail);
            rec.start_op();
            let mut outcome = guarded(|| bench.run(i, rec));
            let op_ns = rec.op_ns();
            rec.count("op", op_ns as f64);
            if rec.traced() {
                rec.start_children();
                rec.begin("children", "");
                let children = guarded(|| bench.children(i, rec));
                rec.end();
                rec.count(
                    &format!("self.{}", op.kind),
                    op_ns as f64 - rec.children_ns() as f64,
                );
                outcome = outcome.and(children);
            }
            rec.end();
            if tally.record(&format!("{} {}", op.kind, op.detail), outcome) {
                samples[i].push(op_ns as f64 / 1e9);
            }
        }
        counters.push(rec.take_counters());
    }
    Passes { samples, counters }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn default_trace_path(a: &RunArgs) -> String {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    format!("{dir}/wcperf/trace-{}-seed{}.json", a.workload, a.seed)
}

pub fn run(a: &RunArgs) -> Result<RunReport, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_metrics: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let setup = workloads::setup(&a.workload)?;
        setup_s.push(start.elapsed().as_secs_f64());
        for (name, value) in setup.metrics {
            setup_metrics.entry(name).or_default().push(value);
        }
        built = Some(setup.bench);
    }
    let bench = built.expect("at least one set-up");
    let bench = bench.as_ref();
    let ops = bench.ops();
    // A traced run splits the passes between its untraced and its traced
    // half, so its timed work stays that of an untraced run.
    let passes = match workloads::passes(&a.workload, a.seconds) {
        n if a.trace => n.div_ceil(2),
        n => n,
    };
    let mut tally = Tally::default();

    let verification = bench.verify();
    tally.attempted += verification.checks;
    tally.failures.extend(verification.failures);

    // One untimed op of each kind lets caches and lazy set-up settle.
    let mut rec = Recorder::new(false);
    let mut warmed: Vec<&str> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if !warmed.contains(&op.kind) {
            warmed.push(op.kind);
            let outcome = guarded(|| bench.run(i, &mut rec));
            tally.record(&format!("warm-up {} {}", op.kind, op.detail), outcome);
        }
    }
    rec.take_counters();

    let timed = run_passes(bench, passes, a.seed, &mut rec, &mut tally);
    let pass_s = pass_seconds(&timed.samples);
    let latency_ms: Vec<f64> = fastest_samples(&timed.samples, MIN_SAMPLES)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let winst: Vec<f64> = timed
        .counters
        .iter()
        .map(|c| c.get("winst").copied().unwrap_or(0.0))
        .collect();
    let end_to_end = vec![
        ("setup_s", median(&setup_s)),
        ("pass_s", pass_s),
        ("op_ms_p50", median(&latency_ms)),
        ("op_ms_p95", percentile(&latency_ms, 95.0)),
        (
            "winst_per_s",
            if pass_s > 0.0 {
                median(&winst) / pass_s
            } else {
                0.0
            },
        ),
        ("peak_rss_mb", peak_rss_mb()?),
    ];

    let mut report = RunReport {
        passes,
        ops_per_pass: ops.len(),
        samples: latency_ms.len(),
        reportable: reportable_percentile(latency_ms.len()),
        attempted: 0,
        failures: Vec::new(),
        end_to_end,
        per_layer: None,
        coverage: None,
        trace_file: None,
        model: verification.model.clone(),
    };

    if a.trace {
        let mut trec = Recorder::new(true);
        let start = Instant::now();
        let traced = run_passes(bench, passes, a.seed, &mut trec, &mut tally);
        let wall_ns = start.elapsed().as_nanos() as f64;
        let op_ns: u64 = trec
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns())
            .sum();
        report.coverage = Some(op_ns as f64 / wall_ns);

        let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let per_pass: Vec<_> = traced.counters.iter().map(layer_values).collect();
        if let Some(first) = per_pass.first() {
            for &name in first.keys() {
                let values: Vec<f64> = per_pass.iter().map(|v| v[name]).collect();
                layer.insert(name, median(&values));
            }
        }
        for name in RUN_LEVEL {
            layer.insert(name, 0.0);
        }
        for (name, values) in &setup_metrics {
            layer.insert(name, median(values));
        }
        for &(name, value) in &verification.model {
            layer.insert(name, value);
        }
        let campaign = guarded(|| bench.campaign(&mut trec));
        for &(name, value) in campaign.iter().flatten() {
            layer.insert(name, value);
        }
        tally.record("campaign", campaign.map(|_| ()));
        let traced_pass_s = pass_seconds(&traced.samples);
        layer.insert(
            "trace.overhead_pct",
            if pass_s > 0.0 {
                100.0 * (traced_pass_s - pass_s) / pass_s
            } else {
                0.0
            },
        );

        let path = a.trace_out.clone().unwrap_or_else(|| default_trace_path(a));
        let doc = chrome_trace(
            trec.spans(),
            &[
                ("workload", wc_bench::jsonfmt::quoted(&a.workload)),
                ("seed", a.seed.to_string()),
                ("passes", passes.to_string()),
                ("op_span_coverage", format!("{:.4}", op_ns as f64 / wall_ns)),
            ],
        );
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
        report.trace_file = Some(path);
        report.per_layer = Some(layer);
    }
    report.attempted = tally.attempted;
    report.failures = tally.failures;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_deterministic_permutation() {
        let a = shuffled(100, 42, 0);
        assert_eq!(a, shuffled(100, 42, 0));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(a, shuffled(100, 7, 0), "the seed changes the order");
        assert_ne!(a, shuffled(100, 42, 1), "each pass has its own order");
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        assert_eq!(shuffled(1, 3, 0), vec![0]);
        assert!(shuffled(0, 3, 0).is_empty());
    }
}
