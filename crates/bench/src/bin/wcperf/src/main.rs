//! `wcperf` — end-to-end and per-layer benchmark of the simulator, the
//! soundness gates, the differential fuzzer and the design sweep.
//!
//! ```text
//! wcperf [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!              [--out report.json] [--trace-out trace.json]
//! wcperf compare <parent reports…> -- <change reports…>
//! wcperf bless
//! ```
//!
//! A run prints every metric by name with its unit, then, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics of an untraced run, or the per-layer metrics of a traced
//! one. See README.md for the workloads, the metrics and how to compare
//! two commits.

mod compare;
mod golden;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use gpu_sim::GpuSim;
use wc_bench::jsonfmt::{inline, quoted, JsonObject};

use crate::golden::{memory_digest, stats_digest, Entry, Golden};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{RunArgs, RunReport};

/// Default run length; `BENCHMARK.json` declares the same.
const DEFAULT_SECONDS: u64 = 15;
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage:
  wcperf [run] --workload <suite-sim|check-gates|fuzz-gate|design-sweep>
               [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE]
  wcperf compare <parent reports...> -- <change reports...>
  wcperf bless";

fn main() -> ExitCode {
    // One worker thread: nothing a run times may fan out, including the
    // serial `figures::all` of a traced design-sweep run. Set before
    // anything reads it.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        None => Err(USAGE.to_string()),
        Some("compare") => compare::run(&args[1..]).map(|reject| {
            if reject {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }),
        Some("bless") => bless().map(|()| ExitCode::SUCCESS),
        Some("run") => run_cmd(&args[1..]),
        Some(_) => run_cmd(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("wcperf: {e}");
        ExitCode::from(2)
    })
}

fn parse_run(args: &[String]) -> Result<(RunArgs, Option<String>), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} must be a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?.max(1),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got `{v}`")),
                }
            }
            "--out" => out = Some(value()?),
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok((
        RunArgs {
            workload,
            seed,
            seconds,
            trace,
            trace_out,
        },
        out,
    ))
}

/// A metric value as JSON: every digit Rust's shortest round-trip
/// formatting keeps; a non-finite value (a ratio over nothing) as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".into()
    }
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (a, out) = parse_run(args)?;
    let r = run::run(&a)?;
    print_report(&a, &r);

    let metrics: Vec<(&str, &str, f64)> = match &r.per_layer {
        Some(layer) => PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, layer.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
        None => END_TO_END
            .iter()
            .zip(&r.end_to_end)
            .map(|(m, &(_, v))| (m.name, m.unit, v))
            .collect(),
    };
    let failed = r.failures.len();
    if let Some(path) = out {
        std::fs::write(&path, report_doc(&a, &r, &metrics).render_document())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let metric_fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|&(name, unit, v)| (name, inline(&[("value", num(v)), ("unit", quoted(unit))])))
        .collect();
    println!(
        "{}",
        inline(&[
            ("correct", (failed == 0).to_string()),
            ("attempted", r.attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", inline(&metric_fields)),
        ])
    );
    Ok(ExitCode::SUCCESS)
}

/// The `--out` report `compare` reads.
fn report_doc(a: &RunArgs, r: &RunReport, metrics: &[(&str, &str, f64)]) -> JsonObject {
    let mut m = JsonObject::new(2);
    for &(name, unit, v) in metrics {
        m = m.field(name, inline(&[("value", num(v)), ("unit", quoted(unit))]));
    }
    let failures: Vec<String> = r.failures.iter().map(|f| quoted(f)).collect();
    JsonObject::new(0)
        .string("workload", &a.workload)
        .display("seed", a.seed)
        .display("seconds", a.seconds)
        .display("trace", a.trace)
        .display("passes", r.passes)
        .display("ops_per_pass", r.ops_per_pass)
        .display("samples", r.samples)
        .display("correct", r.failures.is_empty())
        .display("attempted", r.attempted)
        .display("failed", r.failures.len())
        .field("failures", format!("[{}]", failures.join(", ")))
        .field("metrics", m.render())
}

fn print_report(a: &RunArgs, r: &RunReport) {
    println!(
        "wcperf {} seed={} passes={} ops/pass={} samples={} (highest percentile with 10 samples beyond: {})",
        a.workload,
        a.seed,
        r.passes,
        r.ops_per_pass,
        r.samples,
        r.reportable.map_or_else(|| "none".into(), |p| format!("p{p}"))
    );
    println!("attempted {} ops, failed {}", r.attempted, r.failures.len());
    for f in r.failures.iter().take(20) {
        println!("  FAILED {f}");
    }
    println!("end-to-end (untraced):");
    for (m, (_, v)) in END_TO_END.iter().zip(&r.end_to_end) {
        println!(
            "  {:<14} {:>16.6} {:<6} ({} is better, bound {:.0} %)",
            m.name,
            v,
            m.unit,
            m.better.name(),
            m.bound * 100.0
        );
    }
    if let Some(layer) = &r.per_layer {
        println!("per-layer (traced):");
        for m in &PER_LAYER {
            let v = layer.get(m.name).copied().unwrap_or(0.0);
            println!(
                "  {:<30} {:>18.6} {:<11} ({} is better)",
                m.name,
                v,
                m.unit,
                m.better.name()
            );
        }
    }
    for &(name, v) in &r.model {
        if name == "power.rf_energy_saving_pct" {
            println!(
                "model: register-file energy saving {v:.2} % (paper: 25 %; the energy model is unvalidated against hardware)"
            );
        }
    }
    if let (Some(path), Some(cov)) = (&r.trace_file, r.coverage) {
        println!(
            "trace: {path} (op spans cover {:.2} % of the traced passes)",
            cov * 100.0
        );
    }
}

/// Regenerates `golden.txt` from the current simulator: for every
/// (kernel, design point) of the sweep, the statistics of
/// `run_workload` and the final memory of `GpuSim::run`, which must
/// agree with each other.
fn bless() -> Result<(), String> {
    let mut golden = Golden::default();
    for w in gpu_workloads::suite() {
        for point in workloads::SWEEP {
            let (cfg, label) = (point.config(), point.label());
            let observed = warped_compression::run_workload(&cfg, &w).map_err(|e| e.to_string())?;
            let mut memory = w.fresh_memory();
            let plain = GpuSim::new(cfg)
                .run(w.kernel(), w.launch(), &mut memory)
                .map_err(|e| e.to_string())?;
            let stats = stats_digest(&observed.stats);
            if stats != stats_digest(&plain.stats) {
                return Err(format!(
                    "{}/{label}: run_workload and GpuSim::run disagree",
                    w.name()
                ));
            }
            golden.insert(
                w.name(),
                &label,
                Entry {
                    stats,
                    memory: memory_digest(memory.words()),
                    cycles: observed.stats.cycles,
                    winst: observed.stats.instructions,
                },
            );
        }
    }
    std::fs::write(golden::PATH, golden.render()).map_err(|e| format!("{}: {e}", golden::PATH))?;
    println!("wrote {}", golden::PATH);
    Ok(())
}
