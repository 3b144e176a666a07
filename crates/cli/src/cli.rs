//! Argument parsing and command dispatch.

use std::error::Error;
use std::fmt;
use std::fs;

use bdi::FixedChoice;
use gpu_faults::ProtectionModel;
use gpu_sim::{GlobalMemory, GpuSim, LaunchConfig};
use warped_compression::{
    perf_suite, run_fault_campaign, run_workload, schedule_suite, DesignPoint, DEFAULT_SEED,
};
use wc_bench::CheckpointStore;

use crate::report::{format_comparison, format_run};

/// A parsed `wcsim` invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `wcsim list` — print the benchmark suite.
    List,
    /// `wcsim designs` — print the available design points.
    Designs,
    /// `wcsim run <workload> [--design D]` — run one benchmark (or `all`).
    Run {
        /// Benchmark name or `all`.
        workload: String,
        /// Design point to simulate.
        design: DesignPoint,
    },
    /// `wcsim compare <workload>` — baseline vs warped-compression report.
    Compare {
        /// Benchmark name.
        workload: String,
    },
    /// `wcsim kernel <file.s> --blocks N --tpb N --mem WORDS [--param X]...`
    /// — assemble and run a custom kernel.
    Kernel {
        /// Path to the `.s` source file.
        path: String,
        /// Grid blocks.
        blocks: usize,
        /// Threads per block.
        threads_per_block: usize,
        /// Global memory size in words.
        mem_words: usize,
        /// Scalar kernel parameters.
        params: Vec<u32>,
        /// Design point to simulate.
        design: DesignPoint,
    },
    /// `wcsim analyze <workload|--all> [--deny-warnings] [--json FILE]`
    /// — run the static verifier and liveness pass without simulating.
    Analyze {
        /// Benchmark name; `None` analyses the whole suite (`--all`).
        workload: Option<String>,
        /// Treat warnings as failures (CI gate).
        deny_warnings: bool,
        /// Write the full machine-readable report to this path.
        json: Option<String>,
    },
    /// `wcsim predict <workload|--all> [--out FILE]` — static
    /// compressibility prediction validated against a traced run.
    Predict {
        /// Benchmark name; `None` predicts the whole suite (`--all`).
        workload: Option<String>,
        /// Report path (default `results/BENCH_predict.json`).
        out: Option<String>,
    },
    /// `wcsim faults <workload|--all> [--injections N] [--seed S]
    /// [--protection none|parity|secded] [--resume DIR] [--out FILE]` —
    /// seeded fault-injection campaign.
    Faults {
        /// Benchmark name; `None` runs the whole suite (`--all`).
        workload: Option<String>,
        /// Planned faults per kernel.
        injections: usize,
        /// Campaign seed; per-kernel plans derive from it. Default 42.
        seed: u64,
        /// Register-protection scheme to model.
        protection: ProtectionModel,
        /// Checkpoint directory: completed kernels are skipped and their
        /// saved fragments reused verbatim.
        resume: Option<String>,
        /// Report path (default `results/BENCH_faults.json`).
        out: Option<String>,
    },
    /// `wcsim fuzz [--cases N] [--seed S] [--budget CYCLES]
    /// [--resume DIR] [--out FILE] [--repro DIR]` — differential kernel
    /// fuzzing with crash triage and automatic shrinking.
    Fuzz {
        /// Number of generated cases.
        cases: usize,
        /// Campaign seed; per-case streams derive from it. Default 42.
        seed: u64,
        /// Per-case cycle watchdog.
        budget: u64,
        /// Checkpoint directory: completed cases are skipped and their
        /// saved fragments reused verbatim.
        resume: Option<String>,
        /// Report path (default `results/BENCH_fuzz.json`).
        out: Option<String>,
        /// Directory for shrunk reproducers (default `results/fuzz`).
        repro: Option<String>,
    },
    /// `wcsim perf <workload|--all> [--design D] [--out FILE]` — static
    /// cycle / bank-access / energy lower bounds validated against a
    /// simulated run.
    Perf {
        /// Benchmark name; `None` bounds the whole suite (`--all`).
        workload: Option<String>,
        /// Design point to bound and simulate.
        design: DesignPoint,
        /// Report path (default `results/BENCH_perf.json`).
        out: Option<String>,
    },
    /// `wcsim schedule <workload|--all> [--design D] [--out FILE]` —
    /// ahead-of-time issue scheduling replayed on the scheduled backend
    /// and machine-checked against the dynamic core.
    Schedule {
        /// Benchmark name; `None` schedules the whole suite (`--all`).
        workload: Option<String>,
        /// Design point to schedule and replay.
        design: DesignPoint,
        /// Report path (default `results/BENCH_schedule.json`).
        out: Option<String>,
    },
    /// `wcsim mem <workload|--all> [--out FILE]` — static memory
    /// analysis (abstract address sets, cross-warp race verdict,
    /// transaction floors) machine-checked against a traced run.
    Mem {
        /// Benchmark name; `None` checks the whole suite (`--all`).
        workload: Option<String>,
        /// Report path (default `results/BENCH_mem.json`).
        out: Option<String>,
    },
    /// `wcsim --help`.
    Help,
}

/// Argument-parsing failures (message is user-facing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for ParseError {}

const USAGE: &str = "\
wcsim — Warped-Compression simulator driver

USAGE:
  wcsim list                         list the benchmark suite
  wcsim designs                      list design points for --design
  wcsim run <workload|all> [--design D]
  wcsim compare <workload>           baseline vs warped-compression
  wcsim analyze <workload|--all> [--deny-warnings] [--json FILE]
                                     static lint + liveness report
  wcsim predict <workload|--all> [--out FILE]
                                     static compressibility prediction
                                     joined against a traced run; fails
                                     on any unsound site (default out:
                                     results/BENCH_predict.json)
  wcsim faults <workload|--all> [--injections N] [--seed S]
               [--protection none|parity|secded] [--resume DIR]
               [--out FILE]
                                     seeded fault-injection campaign
                                     (defaults: 8 injections, seed 42,
                                     secded; fails if ECC lets any fault
                                     through silently)
  wcsim fuzz [--cases N] [--seed S] [--budget CYCLES]
             [--resume DIR] [--out FILE] [--repro DIR]
                                     differential kernel fuzzing: seeded
                                     testgen kernels through the perf,
                                     predict, mem and schedule gates'
                                     joins and the panic/watchdog
                                     harness; any finding is shrunk to
                                     a reproducer under --repro and
                                     fails the run
                                     (defaults: 300 cases, seed 42, out:
                                     results/BENCH_fuzz.json; also runs
                                     the mutation smoke test)
  wcsim perf <workload|--all> [--design D] [--out FILE]
                                     static cycle/bank/energy/
                                     instruction lower bounds validated
                                     against the simulator; fails if any
                                     measurement beats a static bound
                                     (default out: results/BENCH_perf.json)
  wcsim schedule <workload|--all> [--design D] [--out FILE]
                                     compile a static issue plan, replay
                                     it with the scoreboard bypassed and
                                     check bit identity, the perfbound
                                     floor and the slack bound against
                                     the dynamic core; fails on any
                                     unsound kernel (default out:
                                     results/BENCH_schedule.json)
  wcsim mem <workload|--all> [--out FILE]
                                     static memory analysis — abstract
                                     per-warp address sets, the
                                     cross-warp race verdict and the
                                     coalescing transaction floors —
                                     joined against a traced run; fails
                                     if any address escapes its set, a
                                     conflict evades the race verdict or
                                     a floor is undercut (default out:
                                     results/BENCH_mem.json)
  wcsim kernel <file.s> --blocks N --tpb N --mem WORDS
               [--param X]... [--design D]
";

/// Known design-point names for `--design`.
fn design_by_name(name: &str) -> Option<DesignPoint> {
    Some(match name {
        "baseline" => DesignPoint::Baseline,
        "warped" | "warped-compression" => DesignPoint::WarpedCompression,
        "only40" => DesignPoint::Only(FixedChoice::Delta0),
        "only41" => DesignPoint::Only(FixedChoice::Delta1),
        "only42" => DesignPoint::Only(FixedChoice::Delta2),
        "dmr" | "decompress-merge-recompress" => DesignPoint::DecompressMergeRecompress,
        "lrr" | "warped-compression-lrr" => DesignPoint::WarpedCompressionLrr,
        "baseline-lrr" => DesignPoint::BaselineLrr,
        "drowsy" | "warped-compression-drowsy" => DesignPoint::WarpedCompressionDrowsy,
        _ => return None,
    })
}

const DESIGN_NAMES: &[&str] = &[
    "baseline",
    "warped",
    "only40",
    "only41",
    "only42",
    "dmr",
    "lrr",
    "baseline-lrr",
    "drowsy",
];

/// The one value flag that may be given more than once.
const REPEATABLE: &str = "--param";

/// One subcommand's arguments, checked against what it accepts: every
/// `--flag` is one of its value flags or switches, every value flag has
/// a value that is not itself a flag, no flag but [`REPEATABLE`]
/// repeats, and there are no more positionals than it takes.
struct Args<'a> {
    cmd: &'a str,
    positionals: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(
        cmd: &'a str,
        rest: &'a [String],
        positionals: usize,
        values: &[&str],
        switches: &[&str],
    ) -> Result<Self, ParseError> {
        let mut args = Args {
            cmd,
            positionals: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = rest.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if args.positionals.len() == positionals {
                    return Err(ParseError(format!("{cmd}: unexpected argument `{arg}`")));
                }
                args.positionals.push(arg);
                continue;
            }
            let seen = args.switches.contains(&arg) || args.value(arg).is_some();
            if seen && arg != REPEATABLE {
                return Err(ParseError(format!("{cmd}: {arg} given twice")));
            }
            if switches.contains(&arg) {
                args.switches.push(arg);
            } else if values.contains(&arg) {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| ParseError(format!("{arg} needs a value")))?;
                args.values.push((arg, value));
            } else {
                return Err(ParseError(format!("{cmd}: unknown flag `{arg}`\n{USAGE}")));
            }
        }
        Ok(args)
    }

    /// The value given for `flag`, if any (the first, for
    /// [`REPEATABLE`]).
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    /// The value of `flag` as an owned string, if given.
    fn string(&self, flag: &str) -> Option<String> {
        self.value(flag).map(str::to_string)
    }

    /// `flag`'s value parsed as a number, or `default` when absent.
    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ParseError> {
        self.value(flag)
            .map_or(Ok(default), |v| parse_number(flag, v))
    }

    /// `flag`'s value parsed as a number; the flag is required.
    fn required_number<T: std::str::FromStr>(&self, flag: &str) -> Result<T, ParseError> {
        let v = self
            .value(flag)
            .ok_or_else(|| ParseError(format!("{} needs {flag} N", self.cmd)))?;
        parse_number(flag, v)
    }

    /// The `--design` point, warped-compression when absent.
    fn design(&self) -> Result<DesignPoint, ParseError> {
        match self.value("--design") {
            None => Ok(DesignPoint::WarpedCompression),
            Some(name) => design_by_name(name).ok_or_else(|| {
                ParseError(format!(
                    "unknown design `{name}`; try: {}",
                    DESIGN_NAMES.join(", ")
                ))
            }),
        }
    }

    /// The required positional, `what` naming it in the error.
    fn positional(&self, what: &str) -> Result<String, ParseError> {
        self.positionals
            .first()
            .map(|p| (*p).to_string())
            .ok_or_else(|| ParseError(format!("{} needs {what}", self.cmd)))
    }

    /// The `<workload|--all>` choice shared by the whole-suite
    /// subcommands: the workload name, or `None` under `--all`.
    fn workload_or_all(&self) -> Result<Option<String>, ParseError> {
        match (self.positionals.first(), self.switches.contains(&"--all")) {
            (Some(w), false) => Ok(Some((*w).to_string())),
            (None, true) => Ok(None),
            (Some(_), true) => Err(ParseError(format!(
                "{} takes a workload name or --all, not both",
                self.cmd
            ))),
            (None, false) => Err(ParseError(format!(
                "{} needs a workload name or --all",
                self.cmd
            ))),
        }
    }
}

/// Parses `value` as the number `flag` takes.
fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| ParseError(format!("{flag} must be a number, not `{value}`")))
}

/// Resolves a parsed `<workload|--all>` into concrete workloads.
fn resolve_workloads(workload: Option<&str>) -> Result<Vec<gpu_workloads::Workload>, ParseError> {
    match workload {
        None => Ok(gpu_workloads::suite()),
        Some(name) => Ok(vec![gpu_workloads::by_name(name)
            .ok_or_else(|| ParseError(format!("unknown workload `{name}`")))?]),
    }
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// [`ParseError`] with a user-facing message on any malformed input.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ParseError> {
    let args: Vec<String> = args.into_iter().collect();
    let (cmd, rest) = match args.split_first() {
        None => return Ok(Command::Help),
        Some((cmd, _)) if matches!(cmd.as_str(), "--help" | "-h" | "help") => {
            return Ok(Command::Help)
        }
        Some((cmd, rest)) => (cmd.as_str(), rest),
    };
    let parse = |positionals, values: &[&str], switches: &[&str]| {
        Args::parse(cmd, rest, positionals, values, switches)
    };

    Ok(match cmd {
        "list" => {
            parse(0, &[], &[])?;
            Command::List
        }
        "designs" => {
            parse(0, &[], &[])?;
            Command::Designs
        }
        "run" => {
            let a = parse(1, &["--design"], &[])?;
            Command::Run {
                workload: a.positional("a workload name (or `all`)")?,
                design: a.design()?,
            }
        }
        "compare" => Command::Compare {
            workload: parse(1, &[], &[])?.positional("a workload name")?,
        },
        "analyze" => {
            let a = parse(1, &["--json"], &["--all", "--deny-warnings"])?;
            Command::Analyze {
                workload: a.workload_or_all()?,
                deny_warnings: a.switches.contains(&"--deny-warnings"),
                json: a.string("--json"),
            }
        }
        "predict" => {
            let a = parse(1, &["--out"], &["--all"])?;
            Command::Predict {
                workload: a.workload_or_all()?,
                out: a.string("--out"),
            }
        }
        "mem" => {
            let a = parse(1, &["--out"], &["--all"])?;
            Command::Mem {
                workload: a.workload_or_all()?,
                out: a.string("--out"),
            }
        }
        "perf" => {
            let a = parse(1, &["--design", "--out"], &["--all"])?;
            Command::Perf {
                workload: a.workload_or_all()?,
                design: a.design()?,
                out: a.string("--out"),
            }
        }
        "schedule" => {
            let a = parse(1, &["--design", "--out"], &["--all"])?;
            Command::Schedule {
                workload: a.workload_or_all()?,
                design: a.design()?,
                out: a.string("--out"),
            }
        }
        "faults" => {
            let a = parse(
                1,
                &[
                    "--injections",
                    "--seed",
                    "--protection",
                    "--resume",
                    "--out",
                ],
                &["--all"],
            )?;
            Command::Faults {
                workload: a.workload_or_all()?,
                injections: a.number("--injections", 8)?,
                seed: a.number("--seed", DEFAULT_SEED)?,
                protection: match a.value("--protection") {
                    None => ProtectionModel::SecDed,
                    Some(v) => ProtectionModel::parse(v).ok_or_else(|| {
                        ParseError(format!(
                            "unknown protection `{v}`; try: none, parity, secded"
                        ))
                    })?,
                },
                resume: a.string("--resume"),
                out: a.string("--out"),
            }
        }
        "fuzz" => {
            let a = parse(
                0,
                &[
                    "--cases", "--seed", "--budget", "--resume", "--out", "--repro",
                ],
                &[],
            )?;
            Command::Fuzz {
                cases: a.number("--cases", 300)?,
                seed: a.number("--seed", DEFAULT_SEED)?,
                budget: a.number("--budget", warped_compression::DEFAULT_CYCLE_BUDGET)?,
                resume: a.string("--resume"),
                out: a.string("--out"),
                repro: a.string("--repro"),
            }
        }
        "kernel" => {
            let a = parse(
                1,
                &["--blocks", "--tpb", "--mem", "--param", "--design"],
                &[],
            )?;
            Command::Kernel {
                path: a.positional("a .s file path")?,
                blocks: a.required_number("--blocks")?,
                threads_per_block: a.required_number("--tpb")?,
                mem_words: a.required_number("--mem")?,
                params: a
                    .values
                    .iter()
                    .filter(|(f, _)| *f == REPEATABLE)
                    .map(|(f, v)| parse_number(f, v))
                    .collect::<Result<_, _>>()?,
                design: a.design()?,
            }
        }
        other => return Err(ParseError(format!("unknown command `{other}`\n{USAGE}"))),
    })
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns a boxed error for simulation or I/O failures.
pub fn run_cli(cmd: &Command, out: &mut dyn fmt::Write) -> Result<(), Box<dyn Error>> {
    match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
        }
        Command::List => {
            for w in gpu_workloads::suite() {
                writeln!(out, "{:<12} {}", w.name(), w.description())?;
            }
        }
        Command::Designs => {
            for name in DESIGN_NAMES {
                let point = design_by_name(name).expect("listed designs parse");
                writeln!(out, "{:<14} -> {}", name, point.label())?;
            }
        }
        Command::Run { workload, design } => {
            let workloads = if workload == "all" {
                gpu_workloads::suite()
            } else {
                vec![gpu_workloads::by_name(workload)
                    .ok_or_else(|| ParseError(format!("unknown workload `{workload}`")))?]
            };
            for w in &workloads {
                let run = run_workload(&design.config(), w)?;
                writeln!(out, "{}", format_run(&run, *design))?;
            }
        }
        Command::Analyze {
            workload,
            deny_warnings,
            json,
        } => {
            let workloads = resolve_workloads(workload.as_deref())?;
            let mut errors = 0usize;
            let mut warnings = 0usize;
            let mut rows = Vec::new();
            let mut entries = Vec::new();
            for w in &workloads {
                let facts =
                    warped_compression::LaunchFacts::new(w.launch(), &w.fresh_memory(), true);
                let analysis = simt_analysis::analyze_with_launch(w.kernel(), Some(&facts.info));
                for d in &analysis.report.diagnostics {
                    writeln!(out, "{}: {d}", w.name())?;
                }
                errors += analysis.report.error_count();
                warnings += analysis.report.warning_count();
                let (max_live, avg_live, dead) = match &analysis.liveness {
                    Some(l) => (
                        l.max_live.to_string(),
                        format!("{:.2}", l.avg_live),
                        format!("{:.1}%", l.dead_fraction() * 100.0),
                    ),
                    None => ("-".into(), "-".into(), "-".into()),
                };
                rows.push(vec![
                    w.name().to_string(),
                    w.kernel().len().to_string(),
                    w.kernel().num_regs().to_string(),
                    max_live,
                    avg_live,
                    dead,
                    analysis.report.error_count().to_string(),
                    analysis.report.warning_count().to_string(),
                ]);
                entries.push((w.name().to_string(), analysis));
            }
            let table = wc_bench::FigureTable::new(
                "analyze",
                "Static kernel verification and liveness",
                [
                    "kernel", "instrs", "regs", "max live", "avg live", "dead", "errors",
                    "warnings",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
                rows,
            );
            writeln!(out, "{}", table.to_markdown())?;
            if let Some(path) = json {
                write_report(path, &wc_bench::analysis_json::analysis_json(&entries))?;
                writeln!(out, "report written to {path}")?;
            }
            if errors > 0 {
                return Err(format!("analyze found {errors} error(s)").into());
            }
            if *deny_warnings && warnings > 0 {
                return Err(
                    format!("analyze found {warnings} warning(s) with --deny-warnings").into(),
                );
            }
        }
        Command::Predict {
            workload,
            out: out_file,
        } => {
            let workloads = resolve_workloads(workload.as_deref())?;
            let reports = warped_compression::predict_suite(&workloads)?;
            let mut rows = Vec::new();
            for r in &reports {
                rows.push(vec![
                    r.kernel.clone(),
                    r.sites.len().to_string(),
                    r.exact_count().to_string(),
                    r.conservative_count().to_string(),
                    r.unsound_count().to_string(),
                    format!("{:.1}%", r.exact_fraction() * 100.0),
                    format!("{:.1}%", r.prediction.informative_fraction() * 100.0),
                    format!("{:.2}", r.comparison.static_gateable_banks_per_write),
                    format!("{:.2}", r.comparison.measured_gated_banks_per_write),
                ]);
            }
            let table = wc_bench::FigureTable::new(
                "predict",
                "Static compressibility prediction vs. traced run",
                [
                    "kernel",
                    "sites",
                    "exact",
                    "conserv",
                    "unsound",
                    "exact%",
                    "informative%",
                    "static gate",
                    "measured gate",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
                rows,
            );
            writeln!(out, "{}", table.to_markdown())?;
            let out_path = out_file
                .clone()
                .unwrap_or_else(|| "results/BENCH_predict.json".to_string());
            write_report(&out_path, &wc_bench::analysis_json::predict_json(&reports))?;
            writeln!(out, "report written to {out_path}")?;
            // The CI gate: the abstract domain must never under-predict
            // a stored footprint or the gateable-bank bound.
            if let Some(r) = reports.iter().find(|r| !r.is_sound()) {
                return Err(format!(
                    "kernel `{}` beat its static prediction: {}",
                    r.kernel,
                    r.violations().join("; ")
                )
                .into());
            }
        }
        Command::Compare { workload } => {
            let w = gpu_workloads::by_name(workload)
                .ok_or_else(|| ParseError(format!("unknown workload `{workload}`")))?;
            let base = run_workload(&DesignPoint::Baseline.config(), &w)?;
            let wc = run_workload(&DesignPoint::WarpedCompression.config(), &w)?;
            writeln!(out, "{}", format_comparison(&base, &wc))?;
        }
        Command::Faults {
            workload,
            injections,
            seed,
            protection,
            resume,
            out: out_file,
        } => {
            let workloads = resolve_workloads(workload.as_deref())?;
            let store = resume.as_ref().map(CheckpointStore::new);
            // The checkpoint namespace carries everything that changes a
            // kernel's fragment, so a different campaign's fragments are
            // never resumed by accident.
            let label = format!("seed{seed}-injections{injections}-{}", protection.name());

            // Split into checkpointed kernels (fragment reused verbatim,
            // keeping resumed reports byte-identical) and pending ones.
            let mut resumed: Vec<(String, String)> = Vec::new();
            let mut pending: Vec<gpu_workloads::Workload> = Vec::new();
            for w in &workloads {
                match store.as_ref().and_then(|s| s.load(&label, w.name())) {
                    Some(frag) => resumed.push((w.name().to_string(), frag)),
                    None => pending.push(w.clone()),
                }
            }

            // Fresh runs: the seeded campaign, panic-isolated per kernel.
            let mut fresh: Vec<(String, String)> = Vec::new();
            for record in run_fault_campaign(&pending, *protection, *injections, *seed) {
                let frag = wc_bench::fault_json::fault_record_json(&record);
                if let Some(s) = &store {
                    s.save(&label, &record.name, &frag)?;
                }
                fresh.push((record.name, frag));
            }

            // Assemble in suite order and summarise.
            let mut fragments = Vec::new();
            let mut rows = Vec::new();
            let mut statuses = Vec::new();
            let mut silent_total = 0u64;
            for w in &workloads {
                let frag = resumed
                    .iter()
                    .chain(fresh.iter())
                    .find(|(n, _)| n == w.name())
                    .map(|(_, f)| f.clone())
                    .expect("every kernel is either resumed or freshly run");
                let silent = frag_u64_field(&frag, "silent_corruption").unwrap_or(0);
                silent_total += silent;
                let cell = |key: &str| {
                    frag_u64_field(&frag, key).map_or_else(|| "-".to_string(), |v| v.to_string())
                };
                rows.push(vec![
                    w.name().to_string(),
                    cell("masked"),
                    cell("corrected"),
                    cell("detected"),
                    cell("silent_corruption"),
                ]);
                statuses.push(frag_str_field(&frag, "status").unwrap_or_else(|| "unknown".into()));
                fragments.push(frag);
            }
            let doc = wc_bench::fault_json::fault_campaign_json(
                *seed,
                *injections,
                protection.name(),
                &fragments,
            );
            let out_path = out_file
                .clone()
                .unwrap_or_else(|| "results/BENCH_faults.json".to_string());
            write_report(&out_path, &doc)?;

            let status_refs: Vec<&str> = statuses.iter().map(String::as_str).collect();
            let table = wc_bench::FigureTable::new(
                "faults",
                format!(
                    "Fault campaign (seed {seed}, {injections} injections/kernel, {})",
                    protection.name()
                ),
                ["kernel", "masked", "corrected", "detected", "silent"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                rows,
            )
            .with_status_column(&status_refs);
            writeln!(out, "{}", table.to_markdown())?;
            writeln!(out, "report written to {out_path}")?;
            // The CI gate: SEC-DED must never let a fault through silently.
            if *protection == ProtectionModel::SecDed && silent_total > 0 {
                return Err(
                    format!("{silent_total} silent corruption(s) slipped past SEC-DED").into(),
                );
            }
        }
        Command::Fuzz {
            cases,
            seed,
            budget,
            resume,
            out: out_file,
            repro,
        } => {
            let store = resume.as_ref().map(CheckpointStore::new);
            // The checkpoint namespace carries everything that changes a
            // case's outcome, so stale fragments from a different
            // campaign cannot be resumed by accident.
            let label = format!("seed{seed}-budget{budget}");
            let cfg = warped_compression::FuzzConfig {
                seed: *seed,
                cycle_budget: *budget,
                mutation: None,
            };
            let repro_dir = repro.clone().unwrap_or_else(|| "results/fuzz".to_string());

            let mut fragments = Vec::with_capacity(*cases);
            let mut resumed_count = 0usize;
            for index in 0..*cases {
                let key = format!("case{index:06}");
                if let Some(frag) = store.as_ref().and_then(|s| s.load(&label, &key)) {
                    resumed_count += 1;
                    fragments.push(frag);
                    continue;
                }
                let report = warped_compression::run_case(&cfg, index);
                if let Some(f) = &report.finding {
                    // Reproducers are written once, at first discovery;
                    // a resumed campaign keeps the original files.
                    let path = format!("{repro_dir}/seed{seed}-case{index:06}.s");
                    write_report(&path, &f.reproducer)?;
                    writeln!(out, "case {index}: {} — {}", f.category.label(), f.detail)?;
                    writeln!(out, "  reproducer written to {path}")?;
                }
                let frag = wc_bench::fuzz_json::fuzz_case_json(&report);
                if let Some(s) = &store {
                    s.save(&label, &key, &frag)?;
                }
                fragments.push(frag);
            }

            // Classify uniformly from the fragments so resumed and
            // fresh cases are summarised identically.
            let mut findings: Vec<(usize, String, String)> = Vec::new();
            let mut static_count = 0usize;
            for (index, frag) in fragments.iter().enumerate() {
                if frag_str_field(frag, "status").as_deref() == Some("finding") {
                    findings.push((
                        index,
                        frag_str_field(frag, "category").unwrap_or_else(|| "unknown".into()),
                        frag_str_field(frag, "detail").unwrap_or_default(),
                    ));
                } else if frag.contains("\"static_close\": true") {
                    static_count += 1;
                }
            }

            // Self-validation: every injected bug must be caught,
            // correctly classified and shrunk.
            let smoke = warped_compression::mutation_smoke(*seed, *budget, 64);
            let smoke_passed = smoke.iter().all(warped_compression::SmokeOutcome::passed);

            let doc = wc_bench::fuzz_json::fuzz_campaign_json(
                *seed,
                *budget,
                findings.len(),
                &fragments,
                &smoke,
            );
            let out_path = out_file
                .clone()
                .unwrap_or_else(|| "results/BENCH_fuzz.json".to_string());
            write_report(&out_path, &doc)?;

            let summary = wc_bench::FigureTable::new(
                "fuzz",
                format!("Differential fuzz campaign (seed {seed}, budget {budget})"),
                [
                    "cases",
                    "ok",
                    "findings",
                    "static close",
                    "resumed",
                    "smoke",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
                vec![vec![
                    cases.to_string(),
                    (*cases - findings.len()).to_string(),
                    findings.len().to_string(),
                    static_count.to_string(),
                    resumed_count.to_string(),
                    if smoke_passed {
                        "pass".into()
                    } else {
                        "FAIL".into()
                    },
                ]],
            );
            writeln!(out, "{}", summary.to_markdown())?;
            let smoke_rows: Vec<Vec<String>> = smoke
                .iter()
                .map(|o| {
                    vec![
                        o.mutation.name().to_string(),
                        o.expected.label().to_string(),
                        o.cases_scanned.to_string(),
                        o.caught
                            .as_ref()
                            .and_then(|r| r.finding.as_ref())
                            .map_or_else(|| "-".into(), |f| f.shrunk_instructions.to_string()),
                        if o.passed() {
                            "pass".into()
                        } else {
                            "FAIL".into()
                        },
                    ]
                })
                .collect();
            let smoke_table = wc_bench::FigureTable::new(
                "fuzz-smoke",
                "Mutation smoke test (one injected bug per finding category)",
                ["mutation", "expected", "scanned", "shrunk", "status"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                smoke_rows,
            );
            writeln!(out, "{}", smoke_table.to_markdown())?;
            writeln!(out, "report written to {out_path}")?;
            // The CI gate: zero findings and a fully passing smoke.
            if !findings.is_empty() {
                let (index, category, _) = &findings[0];
                return Err(format!(
                    "{} finding(s); first: case {index} ({category}) — reproducers under {repro_dir}",
                    findings.len()
                )
                .into());
            }
            if !smoke_passed {
                return Err("mutation smoke test failed: an injected bug went undetected".into());
            }
        }
        Command::Perf {
            workload,
            design,
            out: out_file,
        } => {
            let workloads = resolve_workloads(workload.as_deref())?;
            let reports = perf_suite(&workloads, *design)?;
            let mut rows = Vec::new();
            let mut statuses = Vec::new();
            for r in &reports {
                rows.push(vec![
                    r.kernel.clone(),
                    r.comparison.static_cycles.to_string(),
                    r.comparison.measured_cycles.to_string(),
                    format!("{:.1}%", r.cycle_tightness() * 100.0),
                    r.comparison.static_bank_accesses.to_string(),
                    r.comparison.measured_bank_accesses.to_string(),
                    format!("{:.0}", r.comparison.static_energy_pj),
                    format!("{:.0}", r.comparison.measured_energy_pj),
                    r.conflict_checks.len().to_string(),
                ]);
                statuses.push(if r.is_sound() { "ok" } else { "UNSOUND" });
            }
            let table = wc_bench::FigureTable::new(
                "perf",
                format!(
                    "Static performance lower bounds vs. measured ({})",
                    design.label()
                ),
                [
                    "kernel",
                    "static cyc",
                    "measured cyc",
                    "tight",
                    "static acc",
                    "measured acc",
                    "static pJ",
                    "measured pJ",
                    "conflicts",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
                rows,
            )
            .with_status_column(&statuses);
            writeln!(out, "{}", table.to_markdown())?;
            let out_path = out_file
                .clone()
                .unwrap_or_else(|| "results/BENCH_perf.json".to_string());
            write_report(
                &out_path,
                &wc_bench::perf_json::perf_json(&design.label(), &reports),
            )?;
            writeln!(out, "report written to {out_path}")?;
            // The CI gate: no measurement may beat a static lower bound.
            if let Some(r) = reports.iter().find(|r| !r.is_sound()) {
                return Err(format!(
                    "kernel `{}` beat a static lower bound: {}",
                    r.kernel,
                    r.violations().join("; ")
                )
                .into());
            }
        }
        Command::Schedule {
            workload,
            design,
            out: out_file,
        } => {
            let workloads = resolve_workloads(workload.as_deref())?;
            let reports = schedule_suite(&workloads, *design)?;
            let mut rows = Vec::new();
            let mut statuses = Vec::new();
            for r in &reports {
                rows.push(vec![
                    r.kernel.clone(),
                    if r.mode.is_static() {
                        "static".to_string()
                    } else {
                        "fallback".to_string()
                    },
                    r.static_floor_cycles.to_string(),
                    r.scheduled_cycles.to_string(),
                    r.dynamic_cycles.to_string(),
                    r.slack_cycles.to_string(),
                    format!("{:.3}", r.comparison.cycle_ratio()),
                    format!("{:.0}", r.comparison.scheduled_energy_pj),
                    format!("{:.0}", r.comparison.dynamic_energy_pj),
                ]);
                statuses.push(if r.is_sound() { "ok" } else { "UNSOUND" });
            }
            let table = wc_bench::FigureTable::new(
                "schedule",
                format!(
                    "Static issue schedule vs. dynamic core ({})",
                    design.label()
                ),
                [
                    "kernel",
                    "mode",
                    "floor cyc",
                    "sched cyc",
                    "dyn cyc",
                    "slack",
                    "ratio",
                    "sched pJ",
                    "dyn pJ",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
                rows,
            )
            .with_status_column(&statuses);
            writeln!(out, "{}", table.to_markdown())?;
            let out_path = out_file
                .clone()
                .unwrap_or_else(|| "results/BENCH_schedule.json".to_string());
            write_report(
                &out_path,
                &wc_bench::schedule_json::schedule_json(&design.label(), &reports),
            )?;
            writeln!(out, "report written to {out_path}")?;
            // The CI gate: every kernel must replay bit-identically
            // within [floor, dynamic + slack], or fall back explicitly.
            if let Some(r) = reports.iter().find(|r| !r.is_sound()) {
                return Err(format!(
                    "kernel `{}` is unsound under the static schedule: {}",
                    r.kernel,
                    r.violations().join("; ")
                )
                .into());
            }
        }
        Command::Mem {
            workload,
            out: out_file,
        } => {
            let workloads = resolve_workloads(workload.as_deref())?;
            let reports = warped_compression::mem_suite(&workloads)?;
            let mut rows = Vec::new();
            let mut statuses = Vec::new();
            for r in &reports {
                rows.push(vec![
                    r.kernel.clone(),
                    r.sites.len().to_string(),
                    match r.race_free {
                        Some(true) => "isolated".to_string(),
                        Some(false) => format!("{} race(s)", r.static_races),
                        None => "unknown".to_string(),
                    },
                    r.traced_conflicts.len().to_string(),
                    r.escape_count().to_string(),
                    if r.schedule.static_mode {
                        "static".to_string()
                    } else {
                        r.schedule.bail.clone().unwrap_or_default()
                    },
                    r.schedule.forwardable_loads.to_string(),
                    r.refined_loads.to_string(),
                ]);
                statuses.push(if r.is_sound() { "ok" } else { "UNSOUND" });
            }
            let table = wc_bench::FigureTable::new(
                "mem",
                "Static memory analysis vs. traced accesses",
                [
                    "kernel",
                    "sites",
                    "race verdict",
                    "traced conf",
                    "escapes",
                    "schedule",
                    "fwd loads",
                    "refined",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
                rows,
            )
            .with_status_column(&statuses);
            writeln!(out, "{}", table.to_markdown())?;
            let out_path = out_file
                .clone()
                .unwrap_or_else(|| "results/BENCH_mem.json".to_string());
            write_report(&out_path, &wc_bench::mem_json::mem_json(&reports))?;
            writeln!(out, "report written to {out_path}")?;
            // The CI gate: the abstract address sets, the race verdict
            // and the transaction floors must all survive the trace.
            if let Some(r) = reports.iter().find(|r| !r.is_sound()) {
                return Err(format!(
                    "kernel `{}` broke the static memory analysis: {}",
                    r.kernel,
                    r.violations().join("; ")
                )
                .into());
            }
        }
        Command::Kernel {
            path,
            blocks,
            threads_per_block,
            mem_words,
            params,
            design,
        } => {
            let source = fs::read_to_string(path)?;
            let kernel = simt_isa::assemble(&source)?;
            let launch =
                LaunchConfig::try_new(*blocks, *threads_per_block)?.with_params(params.clone());
            let mut memory = GlobalMemory::zeroed(*mem_words);
            let result = GpuSim::new(design.config()).run(&kernel, &launch, &mut memory)?;
            writeln!(out, "kernel `{}` under {}:", kernel.name(), design.label())?;
            writeln!(out, "  cycles:            {}", result.stats.cycles)?;
            writeln!(out, "  warp instructions: {}", result.stats.instructions)?;
            writeln!(
                out,
                "  compression ratio: {:.3}",
                result.stats.compression_ratio()
            )?;
            writeln!(
                out,
                "  bank accesses:     {}",
                result.stats.regfile.total_accesses()
            )?;
            let shown = memory.words().iter().take(16).collect::<Vec<_>>();
            writeln!(out, "  mem[0..16]:        {shown:?}")?;
        }
    }
    Ok(())
}

/// Writes a rendered report, creating the parent directory if needed.
fn write_report(path: &str, doc: &str) -> Result<(), Box<dyn Error>> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, doc)?;
    Ok(())
}

/// Extracts `"key": <u64>` from a rendered fault fragment. The fragments
/// come from `wc_bench::fault_json`, whose key spelling and `": "`
/// separator are fixed, so a string search is exact — no JSON parser
/// dependency needed.
fn frag_u64_field(frag: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = frag.find(&pat)? + pat.len();
    let digits: String = frag[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Extracts `"key": "<string>"` from a rendered fault fragment.
fn frag_str_field(frag: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = frag.find(&pat)? + pat.len();
    frag[start..].split('"').next().map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, ParseError> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["list"]).unwrap(), Command::List);
        assert_eq!(parse(&["designs"]).unwrap(), Command::Designs);
    }

    #[test]
    fn parses_run_with_design() {
        assert_eq!(
            parse(&["run", "lib"]).unwrap(),
            Command::Run {
                workload: "lib".into(),
                design: DesignPoint::WarpedCompression
            }
        );
        assert_eq!(
            parse(&["run", "lib", "--design", "baseline"]).unwrap(),
            Command::Run {
                workload: "lib".into(),
                design: DesignPoint::Baseline
            }
        );
        assert_eq!(
            parse(&["run", "aes", "--design", "drowsy"]).unwrap(),
            Command::Run {
                workload: "aes".into(),
                design: DesignPoint::WarpedCompressionDrowsy
            }
        );
    }

    #[test]
    fn rejects_unknown_design_and_command() {
        assert!(parse(&["run", "lib", "--design", "warp9"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["run"]).is_err());
    }

    #[test]
    fn parses_kernel_command() {
        let cmd = parse(&[
            "kernel", "k.s", "--blocks", "2", "--tpb", "64", "--mem", "128", "--param", "7",
            "--param", "9",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Kernel {
                path: "k.s".into(),
                blocks: 2,
                threads_per_block: 64,
                mem_words: 128,
                params: vec![7, 9],
                design: DesignPoint::WarpedCompression,
            }
        );
    }

    #[test]
    fn kernel_requires_geometry() {
        assert!(parse(&["kernel", "k.s", "--blocks", "2"]).is_err());
    }

    #[test]
    fn parses_analyze_variants() {
        assert_eq!(
            parse(&["analyze", "bfs"]).unwrap(),
            Command::Analyze {
                workload: Some("bfs".into()),
                deny_warnings: false,
                json: None,
            }
        );
        assert_eq!(
            parse(&["analyze", "--all", "--deny-warnings"]).unwrap(),
            Command::Analyze {
                workload: None,
                deny_warnings: true,
                json: None,
            }
        );
        // The --json value must not be mistaken for a workload name.
        assert_eq!(
            parse(&["analyze", "--all", "--json", "report.json"]).unwrap(),
            Command::Analyze {
                workload: None,
                deny_warnings: false,
                json: Some("report.json".into()),
            }
        );
        assert!(parse(&["analyze"]).is_err());
        assert!(parse(&["analyze", "--all", "--json"]).is_err());
    }

    #[test]
    fn parses_predict_variants() {
        assert_eq!(
            parse(&["predict", "lib"]).unwrap(),
            Command::Predict {
                workload: Some("lib".into()),
                out: None,
            }
        );
        assert_eq!(
            parse(&["predict", "--all", "--out", "p.json"]).unwrap(),
            Command::Predict {
                workload: None,
                out: Some("p.json".into()),
            }
        );
        assert!(parse(&["predict"]).is_err());
        assert!(parse(&["predict", "--all", "--out"]).is_err());
    }

    #[test]
    fn predict_command_reports_and_writes_sound_json() {
        let dir = std::env::temp_dir().join(format!("wcsim-predict-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.json");
        let mut out = String::new();
        run_cli(
            &Command::Predict {
                workload: Some("lib".into()),
                out: Some(path.to_string_lossy().into_owned()),
            },
            &mut out,
        )
        .expect("lib prediction must be sound");
        assert!(out.contains("| lib |"));
        assert!(out.contains("report written to"));
        let doc = fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"unsound_miss\": 0"));
        assert!(doc.contains("\"sound\": true"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_json_report_is_written_and_deterministic() {
        let dir = std::env::temp_dir().join(format!("wcsim-analyze-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (p1, p2) = (dir.join("a.json"), dir.join("b.json"));
        let cmd = |p: &std::path::Path| Command::Analyze {
            workload: Some("bfs".into()),
            deny_warnings: false,
            json: Some(p.to_string_lossy().into_owned()),
        };
        let mut out = String::new();
        run_cli(&cmd(&p1), &mut out).unwrap();
        run_cli(&cmd(&p2), &mut out).unwrap();
        let (a, b) = (fs::read(&p1).unwrap(), fs::read(&p2).unwrap());
        assert_eq!(a, b, "analysis JSON must be byte-identical across runs");
        let doc = String::from_utf8(a).unwrap();
        assert!(doc.contains("\"kernel\": \"bfs\""));
        assert!(doc.contains("\"liveness\": {"));
        assert!(doc.contains("\"prediction\": {"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_all_reports_every_kernel_clean() {
        let mut out = String::new();
        run_cli(
            &Command::Analyze {
                workload: None,
                deny_warnings: true,
                json: None,
            },
            &mut out,
        )
        .expect("suite kernels must be lint clean");
        for name in gpu_workloads::names() {
            assert!(out.contains(name), "missing {name}");
        }
        assert!(out.contains("max live"));
    }

    #[test]
    fn analyze_single_workload_prints_summary() {
        let mut out = String::new();
        run_cli(
            &Command::Analyze {
                workload: Some("bfs".into()),
                deny_warnings: false,
                json: None,
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("bfs"));
        assert!(out.contains("dead"));
        assert!(!out.contains("backprop"));
    }

    #[test]
    fn analyze_unknown_workload_is_an_error() {
        let mut out = String::new();
        let err = run_cli(
            &Command::Analyze {
                workload: Some("nope".into()),
                deny_warnings: false,
                json: None,
            },
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn list_command_prints_suite() {
        let mut out = String::new();
        run_cli(&Command::List, &mut out).unwrap();
        for name in gpu_workloads::names() {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn designs_command_prints_all_names() {
        let mut out = String::new();
        run_cli(&Command::Designs, &mut out).unwrap();
        for d in DESIGN_NAMES {
            assert!(out.contains(d));
        }
    }

    #[test]
    fn run_command_reports_stats() {
        let mut out = String::new();
        run_cli(
            &Command::Run {
                workload: "lib".into(),
                design: DesignPoint::WarpedCompression,
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("lib"));
        assert!(out.contains("cycles"));
        assert!(out.contains("compression ratio"));
    }

    #[test]
    fn compare_command_reports_saving() {
        let mut out = String::new();
        run_cli(
            &Command::Compare {
                workload: "lib".into(),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("saving"));
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let mut out = String::new();
        let err = run_cli(
            &Command::Run {
                workload: "nope".into(),
                design: DesignPoint::Baseline,
            },
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn parses_faults_variants() {
        assert_eq!(
            parse(&["faults", "--all"]).unwrap(),
            Command::Faults {
                workload: None,
                injections: 8,
                seed: 42,
                protection: ProtectionModel::SecDed,
                resume: None,
                out: None,
            }
        );
        assert_eq!(
            parse(&[
                "faults",
                "bfs",
                "--injections",
                "16",
                "--seed",
                "7",
                "--protection",
                "parity",
                "--resume",
                "ckpt",
                "--out",
                "r.json",
            ])
            .unwrap(),
            Command::Faults {
                workload: Some("bfs".into()),
                injections: 16,
                seed: 7,
                protection: ProtectionModel::Parity,
                resume: Some("ckpt".into()),
                out: Some("r.json".into()),
            }
        );
        assert!(parse(&["faults"]).is_err());
        assert!(parse(&["faults", "bfs", "--protection", "tmr"]).is_err());
        assert!(parse(&["faults", "bfs", "--seed", "abc"]).is_err());
    }

    /// Every subcommand reads its flags the same way: a value flag
    /// without a value, a flag where a value belongs, an unknown flag,
    /// a repeated flag and a stray positional are all errors.
    #[test]
    fn malformed_flags_are_rejected() {
        let err = |args: &[&str]| parse(args).unwrap_err().0;
        assert!(err(&["fuzz", "--cases"]).contains("--cases needs a value"));
        assert!(err(&["faults", "lib", "--injections"]).contains("--injections needs a value"));
        assert!(err(&["faults", "lib", "--out", "--seed", "7"]).contains("--out needs a value"));
        assert!(err(&["run", "lib", "--design", "--all"]).contains("--design needs a value"));
        assert!(err(&["predict", "lib", "--bogus"]).contains("unknown flag `--bogus`"));
        assert!(err(&["faults", "--all", "--budget", "5"]).contains("unknown flag `--budget`"));
        assert!(err(&["list", "--all"]).contains("unknown flag `--all`"));
        assert!(err(&["fuzz", "--seed", "1", "--seed", "2"]).contains("--seed given twice"));
        assert!(err(&["compare", "lib", "aes"]).contains("unexpected argument `aes`"));
        assert!(err(&["fuzz", "300"]).contains("unexpected argument `300`"));
        assert!(err(&["mem", "lib", "--all"]).contains("not both"));
        assert!(err(&["kernel", "k.s", "--blocks", "1", "--tpb", "32"]).contains("--mem N"));
        let bad_param = [
            "kernel", "k.s", "--blocks", "1", "--tpb", "32", "--mem", "8", "--param", "x",
        ];
        assert!(err(&bad_param).contains("--param must be a number"));
    }

    fn faults_cmd(seed: u64, out: &std::path::Path, resume: Option<String>) -> Command {
        Command::Faults {
            workload: Some("lib".into()),
            injections: 6,
            seed,
            protection: ProtectionModel::SecDed,
            resume,
            out: Some(out.to_string_lossy().into_owned()),
        }
    }

    #[test]
    fn faults_report_is_byte_identical_across_runs() {
        let dir = std::env::temp_dir().join(format!("wcsim-faults-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (p1, p2) = (dir.join("a.json"), dir.join("b.json"));
        let mut o = String::new();
        run_cli(&faults_cmd(42, &p1, None), &mut o).unwrap();
        run_cli(&faults_cmd(42, &p2, None), &mut o).unwrap();
        let (a, b) = (fs::read(&p1).unwrap(), fs::read(&p2).unwrap());
        assert_eq!(a, b, "same seed must produce byte-identical reports");
        assert!(o.contains("| lib |"));
        assert!(o.contains("| ok |"));

        // A different seed changes the report.
        let p3 = dir.join("c.json");
        run_cli(&faults_cmd(43, &p3, None), &mut o).unwrap();
        assert_ne!(a, fs::read(&p3).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_resume_reuses_fragments_byte_identically() {
        let dir = std::env::temp_dir().join(format!("wcsim-resume-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt").to_string_lossy().into_owned();
        let (fresh, resumed) = (dir.join("fresh.json"), dir.join("resumed.json"));
        let mut o = String::new();
        // First run populates the checkpoint directory.
        run_cli(&faults_cmd(42, &fresh, Some(ckpt.clone())), &mut o).unwrap();
        // Second run resumes: every kernel is checkpointed, so nothing
        // re-runs and the report must be byte-identical.
        run_cli(&faults_cmd(42, &resumed, Some(ckpt)), &mut o).unwrap();
        assert_eq!(
            fs::read(&fresh).unwrap(),
            fs::read(&resumed).unwrap(),
            "resumed report must be byte-identical to the uninterrupted one"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_resume_never_mixes_campaigns() {
        let dir = std::env::temp_dir().join(format!("wcsim-resume-seed-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt").to_string_lossy().into_owned();
        let (seed1, fresh2, resumed2) = (
            dir.join("seed1.json"),
            dir.join("fresh2.json"),
            dir.join("resumed2.json"),
        );
        let mut o = String::new();
        run_cli(&faults_cmd(1, &seed1, Some(ckpt.clone())), &mut o).unwrap();
        run_cli(&faults_cmd(2, &fresh2, None), &mut o).unwrap();
        // Seed 1's fragments sit in the directory; a seed-2 run resumed
        // from it must not reuse them.
        run_cli(&faults_cmd(2, &resumed2, Some(ckpt)), &mut o).unwrap();
        assert_eq!(
            fs::read(&fresh2).unwrap(),
            fs::read(&resumed2).unwrap(),
            "a seed-2 run resumed from seed-1 checkpoints must equal a fresh seed-2 run"
        );
        assert_ne!(fs::read(&seed1).unwrap(), fs::read(&fresh2).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frag_field_extractors_find_exact_keys() {
        let frag = "{\"status\": \"ok\", \"outcomes\": {\"masked\": 3, \
                    \"silent_corruption\": 0}, \"stuck\": {\"masked_by_slack\": 9}}";
        assert_eq!(frag_u64_field(frag, "masked"), Some(3));
        assert_eq!(frag_u64_field(frag, "silent_corruption"), Some(0));
        assert_eq!(frag_u64_field(frag, "missing"), None);
        assert_eq!(frag_str_field(frag, "status").as_deref(), Some("ok"));
    }

    #[test]
    fn parses_fuzz_variants() {
        assert_eq!(
            parse(&["fuzz"]).unwrap(),
            Command::Fuzz {
                cases: 300,
                seed: 42,
                budget: warped_compression::DEFAULT_CYCLE_BUDGET,
                resume: None,
                out: None,
                repro: None,
            }
        );
        assert_eq!(
            parse(&[
                "fuzz", "--cases", "50", "--seed", "7", "--budget", "9000", "--resume", "ckpt",
                "--out", "f.json", "--repro", "rdir",
            ])
            .unwrap(),
            Command::Fuzz {
                cases: 50,
                seed: 7,
                budget: 9000,
                resume: Some("ckpt".into()),
                out: Some("f.json".into()),
                repro: Some("rdir".into()),
            }
        );
        assert!(parse(&["fuzz", "--cases", "abc"]).is_err());
        assert!(parse(&["fuzz", "--seed", "-1"]).is_err());
    }

    fn fuzz_cmd(seed: u64, out: &std::path::Path, resume: Option<String>) -> Command {
        Command::Fuzz {
            cases: 24,
            seed,
            budget: warped_compression::DEFAULT_CYCLE_BUDGET,
            resume,
            out: Some(out.to_string_lossy().into_owned()),
            repro: Some(
                out.parent()
                    .unwrap()
                    .join("repro")
                    .to_string_lossy()
                    .into_owned(),
            ),
        }
    }

    #[test]
    fn fuzz_campaign_is_clean_and_byte_identical() {
        let dir = std::env::temp_dir().join(format!("wcsim-fuzz-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (p1, p2) = (dir.join("a.json"), dir.join("b.json"));
        let mut o = String::new();
        run_cli(&fuzz_cmd(42, &p1, None), &mut o).expect("campaign must be finding-free");
        run_cli(&fuzz_cmd(42, &p2, None), &mut o).unwrap();
        let (a, b) = (fs::read(&p1).unwrap(), fs::read(&p2).unwrap());
        assert_eq!(a, b, "same seed must produce byte-identical reports");
        assert!(o.contains("| pass |"));
        let doc = String::from_utf8(a).unwrap();
        assert!(doc.contains("\"findings\": 0"));
        assert!(doc.contains("\"smoke_passed\": true"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuzz_resume_reuses_fragments_byte_identically() {
        let dir = std::env::temp_dir().join(format!("wcsim-fuzz-resume-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt").to_string_lossy().into_owned();
        let (fresh, resumed) = (dir.join("fresh.json"), dir.join("resumed.json"));
        let mut o = String::new();
        // First run populates the checkpoint directory.
        run_cli(&fuzz_cmd(42, &fresh, Some(ckpt.clone())), &mut o).unwrap();
        // Drop some fragments to simulate an interrupt mid-campaign;
        // the survivors must be reused verbatim.
        let frag_dir = dir.join("ckpt").join("seed42-budget200000");
        for index in [3usize, 11, 19] {
            fs::remove_file(frag_dir.join(format!("case{index:06}.json"))).unwrap();
        }
        run_cli(&fuzz_cmd(42, &resumed, Some(ckpt)), &mut o).unwrap();
        assert_eq!(
            fs::read(&fresh).unwrap(),
            fs::read(&resumed).unwrap(),
            "resumed report must be byte-identical to the uninterrupted one"
        );
        assert!(o.contains("| 21 |"), "21 of 24 cases resume: {o}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_perf_variants() {
        assert_eq!(
            parse(&["perf", "lib"]).unwrap(),
            Command::Perf {
                workload: Some("lib".into()),
                design: DesignPoint::WarpedCompression,
                out: None,
            }
        );
        assert_eq!(
            parse(&["perf", "--all", "--design", "baseline", "--out", "p.json"]).unwrap(),
            Command::Perf {
                workload: None,
                design: DesignPoint::Baseline,
                out: Some("p.json".into()),
            }
        );
        assert!(parse(&["perf"]).is_err());
        assert!(parse(&["perf", "--all", "--out"]).is_err());
        assert!(parse(&["perf", "lib", "--design", "warp9"]).is_err());
    }

    #[test]
    fn perf_command_reports_and_writes_sound_json() {
        let dir = std::env::temp_dir().join(format!("wcsim-perf-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (p1, p2) = (dir.join("a.json"), dir.join("b.json"));
        let cmd = |p: &std::path::Path| Command::Perf {
            workload: Some("lib".into()),
            design: DesignPoint::WarpedCompression,
            out: Some(p.to_string_lossy().into_owned()),
        };
        let mut out = String::new();
        run_cli(&cmd(&p1), &mut out).expect("lib bounds must be sound");
        run_cli(&cmd(&p2), &mut out).unwrap();
        let (a, b) = (fs::read(&p1).unwrap(), fs::read(&p2).unwrap());
        assert_eq!(a, b, "perf JSON must be byte-identical across runs");
        assert!(out.contains("| lib |"));
        assert!(out.contains("| ok |"));
        assert!(out.contains("report written to"));
        let doc = String::from_utf8(a).unwrap();
        assert!(doc.contains("\"design\": \"warped-compression\""));
        assert!(doc.contains("\"sound\": true"));
        assert!(doc.contains("\"static_cycles\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn perf_unknown_workload_is_an_error() {
        let mut out = String::new();
        let err = run_cli(
            &Command::Perf {
                workload: Some("nope".into()),
                design: DesignPoint::WarpedCompression,
                out: None,
            },
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn parses_schedule_variants() {
        assert_eq!(
            parse(&["schedule", "lib"]).unwrap(),
            Command::Schedule {
                workload: Some("lib".into()),
                design: DesignPoint::WarpedCompression,
                out: None,
            }
        );
        assert_eq!(
            parse(&["schedule", "--all", "--design", "baseline", "--out", "s.json"]).unwrap(),
            Command::Schedule {
                workload: None,
                design: DesignPoint::Baseline,
                out: Some("s.json".into()),
            }
        );
        assert!(parse(&["schedule"]).is_err());
        assert!(parse(&["schedule", "--all", "--out"]).is_err());
        assert!(parse(&["schedule", "lib", "--design", "warp9"]).is_err());
    }

    #[test]
    fn schedule_command_reports_and_writes_sound_json() {
        let dir = std::env::temp_dir().join(format!("wcsim-sched-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (p1, p2) = (dir.join("a.json"), dir.join("b.json"));
        let cmd = |w: &str, p: &std::path::Path| Command::Schedule {
            workload: Some(w.into()),
            design: DesignPoint::WarpedCompression,
            out: Some(p.to_string_lossy().into_owned()),
        };
        let mut out = String::new();
        run_cli(&cmd("lib", &p1), &mut out).expect("lib schedule must be sound");
        run_cli(&cmd("lib", &p2), &mut out).unwrap();
        let (a, b) = (fs::read(&p1).unwrap(), fs::read(&p2).unwrap());
        assert_eq!(a, b, "schedule JSON must be byte-identical across runs");
        assert!(out.contains("| lib |"));
        assert!(out.contains("| static |"));
        assert!(out.contains("| ok |"));
        let doc = String::from_utf8(a).unwrap();
        assert!(doc.contains("\"mode\": \"static\""));
        assert!(doc.contains("\"sound\": true"));
        assert!(doc.contains("\"registers_match\": true"));
        // A data-dependent kernel falls back, stays sound, and says why.
        run_cli(&cmd("bfs", &p1), &mut out).expect("fallback must be sound");
        let doc = fs::read_to_string(&p1).unwrap();
        assert!(doc.contains("\"mode\": \"dynamic-fallback\""));
        assert!(doc.contains("\"sound\": true"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_mem_variants() {
        assert_eq!(
            parse(&["mem", "lib"]).unwrap(),
            Command::Mem {
                workload: Some("lib".into()),
                out: None,
            }
        );
        assert_eq!(
            parse(&["mem", "--all", "--out", "m.json"]).unwrap(),
            Command::Mem {
                workload: None,
                out: Some("m.json".into()),
            }
        );
        assert!(parse(&["mem"]).is_err());
        assert!(parse(&["mem", "--all", "--out"]).is_err());
    }

    #[test]
    fn mem_command_reports_and_writes_sound_json() {
        let dir = std::env::temp_dir().join(format!("wcsim-mem-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (p1, p2) = (dir.join("a.json"), dir.join("b.json"));
        let cmd = |w: &str, p: &std::path::Path| Command::Mem {
            workload: Some(w.into()),
            out: Some(p.to_string_lossy().into_owned()),
        };
        let mut out = String::new();
        run_cli(&cmd("lib", &p1), &mut out).expect("lib memory analysis must be sound");
        run_cli(&cmd("lib", &p2), &mut out).unwrap();
        let (a, b) = (fs::read(&p1).unwrap(), fs::read(&p2).unwrap());
        assert_eq!(a, b, "mem JSON must be byte-identical across runs");
        assert!(out.contains("| lib |"));
        assert!(out.contains("| ok |"));
        assert!(out.contains("report written to"));
        let doc = String::from_utf8(a).unwrap();
        assert!(doc.contains("\"sound\": true"));
        assert!(doc.contains("\"race_free\": "));
        assert!(doc.contains("\"schedule_mode\": "));
        // A divergent, data-dependent kernel still joins soundly and
        // names its scheduler bail.
        run_cli(&cmd("bfs", &p1), &mut out).expect("bfs memory analysis must be sound");
        let doc = fs::read_to_string(&p1).unwrap();
        assert!(doc.contains("\"sound\": true"));
        assert!(doc.contains("\"schedule_mode\": \"dynamic-fallback\""));
        assert!(doc.contains("\"schedule_bail\": \""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kernel_command_runs_assembly_from_disk() {
        let dir = std::env::temp_dir().join("wcsim-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fill.s");
        fs::write(
            &path,
            ".kernel fill regs 2\n mov r0, %gtid\n add r1, r0, param[0]\n st [r0+0], r1\n exit\n",
        )
        .unwrap();
        let cmd = Command::Kernel {
            path: path.to_string_lossy().into_owned(),
            blocks: 1,
            threads_per_block: 32,
            mem_words: 32,
            params: vec![5],
            design: DesignPoint::WarpedCompression,
        };
        let mut out = String::new();
        run_cli(&cmd, &mut out).unwrap();
        assert!(out.contains("kernel `fill`"));
        assert!(out.contains("mem[0..16]"));
        assert!(out.contains('5'));
    }
}
