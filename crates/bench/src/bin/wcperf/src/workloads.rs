//! The four workloads. Each op is one call into a public function of
//! the repository; a traced run re-executes the op's child functions
//! afterwards so the op's own (join) time can be estimated.
//!
//! The inputs are the CI gates' fixed inputs: the 18-kernel suite, the
//! fault campaign and the fuzz campaign at their gate seed. The
//! benchmark seed only orders the ops within a pass. Seed-chosen fuzz
//! kernels were measured to move the median case time by ±9 % and the
//! mutation smoke test by 4× between seeds, which would swamp every
//! bound the benchmark sets.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bdi::{explore_best_choice, BdiCodec, FixedChoice};
use gpu_faults::{FaultInjector, FaultPlan, ProtectionModel};
use gpu_power::EnergyParams;
use gpu_sim::{GlobalMemory, GpuConfig, GpuSim, LaunchConfig, SimStats, StallCause};
use gpu_workloads::Workload;
use simt_analysis::{
    analyze_cells, analyze_mem, analyze_with_launch, bound_kernel, interpret, schedule_kernel, Cfg,
    LaunchInfo, Liveness, PerfLaunch, PerfMachine, ReachingDefs,
};
use warped_compression::{
    energy_of, kernel_seed, mem_workload, perf_machine, perf_workload, predict_workload, run_case,
    run_kernel_faults, run_workload, schedule_workload, DesignPoint, FuzzCase, FuzzConfig,
    Mutation, SmokeOutcome,
};
use wc_bench::{figures, Campaign};

use crate::golden::Golden;
use crate::trace::{Recorder, ANALYSIS, BDI, BENCH, CORE, FAULTS, FUZZ, POWER, SIM};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["suite-sim", "check-gates", "fuzz-gate", "design-sweep"];

/// The seed the CI gates run the fault and fuzz campaigns with.
const GATE_SEED: u64 = 42;
/// Fuzz cases per pass (the CI gate runs 300; more cases make the
/// per-case percentiles steadier).
const FUZZ_CASES: usize = 1000;
/// Cases each smoke mutation may scan before it counts as missed (the
/// CI gate's setting).
const SMOKE_MAX_SCAN: usize = 64;
/// Planned faults per kernel (the CI gate's setting).
const FAULT_INJECTIONS: usize = 8;

/// The design points `figures::all` simulates, in its order. The traced
/// design-sweep run checks the real campaign against this list.
pub const SWEEP: [DesignPoint; 14] = [
    DesignPoint::Baseline,
    DesignPoint::WarpedCompression,
    DesignPoint::DecompressMergeRecompress,
    DesignPoint::Only(FixedChoice::Delta0),
    DesignPoint::Only(FixedChoice::Delta1),
    DesignPoint::Only(FixedChoice::Delta2),
    DesignPoint::BaselineLrr,
    DesignPoint::WarpedCompressionLrr,
    DesignPoint::Latency {
        compression: 2,
        decompression: 1,
    },
    DesignPoint::Latency {
        compression: 4,
        decompression: 1,
    },
    DesignPoint::Latency {
        compression: 8,
        decompression: 1,
    },
    DesignPoint::Latency {
        compression: 2,
        decompression: 2,
    },
    DesignPoint::Latency {
        compression: 2,
        decompression: 4,
    },
    DesignPoint::Latency {
        compression: 2,
        decompression: 8,
    },
];

/// How many passes an untraced run makes: `seconds` divided by the
/// pass time nominal on the reference host (see the README), and at
/// least `min`, so every op has a fastest-of-several latency and every
/// workload 200 latency samples. The work depends only on the
/// arguments, so two commits measured with the same arguments do the
/// same work.
pub fn passes(workload: &str, seconds: u64) -> usize {
    let (nominal_s, min) = match workload {
        "suite-sim" => (0.78, 6),
        "check-gates" => (4.3, 2),
        "fuzz-gate" => (6.0, 2),
        _ => (5.8, 2),
    };
    ((seconds as f64 / nominal_s).round() as usize).max(min)
}

/// One op: the public function it calls and what it is called on.
pub struct OpSpec {
    pub kind: &'static str,
    pub detail: String,
}

/// Untimed checks a workload makes once per run.
#[derive(Default)]
pub struct Verification {
    pub checks: usize,
    pub failures: Vec<String>,
    /// Deterministic model outputs (per-layer metrics of the run).
    pub model: Vec<(&'static str, f64)>,
}

pub trait Bench {
    fn ops(&self) -> &[OpSpec];

    /// Runs op `op` through `rec` and checks its output.
    fn run(&self, op: usize, rec: &mut Recorder) -> Result<(), String>;

    /// Re-executes op `op`'s child functions (traced runs only).
    fn children(&self, _op: usize, _rec: &mut Recorder) -> Result<(), String> {
        Ok(())
    }

    fn verify(&self) -> Verification {
        Verification::default()
    }

    /// Whole-campaign measurements of a traced run.
    fn campaign(&self, _rec: &mut Recorder) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

/// A built workload plus what building it measured.
pub struct Setup {
    pub bench: Box<dyn Bench>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Builds a workload's inputs: suite, images, configs, fuzz cases.
pub fn setup(name: &str) -> Result<Setup, String> {
    match name {
        "suite-sim" => Ok(SuiteSim::setup()),
        "check-gates" => Ok(CheckGates::setup()),
        "fuzz-gate" => Ok(FuzzGate::setup()),
        "design-sweep" => Ok(DesignSweep::setup()),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

fn timed_suite() -> (Vec<Workload>, (&'static str, f64)) {
    let start = Instant::now();
    let suite = gpu_workloads::suite();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (suite, ("workloads.suite_build_ms", ms))
}

fn golden() -> Golden {
    Golden::committed().expect("golden.txt is committed with the benchmark and parses")
}

/// A design point with its label and materialised configuration.
struct Design {
    label: String,
    cfg: GpuConfig,
    /// `baseline` or `wc`: which `sim.ns_per_winst` it feeds.
    class: &'static str,
}

impl Design {
    fn new(point: DesignPoint) -> Self {
        let cfg = point.config();
        let class = if cfg.compression.is_enabled() {
            "wc"
        } else {
            "baseline"
        };
        Design {
            label: point.label(),
            cfg,
            class,
        }
    }
}

/// Ops over every (kernel, design) pair, kernel-major.
fn grid(suite: &[Workload], designs: &[Design]) -> (Vec<OpSpec>, Vec<(usize, usize)>) {
    let mut ops = Vec::new();
    let mut index = Vec::new();
    for (k, w) in suite.iter().enumerate() {
        for (d, design) in designs.iter().enumerate() {
            ops.push(OpSpec {
                kind: "run_workload",
                detail: format!("{}/{}", w.name(), design.label),
            });
            index.push((k, d));
        }
    }
    (ops, index)
}

/// Adds one `GpuSim::run` child's statistics to the pass counters; call
/// right after the run so [`Recorder::last_ns`] is its time.
fn record_sim(rec: &mut Recorder, class: &str, s: &SimStats) {
    let winst = s.instructions as f64;
    rec.count(&format!("sim.run_ns.{class}"), rec.last_ns() as f64);
    rec.count(&format!("sim.winst.{class}"), winst);
    rec.count("sim.winst", winst);
    rec.count("sim.cycles", s.cycles as f64);
    rec.count("sim.synthetic_movs", s.synthetic_movs as f64);
    rec.count("sim.divergent", s.divergent_instructions as f64);
    for cause in StallCause::ALL {
        rec.count(
            &format!("sim.stall.{}", cause.name()),
            s.stalls.total(cause) as f64,
        );
    }
    let rf = &s.regfile;
    rec.count("regfile.bank_reads", rf.total_reads() as f64);
    rec.count("regfile.bank_writes", rf.total_writes() as f64);
    rec.count("regfile.wakeups", rf.wakeups as f64);
    rec.count(
        "regfile.gated_cycles",
        rf.gated_cycles.iter().sum::<u64>() as f64,
    );
    rec.count(
        "regfile.bank_cycles",
        (rf.num_banks() as u64 * rf.total_cycles) as f64,
    );
}

/// `GpuSim::run` on a suite kernel, checked against the golden stats
/// and memory digests.
fn run_and_check(
    rec: &mut Recorder,
    w: &Workload,
    design: &Design,
    golden: &Golden,
) -> Result<SimStats, String> {
    let sim = GpuSim::new(design.cfg.clone());
    let mut memory = w.fresh_memory();
    let result = rec
        .call("GpuSim::run", SIM, || {
            sim.run(w.kernel(), w.launch(), &mut memory)
        })
        .map_err(|e| e.to_string())?;
    record_sim(rec, design.class, &result.stats);
    golden.check_stats(w.name(), &design.label, &result.stats)?;
    golden.check_memory(w.name(), &design.label, memory.words())?;
    Ok(result.stats)
}

// ---------------------------------------------------------------------
// suite-sim: `wcsim run`/`compare` — the dynamic engine, no analysis.
// ---------------------------------------------------------------------

struct SuiteSim {
    suite: Vec<Workload>,
    designs: Vec<Design>,
    golden: Golden,
    ops: Vec<OpSpec>,
    index: Vec<(usize, usize)>,
}

impl SuiteSim {
    fn setup() -> Setup {
        let (suite, built) = timed_suite();
        let designs = vec![
            Design::new(DesignPoint::Baseline),
            Design::new(DesignPoint::WarpedCompression),
        ];
        let (ops, index) = grid(&suite, &designs);
        Setup {
            bench: Box::new(SuiteSim {
                suite,
                designs,
                golden: golden(),
                ops,
                index,
            }),
            metrics: vec![built],
        }
    }
}

/// Replays one run's register-write values through the codec the
/// run used: compress, decompress, classify and the full explorer.
fn replay_codec(rec: &mut Recorder, w: &Workload, design: &Design) -> Result<(), String> {
    let sim = GpuSim::new(design.cfg.clone());
    let mut memory = w.fresh_memory();
    let mut values = Vec::new();
    rec.call("GpuSim::run_observed", SIM, || {
        sim.run_observed(w.kernel(), w.launch(), &mut memory, &mut |e| {
            values.push(e.value)
        })
    })
    .map_err(|e| e.to_string())?;
    let codec = BdiCodec::new(design.cfg.compression.choices.clone());
    let mut compressed = Vec::with_capacity(values.len());
    rec.call("BdiCodec::compress", BDI, || {
        compressed.extend(values.iter().map(|v| codec.compress(black_box(v))))
    });
    rec.call("BdiCodec::decompress", BDI, || {
        for c in &compressed {
            black_box(codec.decompress(black_box(c)));
        }
    });
    rec.call("BdiCodec::classify", BDI, || {
        for v in &values {
            black_box(codec.classify(black_box(v)));
        }
    });
    rec.call("explore_best_choice", BDI, || {
        for v in &values {
            black_box(explore_best_choice(black_box(v)));
        }
    });
    if compressed
        .iter()
        .zip(&values)
        .any(|(c, v)| codec.decompress(c) != *v)
    {
        return Err("codec replay: a register did not round-trip".into());
    }
    rec.count("bdi.writes", values.len() as f64);
    rec.count(
        "bdi.compressed",
        compressed.iter().filter(|c| c.is_compressed()).count() as f64,
    );
    rec.count(
        "bdi.stored_bytes",
        compressed.iter().map(|c| c.stored_len()).sum::<usize>() as f64,
    );
    Ok(())
}

impl Bench for SuiteSim {
    fn ops(&self) -> &[OpSpec] {
        &self.ops
    }

    fn run(&self, op: usize, rec: &mut Recorder) -> Result<(), String> {
        let (k, d) = self.index[op];
        let (w, design) = (&self.suite[k], &self.designs[d]);
        let out = rec
            .call("run_workload", CORE, || run_workload(&design.cfg, w))
            .map_err(|e| e.to_string())?;
        rec.count("winst", out.stats.instructions as f64);
        self.golden.check_stats(w.name(), &design.label, &out.stats)
    }

    fn children(&self, op: usize, rec: &mut Recorder) -> Result<(), String> {
        let (k, d) = self.index[op];
        let (w, design) = (&self.suite[k], &self.designs[d]);
        run_and_check(rec, w, design, &self.golden)?;
        if design.class == "wc" {
            replay_codec(rec, w, design)?;
        }
        Ok(())
    }

    /// Final memory of every (kernel, design) against its digest, and
    /// the Fig. 9 register-file energy saving.
    fn verify(&self) -> Verification {
        let mut v = Verification::default();
        let params = EnergyParams::paper_table3();
        let mut rec = Recorder::new(false);
        let mut savings = Vec::new();
        for w in &self.suite {
            let mut energy = Vec::new();
            for design in &self.designs {
                v.checks += 1;
                match run_and_check(&mut rec, w, design, &self.golden) {
                    Ok(stats) => energy.push(energy_of(&stats, &params)),
                    Err(e) => v.failures.push(e),
                }
            }
            if let [base, wc] = &energy[..] {
                savings.push(wc.savings_vs(base));
            }
        }
        if savings.len() == self.suite.len() {
            let mean = savings.iter().sum::<f64>() / savings.len() as f64;
            v.model.push(("power.rf_energy_saving_pct", 100.0 * mean));
        }
        v
    }
}

// ---------------------------------------------------------------------
// check-gates: the CI soundness gates, serially.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Gate {
    Analyze,
    Predict,
    Perf,
    Schedule,
    Mem,
    Faults,
}

impl Gate {
    const ALL: [Gate; 6] = [
        Gate::Analyze,
        Gate::Predict,
        Gate::Perf,
        Gate::Schedule,
        Gate::Mem,
        Gate::Faults,
    ];

    fn kind(self) -> &'static str {
        match self {
            Gate::Analyze => "analyze_with_launch",
            Gate::Predict => "predict_workload",
            Gate::Perf => "perf_workload",
            Gate::Schedule => "schedule_workload",
            Gate::Mem => "mem_workload",
            Gate::Faults => "run_kernel_faults",
        }
    }
}

/// One kernel's launch facts, with and without the initial-memory image
/// (the gates arm the image where the CLI does).
struct Launches {
    bare: LaunchInfo,
    armed: LaunchInfo,
    perf_bare: PerfLaunch,
    perf_armed: PerfLaunch,
}

impl Launches {
    fn of(w: &Workload) -> Self {
        let launch = w.launch();
        let image = Arc::new(w.fresh_memory().words().to_vec());
        let bare = LaunchInfo {
            params: launch.params().to_vec(),
            blocks: u32::try_from(launch.blocks()).ok(),
            threads_per_block: u32::try_from(launch.threads_per_block()).ok(),
            mem_words: u64::try_from(image.len()).ok(),
            initial_mem: None,
        };
        let armed = LaunchInfo {
            initial_mem: Some(Arc::clone(&image)),
            ..bare.clone()
        };
        let perf_bare = PerfLaunch {
            blocks: launch.blocks(),
            threads_per_block: launch.threads_per_block(),
            params: launch.params().to_vec(),
            initial_mem: None,
        };
        let perf_armed = PerfLaunch {
            initial_mem: Some(image),
            ..perf_bare.clone()
        };
        Launches {
            bare,
            armed,
            perf_bare,
            perf_armed,
        }
    }
}

struct CheckGates {
    suite: Vec<Workload>,
    launches: Vec<Launches>,
    wc: Design,
    machine: PerfMachine,
    golden: Golden,
    ops: Vec<OpSpec>,
    index: Vec<(usize, Gate)>,
}

impl CheckGates {
    fn setup() -> Setup {
        let (suite, built) = timed_suite();
        let launches = suite.iter().map(Launches::of).collect();
        let wc = Design::new(DesignPoint::WarpedCompression);
        let machine = perf_machine(&wc.cfg);
        let mut ops = Vec::new();
        let mut index = Vec::new();
        for (k, w) in suite.iter().enumerate() {
            for gate in Gate::ALL {
                ops.push(OpSpec {
                    kind: gate.kind(),
                    detail: w.name().to_string(),
                });
                index.push((k, gate));
            }
        }
        Setup {
            bench: Box::new(CheckGates {
                suite,
                launches,
                wc,
                machine,
                golden: golden(),
                ops,
                index,
            }),
            metrics: vec![built],
        }
    }
}

impl Bench for CheckGates {
    fn ops(&self) -> &[OpSpec] {
        &self.ops
    }

    fn run(&self, op: usize, rec: &mut Recorder) -> Result<(), String> {
        let (k, gate) = self.index[op];
        let w = &self.suite[k];
        let kind = gate.kind();
        // Each simulating gate is credited with one run of the kernel.
        let winst = self.golden.get(w.name(), &self.wc.label)?.winst as f64;
        let wc = DesignPoint::WarpedCompression;
        match gate {
            Gate::Analyze => {
                let armed = &self.launches[k].armed;
                let a = rec.call(kind, ANALYSIS, || {
                    analyze_with_launch(w.kernel(), Some(armed))
                });
                let (errors, warnings) = (a.report.error_count(), a.report.warning_count());
                if errors + warnings > 0 {
                    return Err(format!("analyze: {errors} error(s), {warnings} warning(s)"));
                }
            }
            Gate::Predict => {
                let r = rec
                    .call(kind, CORE, || predict_workload(w))
                    .map_err(|e| e.to_string())?;
                rec.count("winst", winst);
                if !r.is_sound() {
                    return Err(format!("predict: {} unsound site(s)", r.unsound_count()));
                }
            }
            Gate::Perf => {
                let r = rec
                    .call(kind, CORE, || perf_workload(w, wc))
                    .map_err(|e| e.to_string())?;
                rec.count("winst", winst);
                if !r.is_sound() {
                    return Err("perf: a measurement beat a static floor".into());
                }
            }
            Gate::Schedule => {
                let r = rec
                    .call(kind, CORE, || schedule_workload(w, wc))
                    .map_err(|e| e.to_string())?;
                rec.count("winst", winst);
                let key = if r.mode.is_static() {
                    "analysis.static_plans"
                } else {
                    "analysis.bails"
                };
                rec.count(key, 1.0);
                rec.count("sched.cycles", r.scheduled_cycles as f64);
                rec.count("sched.energy_pj", r.comparison.scheduled_energy_pj);
                if !r.is_sound() {
                    return Err(format!("schedule: {}", r.violations().join("; ")));
                }
            }
            Gate::Mem => {
                let r = rec
                    .call(kind, CORE, || mem_workload(w))
                    .map_err(|e| e.to_string())?;
                rec.count("winst", winst);
                rec.count("analysis.refined_loads", r.refined_loads as f64);
                if !r.is_sound() {
                    return Err(format!("mem: {}", r.violations().join("; ")));
                }
            }
            Gate::Faults => {
                let r = rec.call(kind, FAULTS, || {
                    run_kernel_faults(
                        &self.wc.cfg,
                        w,
                        ProtectionModel::SecDed,
                        FAULT_INJECTIONS,
                        GATE_SEED,
                    )
                });
                rec.count("winst", winst);
                let silent = r.log.silent();
                rec.count("faults.injections", r.log.events.len() as f64);
                rec.count("faults.silent", silent as f64);
                if silent > 0 {
                    return Err(format!(
                        "faults: {silent} silent corruption(s) slipped past SEC-DED"
                    ));
                }
            }
        }
        Ok(())
    }

    fn children(&self, op: usize, rec: &mut Recorder) -> Result<(), String> {
        let (k, gate) = self.index[op];
        let w = &self.suite[k];
        let (kernel, launch) = (w.kernel(), w.launch());
        let l = &self.launches[k];
        let m = &self.machine;
        let sim = GpuSim::new(self.wc.cfg.clone());
        let sim_err = |e: gpu_sim::SimError| e.to_string();
        match gate {
            Gate::Analyze => {
                let instrs = kernel.instrs();
                let cfg = rec.call("Cfg::build", ANALYSIS, || Cfg::build(instrs));
                rec.call("ReachingDefs::compute", ANALYSIS, || {
                    ReachingDefs::compute(instrs, kernel.num_regs(), &cfg)
                });
                rec.call("Liveness::compute", ANALYSIS, || {
                    Liveness::compute(instrs, &cfg)
                });
                rec.call("interpret", ANALYSIS, || {
                    interpret(
                        w.name(),
                        instrs,
                        usize::from(kernel.num_regs()),
                        &cfg,
                        Some(&l.armed),
                    )
                });
            }
            Gate::Predict => {
                rec.call("analyze_with_launch", ANALYSIS, || {
                    analyze_with_launch(kernel, Some(&l.bare))
                });
                let mut memory = w.fresh_memory();
                gate_sim(rec, "GpuSim::run_observed", || {
                    sim.run_observed(kernel, launch, &mut memory, &mut |_| {})
                })
                .map_err(sim_err)?;
            }
            Gate::Perf => {
                rec.call("bound_kernel", ANALYSIS, || {
                    bound_kernel(kernel, &l.perf_bare, m)
                });
                let mut memory = w.fresh_memory();
                let r = gate_sim(rec, "GpuSim::run", || sim.run(kernel, launch, &mut memory))
                    .map_err(sim_err)?;
                record_sim(rec, self.wc.class, &r.stats);
            }
            Gate::Schedule => {
                rec.call("bound_kernel", ANALYSIS, || {
                    bound_kernel(kernel, &l.perf_armed, m)
                });
                let mut memory = w.fresh_memory();
                gate_sim(rec, "GpuSim::run_capturing", || {
                    sim.run_capturing(kernel, launch, &mut memory)
                })
                .map_err(sim_err)?;
                let residency = sim.max_resident_warps(kernel);
                let plan = rec.call("schedule_kernel", ANALYSIS, || {
                    schedule_kernel(kernel, &l.perf_armed, m, residency)
                });
                if let Ok(plan) = plan {
                    let mut memory = w.fresh_memory();
                    gate_sim(rec, "GpuSim::run_scheduled", || {
                        sim.run_scheduled(kernel, &plan, launch, &mut memory)
                    })
                    .map_err(sim_err)?;
                }
            }
            Gate::Mem => {
                let instrs = kernel.instrs();
                let cfg = rec.call("Cfg::build", ANALYSIS, || Cfg::build(instrs));
                rec.call("analyze_mem", ANALYSIS, || {
                    analyze_mem(w.name(), instrs, kernel.num_regs(), &cfg, Some(&l.armed))
                });
                rec.call("analyze_cells", ANALYSIS, || {
                    analyze_cells(
                        w.name(),
                        instrs,
                        usize::from(kernel.num_regs()),
                        &cfg,
                        Some(&l.armed),
                    )
                });
                rec.call("bound_kernel", ANALYSIS, || {
                    bound_kernel(kernel, &l.perf_armed, m)
                });
                let mut memory = w.fresh_memory();
                gate_sim(rec, "GpuSim::run_mem_observed", || {
                    sim.run_mem_observed(kernel, launch, &mut memory, &mut |_| {})
                })
                .map_err(sim_err)?;
                let residency = sim.max_resident_warps(kernel);
                let _ = rec.call("schedule_kernel", ANALYSIS, || {
                    schedule_kernel(kernel, &l.perf_armed, m, residency)
                });
            }
            Gate::Faults => {
                let mut memory = w.fresh_memory();
                let clean = gate_sim(rec, "GpuSim::run", || sim.run(kernel, launch, &mut memory))
                    .map_err(sim_err)?;
                record_sim(rec, self.wc.class, &clean.stats);
                let plan = FaultPlan::generate(
                    kernel_seed(GATE_SEED, w.name()),
                    FAULT_INJECTIONS,
                    clean.stats.writes.max(1),
                );
                let injector = FaultInjector::new(plan, ProtectionModel::SecDed, true);
                let mut memory = w.fresh_memory();
                // A detected uncorrectable error aborts the faulted run
                // by design, so its result is not an error here.
                let _ = gate_sim(rec, "GpuSim::run_faulted", || {
                    sim.run_faulted(kernel, launch, &mut memory, injector)
                });
            }
        }
        Ok(())
    }
}

/// A simulator call among a gate's children; its time also counts
/// toward `core.sim_share_pct`.
fn gate_sim<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> T {
    let value = rec.call(name, SIM, f);
    rec.count("gates.sim_ns", rec.last_ns() as f64);
    value
}

// ---------------------------------------------------------------------
// fuzz-gate: the differential fuzzer on tiny random kernels.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum FuzzOp {
    Case(usize),
    Smoke(Mutation),
}

struct FuzzGate {
    cfg: FuzzConfig,
    cases: Vec<FuzzCase>,
    sim: GpuSim,
    ops: Vec<OpSpec>,
    index: Vec<FuzzOp>,
}

impl FuzzGate {
    fn setup() -> Setup {
        let cfg = FuzzConfig {
            seed: GATE_SEED,
            ..FuzzConfig::default()
        };
        let start = Instant::now();
        let cases: Vec<FuzzCase> = (0..FUZZ_CASES)
            .map(|i| FuzzCase::generate(cfg.seed, i))
            .collect();
        let generate_us = start.elapsed().as_secs_f64() * 1e6;
        // The fuzzer's own dynamic run: warped-compression under the
        // per-case cycle watchdog.
        let mut sim_cfg = DesignPoint::WarpedCompression.config();
        sim_cfg.max_cycles = sim_cfg.max_cycles.min(cfg.cycle_budget);
        let mut ops = Vec::new();
        let mut index = Vec::new();
        for case in &cases {
            ops.push(OpSpec {
                kind: "run_case",
                detail: case.kernel.name().to_string(),
            });
            index.push(FuzzOp::Case(case.index));
        }
        for m in Mutation::ALL {
            ops.push(OpSpec {
                kind: "mutation_smoke",
                detail: m.name().to_string(),
            });
            index.push(FuzzOp::Smoke(m));
        }
        Setup {
            bench: Box::new(FuzzGate {
                cfg,
                cases,
                sim: GpuSim::new(sim_cfg),
                ops,
                index,
            }),
            metrics: vec![("core.fuzz.generate_us", generate_us)],
        }
    }

    /// One mutation of `warped_compression::mutation_smoke`, so each
    /// injected bug is its own op: the same scan of cases until the bug
    /// is caught as its expected category.
    fn smoke(&self, mutation: Mutation) -> SmokeOutcome {
        let cfg = FuzzConfig {
            mutation: Some(mutation),
            ..self.cfg
        };
        let expected = mutation.expected_category();
        let mut outcome = SmokeOutcome {
            mutation,
            expected,
            cases_scanned: 0,
            caught: None,
        };
        for index in 0..SMOKE_MAX_SCAN {
            outcome.cases_scanned = index + 1;
            let report = run_case(&cfg, index);
            if report
                .finding
                .as_ref()
                .is_some_and(|f| f.category == expected)
            {
                outcome.caught = Some(report);
                break;
            }
        }
        outcome
    }
}

impl Bench for FuzzGate {
    fn ops(&self) -> &[OpSpec] {
        &self.ops
    }

    fn run(&self, op: usize, rec: &mut Recorder) -> Result<(), String> {
        match self.index[op] {
            FuzzOp::Case(i) => {
                let r = rec.call("run_case", FUZZ, || run_case(&self.cfg, i));
                if let Some(f) = &r.finding {
                    return Err(format!("finding {}: {}", f.category.label(), f.detail));
                }
                let winst = r.stats.instructions as f64;
                rec.count("winst", winst);
                rec.count("fuzz.winst", winst);
                rec.count("fuzz.cases", 1.0);
                rec.count(
                    "fuzz.static_close",
                    f64::from(u8::from(r.stats.static_close)),
                );
            }
            FuzzOp::Smoke(m) => {
                let outcome = rec.call("mutation_smoke", FUZZ, || self.smoke(m));
                if !outcome.passed() {
                    return Err(format!(
                        "smoke: mutation {} not caught as {} within {} cases",
                        m.name(),
                        outcome.expected.label(),
                        outcome.cases_scanned
                    ));
                }
            }
        }
        Ok(())
    }

    fn children(&self, op: usize, rec: &mut Recorder) -> Result<(), String> {
        let FuzzOp::Case(i) = self.index[op] else {
            return Ok(());
        };
        let case = &self.cases[i];
        let launch = LaunchConfig::new(case.blocks, case.threads_per_block);
        let mut image = case.init_words.clone();
        image.resize(case.mem_words, 0);
        let mut memory = GlobalMemory::from_words(image);
        let r = rec
            .call("GpuSim::run", SIM, || {
                self.sim.run(&case.kernel, &launch, &mut memory)
            })
            .map_err(|e| e.to_string())?;
        record_sim(rec, "tiny", &r.stats);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// design-sweep: the `figures all` campaign, serially.
// ---------------------------------------------------------------------

struct DesignSweep {
    suite: Vec<Workload>,
    designs: Vec<Design>,
    /// Table 3 and the Fig. 17–19 scaled parameters.
    prices: Vec<EnergyParams>,
    golden: Golden,
    ops: Vec<OpSpec>,
    index: Vec<(usize, usize)>,
}

impl DesignSweep {
    fn setup() -> Setup {
        let (suite, built) = timed_suite();
        let designs: Vec<Design> = SWEEP.into_iter().map(Design::new).collect();
        let table3 = EnergyParams::paper_table3();
        let scales = [1.0, 1.5, 2.0, 2.5];
        let prices = std::iter::once(table3)
            .chain(scales.iter().map(|&s| table3.with_comp_decomp_scale(s)))
            .chain(scales.iter().map(|&s| table3.with_bank_access_scale(s)))
            .chain([0.0, 0.25, 0.5, 0.75, 1.0].map(|a| table3.with_wire_activity(a)))
            .collect();
        let (ops, index) = grid(&suite, &designs);
        Setup {
            bench: Box::new(DesignSweep {
                suite,
                designs,
                prices,
                golden: golden(),
                ops,
                index,
            }),
            metrics: vec![built],
        }
    }
}

impl Bench for DesignSweep {
    fn ops(&self) -> &[OpSpec] {
        &self.ops
    }

    fn run(&self, op: usize, rec: &mut Recorder) -> Result<(), String> {
        let (k, d) = self.index[op];
        let (w, design) = (&self.suite[k], &self.designs[d]);
        let out = rec
            .call("run_workload", CORE, || run_workload(&design.cfg, w))
            .map_err(|e| e.to_string())?;
        let total_pj: f64 = rec.call("energy_of", POWER, || {
            self.prices
                .iter()
                .map(|p| energy_of(&out.stats, p).total_pj())
                .sum()
        });
        rec.count("power.calls", self.prices.len() as f64);
        rec.count("winst", out.stats.instructions as f64);
        self.golden
            .check_stats(w.name(), &design.label, &out.stats)?;
        if !(total_pj.is_finite() && total_pj > 0.0) {
            return Err(format!("energy_of priced the run at {total_pj} pJ"));
        }
        Ok(())
    }

    fn children(&self, op: usize, rec: &mut Recorder) -> Result<(), String> {
        let (k, d) = self.index[op];
        run_and_check(rec, &self.suite[k], &self.designs[d], &self.golden).map(|_| ())
    }

    /// The real campaign, serially: `figures::all` must simulate exactly
    /// the sweep's design points, with the sweep's statistics.
    fn campaign(&self, rec: &mut Recorder) -> Result<Vec<(&'static str, f64)>, String> {
        let mut campaign = Campaign::full_suite();
        rec.call("figures::all", BENCH, || figures::all(&mut campaign));
        let seconds = rec.last_ns() as f64 / 1e9;
        if campaign.points_run() != SWEEP.len() {
            return Err(format!(
                "figures::all simulated {} design points, the sweep covers {}",
                campaign.points_run(),
                SWEEP.len()
            ));
        }
        for design in SWEEP {
            let label = design.label();
            for run in campaign.results(design) {
                self.golden.check_stats(&run.name, &label, &run.stats)?;
            }
        }
        if campaign.points_run() != SWEEP.len() {
            return Err("figures::all skipped a design point of the sweep".into());
        }
        Ok(vec![("bench.figures_all_s", seconds)])
    }
}
