//! The metric catalogue — the single source `BENCHMARK.json` is checked
//! against — and the per-layer formulas over one pass's counters.

use std::collections::BTreeMap;

use crate::stats::Better::{self, Higher, Lower};
use crate::trace::Counters;

/// An end-to-end metric: what a user of the simulator and its gates
/// sees, with the share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p95",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "winst_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
];

/// A per-layer metric (no bound: it explains, it does not gate).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Every per-layer metric, printed on every workload (zero where the
/// workload never calls the layer). Times are per pass unless the unit
/// says otherwise.
pub const PER_LAYER: [Layer; 71] = [
    layer("workloads.suite_build_ms", "ms", Lower),
    layer("core.fuzz.generate_us", "us", Lower),
    layer("sim.run_ms", "ms", Lower),
    layer("sim.run_observed_ms", "ms", Lower),
    layer("sim.run_capturing_ms", "ms", Lower),
    layer("sim.run_mem_observed_ms", "ms", Lower),
    layer("sim.run_scheduled_ms", "ms", Lower),
    layer("sim.ns_per_winst.baseline", "ns", Lower),
    layer("sim.ns_per_winst.wc", "ns", Lower),
    layer("sim.ns_per_winst.tiny", "ns", Lower),
    layer("sim.ns_per_cycle", "ns", Lower),
    layer("sim.winst", "count", Higher),
    layer("sim.cycles", "cycles", Lower),
    layer("sim.synthetic_movs", "count", Lower),
    layer("sim.divergent_frac", "ratio", Lower),
    layer("sim.ipc", "winst/cycle", Higher),
    layer("sim.stall.bank_conflict", "cycles", Lower),
    layer("sim.stall.decompressor", "cycles", Lower),
    layer("sim.stall.scoreboard", "cycles", Lower),
    layer("sim.stall.collector", "cycles", Lower),
    layer("sim.stall.writeback_port", "cycles", Lower),
    layer("regfile.bank_reads", "count", Lower),
    layer("regfile.bank_writes", "count", Lower),
    layer("regfile.wakeups", "count", Lower),
    layer("regfile.gated_frac", "ratio", Higher),
    layer("bdi.compress_ns", "ns", Lower),
    layer("bdi.decompress_ns", "ns", Lower),
    layer("bdi.classify_ns", "ns", Lower),
    layer("bdi.explore_ns", "ns", Lower),
    layer("bdi.writes", "count", Higher),
    layer("bdi.compressed_frac", "ratio", Higher),
    layer("bdi.compression_ratio", "ratio", Higher),
    layer("bdi.share_of_sim_pct", "%", Lower),
    layer("analysis.cfg_ms", "ms", Lower),
    layer("analysis.reaching_defs_ms", "ms", Lower),
    layer("analysis.liveness_ms", "ms", Lower),
    layer("analysis.absint_ms", "ms", Lower),
    layer("analysis.memcell_ms", "ms", Lower),
    layer("analysis.memabs_ms", "ms", Lower),
    layer("analysis.perfbound_ms", "ms", Lower),
    layer("analysis.schedule_ms", "ms", Lower),
    layer("analysis.analyze_ms", "ms", Lower),
    layer("analysis.static_plans", "count", Higher),
    layer("analysis.bails", "count", Lower),
    layer("analysis.refined_loads", "count", Higher),
    layer("analysis.static_frac", "ratio", Higher),
    layer("analysis.sched_cycles", "cycles", Lower),
    layer("core.predict_ms", "ms", Lower),
    layer("core.perf_ms", "ms", Lower),
    layer("core.schedule_ms", "ms", Lower),
    layer("core.mem_ms", "ms", Lower),
    layer("core.predict.self_ms", "ms", Lower),
    layer("core.perf.self_ms", "ms", Lower),
    layer("core.schedule.self_ms", "ms", Lower),
    layer("core.mem.self_ms", "ms", Lower),
    layer("core.sim_share_pct", "%", Lower),
    layer("core.run_workload_ms", "ms", Lower),
    layer("core.observer_overhead_pct", "%", Lower),
    layer("core.fuzz.check_case_ms", "ms", Lower),
    layer("core.fuzz.smoke_ms", "ms", Lower),
    layer("core.fuzz.static_close_frac", "ratio", Higher),
    layer("core.fuzz.winst_per_case", "count", Higher),
    layer("power.energy_of_us", "us", Lower),
    layer("power.calls", "count", Lower),
    layer("power.rf_energy_saving_pct", "%", Higher),
    layer("power.sched_energy_uj", "uJ", Lower),
    layer("faults.kernel_ms", "ms", Lower),
    layer("faults.injections", "count", Higher),
    layer("faults.silent", "count", Lower),
    layer("bench.figures_all_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// Per-layer metrics that describe the whole run rather than one pass:
/// set-up timings, the serial campaign, tracing overhead and the
/// energy saving priced from the verification runs.
pub const RUN_LEVEL: [&str; 5] = [
    "workloads.suite_build_ms",
    "core.fuzz.generate_us",
    "bench.figures_all_s",
    "trace.overhead_pct",
    "power.rf_energy_saving_pct",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-pass per-layer values from one traced pass's counters.
/// Span-name counters hold nanoseconds.
pub fn layer_values(c: &Counters) -> BTreeMap<&'static str, f64> {
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let ms = |k: &str| get(k) / 1e6;
    let mut v = BTreeMap::new();
    let mut put = |name: &'static str, value: f64| {
        v.insert(name, value);
    };
    put("sim.run_ms", ms("GpuSim::run"));
    put("sim.run_observed_ms", ms("GpuSim::run_observed"));
    put("sim.run_capturing_ms", ms("GpuSim::run_capturing"));
    put("sim.run_mem_observed_ms", ms("GpuSim::run_mem_observed"));
    put("sim.run_scheduled_ms", ms("GpuSim::run_scheduled"));
    for (name, class) in [
        ("sim.ns_per_winst.baseline", "baseline"),
        ("sim.ns_per_winst.wc", "wc"),
        ("sim.ns_per_winst.tiny", "tiny"),
    ] {
        put(
            name,
            ratio(
                get(&format!("sim.run_ns.{class}")),
                get(&format!("sim.winst.{class}")),
            ),
        );
    }
    put(
        "sim.ns_per_cycle",
        ratio(get("GpuSim::run"), get("sim.cycles")),
    );
    put("sim.winst", get("sim.winst"));
    put("sim.cycles", get("sim.cycles"));
    put("sim.synthetic_movs", get("sim.synthetic_movs"));
    put(
        "sim.divergent_frac",
        ratio(get("sim.divergent"), get("sim.winst")),
    );
    put("sim.ipc", ratio(get("sim.winst"), get("sim.cycles")));
    put("sim.stall.bank_conflict", get("sim.stall.bank_conflict"));
    put("sim.stall.decompressor", get("sim.stall.decompressor"));
    put("sim.stall.scoreboard", get("sim.stall.scoreboard"));
    put("sim.stall.collector", get("sim.stall.collector_full"));
    put("sim.stall.writeback_port", get("sim.stall.writeback_port"));
    put("regfile.bank_reads", get("regfile.bank_reads"));
    put("regfile.bank_writes", get("regfile.bank_writes"));
    put("regfile.wakeups", get("regfile.wakeups"));
    put(
        "regfile.gated_frac",
        ratio(get("regfile.gated_cycles"), get("regfile.bank_cycles")),
    );
    let writes = get("bdi.writes");
    put("bdi.compress_ns", ratio(get("BdiCodec::compress"), writes));
    put(
        "bdi.decompress_ns",
        ratio(get("BdiCodec::decompress"), writes),
    );
    put("bdi.classify_ns", ratio(get("BdiCodec::classify"), writes));
    put("bdi.explore_ns", ratio(get("explore_best_choice"), writes));
    put("bdi.writes", writes);
    put("bdi.compressed_frac", ratio(get("bdi.compressed"), writes));
    put(
        "bdi.compression_ratio",
        ratio(
            writes * bdi::WARP_REGISTER_BYTES as f64,
            get("bdi.stored_bytes"),
        ),
    );
    put(
        "bdi.share_of_sim_pct",
        100.0 * ratio(get("BdiCodec::compress"), get("sim.run_ns.wc")),
    );
    put("analysis.cfg_ms", ms("Cfg::build"));
    put("analysis.reaching_defs_ms", ms("ReachingDefs::compute"));
    put("analysis.liveness_ms", ms("Liveness::compute"));
    put("analysis.absint_ms", ms("interpret"));
    put("analysis.memcell_ms", ms("analyze_cells"));
    put("analysis.memabs_ms", ms("analyze_mem"));
    put("analysis.perfbound_ms", ms("bound_kernel"));
    put("analysis.schedule_ms", ms("schedule_kernel"));
    put("analysis.analyze_ms", ms("analyze_with_launch"));
    let (plans, bails) = (get("analysis.static_plans"), get("analysis.bails"));
    put("analysis.static_plans", plans);
    put("analysis.bails", bails);
    put("analysis.refined_loads", get("analysis.refined_loads"));
    put("analysis.static_frac", ratio(plans, plans + bails));
    put("analysis.sched_cycles", get("sched.cycles"));
    put("core.predict_ms", ms("predict_workload"));
    put("core.perf_ms", ms("perf_workload"));
    put("core.schedule_ms", ms("schedule_workload"));
    put("core.mem_ms", ms("mem_workload"));
    put("core.predict.self_ms", ms("self.predict_workload"));
    put("core.perf.self_ms", ms("self.perf_workload"));
    put("core.schedule.self_ms", ms("self.schedule_workload"));
    put("core.mem.self_ms", ms("self.mem_workload"));
    put(
        "core.sim_share_pct",
        100.0 * ratio(get("gates.sim_ns"), get("op")),
    );
    put("core.run_workload_ms", ms("run_workload"));
    let run = get("GpuSim::run");
    put(
        "core.observer_overhead_pct",
        if get("run_workload") > 0.0 {
            100.0 * ratio(get("run_workload") - run, run)
        } else {
            0.0
        },
    );
    let cases = get("fuzz.cases");
    put("core.fuzz.check_case_ms", ms("run_case"));
    put("core.fuzz.smoke_ms", ms("mutation_smoke"));
    put(
        "core.fuzz.static_close_frac",
        ratio(get("fuzz.static_close"), cases),
    );
    put("core.fuzz.winst_per_case", ratio(get("fuzz.winst"), cases));
    put("power.energy_of_us", get("energy_of") / 1e3);
    put("power.calls", get("power.calls"));
    put("power.sched_energy_uj", get("sched.energy_pj") / 1e6);
    put("faults.kernel_ms", ms("run_kernel_faults"));
    put("faults.injections", get("faults.injections"));
    put("faults.silent", get("faults.silent"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_use_the_allowed_charset_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_per_layer_metric_has_a_value() {
        let computed = layer_values(&Counters::new());
        for m in &PER_LAYER {
            assert!(
                computed.contains_key(m.name) ^ RUN_LEVEL.contains(&m.name),
                "{} must come from exactly one source",
                m.name
            );
        }
        assert_eq!(computed.len() + RUN_LEVEL.len(), PER_LAYER.len());
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key).and_then(Json::as_array).expect(key)
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).expect(key)
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let doc = benchmark_json();
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (declared, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(declared, "name"), m.name);
            assert_eq!(field(declared, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(declared, "better"), m.better.name(), "{}", m.name);
            assert_eq!(
                declared.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (declared, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(declared, "name"), m.name);
            assert_eq!(field(declared, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(declared, "better"), m.better.name(), "{}", m.name);
        }
        let workloads: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let paths: Vec<&str> = entries(&doc, "paths")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["crates/bench/src/bin/wcperf"]);
    }
}
