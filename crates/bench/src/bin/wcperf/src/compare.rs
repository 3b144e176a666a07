//! `wcperf compare <parent runs…> -- <change runs…>`: the two-commit
//! rule for every (end-to-end metric, workload) pair, from the reports
//! `wcperf run --out` writes.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::metrics::END_TO_END;
use crate::stats::{compare, Verdict};

/// One run's report: its workload, end-to-end metrics and op tally.
struct RunDoc {
    workload: String,
    metrics: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
}

fn load(path: &str) -> Result<RunDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: no `{key}`"))
    };
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: no `workload`"))?
        .to_string();
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{path}: no `metrics`"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(RunDoc {
        workload,
        metrics,
        attempted: num("attempted")?,
        failed: num("failed")?,
    })
}

type Sides = (Vec<RunDoc>, Vec<RunDoc>);

/// Prints the verdict table; returns whether the change must be
/// rejected (a regression or a higher error rate on any workload).
pub fn run(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: wcperf compare <parent.json…> -- <change.json…>")?;
    let (parent, change) = (&args[..split], &args[split + 1..]);
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs at least one report on each side of `--`".into());
    }
    let mut by_workload: BTreeMap<String, Sides> = BTreeMap::new();
    for (paths, is_change) in [(parent, false), (change, true)] {
        for path in paths {
            let doc = load(path)?;
            let sides = by_workload.entry(doc.workload.clone()).or_default();
            if is_change {
                sides.1.push(doc);
            } else {
                sides.0.push(doc);
            }
        }
    }

    let mut reject = false;
    println!(
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] | wins | worse by | verdict |"
    );
    println!("|---|---|---|---|---|---|---|");
    for (workload, (p, c)) in &by_workload {
        if p.is_empty() || c.is_empty() {
            println!("| {workload} | — | | | | | missing on one side |");
            continue;
        }
        for m in &END_TO_END {
            let values = |docs: &[RunDoc]| -> Vec<f64> {
                docs.iter()
                    .filter_map(|d| d.metrics.get(m.name).copied())
                    .collect()
            };
            let (pv, cv) = (values(p), values(c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let r = compare(&pv, &cv, m.better, m.bound);
            reject |= r.verdict == Verdict::Regression;
            println!(
                "| {workload} | {} ({}, {} is better, bound {:.0} %) | {:.6} [{:.6}, {:.6}] | {:.6} [{:.6}, {:.6}] | {}/{} | {:+.2} % | {} |",
                m.name,
                m.unit,
                m.better.name(),
                m.bound * 100.0,
                r.parent.1,
                r.parent.0,
                r.parent.2,
                r.change.1,
                r.change.0,
                r.change.2,
                r.wins,
                r.pairs,
                r.worsening * 100.0,
                r.verdict.name()
            );
        }
        let rate = |docs: &[RunDoc]| {
            let attempted: f64 = docs.iter().map(|d| d.attempted).sum();
            let failed: f64 = docs.iter().map(|d| d.failed).sum();
            if attempted > 0.0 {
                failed / attempted
            } else {
                0.0
            }
        };
        let (pr, cr) = (rate(p), rate(c));
        let higher = cr > pr;
        reject |= higher;
        println!(
            "| {workload} | error_rate (failed / attempted) | {pr} | {cr} | | | {} |",
            if higher { "REGRESSION" } else { "unchanged" }
        );
    }
    Ok(reject)
}
