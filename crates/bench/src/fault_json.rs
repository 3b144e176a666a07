//! Deterministic JSON rendering of fault-campaign reports (`faults`
//! feature), on the shared [`jsonfmt`](crate::jsonfmt) builder.
//!
//! The `wcsim faults` report (`results/BENCH_faults.json`) must be
//! byte-identical across runs with the same seed — including runs
//! resumed from a checkpoint directory — so the rendering is fully
//! deterministic: fixed key order, no maps, floats through Rust's
//! shortest-round-trip formatter, and one self-contained fragment per
//! kernel that doubles as the checkpoint unit.

use warped_compression::{KernelFaultReport, RunRecord, RunStatus};

use crate::jsonfmt::{block_list, inline, opt_display, quoted, JsonObject};

/// One kernel's fragment: the per-kernel checkpoint unit, reused
/// verbatim on `--resume`.
pub fn fault_record_json(record: &RunRecord<KernelFaultReport>) -> String {
    let obj = JsonObject::new(4)
        .string("kernel", &record.name)
        .string("status", record.status.label());
    match &record.status {
        RunStatus::Completed(k) => {
            let events: Vec<String> = k
                .log
                .events
                .iter()
                .map(|e| {
                    format!(
                        "        {}",
                        inline(&[
                            ("id", e.spec_id.to_string()),
                            ("kind", quoted(e.kind.name())),
                            ("target", quoted(e.target.name())),
                            ("outcome", quoted(e.outcome.name())),
                            ("note", quoted(e.note)),
                        ])
                    )
                })
                .collect();
            obj.display("seed", k.seed)
                .string("protection", k.protection.name())
                .display("completed", k.completed)
                .field("error", opt_display(k.error.as_deref().map(quoted)))
                .field(
                    "outcomes",
                    inline(&[
                        ("not_triggered", k.log.not_triggered().to_string()),
                        ("masked", k.log.masked().to_string()),
                        ("corrected", k.log.corrected().to_string()),
                        ("detected", k.log.detected().to_string()),
                        ("silent_corruption", k.log.silent().to_string()),
                    ]),
                )
                .field("events", block_list(6, &events))
                .display("writes", k.log.writes)
                .display("reads", k.log.reads)
                .field(
                    "stuck",
                    inline(&[
                        ("masked_by_slack", k.log.stuck_masked_by_slack.to_string()),
                        ("redirected", k.log.stuck_redirected.to_string()),
                        ("applied", k.log.stuck_applied.to_string()),
                    ]),
                )
                .field(
                    "redirection",
                    inline(&[
                        ("total_reads", k.redirection.total_reads.to_string()),
                        (
                            "slack_only_coverage",
                            k.redirection.slack_only_coverage.to_string(),
                        ),
                        (
                            "redirection_coverage",
                            k.redirection.redirection_coverage.to_string(),
                        ),
                    ]),
                )
                .display("energy_scale", k.energy_scale)
                .field("energy_pj", opt_display(k.energy_pj))
                .render_fragment()
        }
        RunStatus::Panicked { message, .. } => obj.string("message", message).render_fragment(),
    }
}

/// The whole `BENCH_faults.json` document from per-kernel fragments
/// (freshly rendered or loaded verbatim from checkpoints).
pub fn fault_campaign_json(
    campaign_seed: u64,
    injections: usize,
    protection: &str,
    fragments: &[String],
) -> String {
    JsonObject::new(0)
        .display("seed", campaign_seed)
        .display("injections_per_kernel", injections)
        .string("protection", protection)
        .field("kernels", block_list(2, fragments))
        .render_document()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_deterministic_and_structured() {
        let workloads = vec![gpu_workloads::by_name("lib").unwrap()];
        let render = || {
            let records = warped_compression::run_fault_campaign(
                &workloads,
                gpu_faults::ProtectionModel::SecDed,
                4,
                42,
            );
            let frags: Vec<String> = records.iter().map(fault_record_json).collect();
            fault_campaign_json(42, 4, "secded", &frags)
        };
        let a = render();
        let b = render();
        assert_eq!(a, b, "same seed must render byte-identically");
        assert!(a.contains("\"kernel\": \"lib\""));
        assert!(a.contains("\"status\": \"ok\""));
        assert!(a.contains("\"silent_corruption\": 0"));
        assert!(a.contains("\"injections_per_kernel\": 4"));
    }

    #[test]
    fn failed_records_render_their_message() {
        let record: RunRecord<KernelFaultReport> = RunRecord {
            name: "doomed".into(),
            status: RunStatus::Panicked {
                message: "say \"hi\"\nbye".into(),
                backtrace: String::new(),
            },
        };
        let json = fault_record_json(&record);
        assert!(json.contains("\"status\": \"panic\""));
        assert!(json.contains("say \\\"hi\\\"\\nbye"));
    }
}
