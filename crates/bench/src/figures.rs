//! One function per table/figure of the paper's evaluation.
//!
//! Each returns a [`FigureTable`] whose rows mirror what the paper plots.
//! Absolute values come from our simulator + the Table 3 energy model;
//! the *shapes* (who wins, by what factor) are the reproduction targets
//! recorded in `EXPERIMENTS.md`.

use bdi::{FixedChoice, TABLE_ONE};
use gpu_power::{EnergyParams, EnergyReport};
use warped_compression::{energy_of, DesignPoint, RunOutput, SimilarityBin};

use crate::campaign::Campaign;
use crate::table::{fmt, pct, FigureTable};

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

fn paper_params() -> EnergyParams {
    EnergyParams::paper_table3()
}

fn energies(runs: &[RunOutput], params: &EnergyParams) -> Vec<EnergyReport> {
    runs.iter().map(|r| energy_of(&r.stats, params)).collect()
}

/// Table 1: static ⟨base, delta⟩ sizes and bank counts.
pub fn table1() -> FigureTable {
    let rows = TABLE_ONE
        .iter()
        .map(|r| {
            vec![
                r.base_bytes.to_string(),
                r.delta_bytes.to_string(),
                r.compressed_bytes.to_string(),
                r.banks_required.to_string(),
                if r.used { "Y" } else { "N" }.to_string(),
            ]
        })
        .collect();
    FigureTable::new(
        "table1",
        "Possible combinations of chunk size",
        vec![
            "base (B)".into(),
            "delta (B)".into(),
            "comp size (B)".into(),
            "banks".into(),
            "used".into(),
        ],
        rows,
    )
}

/// Table 2: microarchitectural parameters of the simulated GPU.
pub fn table2() -> FigureTable {
    let cfg = DesignPoint::WarpedCompression.config();
    let kv: Vec<(&str, String)> = vec![
        // The paper's chip size; the simulator models one SM, since
        // register-file energy is per SM.
        ("SMs / GPU", "15".to_string()),
        ("Warp schedulers / SM", cfg.num_schedulers.to_string()),
        ("Warp scheduling policy", format!("{:?}", cfg.scheduler)),
        ("SIMT lane width", simt_isa::WARP_SIZE.to_string()),
        ("Max warps / SM", cfg.max_warps_per_sm.to_string()),
        (
            "Register file size",
            format!("{} KB", cfg.regfile.capacity_bytes() / 1024),
        ),
        (
            "Max registers / SM",
            cfg.regfile.total_thread_registers().to_string(),
        ),
        ("Register banks", cfg.regfile.num_banks.to_string()),
        ("Bit width / bank", format!("{} bit", bdi::BANK_BYTES * 8)),
        ("Entries / bank", cfg.regfile.entries_per_bank.to_string()),
        ("Compressors", cfg.compression.num_compressors.to_string()),
        (
            "Decompressors",
            cfg.compression.num_decompressors.to_string(),
        ),
        (
            "Compression latency",
            format!("{} cycles", cfg.compression.compression_latency),
        ),
        (
            "Decompression latency",
            format!("{} cycles", cfg.compression.decompression_latency),
        ),
        (
            "Bank wakeup latency",
            format!("{} cycles", cfg.regfile.wakeup_latency),
        ),
    ];
    FigureTable::new(
        "table2",
        "GPU microarchitectural parameters",
        vec!["parameter".into(), "value".into()],
        kv.into_iter()
            .map(|(k, v)| vec![k.to_string(), v])
            .collect(),
    )
}

/// Table 3: energy/power constants.
pub fn table3() -> FigureTable {
    let p = paper_params();
    let kv: Vec<(&str, String)> = vec![
        ("Operating voltage (V)", format!("{:.1}", p.voltage_v)),
        (
            "Wire capacitance (fF/mm)",
            format!("{:.0}", p.wire_cap_ff_per_mm),
        ),
        (
            "Wire energy (128-bit, pJ/mm)",
            format!("{:.1}", p.wire_energy_pj()),
        ),
        (
            "Access energy/bank (pJ)",
            format!("{:.0}", p.bank_access_pj),
        ),
        (
            "Leakage power/bank (mW)",
            format!("{:.1}", p.bank_leakage_mw),
        ),
        (
            "Compression energy/activation (pJ)",
            format!("{:.0}", p.compressor_pj),
        ),
        (
            "Compression leakage (mW)",
            format!("{:.2}", p.compressor_leakage_mw),
        ),
        (
            "Decompression energy/activation (pJ)",
            format!("{:.0}", p.decompressor_pj),
        ),
        (
            "Decompression leakage (mW)",
            format!("{:.2}", p.decompressor_leakage_mw),
        ),
    ];
    FigureTable::new(
        "table3",
        "Estimated energy and power values (@45nm)",
        vec!["description".into(), "value".into()],
        kv.into_iter()
            .map(|(k, v)| vec![k.to_string(), v])
            .collect(),
    )
}

/// Fig. 2: register-value similarity bins, non-divergent vs divergent.
pub fn fig2(campaign: &mut Campaign) -> FigureTable {
    let mut rows = Vec::new();
    let mut merged = warped_compression::SimilarityHistogram::new();
    for run in campaign.results(DesignPoint::WarpedCompression) {
        merged.merge(&run.similarity);
        let mut row = vec![run.name.clone()];
        for &div in &[false, true] {
            for bin in SimilarityBin::ALL {
                row.push(if run.similarity.total(div) == 0 && div {
                    "N/A".to_string()
                } else {
                    pct(run.similarity.fraction(bin, div))
                });
            }
        }
        rows.push(row);
    }
    let mut avg = vec!["average".to_string()];
    for &div in &[false, true] {
        for bin in SimilarityBin::ALL {
            avg.push(pct(merged.fraction(bin, div)));
        }
    }
    rows.push(avg);
    FigureTable::new(
        "fig2",
        "Characterization of register values (zero/128/32K/random bins)",
        vec![
            "bench".into(),
            "nd zero".into(),
            "nd 128".into(),
            "nd 32K".into(),
            "nd random".into(),
            "div zero".into(),
            "div 128".into(),
            "div 32K".into(),
            "div random".into(),
        ],
        rows,
    )
}

/// Fig. 3: ratio of non-divergent warp instructions.
pub fn fig3(campaign: &mut Campaign) -> FigureTable {
    let runs = campaign.results(DesignPoint::WarpedCompression);
    let mut rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| vec![r.name.clone(), pct(r.stats.nondivergent_ratio())])
        .collect();
    rows.push(vec![
        "average".into(),
        pct(mean(runs.iter().map(|r| r.stats.nondivergent_ratio()))),
    ]);
    FigureTable::new(
        "fig3",
        "Ratio of non-diverged warp instructions",
        vec!["bench".into(), "non-divergent".into()],
        rows,
    )
}

/// Fig. 5: best ⟨base, delta⟩ breakdown under the full BDI explorer.
pub fn fig5(campaign: &mut Campaign) -> FigureTable {
    let runs = campaign.results(DesignPoint::WarpedCompression);
    let mut headers = vec!["bench".to_string()];
    for (b, d) in bdi::EXPLORER_CHOICES {
        headers.push(format!("<{},{}>", b.bytes(), d));
    }
    headers.push("uncompressed".into());
    headers.push("8B-base total".into());
    let mut rows = Vec::new();
    let mut merged = warped_compression::ChoiceBreakdown::new();
    for run in runs {
        merged.merge(&run.breakdown);
        let mut row = vec![run.name.clone()];
        for (b, d) in bdi::EXPLORER_CHOICES {
            row.push(pct(run.breakdown.fraction(b, d)));
        }
        let total = run.breakdown.total().max(1);
        row.push(pct(run.breakdown.uncompressed() as f64 / total as f64));
        row.push(pct(run.breakdown.eight_byte_fraction()));
        rows.push(row);
    }
    let mut avg = vec!["average".to_string()];
    for (b, d) in bdi::EXPLORER_CHOICES {
        avg.push(pct(merged.fraction(b, d)));
    }
    avg.push(pct(
        merged.uncompressed() as f64 / merged.total().max(1) as f64
    ));
    avg.push(pct(merged.eight_byte_fraction()));
    rows.push(avg);
    FigureTable::new(
        "fig5",
        "Breakdown of <base,delta> best choices (full BDI explorer)",
        headers,
        rows,
    )
}

/// Fig. 8: compression ratio, divergent vs non-divergent regions.
///
/// Measured under the decompress-merge-recompress assumption, exactly as
/// the paper does ("we assume that during divergence every new register
/// write will be preceded by a register read ... The updated register is
/// then compressed again", §5.2) — the shipping policy stores divergent
/// writes uncompressed, which would make the divergent column trivially
/// 1.0.
pub fn fig8(campaign: &mut Campaign) -> FigureTable {
    let runs = campaign.results(DesignPoint::DecompressMergeRecompress);
    let mut rows = Vec::new();
    for r in runs {
        rows.push(vec![
            r.name.clone(),
            fmt(r.stats.compression_ratio_nondiv()),
            r.stats
                .compression_ratio_div()
                .map(fmt)
                .unwrap_or_else(|| "N/A".into()),
        ]);
    }
    rows.push(vec![
        "average".into(),
        fmt(mean(
            runs.iter().map(|r| r.stats.compression_ratio_nondiv()),
        )),
        fmt(mean(
            runs.iter().filter_map(|r| r.stats.compression_ratio_div()),
        )),
    ]);
    FigureTable::new(
        "fig8",
        "Compression ratio (non-divergent vs divergent)",
        vec!["bench".into(), "non-divergent".into(), "divergent".into()],
        rows,
    )
}

/// Fig. 9: register file energy, baseline vs warped-compression, split
/// into leakage / dynamic / compression / decompression (normalised to
/// the baseline total).
pub fn fig9(campaign: &mut Campaign) -> FigureTable {
    let p = paper_params();
    let base = energies(campaign.results(DesignPoint::Baseline), &p);
    let wc_runs = campaign.results(DesignPoint::WarpedCompression);
    let wc = energies(wc_runs, &p);
    let names: Vec<String> = wc_runs.iter().map(|r| r.name.clone()).collect();
    let mut rows = Vec::new();
    for i in 0..names.len() {
        let bt = base[i].total_pj();
        rows.push(vec![
            names[i].clone(),
            fmt(base[i].leakage_pj / bt),
            fmt(base[i].dynamic_pj / bt),
            fmt(wc[i].leakage_pj / bt),
            fmt(wc[i].dynamic_pj / bt),
            fmt(wc[i].compression_pj / bt),
            fmt(wc[i].decompression_pj / bt),
            pct(wc[i].savings_vs(&base[i])),
        ]);
    }
    rows.push(vec![
        "average".into(),
        fmt(mean(base.iter().map(|b| b.leakage_pj / b.total_pj()))),
        fmt(mean(base.iter().map(|b| b.dynamic_pj / b.total_pj()))),
        fmt(mean(
            wc.iter()
                .zip(&base)
                .map(|(w, b)| w.leakage_pj / b.total_pj()),
        )),
        fmt(mean(
            wc.iter()
                .zip(&base)
                .map(|(w, b)| w.dynamic_pj / b.total_pj()),
        )),
        fmt(mean(
            wc.iter()
                .zip(&base)
                .map(|(w, b)| w.compression_pj / b.total_pj()),
        )),
        fmt(mean(
            wc.iter()
                .zip(&base)
                .map(|(w, b)| w.decompression_pj / b.total_pj()),
        )),
        pct(mean(wc.iter().zip(&base).map(|(w, b)| w.savings_vs(b)))),
    ]);
    FigureTable::new(
        "fig9",
        "Register file energy consumption (normalised to baseline)",
        vec![
            "bench".into(),
            "base leak".into(),
            "base dyn".into(),
            "wc leak".into(),
            "wc dyn".into(),
            "wc comp".into(),
            "wc decomp".into(),
            "saving".into(),
        ],
        rows,
    )
}

/// Fig. 10: fraction of cycles each bank spends power-gated (averaged
/// over the suite).
pub fn fig10(campaign: &mut Campaign) -> FigureTable {
    let runs = campaign.results(DesignPoint::WarpedCompression);
    let num_banks = runs[0].stats.regfile.num_banks();
    let mut rows = Vec::new();
    for bank in 0..num_banks {
        let f = mean(runs.iter().map(|r| r.stats.regfile.gated_fraction(bank)));
        rows.push(vec![bank.to_string(), pct(f)]);
    }
    FigureTable::new(
        "fig10",
        "Portion of power-gated cycles for each bank (suite average)",
        vec!["bank".into(), "gated".into()],
        rows,
    )
}

/// Fig. 11: dummy MOV instructions as a fraction of total instructions.
pub fn fig11(campaign: &mut Campaign) -> FigureTable {
    let runs = campaign.results(DesignPoint::WarpedCompression);
    let mut rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| vec![r.name.clone(), pct(r.stats.mov_fraction())])
        .collect();
    rows.push(vec![
        "average".into(),
        pct(mean(runs.iter().map(|r| r.stats.mov_fraction()))),
    ]);
    FigureTable::new(
        "fig11",
        "Portion of dummy MOV instructions",
        vec!["bench".into(), "MOV fraction".into()],
        rows,
    )
}

/// Fig. 12: fraction of registers in compressed state, per phase.
pub fn fig12(campaign: &mut Campaign) -> FigureTable {
    let runs = campaign.results(DesignPoint::WarpedCompression);
    let mut rows = Vec::new();
    for r in runs {
        rows.push(vec![
            r.name.clone(),
            pct(r.stats.census.nondiv_fraction()),
            r.stats
                .census
                .div_fraction()
                .map(pct)
                .unwrap_or_else(|| "N/A".into()),
        ]);
    }
    rows.push(vec![
        "average".into(),
        pct(mean(runs.iter().map(|r| r.stats.census.nondiv_fraction()))),
        pct(mean(
            runs.iter().filter_map(|r| r.stats.census.div_fraction()),
        )),
    ]);
    FigureTable::new(
        "fig12",
        "Portion of compressed registers (non-divergent vs divergent phases)",
        vec!["bench".into(), "non-divergent".into(), "divergent".into()],
        rows,
    )
}

/// Fig. 13: execution-time impact of warped-compression.
pub fn fig13(campaign: &mut Campaign) -> FigureTable {
    let base: Vec<u64> = campaign
        .results(DesignPoint::Baseline)
        .iter()
        .map(|r| r.stats.cycles)
        .collect();
    let runs = campaign.results(DesignPoint::WarpedCompression);
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for (r, &b) in runs.iter().zip(&base) {
        let ratio = r.stats.cycles as f64 / b as f64;
        ratios.push(ratio);
        rows.push(vec![r.name.clone(), fmt(ratio)]);
    }
    rows.push(vec!["average".into(), fmt(mean(ratios))]);
    FigureTable::new(
        "fig13",
        "Impact on execution time (cycles, normalised to baseline)",
        vec!["bench".into(), "normalised time".into()],
        rows,
    )
}

/// Fig. 14: energy reduction under GTO vs LRR scheduling.
pub fn fig14(campaign: &mut Campaign) -> FigureTable {
    let p = paper_params();
    let base_gto = energies(campaign.results(DesignPoint::Baseline), &p);
    let wc_gto = energies(campaign.results(DesignPoint::WarpedCompression), &p);
    let base_lrr = energies(campaign.results(DesignPoint::BaselineLrr), &p);
    let wc_lrr = energies(campaign.results(DesignPoint::WarpedCompressionLrr), &p);
    let names: Vec<String> = campaign
        .results(DesignPoint::WarpedCompression)
        .iter()
        .map(|r| r.name.clone())
        .collect();
    let mut rows = Vec::new();
    for i in 0..names.len() {
        rows.push(vec![
            names[i].clone(),
            fmt(wc_gto[i].normalized_to(&base_gto[i])),
            fmt(wc_lrr[i].normalized_to(&base_lrr[i])),
        ]);
    }
    rows.push(vec![
        "average".into(),
        fmt(mean(
            wc_gto
                .iter()
                .zip(&base_gto)
                .map(|(w, b)| w.normalized_to(b)),
        )),
        fmt(mean(
            wc_lrr
                .iter()
                .zip(&base_lrr)
                .map(|(w, b)| w.normalized_to(b)),
        )),
    ]);
    FigureTable::new(
        "fig14",
        "Energy reduction: GTO vs LRR warp schedulers (normalised)",
        vec!["bench".into(), "GTO".into(), "LRR".into()],
        rows,
    )
}

/// Fig. 15: compression ratio with a single fixed parameter vs dynamic.
pub fn fig15(campaign: &mut Campaign) -> FigureTable {
    let d0: Vec<f64> = campaign
        .results(DesignPoint::Only(FixedChoice::Delta0))
        .iter()
        .map(|r| r.stats.compression_ratio())
        .collect();
    let d1: Vec<f64> = campaign
        .results(DesignPoint::Only(FixedChoice::Delta1))
        .iter()
        .map(|r| r.stats.compression_ratio())
        .collect();
    let d2: Vec<f64> = campaign
        .results(DesignPoint::Only(FixedChoice::Delta2))
        .iter()
        .map(|r| r.stats.compression_ratio())
        .collect();
    let wc = campaign.results(DesignPoint::WarpedCompression);
    let mut rows = Vec::new();
    for (i, r) in wc.iter().enumerate() {
        rows.push(vec![
            r.name.clone(),
            fmt(d0[i]),
            fmt(d1[i]),
            fmt(d2[i]),
            fmt(r.stats.compression_ratio()),
        ]);
    }
    rows.push(vec![
        "average".into(),
        fmt(mean(d0.iter().copied())),
        fmt(mean(d1.iter().copied())),
        fmt(mean(d2.iter().copied())),
        fmt(mean(wc.iter().map(|r| r.stats.compression_ratio()))),
    ]);
    FigureTable::new(
        "fig15",
        "Compression ratio for various compression parameters",
        vec![
            "bench".into(),
            "<4,0>".into(),
            "<4,1>".into(),
            "<4,2>".into(),
            "warped".into(),
        ],
        rows,
    )
}

/// Fig. 16: energy for single-parameter schemes (normalised to baseline).
pub fn fig16(campaign: &mut Campaign) -> FigureTable {
    let p = paper_params();
    let base = energies(campaign.results(DesignPoint::Baseline), &p);
    let d0 = energies(campaign.results(DesignPoint::Only(FixedChoice::Delta0)), &p);
    let d1 = energies(campaign.results(DesignPoint::Only(FixedChoice::Delta1)), &p);
    let d2 = energies(campaign.results(DesignPoint::Only(FixedChoice::Delta2)), &p);
    let wc = energies(campaign.results(DesignPoint::WarpedCompression), &p);
    let names: Vec<String> = campaign
        .results(DesignPoint::WarpedCompression)
        .iter()
        .map(|r| r.name.clone())
        .collect();
    let mut rows = Vec::new();
    for i in 0..names.len() {
        rows.push(vec![
            names[i].clone(),
            fmt(d0[i].normalized_to(&base[i])),
            fmt(d1[i].normalized_to(&base[i])),
            fmt(d2[i].normalized_to(&base[i])),
            fmt(wc[i].normalized_to(&base[i])),
        ]);
    }
    let avg = |set: &[EnergyReport]| mean(set.iter().zip(&base).map(|(s, b)| s.normalized_to(b)));
    rows.push(vec![
        "average".into(),
        fmt(avg(&d0)),
        fmt(avg(&d1)),
        fmt(avg(&d2)),
        fmt(avg(&wc)),
    ]);
    FigureTable::new(
        "fig16",
        "Energy consumption for various compression parameters (normalised)",
        vec![
            "bench".into(),
            "<4,0>".into(),
            "<4,1>".into(),
            "<4,2>".into(),
            "warped".into(),
        ],
        rows,
    )
}

/// Fig. 17: sensitivity to compression/decompression activation energy.
pub fn fig17(campaign: &mut Campaign) -> FigureTable {
    scaled_energy_figure(
        campaign,
        "fig17",
        "Energy for scaled compression/decompression unit energy (normalised)",
        &[1.0, 1.5, 2.0, 2.5],
        |scale| (paper_params().with_comp_decomp_scale(scale), paper_params()),
    )
}

/// Fig. 18: sensitivity to per-bank access energy.
pub fn fig18(campaign: &mut Campaign) -> FigureTable {
    scaled_energy_figure(
        campaign,
        "fig18",
        "Energy for scaled per-bank access energy (normalised)",
        &[1.0, 1.5, 2.0, 2.5],
        |scale| {
            (
                paper_params().with_bank_access_scale(scale),
                paper_params().with_bank_access_scale(scale),
            )
        },
    )
}

/// Shared shape of Fig. 17/18: re-price cached runs under scaled energy
/// parameters; WC priced with `params.0`, baseline with `params.1`.
fn scaled_energy_figure(
    campaign: &mut Campaign,
    id: &str,
    title: &str,
    scales: &[f64],
    params_for: impl Fn(f64) -> (EnergyParams, EnergyParams),
) -> FigureTable {
    let base_stats: Vec<_> = campaign
        .results(DesignPoint::Baseline)
        .iter()
        .map(|r| r.stats.clone())
        .collect();
    let wc_runs = campaign.results(DesignPoint::WarpedCompression);
    let names: Vec<String> = wc_runs.iter().map(|r| r.name.clone()).collect();
    let mut headers = vec!["bench".to_string()];
    headers.extend(scales.iter().map(|s| format!("{s:.1}x")));
    let mut rows = Vec::new();
    let mut avgs = vec![Vec::new(); scales.len()];
    for (i, name) in names.iter().enumerate() {
        let mut row = vec![name.clone()];
        for (si, &s) in scales.iter().enumerate() {
            let (wc_p, base_p) = params_for(s);
            let norm = energy_of(&wc_runs[i].stats, &wc_p)
                .normalized_to(&energy_of(&base_stats[i], &base_p));
            avgs[si].push(norm);
            row.push(fmt(norm));
        }
        rows.push(row);
    }
    let mut avg_row = vec!["average".to_string()];
    for a in avgs {
        avg_row.push(fmt(mean(a)));
    }
    rows.push(avg_row);
    FigureTable::new(id, title, headers, rows)
}

/// Fig. 19: energy vs wire switching activity (suite average).
pub fn fig19(campaign: &mut Campaign) -> FigureTable {
    let base_stats: Vec<_> = campaign
        .results(DesignPoint::Baseline)
        .iter()
        .map(|r| r.stats.clone())
        .collect();
    let wc_runs = campaign.results(DesignPoint::WarpedCompression);
    let mut rows = Vec::new();
    for activity in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let p = paper_params().with_wire_activity(activity);
        let norm = mean(
            wc_runs
                .iter()
                .zip(&base_stats)
                .map(|(w, b)| energy_of(&w.stats, &p).normalized_to(&energy_of(b, &p))),
        );
        rows.push(vec![pct(activity), fmt(norm), pct(1.0 - norm)]);
    }
    FigureTable::new(
        "fig19",
        "Impact of wire activity (normalised energy, suite average)",
        vec![
            "wire activity".into(),
            "normalised energy".into(),
            "saving".into(),
        ],
        rows,
    )
}

/// Fig. 20: execution time vs compression latency (2/4/8 cycles).
pub fn fig20(campaign: &mut Campaign) -> FigureTable {
    latency_figure(
        campaign,
        "fig20",
        "Execution time vs compression latency",
        true,
    )
}

/// Fig. 21: execution time vs decompression latency (2/4/8 cycles).
pub fn fig21(campaign: &mut Campaign) -> FigureTable {
    latency_figure(
        campaign,
        "fig21",
        "Execution time vs decompression latency",
        false,
    )
}

fn latency_figure(
    campaign: &mut Campaign,
    id: &str,
    title: &str,
    vary_compression: bool,
) -> FigureTable {
    let base: Vec<u64> = campaign
        .results(DesignPoint::Baseline)
        .iter()
        .map(|r| r.stats.cycles)
        .collect();
    let latencies = [2u64, 4, 8];
    let mut columns = Vec::new();
    for &l in &latencies {
        let point = if vary_compression {
            DesignPoint::Latency {
                compression: l,
                decompression: 1,
            }
        } else {
            DesignPoint::Latency {
                compression: 2,
                decompression: l,
            }
        };
        let cycles: Vec<u64> = campaign
            .results(point)
            .iter()
            .map(|r| r.stats.cycles)
            .collect();
        columns.push(cycles);
    }
    let names: Vec<String> = campaign
        .results(DesignPoint::Baseline)
        .iter()
        .map(|r| r.name.clone())
        .collect();
    let mut headers = vec!["bench".to_string()];
    headers.extend(latencies.iter().map(|l| format!("{l} cycles")));
    let mut rows = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let mut row = vec![name.clone()];
        for col in &columns {
            row.push(fmt(col[i] as f64 / base[i] as f64));
        }
        rows.push(row);
    }
    let mut avg = vec!["average".to_string()];
    for col in &columns {
        avg.push(fmt(mean(
            col.iter().zip(&base).map(|(&c, &b)| c as f64 / b as f64),
        )));
    }
    rows.push(avg);
    FigureTable::new(id, title, headers, rows)
}

/// Leakage-policy ablation (not a paper figure): §5.3 bank power gating
/// vs the prior-work drowsy alternative the paper cites. Gating saves all
/// leakage on empty banks but pays a 10-cycle wake-up; drowsy banks keep
/// a residual leakage fraction but wake in one cycle.
pub fn ablation_leakage(campaign: &mut Campaign) -> FigureTable {
    let p = paper_params();
    let base = energies(campaign.results(DesignPoint::Baseline), &p);
    let base_cycles: Vec<u64> = campaign
        .results(DesignPoint::Baseline)
        .iter()
        .map(|r| r.stats.cycles)
        .collect();
    let gate = energies(campaign.results(DesignPoint::WarpedCompression), &p);
    let gate_cycles: Vec<u64> = campaign
        .results(DesignPoint::WarpedCompression)
        .iter()
        .map(|r| r.stats.cycles)
        .collect();
    let drowsy = energies(campaign.results(DesignPoint::WarpedCompressionDrowsy), &p);
    let drowsy_runs = campaign.results(DesignPoint::WarpedCompressionDrowsy);
    let drowsy_cycles: Vec<u64> = drowsy_runs.iter().map(|r| r.stats.cycles).collect();
    let names: Vec<String> = drowsy_runs.iter().map(|r| r.name.clone()).collect();

    let mut rows = Vec::new();
    for i in 0..names.len() {
        rows.push(vec![
            names[i].clone(),
            fmt(gate[i].normalized_to(&base[i])),
            fmt(drowsy[i].normalized_to(&base[i])),
            fmt(gate_cycles[i] as f64 / base_cycles[i] as f64),
            fmt(drowsy_cycles[i] as f64 / base_cycles[i] as f64),
        ]);
    }
    rows.push(vec![
        "average".into(),
        fmt(mean(
            gate.iter().zip(&base).map(|(g, b)| g.normalized_to(b)),
        )),
        fmt(mean(
            drowsy.iter().zip(&base).map(|(d, b)| d.normalized_to(b)),
        )),
        fmt(mean(
            gate_cycles
                .iter()
                .zip(&base_cycles)
                .map(|(&g, &b)| g as f64 / b as f64),
        )),
        fmt(mean(
            drowsy_cycles
                .iter()
                .zip(&base_cycles)
                .map(|(&d, &b)| d as f64 / b as f64),
        )),
    ]);
    FigureTable::new(
        "ablation-leakage",
        "Leakage policy ablation: power gating vs drowsy banks (normalised to baseline)",
        vec![
            "bench".into(),
            "gate energy".into(),
            "drowsy energy".into(),
            "gate time".into(),
            "drowsy time".into(),
        ],
        rows,
    )
}

/// Codec study (paper §4's algorithm exploration): compression ratios of
/// the register-write stream under dynamic BDI (the shipped scheme), the
/// full unrestricted BDI explorer, and Frequent Pattern Compression.
/// FPC's variable-length bit stream cannot be decompressed in one cycle,
/// which is why the paper picks BDI even where FPC's ratio is close.
pub fn codec_study(campaign: &mut Campaign) -> FigureTable {
    use bdi::{explore_best_choice, BdiCodec, WARP_REGISTER_BYTES};
    use gpu_sim::GpuSim;

    let codec = BdiCodec::default();
    let mut rows = Vec::new();
    let mut totals = [0u64; 4]; // logical, bdi, full, fpc
    for w in campaign.workloads() {
        let (mut logical, mut bdi_b, mut full_b, mut fpc_b) = (0u64, 0u64, 0u64, 0u64);
        let mut memory = w.fresh_memory();
        GpuSim::new(DesignPoint::WarpedCompression.config())
            .run_observed(w.kernel(), w.launch(), &mut memory, &mut |e| {
                if e.synthetic {
                    return;
                }
                logical += WARP_REGISTER_BYTES as u64;
                bdi_b += codec.compress(&e.value).stored_len() as u64;
                full_b += explore_best_choice(&e.value)
                    .layout()
                    .map_or(WARP_REGISTER_BYTES, |l| l.compressed_len())
                    as u64;
                // FPC can expand; a real design would store raw instead.
                fpc_b += bdi::fpc::compressed_len(&e.value).min(WARP_REGISTER_BYTES) as u64;
            })
            .unwrap_or_else(|e| panic!("codec study run failed on {}: {e}", w.name()));
        let ratio = |stored: u64| logical as f64 / stored.max(1) as f64;
        rows.push(vec![
            w.name().to_string(),
            fmt(ratio(bdi_b)),
            fmt(ratio(full_b)),
            fmt(ratio(fpc_b)),
        ]);
        for (t, v) in totals.iter_mut().zip([logical, bdi_b, full_b, fpc_b]) {
            *t += v;
        }
    }
    rows.push(vec![
        "average".into(),
        fmt(totals[0] as f64 / totals[1].max(1) as f64),
        fmt(totals[0] as f64 / totals[2].max(1) as f64),
        fmt(totals[0] as f64 / totals[3].max(1) as f64),
    ]);
    FigureTable::new(
        "codec-study",
        "Compression-algorithm exploration: dynamic BDI vs full BDI vs FPC",
        vec![
            "bench".into(),
            "BDI (warped)".into(),
            "BDI (full)".into(),
            "FPC".into(),
        ],
        rows,
    )
}

/// Every figure/table in order, for `figures all`.
pub fn all(campaign: &mut Campaign) -> Vec<FigureTable> {
    // Simulate every design point the figures below consult up front, so
    // the points fan out across threads; each figure call below is then a
    // cache hit. The output is byte-identical to the lazy serial order.
    campaign.prefetch(&[
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
    ]);
    vec![
        table1(),
        table2(),
        table3(),
        fig2(campaign),
        fig3(campaign),
        fig5(campaign),
        fig8(campaign),
        fig9(campaign),
        fig10(campaign),
        fig11(campaign),
        fig12(campaign),
        fig13(campaign),
        fig14(campaign),
        fig15(campaign),
        fig16(campaign),
        fig17(campaign),
        fig18(campaign),
        fig19(campaign),
        fig20(campaign),
        fig21(campaign),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> Campaign {
        Campaign::new(vec![
            gpu_workloads::by_name("lib").unwrap(),
            gpu_workloads::by_name("pathfinder").unwrap(),
        ])
    }

    #[test]
    fn table1_matches_bdi_table() {
        let t = table1();
        assert_eq!(t.rows.len(), 9);
        assert_eq!(t.rows[3], vec!["4", "1", "35", "3", "Y"]);
    }

    #[test]
    fn static_tables_have_expected_entries() {
        assert!(table2()
            .rows
            .iter()
            .any(|r| r[0] == "SMs / GPU" && r[1] == "15"));
        assert!(table2()
            .rows
            .iter()
            .any(|r| r[0] == "Register banks" && r[1] == "32"));
        assert!(table3()
            .rows
            .iter()
            .any(|r| r[0].contains("Wire energy") && r[1] == "9.6"));
    }

    #[test]
    fn fig8_shows_high_nondiv_ratio_for_lib() {
        let mut c = tiny_campaign();
        let t = fig8(&mut c);
        let lib = t.rows.iter().find(|r| r[0] == "lib").unwrap();
        let ratio: f64 = lib[1].parse().unwrap();
        assert!(ratio > 5.0, "lib ratio {ratio}");
    }

    #[test]
    fn fig9_reports_positive_average_saving() {
        let mut c = tiny_campaign();
        let t = fig9(&mut c);
        let avg = t.rows.last().unwrap();
        let saving: f64 = avg.last().unwrap().trim_end_matches('%').parse().unwrap();
        assert!(saving > 0.0, "saving {saving}%");
    }

    #[test]
    fn fig10_gating_rises_within_cluster() {
        let mut c = tiny_campaign();
        let t = fig10(&mut c);
        assert_eq!(t.rows.len(), 32);
        let frac = |i: usize| -> f64 { t.rows[i][1].trim_end_matches('%').parse().unwrap() };
        // Bank 0 of cluster 0 holds every register's first chunk: gated
        // far less than bank 7.
        assert!(frac(7) > frac(0), "bank7 {} vs bank0 {}", frac(7), frac(0));
    }

    #[test]
    fn fig13_and_latency_figures_are_consistent() {
        let mut c = tiny_campaign();
        let f13 = fig13(&mut c);
        let f20 = fig20(&mut c);
        // fig20's 2-cycle column equals fig13 (2 cycles is the default).
        assert_eq!(f13.rows.last().unwrap()[1], f20.rows.last().unwrap()[1]);
        let f21 = fig21(&mut c);
        assert_eq!(f21.headers.len(), 4);
    }

    #[test]
    fn fig15_dynamic_beats_every_single_choice() {
        let mut c = tiny_campaign();
        let t = fig15(&mut c);
        let avg = t.rows.last().unwrap();
        let parse = |s: &String| -> f64 { s.parse().unwrap() };
        let warped = parse(&avg[4]);
        for (i, cell) in avg.iter().enumerate().take(4).skip(1) {
            assert!(
                warped >= parse(cell) - 1e-9,
                "dynamic should dominate column {i}"
            );
        }
    }

    #[test]
    fn leakage_ablation_orders_policies() {
        let mut c = tiny_campaign();
        let t = ablation_leakage(&mut c);
        let avg = t.rows.last().unwrap();
        let gate_e: f64 = avg[1].parse().unwrap();
        let drowsy_e: f64 = avg[2].parse().unwrap();
        // Both save energy; drowsy saves less leakage so its energy is
        // at least as high as gating's.
        assert!(gate_e < 1.0 && drowsy_e < 1.0);
        assert!(
            drowsy_e >= gate_e - 1e-9,
            "drowsy {drowsy_e} vs gate {gate_e}"
        );
    }

    #[test]
    fn codec_study_ranks_full_bdi_above_restricted() {
        let mut c = tiny_campaign();
        let t = codec_study(&mut c);
        let avg = t.rows.last().unwrap();
        let warped: f64 = avg[1].parse().unwrap();
        let full: f64 = avg[2].parse().unwrap();
        let fpc: f64 = avg[3].parse().unwrap();
        assert!(
            full >= warped - 1e-9,
            "full BDI {full} must dominate restricted {warped}"
        );
        assert!(fpc > 1.0, "FPC should compress the similarity-heavy suite");
    }

    #[test]
    fn all_produces_twenty_tables() {
        let mut c = Campaign::new(vec![gpu_workloads::by_name("lib").unwrap()]);
        let tables = all(&mut c);
        assert_eq!(tables.len(), 20);
        let mut ids: Vec<&str> = tables.iter().map(|t| t.id.as_str()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 20);
    }
}
