//! Register-file energy model for the Warped-Compression reproduction.
//!
//! The paper evaluates energy analytically: CACTI and RTL synthesis are
//! reduced to the per-event constants of Table 3, and the simulator's
//! activity counters are multiplied through them (§6.1). This crate
//! implements exactly that arithmetic:
//!
//! * **dynamic bank energy** — 7 pJ per 16-byte bank access, plus the
//!   wire energy of moving 128 bits over 1 mm at the configured switching
//!   activity (300 fF/mm, 1 V → 19.2 pJ/mm at full activity; the paper's
//!   default 50 % activity gives the 9.6 pJ/mm of Table 3),
//! * **leakage** — 5.8 mW per powered bank; power-gated bank-cycles leak
//!   nothing,
//! * **compressor / decompressor** — 23 pJ / 21 pJ per activation plus
//!   0.12 mW / 0.08 mW leakage per unit,
//! * sensitivity knobs for the §6.7 sweeps: scale factors on the
//!   compression-unit activation energy (Fig. 17) and on the per-bank
//!   access energy (Fig. 18), and the wire activity factor (Fig. 19).
//!
//! # Example
//!
//! ```
//! use gpu_power::{ActivityCounts, EnergyModel, EnergyParams};
//!
//! let model = EnergyModel::new(EnergyParams::paper_table3());
//! let activity = ActivityCounts {
//!     bank_reads: 1000,
//!     bank_writes: 500,
//!     powered_bank_cycles: 32 * 10_000,
//!     cycles: 10_000,
//!     compressor_activations: 400,
//!     decompressor_activations: 900,
//!     ..Default::default()
//! };
//! let report = model.evaluate(&activity);
//! assert!(report.total_pj() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod compressibility;
mod model;
mod params;
mod perf;
mod report;
mod schedule;

pub use activity::{ActivityCounts, LowPowerKind};
pub use compressibility::CompressibilityComparison;
pub use model::EnergyModel;
pub use params::EnergyParams;
pub use perf::PerfComparison;
pub use report::EnergyReport;
pub use schedule::ScheduleComparison;
