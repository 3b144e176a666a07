//! Figure/table regeneration for the Warped-Compression reproduction.
//!
//! Each `fig*`/`table*` function returns a [`FigureTable`] — the same
//! rows/series the paper's figure reports — computed from simulation
//! runs managed by a memoising [`Campaign`]. The `figures` binary renders
//! them to stdout and CSV.
//!
//! # Example
//!
//! ```no_run
//! use wc_bench::{Campaign, figures};
//!
//! let mut campaign = Campaign::full_suite();
//! let fig8 = figures::fig8(&mut campaign);
//! println!("{}", fig8.to_markdown());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis_json;
mod campaign;
mod checkpoint;
#[cfg(feature = "faults")]
pub mod fault_json;
pub mod figures;
#[cfg(feature = "fuzz")]
pub mod fuzz_json;
pub mod jsonfmt;
pub mod mem_json;
pub mod perf_json;
pub mod schedule_json;
mod table;

pub use campaign::Campaign;
pub use checkpoint::CheckpointStore;
pub use table::FigureTable;
