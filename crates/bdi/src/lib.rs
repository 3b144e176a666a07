//! Base-Delta-Immediate (BDI) compression for GPU warp registers.
//!
//! This crate implements the compression algorithm of §4 of
//! *Warped-Compression: Enabling Power Efficient GPUs through Register
//! Compression* (ISCA 2015). A GPU warp register is the collection of the
//! 32 per-thread 32-bit values written by one warp instruction — 128 bytes
//! in total. BDI splits those bytes into fixed-size *chunks*, keeps the
//! first chunk as the *base*, and stores every other chunk as a small
//! signed *delta* relative to the base:
//!
//! ```text
//! L_comp = L_base + L_delta * (L_input / L_base - 1)          (paper Eq. 1)
//! ```
//!
//! The paper restricts the runtime scheme to three fixed ⟨base, delta⟩
//! choices — ⟨4,0⟩, ⟨4,1⟩ and ⟨4,2⟩ — selected per register write, because
//! those are the only choices that pay off given the 16-byte register-bank
//! granularity (Table 1). The full parameter space is still available here
//! ([`ChunkLayout`] accepts every Table 1 row) for the design-space
//! exploration that produces the paper's Figure 5.
//!
//! # Example
//!
//! ```
//! use bdi::{WarpRegister, BdiCodec, ChoiceSet};
//!
//! // A register holding `base + tid` for each of the 32 threads: the
//! // classic thread-index pattern the paper identifies as compressible.
//! let reg = WarpRegister::from_fn(|tid| 0x1000 + tid as u32);
//! let codec = BdiCodec::new(ChoiceSet::warped_compression());
//! let compressed = codec.compress(&reg);
//! assert!(compressed.is_compressed());
//! assert_eq!(compressed.banks_required(), 3); // <4,1>: 35 B -> 3 banks
//! assert_eq!(codec.decompress(&compressed), reg);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod choice;
mod codec;
mod compressed;
mod deltas;
mod error;
mod explorer;
mod fold;
pub mod fpc;
mod layout;
mod register;

pub use choice::{ChoiceSet, CompressionClass, CompressionIndicator, FixedChoice};
pub use codec::BdiCodec;
pub use compressed::CompressedRegister;
pub use deltas::{DeltaArray, MAX_STORED_DELTAS};
pub use error::{DecodeError, LayoutError};
pub use explorer::{
    explore_best_choice, explore_best_choice_reference, BestChoice, EXPLORER_CHOICES,
};
pub use layout::{table_one, BaseSize, ChunkLayout, TableOneRow, BANK_BYTES, TABLE_ONE};
pub use register::{WarpRegister, WARP_REGISTER_BYTES, WARP_SIZE};
