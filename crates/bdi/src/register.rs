//! The warp register: 32 thread registers accessed as one unit.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Number of threads in a warp (NVIDIA/CUDA convention, paper §2.1).
pub const WARP_SIZE: usize = 32;

/// Width of a warp register in bytes: 32 threads × 4-byte thread registers.
pub const WARP_REGISTER_BYTES: usize = WARP_SIZE * 4;

/// One architectural register as seen by a warp instruction: the 32-bit
/// value held by each of the 32 threads of the warp.
///
/// This is the unit that warped-compression compresses. The paper calls
/// this a *warp register* and the per-thread 32-bit values *thread
/// registers*.
///
/// # Example
///
/// ```
/// use bdi::WarpRegister;
///
/// let reg = WarpRegister::splat(7);
/// assert_eq!(reg[31], 7);
/// assert!(reg.lanes().all(|v| v == 7));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct WarpRegister([u32; WARP_SIZE]);

impl WarpRegister {
    /// A register whose 32 thread registers are all zero.
    pub const ZERO: WarpRegister = WarpRegister([0; WARP_SIZE]);

    /// Creates a register from the 32 per-thread values.
    pub fn new(lanes: [u32; WARP_SIZE]) -> Self {
        WarpRegister(lanes)
    }

    /// Creates a register where every thread holds the same value.
    ///
    /// This is the *uniform* (scalar) pattern: compressible with ⟨4,0⟩.
    pub fn splat(value: u32) -> Self {
        WarpRegister([value; WARP_SIZE])
    }

    /// Creates a register from a function of the thread index (lane id).
    ///
    /// ```
    /// use bdi::WarpRegister;
    /// let tid = WarpRegister::from_fn(|t| t as u32);
    /// assert_eq!(tid[5], 5);
    /// ```
    pub fn from_fn(mut f: impl FnMut(usize) -> u32) -> Self {
        let mut lanes = [0u32; WARP_SIZE];
        for (tid, lane) in lanes.iter_mut().enumerate() {
            *lane = f(tid);
        }
        WarpRegister(lanes)
    }

    /// The value held by thread `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= WARP_SIZE`.
    pub fn lane(&self, lane: usize) -> u32 {
        self.0[lane]
    }

    /// Sets the value held by thread `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= WARP_SIZE`.
    pub fn set_lane(&mut self, lane: usize, value: u32) {
        self.0[lane] = value;
    }

    /// Iterates over the 32 thread-register values in lane order.
    pub fn lanes(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().copied()
    }

    /// Borrows the lane array directly.
    pub fn as_lanes(&self) -> &[u32; WARP_SIZE] {
        &self.0
    }

    /// The little-endian byte image of the register (128 bytes), which is
    /// what the BDI chunking operates on.
    pub fn to_bytes(self) -> [u8; WARP_REGISTER_BYTES] {
        let mut bytes = [0u8; WARP_REGISTER_BYTES];
        for (i, v) in self.0.iter().enumerate() {
            bytes[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        bytes
    }

    /// Rebuilds a register from its little-endian byte image.
    pub fn from_bytes(bytes: &[u8; WARP_REGISTER_BYTES]) -> Self {
        let mut lanes = [0u32; WARP_SIZE];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap());
        }
        WarpRegister(lanes)
    }

    /// Merges `other` into `self` for the lanes whose bit is set in
    /// `active_mask` (bit *i* ↔ thread *i*).
    ///
    /// This models a divergent write: only the active threads update their
    /// thread register, the rest keep the previous value.
    ///
    /// ```
    /// use bdi::WarpRegister;
    /// let old = WarpRegister::splat(1);
    /// let new = WarpRegister::splat(9);
    /// let merged = old.merge_masked(&new, 0x1);
    /// assert_eq!(merged[0], 9);
    /// assert_eq!(merged[1], 1);
    /// ```
    pub fn merge_masked(&self, other: &WarpRegister, active_mask: u32) -> WarpRegister {
        WarpRegister::from_fn(|tid| {
            if active_mask & (1 << tid) != 0 {
                other.0[tid]
            } else {
                self.0[tid]
            }
        })
    }

    /// The maximum arithmetic distance between successive thread registers,
    /// the similarity metric used throughout the paper (§1, §3).
    ///
    /// Returns `None` for the degenerate single-lane case (never happens
    /// with `WARP_SIZE` = 32).
    pub fn max_successive_distance(&self) -> Option<u64> {
        self.0
            .windows(2)
            .map(|w| (i64::from(w[1]) - i64::from(w[0])).unsigned_abs())
            .max()
    }
}

impl Default for WarpRegister {
    fn default() -> Self {
        WarpRegister::ZERO
    }
}

impl Index<usize> for WarpRegister {
    type Output = u32;

    fn index(&self, lane: usize) -> &u32 {
        &self.0[lane]
    }
}

impl IndexMut<usize> for WarpRegister {
    fn index_mut(&mut self, lane: usize) -> &mut u32 {
        &mut self.0[lane]
    }
}

impl From<[u32; WARP_SIZE]> for WarpRegister {
    fn from(lanes: [u32; WARP_SIZE]) -> Self {
        WarpRegister(lanes)
    }
}

impl fmt::Debug for WarpRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WarpRegister[{:#x}", self.0[0])?;
        for v in &self.0[1..] {
            write!(f, ", {v:#x}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_fills_all_lanes() {
        let r = WarpRegister::splat(0xdead_beef);
        assert!(r.lanes().all(|v| v == 0xdead_beef));
    }

    #[test]
    fn byte_round_trip() {
        let r = WarpRegister::from_fn(|t| (t as u32).wrapping_mul(0x0101_0101));
        assert_eq!(WarpRegister::from_bytes(&r.to_bytes()), r);
    }

    #[test]
    fn bytes_are_little_endian_per_lane() {
        let r = WarpRegister::from_fn(|t| if t == 1 { 0x0403_0201 } else { 0 });
        let b = r.to_bytes();
        assert_eq!(&b[4..8], &[0x01, 0x02, 0x03, 0x04]);
    }

    #[test]
    fn merge_masked_selects_lanes() {
        let old = WarpRegister::from_fn(|t| t as u32);
        let new = WarpRegister::splat(100);
        let merged = old.merge_masked(&new, 0xAAAA_AAAA);
        for t in 0..WARP_SIZE {
            if t % 2 == 1 {
                assert_eq!(merged[t], 100);
            } else {
                assert_eq!(merged[t], t as u32);
            }
        }
    }

    #[test]
    fn merge_with_full_mask_replaces_everything() {
        let old = WarpRegister::splat(1);
        let new = WarpRegister::from_fn(|t| t as u32 * 3);
        assert_eq!(old.merge_masked(&new, u32::MAX), new);
    }

    #[test]
    fn merge_with_empty_mask_is_identity() {
        let old = WarpRegister::from_fn(|t| t as u32 + 9);
        let new = WarpRegister::splat(0);
        assert_eq!(old.merge_masked(&new, 0), old);
    }

    #[test]
    fn successive_distance_of_uniform_register_is_zero() {
        assert_eq!(WarpRegister::splat(42).max_successive_distance(), Some(0));
    }

    #[test]
    fn successive_distance_of_tid_register_is_one() {
        let r = WarpRegister::from_fn(|t| 1000 + t as u32);
        assert_eq!(r.max_successive_distance(), Some(1));
    }

    #[test]
    fn successive_distance_handles_extremes() {
        let mut r = WarpRegister::splat(0);
        r.set_lane(1, u32::MAX);
        assert_eq!(r.max_successive_distance(), Some(u64::from(u32::MAX)));
    }

    #[test]
    fn index_mut_writes_through() {
        let mut r = WarpRegister::ZERO;
        r[7] = 99;
        assert_eq!(r.lane(7), 99);
    }
}
