//! Inline, allocation-free delta storage for compressed registers.
//!
//! The hardware compressor of Fig. 7 never allocates: the delta lanes come
//! straight out of the subtractor array into the bank-write crossbar.
//! [`DeltaArray`] mirrors that — a fixed inline buffer sized for the widest
//! layout that actually stores deltas, making [`CompressedRegister`]
//! `Copy` and keeping the compress hot path free of heap traffic.
//!
//! Layouts with a zero-byte delta width (⟨4,0⟩, ⟨2,0⟩, ⟨1,0⟩, ⟨8,0⟩) store
//! *no* delta payload in hardware — every chunk equals the base — so the
//! array records only the logical delta count for them. That is what lets
//! the inline buffer stay at 63 slots (the ⟨2,1⟩ maximum) even though
//! ⟨1,0⟩ has 127 logical deltas.
//!
//! [`CompressedRegister`]: crate::compressed::CompressedRegister

use std::fmt;

/// Most deltas any delta-*storing* layout produces: ⟨2,1⟩ has 128/2 − 1.
///
/// Zero-width layouts can have more logical deltas (⟨1,0⟩ has 127) but
/// store none of them, so they never touch the inline buffer.
pub const MAX_STORED_DELTAS: usize = 63;

/// Fixed-capacity, `Copy` sequence of sign-extended chunk deltas.
///
/// Two storage forms exist, matching what the hardware writes to banks:
///
/// * **stored** — every logical delta is held in the inline buffer
///   (layouts with `delta_bytes > 0`); built with [`push`] or collected
///   from an iterator.
/// * **zeros** — only the logical count is recorded; every delta is
///   definitionally zero (layouts with `delta_bytes == 0`); built with
///   [`zeros`].
///
/// Equality compares the *logical* delta sequences, so the two forms of
/// "31 zero deltas" compare equal. Every storable delta fits an `i32`
/// (the widest delta is 4 bytes), but the API speaks `i64` to match the
/// sign-extended values the codec arithmetic uses.
///
/// [`push`]: DeltaArray::push
/// [`zeros`]: DeltaArray::zeros
///
/// # Example
///
/// ```
/// use bdi::DeltaArray;
///
/// let stored: DeltaArray = [0i32; 31].into_iter().collect();
/// let implicit = DeltaArray::zeros(31);
/// assert_eq!(stored, implicit);
/// assert_eq!(stored.len(), 31);
/// assert!(stored.iter().all(|d| d == 0));
/// ```
#[derive(Clone, Copy)]
pub struct DeltaArray {
    /// Logical number of deltas (chunk count − 1 once fully built).
    logical: u8,
    /// How many of `vals` are in use: equals `logical` in stored form,
    /// 0 in zeros form.
    stored: u8,
    vals: [i32; MAX_STORED_DELTAS],
}

impl DeltaArray {
    /// Inline capacity of the stored form.
    pub const CAPACITY: usize = MAX_STORED_DELTAS;

    /// An empty array in stored form; grow it with [`push`].
    ///
    /// [`push`]: DeltaArray::push
    pub const fn new() -> Self {
        DeltaArray {
            logical: 0,
            stored: 0,
            vals: [0; MAX_STORED_DELTAS],
        }
    }

    /// `count` logical zero deltas with no stored payload — the form a
    /// zero-delta-width layout produces.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds 255 (no layout comes close: the maximum
    /// is 127 logical deltas for ⟨1,0⟩).
    pub fn zeros(count: usize) -> Self {
        let logical = u8::try_from(count).expect("delta count exceeds u8");
        DeltaArray {
            logical,
            stored: 0,
            vals: [0; MAX_STORED_DELTAS],
        }
    }

    /// Stored form holding a copy of `deltas` — the bulk constructor the
    /// single-pass compressor uses once a layout is chosen.
    ///
    /// # Panics
    ///
    /// Panics if `deltas.len() > Self::CAPACITY`.
    pub fn from_stored(deltas: &[i32]) -> Self {
        assert!(
            deltas.len() <= Self::CAPACITY,
            "delta count exceeds inline capacity"
        );
        let mut vals = [0; MAX_STORED_DELTAS];
        vals[..deltas.len()].copy_from_slice(deltas);
        DeltaArray {
            logical: deltas.len() as u8,
            stored: deltas.len() as u8,
            vals,
        }
    }

    /// `count` copies of `delta` in stored form (test/bench convenience).
    ///
    /// # Panics
    ///
    /// Panics if `count > Self::CAPACITY`.
    pub fn filled(count: usize, delta: i32) -> Self {
        assert!(
            count <= Self::CAPACITY,
            "delta count exceeds inline capacity"
        );
        let mut vals = [0; MAX_STORED_DELTAS];
        vals[..count].fill(delta);
        DeltaArray {
            logical: count as u8,
            stored: count as u8,
            vals,
        }
    }

    /// Appends a delta to the stored form.
    ///
    /// # Panics
    ///
    /// Panics if the array is at capacity or in zeros form (callers build
    /// an array in exactly one form).
    pub fn push(&mut self, delta: i32) {
        assert_eq!(
            self.stored, self.logical,
            "cannot push onto a zeros-form DeltaArray"
        );
        let i = usize::from(self.stored);
        assert!(i < Self::CAPACITY, "DeltaArray capacity exceeded");
        self.vals[i] = delta;
        self.stored += 1;
        self.logical += 1;
    }

    /// Number of logical deltas (one per non-base chunk).
    pub fn len(&self) -> usize {
        usize::from(self.logical)
    }

    /// Whether there are no logical deltas.
    pub fn is_empty(&self) -> bool {
        self.logical == 0
    }

    /// The `i`-th logical delta, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<i64> {
        if i < self.len() {
            Some(if self.stored == 0 {
                0
            } else {
                i64::from(self.vals[i])
            })
        } else {
            None
        }
    }

    /// Iterates the logical deltas in chunk order (zeros form yields
    /// `len()` zeros).
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.len()).map(move |i| {
            if self.stored == 0 {
                0
            } else {
                i64::from(self.vals[i])
            }
        })
    }

    /// The explicitly stored payload (empty for the zeros form).
    pub fn as_stored(&self) -> &[i32] {
        &self.vals[..usize::from(self.stored)]
    }

    /// Stored form adopting a full sweep buffer without re-copying it —
    /// the constructor the single-pass compress path uses. Slots past
    /// `len` must already be zero (the sweep only writes `len` slots
    /// into a zero-initialised buffer), preserving the invariant that
    /// unused slots are zero.
    pub(crate) fn from_raw(vals: [i32; MAX_STORED_DELTAS], len: u8) -> Self {
        debug_assert!(vals[usize::from(len)..].iter().all(|&d| d == 0));
        DeltaArray {
            logical: len,
            stored: len,
            vals,
        }
    }

    /// The full inline buffer, valid in both forms: zeros form holds all
    /// zeros, stored form zero-fills past `len()`. Lets the 4-byte-base
    /// decompress fold read a fixed-size array without bounds checks.
    pub(crate) fn raw_vals(&self) -> &[i32; MAX_STORED_DELTAS] {
        &self.vals
    }
}

impl Default for DeltaArray {
    fn default() -> Self {
        DeltaArray::new()
    }
}

impl FromIterator<i32> for DeltaArray {
    /// Collects into the stored form.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields more than [`DeltaArray::CAPACITY`]
    /// items.
    fn from_iter<I: IntoIterator<Item = i32>>(iter: I) -> Self {
        let mut arr = DeltaArray::new();
        for d in iter {
            arr.push(d);
        }
        arr
    }
}

impl PartialEq for DeltaArray {
    /// Logical-sequence equality: the zeros form equals a stored form
    /// holding the same number of explicit zeros.
    fn eq(&self, other: &Self) -> bool {
        self.logical == other.logical && self.iter().eq(other.iter())
    }
}

impl Eq for DeltaArray {}

impl fmt::Debug for DeltaArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iter_round_trip() {
        let mut a = DeltaArray::new();
        a.push(-3);
        a.push(0);
        a.push(127);
        assert_eq!(a.len(), 3);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![-3, 0, 127]);
        assert_eq!(a.get(2), Some(127));
        assert_eq!(a.get(3), None);
        assert_eq!(a.as_stored(), &[-3, 0, 127]);
    }

    #[test]
    fn zeros_form_reports_logical_zeros_without_storage() {
        let a = DeltaArray::zeros(127);
        assert_eq!(a.len(), 127);
        assert!(a.iter().all(|d| d == 0));
        assert_eq!(a.get(126), Some(0));
        assert!(a.as_stored().is_empty());
    }

    #[test]
    fn zeros_and_stored_zeros_compare_equal() {
        let stored: DeltaArray = std::iter::repeat_n(0, 31).collect();
        assert_eq!(stored, DeltaArray::zeros(31));
        assert_ne!(stored, DeltaArray::zeros(30));
        let nonzero: DeltaArray = std::iter::once(1).collect();
        assert_ne!(nonzero, DeltaArray::zeros(1));
    }

    #[test]
    fn from_stored_copies_slice() {
        let a = DeltaArray::from_stored(&[1, -2, 3]);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, -2, 3]);
        assert_eq!(a, [1, -2, 3].into_iter().collect());
    }

    #[test]
    fn filled_matches_collected() {
        let collected: DeltaArray = std::iter::repeat_n(7, 15).collect();
        assert_eq!(DeltaArray::filled(15, 7), collected);
    }

    #[test]
    fn capacity_boundary_is_exact() {
        let a: DeltaArray = (0..63).collect();
        assert_eq!(a.len(), DeltaArray::CAPACITY);
        assert_eq!(a.get(62), Some(62));
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn push_past_capacity_panics() {
        let mut a: DeltaArray = (0..63).collect();
        a.push(63);
    }

    #[test]
    #[should_panic(expected = "zeros-form")]
    fn push_onto_zeros_form_panics() {
        let mut a = DeltaArray::zeros(4);
        a.push(1);
    }
}
