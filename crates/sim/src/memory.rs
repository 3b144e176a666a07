//! Word-addressed global memory with bounds-checked access.

use std::error::Error;
use std::fmt;

/// An out-of-range global memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryFault {
    /// The faulting word address.
    pub addr: u32,
    /// Memory size in words.
    pub size: usize,
}

impl fmt::Display for MemoryFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "global memory access at word {} out of range (size {})",
            self.addr, self.size
        )
    }
}

impl Error for MemoryFault {}

/// Global device memory, addressed in 32-bit words.
///
/// The paper's observations hinge on register *values*, so a flat
/// fixed-latency memory (latency modelled in the pipeline, not here) is a
/// faithful substitute for GPGPU-Sim's DRAM model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalMemory {
    words: Vec<u32>,
}

impl GlobalMemory {
    /// Memory of `size` words, all zero.
    pub fn zeroed(size: usize) -> Self {
        GlobalMemory {
            words: vec![0; size],
        }
    }

    /// Memory initialised from the given words.
    pub fn from_words(words: Vec<u32>) -> Self {
        GlobalMemory { words }
    }

    /// Size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory has zero words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Loads one word.
    ///
    /// # Errors
    ///
    /// [`MemoryFault`] when `addr` is out of range.
    pub fn load(&self, addr: u32) -> Result<u32, MemoryFault> {
        self.words.get(addr as usize).copied().ok_or(MemoryFault {
            addr,
            size: self.words.len(),
        })
    }

    /// Stores one word.
    ///
    /// # Errors
    ///
    /// [`MemoryFault`] when `addr` is out of range.
    pub fn store(&mut self, addr: u32, value: u32) -> Result<(), MemoryFault> {
        let size = self.words.len();
        match self.words.get_mut(addr as usize) {
            Some(w) => {
                *w = value;
                Ok(())
            }
            None => Err(MemoryFault { addr, size }),
        }
    }

    /// Direct read of a word for test assertions.
    ///
    /// # Errors
    ///
    /// [`MemoryFault`] when `addr` is out of range — the same typed
    /// error as [`load`](Self::load), so host-side checks never panic
    /// on untrusted addresses.
    pub fn word(&self, addr: usize) -> Result<u32, MemoryFault> {
        self.words.get(addr).copied().ok_or(MemoryFault {
            addr: u32::try_from(addr).unwrap_or(u32::MAX),
            size: self.words.len(),
        })
    }

    /// The full word array.
    pub fn words(&self) -> &[u32] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_round_trip() {
        let mut m = GlobalMemory::zeroed(4);
        m.store(2, 99).unwrap();
        assert_eq!(m.load(2), Ok(99));
        assert_eq!(m.word(2).unwrap(), 99);
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = GlobalMemory::zeroed(4);
        assert_eq!(m.load(4), Err(MemoryFault { addr: 4, size: 4 }));
        assert_eq!(m.store(100, 1), Err(MemoryFault { addr: 100, size: 4 }));
    }

    #[test]
    fn from_words_preserves_content() {
        let m = GlobalMemory::from_words(vec![5, 6, 7]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.words(), &[5, 6, 7]);
    }

    #[test]
    fn fault_display() {
        let f = MemoryFault { addr: 9, size: 4 };
        assert!(f.to_string().contains("word 9"));
    }
}
