//! The committed digests of simulated statistics and final memory per
//! (kernel, design point) that every simulating op is checked against.
//!
//! A change meant only to speed the simulator up must leave every
//! simulated statistic identical; any difference in a digested field
//! fails the op. `wcperf bless` regenerates `golden.txt`, which belongs
//! only in a change that edits the benchmark itself.

use std::collections::BTreeMap;

use gpu_sim::{SimStats, StallCause};

/// The committed table, compiled in so a run reads no file.
pub const TEXT: &str = include_str!("../golden.txt");

/// Where `bless` writes the table.
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.txt");

/// One (kernel, design) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    pub stats: u64,
    pub memory: u64,
    pub cycles: u64,
    /// Program warp-instructions (excludes injected MOVs).
    pub winst: u64,
}

#[derive(Clone, Debug, Default)]
pub struct Golden {
    entries: BTreeMap<(String, String), Entry>,
}

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }
}

/// Digest of the simulated statistics: cycles, instructions, injected
/// MOVs, divergent instructions, writes, compressed writes, stored
/// bytes, compressor and decompressor activations, stall totals by
/// cause, memory transactions, wake-ups, and per-bank reads, writes and
/// gated cycles.
pub fn stats_digest(s: &SimStats) -> u64 {
    let mut h = Fnv::new();
    for w in [
        s.cycles,
        s.instructions,
        s.synthetic_movs,
        s.divergent_instructions,
        s.writes,
        s.writes_compressed,
        s.nondiv_stored_bytes,
        s.div_stored_bytes,
        s.compressor_activations,
        s.decompressor_activations,
        s.mem.total_transactions(),
        s.regfile.wakeups,
    ] {
        h.word(w);
    }
    for cause in StallCause::ALL {
        h.word(s.stalls.total(cause));
    }
    h.words(&s.regfile.bank_reads);
    h.words(&s.regfile.bank_writes);
    h.words(&s.regfile.gated_cycles);
    h.0
}

/// Digest of final global memory.
pub fn memory_digest(words: &[u32]) -> u64 {
    let mut h = Fnv::new();
    h.word(words.len() as u64);
    for &w in words {
        h.word(u64::from(w));
    }
    h.0
}

impl Golden {
    /// Parses the committed table.
    pub fn committed() -> Result<Golden, String> {
        Golden::parse(TEXT)
    }

    /// Parses `kernel design stats memory cycles winst` rows; `#`
    /// starts a comment line.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("golden.txt line {}: malformed row `{line}`", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let [kernel, design, stats, memory, cycles, winst] = f[..] else {
                return Err(bad());
            };
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
            let dec = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let entry = Entry {
                stats: hex(stats)?,
                memory: hex(memory)?,
                cycles: dec(cycles)?,
                winst: dec(winst)?,
            };
            entries.insert((kernel.to_string(), design.to_string()), entry);
        }
        Ok(Golden { entries })
    }

    pub fn insert(&mut self, kernel: &str, design: &str, entry: Entry) {
        self.entries
            .insert((kernel.to_string(), design.to_string()), entry);
    }

    pub fn get(&self, kernel: &str, design: &str) -> Result<&Entry, String> {
        self.entries
            .get(&(kernel.to_string(), design.to_string()))
            .ok_or_else(|| format!("{kernel}/{design}: no golden entry"))
    }

    /// Fails when `stats` differ from the committed digest.
    pub fn check_stats(&self, kernel: &str, design: &str, stats: &SimStats) -> Result<(), String> {
        let want = self.get(kernel, design)?;
        if stats_digest(stats) == want.stats {
            Ok(())
        } else {
            Err(format!(
                "{kernel}/{design}: simulated statistics differ from golden.txt \
                 (cycles {} vs {}, instructions {} vs {})",
                stats.cycles, want.cycles, stats.instructions, want.winst
            ))
        }
    }

    /// Fails when final memory differs from the committed digest.
    pub fn check_memory(&self, kernel: &str, design: &str, words: &[u32]) -> Result<(), String> {
        if memory_digest(words) == self.get(kernel, design)?.memory {
            Ok(())
        } else {
            Err(format!(
                "{kernel}/{design}: final memory differs from golden.txt"
            ))
        }
    }

    /// The table as `golden.txt` text, rows in (kernel, design) order.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# wcperf golden digests: kernel design stats-digest memory-digest cycles winst\n\
             # Regenerate with `wcperf bless`, and only in a change that edits the benchmark.\n",
        );
        for ((kernel, design), e) in &self.entries {
            out.push_str(&format!(
                "{kernel} {design} {:016x} {:016x} {} {}\n",
                e.stats, e.memory, e.cycles, e.winst
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips_and_rejects_bad_rows() {
        let mut g = Golden::default();
        let e = Entry {
            stats: 0xdead_beef,
            memory: 7,
            cycles: 100,
            winst: 40,
        };
        g.insert("aes", "baseline", e);
        let again = Golden::parse(&g.render()).expect("rendered table parses");
        assert_eq!(again.get("aes", "baseline"), Ok(&e));
        assert!(again.get("aes", "warped-compression").is_err());
        assert!(Golden::parse("aes baseline zz 0 1 2").is_err());
        assert!(Golden::parse("aes baseline 0 0 1").is_err());
    }

    #[test]
    fn stats_digest_sees_every_listed_field() {
        let base = SimStats {
            regfile: gpu_regfile::RegFileStats {
                bank_reads: vec![1, 2],
                bank_writes: vec![3, 4],
                gated_cycles: vec![5, 6],
                ..Default::default()
            },
            ..Default::default()
        };
        let d = stats_digest(&base);
        let mut s = base.clone();
        s.synthetic_movs += 1;
        assert_ne!(stats_digest(&s), d);
        let mut s = base.clone();
        s.regfile.gated_cycles[1] += 1;
        assert_ne!(stats_digest(&s), d);
        let mut s = base.clone();
        s.stalls.record(3, StallCause::WritebackPort);
        assert_ne!(stats_digest(&s), d);
        assert_eq!(memory_digest(&[1, 2]), memory_digest(&[1, 2]));
        assert_ne!(memory_digest(&[1, 2]), memory_digest(&[2, 1]));
    }

    #[test]
    fn committed_table_covers_the_sweep() {
        let g = Golden::committed().expect("golden.txt parses");
        assert_eq!(g.entries.len(), 18 * crate::workloads::SWEEP.len());
    }
}
