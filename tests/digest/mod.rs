//! The FNV-1a hasher and the table comparison shared by the digest
//! tests (`engine_digest.rs`, `plan_digest.rs`).

/// FNV-1a over a stream of 64-bit words.
pub struct Fnv(pub u64);

impl Fnv {
    /// A hasher at the FNV-1a 64-bit offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    pub fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }
}

/// Digest of a text (an error or bail message).
pub fn text_digest(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.text(text);
    h.0
}

/// Compares a computed table against a committed one, row by row.
/// Lines starting with `#` and blank lines of the committed table are
/// comments. On a mismatch the computed table goes to stderr.
pub fn assert_table_matches(table: &str, got: &str, what: &str) {
    let want: Vec<&str> = table
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let got: Vec<&str> = got.lines().collect();
    if want != got {
        eprintln!("computed table:\n{}", got.join("\n"));
    }
    assert_eq!(want.len(), got.len(), "row count ({what})");
    let diffs: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} runs changed:\n{}",
        diffs.len(),
        want.len(),
        diffs.join("\n")
    );
}
