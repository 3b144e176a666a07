//! Per-warp register scoreboard: RAW, WAW and WAR hazard tracking.

/// Tracks pending register reads and writes per (warp slot, register).
///
/// An instruction may issue only if
/// * none of its sources has a pending write (RAW),
/// * its destination has no pending write (WAW), and
/// * its destination has no pending read (WAR — operand values are
///   captured when the collector fetches them, so a later write must not
///   land first).
///
/// The counters are dense, indexed `slot * num_regs + reg` and sized
/// once for the SM's resident slots: a hazard probe is two array loads,
/// which matters because the issue stage probes on every attempt.
#[derive(Clone, Debug)]
pub struct Scoreboard {
    num_regs: usize,
    pending_writes: Vec<u32>,
    pending_reads: Vec<u32>,
    /// Reads plus writes pending per slot, so idleness is one load.
    outstanding: Vec<u32>,
}

impl Scoreboard {
    /// An empty scoreboard for `num_slots` warp slots of `num_regs`
    /// registers each.
    pub fn new(num_slots: usize, num_regs: usize) -> Self {
        Scoreboard {
            num_regs,
            pending_writes: vec![0; num_slots * num_regs],
            pending_reads: vec![0; num_slots * num_regs],
            outstanding: vec![0; num_slots],
        }
    }

    fn at(&self, warp: usize, reg: usize) -> usize {
        debug_assert!(
            reg < self.num_regs,
            "r{reg} beyond {} registers",
            self.num_regs
        );
        warp * self.num_regs + reg
    }

    /// Whether an instruction reading `srcs` and writing `dst` may issue
    /// on `warp`.
    pub fn can_issue(&self, warp: usize, srcs: &[usize], dst: Option<usize>) -> bool {
        if srcs
            .iter()
            .any(|&r| self.pending_writes[self.at(warp, r)] > 0)
        {
            return false; // RAW
        }
        if let Some(d) = dst {
            let i = self.at(warp, d);
            if self.pending_writes[i] > 0 {
                return false; // WAW
            }
            if self.pending_reads[i] > 0 {
                return false; // WAR
            }
        }
        true
    }

    /// Registers the hazards of an issuing instruction.
    pub fn issue(&mut self, warp: usize, srcs: &[usize], dst: Option<usize>) {
        for &r in srcs {
            let i = self.at(warp, r);
            self.pending_reads[i] += 1;
        }
        if let Some(d) = dst {
            let i = self.at(warp, d);
            self.pending_writes[i] += 1;
        }
        self.outstanding[warp] += (srcs.len() + usize::from(dst.is_some())) as u32;
    }

    /// Releases the read reservations (operands captured by the
    /// collector).
    ///
    /// # Panics
    ///
    /// Panics if a read was never registered — an accounting bug.
    pub fn release_reads(&mut self, warp: usize, srcs: &[usize]) {
        for &r in srcs {
            let i = self.at(warp, r);
            let n = &mut self.pending_reads[i];
            assert!(*n > 0, "release of unregistered read");
            *n -= 1;
            self.outstanding[warp] -= 1;
        }
    }

    /// Releases the write reservation (result written back).
    ///
    /// # Panics
    ///
    /// Panics if the write was never registered.
    pub fn release_write(&mut self, warp: usize, dst: usize) {
        let i = self.at(warp, dst);
        let n = &mut self.pending_writes[i];
        assert!(*n > 0, "release of unregistered write");
        *n -= 1;
        self.outstanding[warp] -= 1;
    }

    /// Whether the warp has no in-flight register activity.
    pub fn is_warp_idle(&self, warp: usize) -> bool {
        self.outstanding[warp] == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn raw_hazard_blocks() {
        let mut sb = Scoreboard::new(1, 8);
        sb.issue(0, &[1], Some(2));
        assert!(!sb.can_issue(0, &[2], None)); // RAW on r2
        sb.release_write(0, 2);
        assert!(sb.can_issue(0, &[2], None));
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::new(1, 8);
        sb.issue(0, &[], Some(3));
        assert!(!sb.can_issue(0, &[], Some(3)));
        sb.release_write(0, 3);
        assert!(sb.can_issue(0, &[], Some(3)));
    }

    #[test]
    fn war_hazard_blocks_until_operands_captured() {
        let mut sb = Scoreboard::new(1, 8);
        sb.issue(0, &[5], Some(6));
        assert!(!sb.can_issue(0, &[], Some(5))); // WAR on r5
        sb.release_reads(0, &[5]);
        assert!(sb.can_issue(0, &[], Some(5)));
    }

    #[test]
    fn warps_are_independent() {
        let mut sb = Scoreboard::new(2, 8);
        sb.issue(0, &[1], Some(2));
        assert!(sb.can_issue(1, &[2], Some(2)));
        assert!(!sb.is_warp_idle(0));
        assert!(sb.is_warp_idle(1));
    }

    #[test]
    fn duplicate_reads_are_counted() {
        let mut sb = Scoreboard::new(1, 8);
        sb.issue(0, &[1], None);
        sb.issue(0, &[1], None);
        sb.release_reads(0, &[1]);
        assert!(!sb.can_issue(0, &[], Some(1)));
        sb.release_reads(0, &[1]);
        assert!(sb.can_issue(0, &[], Some(1)));
    }

    #[test]
    #[should_panic(expected = "unregistered write")]
    fn unbalanced_write_release_panics() {
        Scoreboard::new(1, 8).release_write(0, 1);
    }

    #[test]
    #[should_panic(expected = "unregistered read")]
    fn unbalanced_read_release_panics() {
        Scoreboard::new(1, 8).release_reads(0, &[1]);
    }

    /// The hash-map scoreboard the flat one replaced, kept as the model
    /// it must agree with.
    #[derive(Clone, Default)]
    struct Reference {
        pending_writes: HashMap<(usize, usize), u32>,
        pending_reads: HashMap<(usize, usize), u32>,
    }

    impl Reference {
        fn can_issue(&self, warp: usize, srcs: &[usize], dst: Option<usize>) -> bool {
            !srcs
                .iter()
                .any(|&r| self.pending_writes.contains_key(&(warp, r)))
                && !dst.is_some_and(|d| {
                    self.pending_writes.contains_key(&(warp, d))
                        || self.pending_reads.contains_key(&(warp, d))
                })
        }

        fn issue(&mut self, warp: usize, srcs: &[usize], dst: Option<usize>) {
            for &r in srcs {
                *self.pending_reads.entry((warp, r)).or_insert(0) += 1;
            }
            if let Some(d) = dst {
                *self.pending_writes.entry((warp, d)).or_insert(0) += 1;
            }
        }

        fn release(map: &mut HashMap<(usize, usize), u32>, key: (usize, usize), what: &str) {
            let n = map
                .get_mut(&key)
                .unwrap_or_else(|| panic!("release of unregistered {what}"));
            *n -= 1;
            if *n == 0 {
                map.remove(&key);
            }
        }

        fn release_reads(&mut self, warp: usize, srcs: &[usize]) {
            for &r in srcs {
                Self::release(&mut self.pending_reads, (warp, r), "read");
            }
        }

        fn release_write(&mut self, warp: usize, dst: usize) {
            Self::release(&mut self.pending_writes, (warp, dst), "write");
        }

        fn is_warp_idle(&self, warp: usize) -> bool {
            !self.pending_writes.keys().any(|&(w, _)| w == warp)
                && !self.pending_reads.keys().any(|&(w, _)| w == warp)
        }
    }

    const SLOTS: usize = 3;
    const REGS: usize = 4;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Issue(usize, [usize; 2], usize, Option<usize>),
        ReleaseReads(usize, [usize; 2], usize),
        ReleaseWrite(usize, usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        let slot = 0..SLOTS;
        let reg = 0..REGS;
        prop_oneof![
            3 => (slot.clone(), reg.clone(), reg.clone(), 0..3usize, 0..REGS + 1).prop_map(
                |(s, a, b, n, d)| Op::Issue(s, [a, b], n, (d < REGS).then_some(d))
            ),
            2 => (slot.clone(), reg.clone(), reg.clone(), 0..3usize)
                .prop_map(|(s, a, b, n)| Op::ReleaseReads(s, [a, b], n)),
            2 => (slot, reg).prop_map(|(s, r)| Op::ReleaseWrite(s, r)),
        ]
    }

    /// Runs `f` and returns its panic message, if it panicked.
    fn panic_of(f: impl FnOnce()) -> Option<String> {
        catch_unwind(AssertUnwindSafe(f)).err().map(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        #[test]
        fn flat_scoreboard_agrees_with_the_hash_map_model(
            ops in prop::collection::vec(op(), 1..64)
        ) {
            let mut flat = Scoreboard::new(SLOTS, REGS);
            let mut model = Reference::default();
            for op in ops {
                // Releases run on copies first: an unbalanced one must
                // panic in both or neither, and then leaves both as they
                // were.
                let (f, m) = match op {
                    Op::Issue(s, srcs, n, dst) => {
                        prop_assert_eq!(
                            flat.can_issue(s, &srcs[..n], dst),
                            model.can_issue(s, &srcs[..n], dst),
                            "can_issue after {:?}", op
                        );
                        flat.issue(s, &srcs[..n], dst);
                        model.issue(s, &srcs[..n], dst);
                        (None, None)
                    }
                    Op::ReleaseReads(s, srcs, n) => {
                        let (mut f2, mut m2) = (flat.clone(), model.clone());
                        let f = panic_of(|| f2.release_reads(s, &srcs[..n]));
                        let m = panic_of(|| m2.release_reads(s, &srcs[..n]));
                        if f.is_none() && m.is_none() {
                            (flat, model) = (f2, m2);
                        }
                        (f, m)
                    }
                    Op::ReleaseWrite(s, r) => {
                        let (mut f2, mut m2) = (flat.clone(), model.clone());
                        let f = panic_of(|| f2.release_write(s, r));
                        let m = panic_of(|| m2.release_write(s, r));
                        if f.is_none() && m.is_none() {
                            (flat, model) = (f2, m2);
                        }
                        (f, m)
                    }
                };
                prop_assert_eq!(f, m, "panic on {:?}", op);
                for s in 0..SLOTS {
                    prop_assert_eq!(flat.is_warp_idle(s), model.is_warp_idle(s));
                    for r in 0..REGS {
                        for (srcs, d) in [(&[r][..], None), (&[][..], Some(r))] {
                            prop_assert_eq!(
                                flat.can_issue(s, srcs, d),
                                model.can_issue(s, srcs, d)
                            );
                        }
                    }
                }
            }
        }
    }
}
