//! Backward register liveness and the per-kernel summary statistics
//! the energy model consumes.
//!
//! This is the GREENER-style view of the register file: at every
//! program point, which architectural registers hold a value that some
//! future instruction may still read. Registers outside that set are
//! dead weight — banks holding them could be drowsy/off without
//! affecting the computation. `wcsim analyze` reports the summary per
//! kernel.

use simt_isa::Instruction;

use crate::cfg::Cfg;
use crate::dataflow::RegSet;

/// Per-pc live-register sets (fixpoint of the classic backward
/// may-analysis `live_in = (live_out − def) ∪ use`).
#[derive(Clone, Debug)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Runs the backward may-analysis to fixpoint.
    pub fn compute(instrs: &[Instruction], cfg: &Cfg) -> Liveness {
        let n = instrs.len();
        let mut uses = vec![RegSet::EMPTY; n];
        let mut defs: Vec<Option<u8>> = vec![None; n];
        for (pc, instr) in instrs.iter().enumerate() {
            for r in instr.src_regs() {
                uses[pc].insert(r.index() as u8);
            }
            defs[pc] = instr.dst().map(|r| r.index() as u8);
        }

        let mut live_in = vec![RegSet::EMPTY; n];
        let mut live_out = vec![RegSet::EMPTY; n];
        let mut work: Vec<usize> = (0..n).rev().collect();
        while let Some(pc) = work.pop() {
            let mut out = RegSet::EMPTY;
            for &s in cfg.succs(pc) {
                out.union_with(&live_in[s]);
            }
            live_out[pc] = out;
            let mut inn = out;
            if let Some(d) = defs[pc] {
                inn.remove(d);
            }
            inn.union_with(&uses[pc]);
            if live_in[pc].union_with(&inn) {
                work.extend(cfg.preds(pc).iter().copied());
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live immediately before the instruction at `pc`.
    pub fn live_in(&self, pc: usize) -> &RegSet {
        &self.live_in[pc]
    }

    /// Registers live immediately after the instruction at `pc`.
    pub fn live_out(&self, pc: usize) -> &RegSet {
        &self.live_out[pc]
    }
}

/// Aggregate liveness statistics for one kernel, over the program
/// points reachable from entry.
///
/// `histogram[k]` counts the program points at which exactly `k`
/// registers are simultaneously live; `max_live` is the static worst
/// case a register file must actually hold, and [`dead_fraction`] is
/// the average fraction of architectural registers that are dead — the
/// static upper bound on how many banks power gating could turn off.
///
/// [`dead_fraction`]: LivenessSummary::dead_fraction
#[derive(Clone, Debug, PartialEq)]
pub struct LivenessSummary {
    /// Kernel name, for reports.
    pub kernel: String,
    /// Architectural registers the kernel declares.
    pub num_regs: u8,
    /// `histogram[k]` = number of reachable program points with exactly
    /// `k` live registers (length `num_regs + 1`).
    pub histogram: Vec<usize>,
    /// Maximum simultaneously live registers at any reachable point.
    pub max_live: usize,
    /// Mean live registers across reachable program points.
    pub avg_live: f64,
}

impl LivenessSummary {
    /// Builds the summary from a solved liveness fixpoint, counting the
    /// live-in set of every entry-reachable pc.
    pub fn collect(kernel: &str, num_regs: u8, cfg: &Cfg, liveness: &Liveness) -> LivenessSummary {
        let mut histogram = vec![0usize; usize::from(num_regs) + 1];
        let mut max_live = 0usize;
        let mut total = 0usize;
        let mut points = 0usize;
        for pc in 0..cfg.len() {
            if !cfg.is_reachable(pc) {
                continue;
            }
            let k = liveness.live_in(pc).len();
            // Guard: a structurally invalid sequence could reference a
            // register ≥ num_regs; clamp rather than panic.
            let slot = k.min(histogram.len() - 1);
            histogram[slot] += 1;
            max_live = max_live.max(k);
            total += k;
            points += 1;
        }
        let avg_live = if points == 0 {
            0.0
        } else {
            total as f64 / points as f64
        };
        LivenessSummary {
            kernel: kernel.to_string(),
            num_regs,
            histogram,
            max_live,
            avg_live,
        }
    }

    /// Mean fraction of declared registers that are *dead* — the static
    /// bound on the bank fraction power gating could switch off.
    pub fn dead_fraction(&self) -> f64 {
        if self.num_regs == 0 {
            0.0
        } else {
            1.0 - self.avg_live / f64::from(self.num_regs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{AluOp, Operand, Reg};

    fn build(instrs: &[Instruction]) -> (Cfg, Liveness) {
        let cfg = Cfg::build(instrs);
        let lv = Liveness::compute(instrs, &cfg);
        (cfg, lv)
    }

    #[test]
    fn straight_line_liveness() {
        // 0: mov r0, 1
        // 1: add r1, r0, 1
        // 2: st [r1+0], r0
        // 3: exit
        let instrs = vec![
            Instruction::Mov {
                dst: Reg(0),
                src: Operand::Imm(1),
            },
            Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(1),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(1),
            },
            Instruction::St {
                base: Reg(1),
                offset: 0,
                src: Reg(0),
            },
            Instruction::Exit,
        ];
        let (cfg, lv) = build(&instrs);
        assert!(lv.live_in(0).is_empty());
        assert!(lv.live_out(0).contains(0));
        assert!(lv.live_in(2).contains(0) && lv.live_in(2).contains(1));
        assert!(lv.live_out(2).is_empty());

        let s = LivenessSummary::collect("k", 2, &cfg, &lv);
        assert_eq!(s.max_live, 2);
        assert_eq!(s.histogram.iter().sum::<usize>(), 4);
        assert!(s.avg_live > 0.0 && s.avg_live < 2.0);
        assert!(s.dead_fraction() > 0.0 && s.dead_fraction() < 1.0);
        assert!((s.avg_live / 2.0 + s.dead_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loop_back_edge_keeps_register_live() {
        // 0: mov r0, 0
        // 1: add r0, r0, 1      <- loop head
        // 2: set.lt r1, r0, 9
        // 3: bra r1 -> 1 (reconv 4)
        // 4: exit
        let instrs = vec![
            Instruction::Mov {
                dst: Reg(0),
                src: Operand::Imm(0),
            },
            Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(0),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(1),
            },
            Instruction::Alu {
                op: AluOp::SetLt,
                dst: Reg(1),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(9),
            },
            Instruction::Bra {
                pred: Reg(1),
                target: 1,
                reconv: 4,
            },
            Instruction::Exit,
        ];
        let (_, lv) = build(&instrs);
        // r0 stays live around the back edge, including at the branch.
        assert!(lv.live_out(3).contains(0));
        assert!(lv.live_in(3).contains(0) && lv.live_in(3).contains(1));
        assert!(lv.live_out(0).contains(0));
        // The add at 1 is *not* a dead write: its value flows into 2.
        assert!(lv.live_out(1).contains(0));
    }
}
