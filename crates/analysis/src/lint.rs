//! Machine-readable lint diagnostics.

use std::fmt;

/// How bad a diagnostic is.
///
/// Errors describe kernels the simulator would mis-execute or hang on
/// (invalid targets, unreachable `exit`, divergence deadlock); warnings
/// describe well-defined but almost-certainly-buggy code (reads of
/// never-written registers, dead writes, unreachable instructions);
/// info findings are observations that are not problems at all (e.g. a
/// provably warp-uniform branch the hardware never diverges on).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A fact worth surfacing, not a defect.
    Info,
    /// Suspicious but well-defined.
    Warning,
    /// Structurally broken.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The individual checks the verifier runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// The kernel has no instructions.
    EmptyKernel,
    /// A branch/jump target or reconvergence pc is past the end.
    TargetOutOfRange,
    /// An instruction references a register ≥ `num_regs`.
    RegisterOutOfRange,
    /// Execution can fall off the end of the instruction sequence.
    FallsOffEnd,
    /// No `exit` instruction is reachable from entry: every warp hangs.
    ExitUnreachable,
    /// An instruction can never execute.
    UnreachableCode,
    /// A register is read before any instruction has written it on some
    /// path (the register file zero-initialises, so this is defined —
    /// and almost always a bug).
    UseBeforeDef,
    /// A register write no future instruction can observe.
    DeadWrite,
    /// Some pc inside a divergence region can reach neither the
    /// branch's reconvergence point nor an `exit`: the parked warp half
    /// waits forever.
    DivergenceDeadlock,
    /// A branch inside a divergence region reconverges *outside* that
    /// region, breaking stack-ordered (properly nested) reconvergence.
    ReconvergenceEscape,
    /// A branch whose condition is provably warp-uniform under the
    /// abstract warp-value domain: every lane takes the same side, so
    /// the branch never diverges at runtime.
    UniformBranch,
    /// A branch whose predicate is (transitively) data-dependent on a
    /// memory load, so its trip count/taken mask is not statically
    /// determined: the ahead-of-time issue scheduler must bail on the
    /// kernel and fall back to the dynamic core.
    UnschedulableRegion,
    /// Two warps can provably access the same memory word with at
    /// least one store involved, with no ordering between them: the
    /// result depends on warp-scheduling order. Only *must*-conflicts
    /// (both abstract address sets lane-determined and overlapping)
    /// fire this; a may-overlap alone is not evidence enough.
    CrossWarpRace,
    /// A strided access whose warp touches ≥ 2 memory segments per
    /// dispatch: the coalescer must issue multiple transactions every
    /// time, costing guaranteed memory bandwidth.
    UncoalescedAccess,
    /// A load/store whose abstract per-lane address range provably
    /// extends outside the launch's global-memory bounds: some lane
    /// may fault.
    PossibleOutOfBounds,
    /// A load the abstract memory-cell domain statically refines: its
    /// address set resolves inside tracked cells, so the loaded value
    /// is bounded by the reported range instead of being unknown.
    /// These are the loads the issue scheduler can see through.
    RefinableLoad,
}

impl LintKind {
    /// The severity this lint always reports at.
    pub fn severity(self) -> Severity {
        match self {
            LintKind::EmptyKernel
            | LintKind::TargetOutOfRange
            | LintKind::RegisterOutOfRange
            | LintKind::FallsOffEnd
            | LintKind::ExitUnreachable
            | LintKind::DivergenceDeadlock
            | LintKind::ReconvergenceEscape => Severity::Error,
            LintKind::UnreachableCode
            | LintKind::UseBeforeDef
            | LintKind::DeadWrite
            | LintKind::CrossWarpRace
            | LintKind::PossibleOutOfBounds => Severity::Warning,
            LintKind::UniformBranch
            | LintKind::UnschedulableRegion
            | LintKind::UncoalescedAccess
            | LintKind::RefinableLoad => Severity::Info,
        }
    }

    /// Short stable name, for tables and filtering.
    pub fn name(self) -> &'static str {
        match self {
            LintKind::EmptyKernel => "empty-kernel",
            LintKind::TargetOutOfRange => "target-out-of-range",
            LintKind::RegisterOutOfRange => "register-out-of-range",
            LintKind::FallsOffEnd => "falls-off-end",
            LintKind::ExitUnreachable => "exit-unreachable",
            LintKind::UnreachableCode => "unreachable-code",
            LintKind::UseBeforeDef => "use-before-def",
            LintKind::DeadWrite => "dead-write",
            LintKind::DivergenceDeadlock => "divergence-deadlock",
            LintKind::ReconvergenceEscape => "reconvergence-escape",
            LintKind::UniformBranch => "uniform-branch",
            LintKind::UnschedulableRegion => "unschedulable-region",
            LintKind::CrossWarpRace => "cross-warp-race",
            LintKind::UncoalescedAccess => "uncoalesced-access",
            LintKind::PossibleOutOfBounds => "possible-out-of-bounds",
            LintKind::RefinableLoad => "refinable-load",
        }
    }
}

/// One finding: what, where, and which register (when applicable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which check fired.
    pub kind: LintKind,
    /// Error or warning (always `kind.severity()`).
    pub severity: Severity,
    /// The offending pc, when the finding is tied to one instruction.
    pub pc: Option<usize>,
    /// The offending register index, when the finding is about one.
    pub reg: Option<u8>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic; severity is derived from `kind`.
    pub fn new(kind: LintKind, pc: Option<usize>, reg: Option<u8>, message: String) -> Diagnostic {
        Diagnostic {
            kind,
            severity: kind.severity(),
            pc,
            reg,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.kind.name())?;
        if let Some(pc) = self.pc {
            write!(f, " @{pc}")?;
        }
        if let Some(reg) = self.reg {
            write!(f, " r{reg}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Everything the verifier found for one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct LintReport {
    /// Kernel name.
    pub kernel: String,
    /// All findings, in pc order where applicable.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Wraps a diagnostics list.
    pub fn new(kernel: impl Into<String>, diagnostics: Vec<Diagnostic>) -> LintReport {
        LintReport {
            kernel: kernel.into(),
            diagnostics,
        }
    }

    /// Whether no warning- or error-severity lint fired. Info findings
    /// (e.g. `uniform-branch`) are observations, not defects, and do not
    /// make a kernel unclean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity == Severity::Info)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Number of info-severity findings.
    pub fn info_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Info)
            .count()
    }

    /// Whether any error-severity finding is present.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// The findings of a given kind.
    pub fn of_kind(&self, kind: LintKind) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_prints() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
        assert_eq!(Severity::Info.to_string(), "info");
    }

    #[test]
    fn info_findings_do_not_dirty_a_report() {
        let r = LintReport::new(
            "k",
            vec![Diagnostic::new(
                LintKind::UniformBranch,
                Some(2),
                None,
                "never diverges".into(),
            )],
        );
        assert!(r.is_clean());
        assert_eq!(r.info_count(), 1);
        assert_eq!(r.warning_count(), 0);
        assert_eq!(r.error_count(), 0);
        assert_eq!(LintKind::UniformBranch.severity(), Severity::Info);
        assert_eq!(LintKind::UniformBranch.name(), "uniform-branch");
    }

    #[test]
    fn diagnostic_display_includes_location() {
        let d = Diagnostic::new(
            LintKind::DeadWrite,
            Some(7),
            Some(3),
            "value never read".into(),
        );
        let s = d.to_string();
        assert!(s.contains("warning"));
        assert!(s.contains("dead-write"));
        assert!(s.contains("@7"));
        assert!(s.contains("r3"));
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn report_counts() {
        let r = LintReport::new(
            "k",
            vec![
                Diagnostic::new(LintKind::DeadWrite, Some(0), Some(0), "x".into()),
                Diagnostic::new(LintKind::ExitUnreachable, None, None, "y".into()),
            ],
        );
        assert!(!r.is_clean());
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.of_kind(LintKind::DeadWrite).count(), 1);
    }
}
