//! Panic-isolated, watchdogged, retrying run harness.
//!
//! [`run_suite`](crate::run_suite) fails the whole suite on the first
//! workload that errors and aborts the process if one panics — fine for
//! validated workloads, fatal for long fault-injection campaigns where a
//! single corrupted run must not cost the other eighteen kernels their
//! results. This module wraps each run in:
//!
//! * **panic isolation** — `catch_unwind` around every run, with the
//!   panic message and a captured backtrace recorded in the result
//!   instead of tearing down the campaign (the global panic hook is
//!   chained, so panics outside the harness still print normally),
//! * **a cycle-budget watchdog** — the simulator's own `max_cycles` cap
//!   is clamped to the budget, and the resulting
//!   [`CycleLimit`](gpu_sim::SimError::CycleLimit) is reported as
//!   [`RunStatus::TimedOut`],
//! * **bounded retry with backoff** — deterministic failures burn their
//!   attempts quickly; the hook exists for runs racing external state
//!   (checkpoint directories on shared filesystems).
//!
//! Every input item always yields exactly one [`RunRecord`], in input
//! order, so partial results degrade gracefully into a report with a
//! per-run status column.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

use gpu_sim::{GpuConfig, SimError};
use gpu_workloads::Workload;
use rayon::prelude::*;

use crate::experiment::{run_workload, RunOutput};

/// How one isolated run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// The run completed, after `retries` failed attempts.
    Completed {
        /// Attempts that failed before the successful one.
        retries: u32,
    },
    /// The watchdog's cycle budget expired before the run finished.
    TimedOut {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// The run returned an error (final attempt's).
    Failed {
        /// Rendered error message.
        error: String,
    },
    /// The run panicked (final attempt's panic).
    Panicked {
        /// Panic payload, with source location when known.
        message: String,
        /// Backtrace captured inside the panic hook.
        backtrace: String,
    },
}

impl RunStatus {
    /// Short status-column spelling: `ok`, `timeout`, `failed`, `panic`.
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Completed { .. } => "ok",
            RunStatus::TimedOut { .. } => "timeout",
            RunStatus::Failed { .. } => "failed",
            RunStatus::Panicked { .. } => "panic",
        }
    }

    /// Whether the run produced a usable output.
    pub fn is_ok(&self) -> bool {
        matches!(self, RunStatus::Completed { .. })
    }
}

/// Watchdog and retry policy for [`run_many_resilient`].
#[derive(Clone, Copy, Debug)]
pub struct RunPolicy {
    /// Clamp applied to the simulator's `max_cycles` (`None` leaves the
    /// configured cap in place). Exceeding it reports
    /// [`RunStatus::TimedOut`] instead of a generic failure.
    pub cycle_budget: Option<u64>,
    /// Total attempts per run, including the first (min 1).
    pub max_attempts: u32,
    /// Base backoff between attempts; attempt *n* sleeps `2^(n-1)` times
    /// this. Zero disables sleeping (the right choice for deterministic
    /// in-process failures).
    pub backoff: Duration,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            cycle_budget: None,
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

/// The record one isolated run leaves behind.
#[derive(Clone, Debug)]
pub struct RunRecord<R = RunOutput> {
    /// Display name of the item (workload name for suites).
    pub name: String,
    /// How the run ended.
    pub status: RunStatus,
    /// The run's output, present iff `status.is_ok()`.
    pub output: Option<R>,
}

thread_local! {
    /// Set while a harness `catch_unwind` is active on this thread, so
    /// the chained panic hook knows to capture instead of print.
    static CAPTURE: RefCell<Option<PanicCapture>> = const { RefCell::new(None) };
    static CAPTURING: RefCell<bool> = const { RefCell::new(false) };
}

static HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that captures the message
/// and backtrace into thread-local state while a harness run is active,
/// and delegates to the previously installed hook otherwise.
fn install_capture_hook() {
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CAPTURING.with(|c| *c.borrow()) {
                let message = match info.payload().downcast_ref::<&str>() {
                    Some(s) => (*s).to_string(),
                    None => match info.payload().downcast_ref::<String>() {
                        Some(s) => s.clone(),
                        None => "non-string panic payload".to_string(),
                    },
                };
                let capture = PanicCapture {
                    message,
                    location: info
                        .location()
                        .map(|loc| format!("{}:{}", loc.file(), loc.line())),
                    backtrace: std::backtrace::Backtrace::force_capture().to_string(),
                };
                CAPTURE.with(|c| *c.borrow_mut() = Some(capture));
            } else {
                previous(info);
            }
        }));
    });
}

/// The payload of a panic caught by [`catch_panic`]: the rendered
/// message, its source location when known and the backtrace the
/// chained panic hook captured at unwind time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicCapture {
    /// Panic payload. The location is kept apart, so a message that
    /// ends up in a report does not change when source lines move.
    pub message: String,
    /// `<file>:<line>` of the panic, when known.
    pub location: Option<String>,
    /// Backtrace captured inside the panic hook.
    pub backtrace: String,
}

/// Runs `f` under `catch_unwind`, returning its result or the captured
/// panic. The process-wide panic hook is chained (installed once), so
/// panics outside any [`catch_panic`] scope still print normally; inside
/// one, the message and backtrace are captured silently instead of
/// spamming stderr. This is the isolation primitive both the resilient
/// campaign runner and the kernel fuzzer build on.
pub fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, PanicCapture> {
    install_capture_hook();
    CAPTURING.with(|c| *c.borrow_mut() = true);
    let caught = panic::catch_unwind(AssertUnwindSafe(f));
    CAPTURING.with(|c| *c.borrow_mut() = false);
    match caught {
        Ok(value) => Ok(value),
        Err(_) => Err(CAPTURE
            .with(|c| c.borrow_mut().take())
            .unwrap_or_else(|| PanicCapture {
                message: "panic hook captured nothing".into(),
                location: None,
                backtrace: String::new(),
            })),
    }
}

/// One attempt under `catch_unwind`, translating a panic into a status.
fn attempt<R>(run: impl FnOnce() -> Result<R, SimError>) -> Result<Result<R, SimError>, RunStatus> {
    catch_panic(run).map_err(|p| RunStatus::Panicked {
        message: match p.location {
            Some(loc) => format!("{} (at {loc})", p.message),
            None => p.message,
        },
        backtrace: p.backtrace,
    })
}

/// Runs every item through `run` in parallel, isolating panics,
/// classifying watchdog expiries, and retrying per `policy`. Always
/// returns one record per item, in item order.
pub fn run_many_resilient<T, R>(
    items: &[T],
    name_of: &(dyn Fn(&T) -> String + Sync),
    run: &(dyn Fn(&T) -> Result<R, SimError> + Sync),
    policy: &RunPolicy,
) -> Vec<RunRecord<R>>
where
    T: Sync,
    R: Send,
{
    let attempts = policy.max_attempts.max(1);
    items
        .par_iter()
        .map(|item| {
            let name = name_of(item);
            let mut retries = 0u32;
            loop {
                let status = match attempt(|| run(item)) {
                    Ok(Ok(output)) => {
                        return RunRecord {
                            name,
                            status: RunStatus::Completed { retries },
                            output: Some(output),
                        };
                    }
                    Ok(Err(SimError::CycleLimit { limit }))
                        if policy.cycle_budget.is_some_and(|b| limit <= b) =>
                    {
                        RunStatus::TimedOut { budget: limit }
                    }
                    Ok(Err(e)) => RunStatus::Failed {
                        error: e.to_string(),
                    },
                    Err(panicked) => panicked,
                };
                if retries + 1 >= attempts {
                    return RunRecord {
                        name,
                        status,
                        output: None,
                    };
                }
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff * 2u32.saturating_pow(retries));
                }
                retries += 1;
            }
        })
        .collect()
}

/// Resilient counterpart of [`run_suite`](crate::run_suite): the whole
/// workload suite under one configuration, with panic isolation and the
/// policy's watchdog, returning per-workload records instead of failing
/// on the first error.
pub fn run_suite_resilient(
    cfg: &GpuConfig,
    workloads: &[Workload],
    policy: &RunPolicy,
) -> Vec<RunRecord> {
    let mut cfg = cfg.clone();
    if let Some(budget) = policy.cycle_budget {
        cfg.max_cycles = cfg.max_cycles.min(budget);
    }
    run_many_resilient(
        workloads,
        &|w: &Workload| w.name().to_string(),
        &|w: &Workload| run_workload(&cfg, w),
        policy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPoint;

    #[test]
    fn suite_completes_like_the_plain_runner() {
        let workloads: Vec<Workload> = ["lib", "aes"]
            .iter()
            .map(|n| gpu_workloads::by_name(n).unwrap())
            .collect();
        let records = run_suite_resilient(
            &DesignPoint::WarpedCompression.config(),
            &workloads,
            &RunPolicy::default(),
        );
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "lib");
        assert_eq!(records[1].name, "aes");
        for r in &records {
            assert_eq!(r.status, RunStatus::Completed { retries: 0 });
            assert!(r.output.as_ref().unwrap().stats.cycles > 0);
        }
    }

    #[test]
    fn panicking_item_is_isolated_and_recorded() {
        let items: Vec<u32> = (0..8).collect();
        let records = run_many_resilient(
            &items,
            &|i: &u32| format!("item{i}"),
            &|i: &u32| {
                if *i == 5 {
                    panic!("deliberate failure in item {i}");
                }
                Ok(*i * 10)
            },
            &RunPolicy::default(),
        );
        assert_eq!(records.len(), 8);
        for (i, r) in records.iter().enumerate() {
            if i == 5 {
                match &r.status {
                    RunStatus::Panicked { message, .. } => {
                        assert!(
                            message.contains("deliberate failure in item 5"),
                            "{message}"
                        );
                        assert!(message.contains("resilient.rs"), "no location: {message}");
                    }
                    other => panic!("expected panic status, got {other:?}"),
                }
                assert!(r.output.is_none());
            } else {
                assert_eq!(r.output, Some(i as u32 * 10));
            }
        }
    }

    #[test]
    fn watchdog_reports_timeout() {
        let workloads = vec![gpu_workloads::by_name("bfs").unwrap()];
        let policy = RunPolicy {
            cycle_budget: Some(10),
            ..RunPolicy::default()
        };
        let records = run_suite_resilient(
            &DesignPoint::WarpedCompression.config(),
            &workloads,
            &policy,
        );
        assert_eq!(records[0].status, RunStatus::TimedOut { budget: 10 });
        assert_eq!(records[0].status.label(), "timeout");
    }

    #[test]
    fn retries_are_bounded_and_counted() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        let items = [0u32];
        let policy = RunPolicy {
            max_attempts: 3,
            ..RunPolicy::default()
        };
        // Fails twice, succeeds on the third attempt.
        let records = run_many_resilient(
            &items,
            &|_: &u32| "flaky".to_string(),
            &|_: &u32| {
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(SimError::Deadlock { cycle: 1 })
                } else {
                    Ok(())
                }
            },
            &policy,
        );
        assert_eq!(records[0].status, RunStatus::Completed { retries: 2 });
        assert_eq!(calls.load(Ordering::SeqCst), 3);

        // Always fails: attempts are bounded and the last error is kept.
        let calls2 = AtomicU32::new(0);
        let records = run_many_resilient(
            &items,
            &|_: &u32| "doomed".to_string(),
            &|_: &u32| -> Result<(), SimError> {
                calls2.fetch_add(1, Ordering::SeqCst);
                Err(SimError::Deadlock { cycle: 9 })
            },
            &policy,
        );
        assert_eq!(calls2.load(Ordering::SeqCst), 3);
        match &records[0].status {
            RunStatus::Failed { error } => assert!(error.contains("cycle 9"), "{error}"),
            other => panic!("expected failure, got {other:?}"),
        }
    }
}
