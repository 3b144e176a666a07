//! Panic-isolated run harness.
//!
//! [`run_suite`](crate::run_suite) fails the whole suite on the first
//! workload that errors and aborts the process if one panics — fine for
//! validated workloads, fatal for long fault-injection campaigns where a
//! single corrupted run must not cost the other eighteen kernels their
//! results. [`run_many_resilient`] wraps each run in `catch_unwind`, with
//! the panic message and a captured backtrace recorded in the result
//! instead of tearing down the campaign (the global panic hook is
//! chained, so panics outside the harness still print normally).
//!
//! Every input item always yields exactly one [`RunRecord`], in input
//! order, so partial results degrade gracefully into a report with a
//! per-run status column.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use rayon::prelude::*;

/// How one isolated run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunStatus<R> {
    /// The run completed with this output.
    Completed(R),
    /// The run panicked.
    Panicked {
        /// Panic payload, with source location when known.
        message: String,
        /// Backtrace captured inside the panic hook.
        backtrace: String,
    },
}

impl<R> RunStatus<R> {
    /// Short status-column spelling: `ok` or `panic`.
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Completed(_) => "ok",
            RunStatus::Panicked { .. } => "panic",
        }
    }

    /// The run's output, if it completed.
    pub fn output(&self) -> Option<&R> {
        match self {
            RunStatus::Completed(output) => Some(output),
            RunStatus::Panicked { .. } => None,
        }
    }
}

/// The record one isolated run leaves behind.
#[derive(Clone, Debug)]
pub struct RunRecord<R> {
    /// Display name of the item (workload name for suites).
    pub name: String,
    /// How the run ended, with its output when it completed.
    pub status: RunStatus<R>,
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

/// Runs every item through `run` in parallel, isolating panics. Always
/// returns one record per item, in item order.
pub fn run_many_resilient<T, R>(
    items: &[T],
    name_of: &(dyn Fn(&T) -> String + Sync),
    run: &(dyn Fn(&T) -> R + Sync),
) -> Vec<RunRecord<R>>
where
    T: Sync,
    R: Send,
{
    items
        .par_iter()
        .map(|item| {
            let status = match catch_panic(|| run(item)) {
                Ok(output) => RunStatus::Completed(output),
                Err(p) => RunStatus::Panicked {
                    message: match p.location {
                        Some(loc) => format!("{} (at {loc})", p.message),
                        None => p.message,
                    },
                    backtrace: p.backtrace,
                },
            };
            RunRecord {
                name: name_of(item),
                status,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_item_is_isolated_and_recorded() {
        let items: Vec<u32> = (0..8).collect();
        let records = run_many_resilient(&items, &|i: &u32| format!("item{i}"), &|i: &u32| {
            if *i == 5 {
                panic!("deliberate failure in item {i}");
            }
            *i * 10
        });
        assert_eq!(records.len(), 8);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.name, format!("item{i}"));
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
                assert_eq!(r.status.label(), "panic");
                assert!(r.status.output().is_none());
            } else {
                assert_eq!(r.status, RunStatus::Completed(i as u32 * 10));
            }
        }
    }
}
