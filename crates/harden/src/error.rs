//! The structured failure taxonomy for long-running sweeps.
//!
//! A multi-hour design-space exploration must treat one bad point as a
//! *data point* ("this corner failed, here is why"), not a process
//! death. [`SimError`] carries everything a report or journal needs to
//! say what went wrong where: the point's label, the axis settings that
//! distinguish it, a machine-readable [`FailureKind`], and the
//! human-readable detail. [`PointOutcome`] is the per-point result type
//! hardened executors return instead of panicking.

use std::any::Any;
use std::fmt;

use crate::deadline::DeadlineExceeded;
use crate::guard::CorruptRecord;

/// Machine-readable classification of a point failure.
///
/// The labels are stable (they appear in journals and event streams);
/// add variants rather than renaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The point's spec failed to lower or validate.
    Spec,
    /// The workload model was rejected or its generator failed to build.
    Workload,
    /// The simulator rejected the lowered configuration.
    Build,
    /// The point panicked while simulating (caught and isolated).
    Panic,
    /// A (possibly transient) I/O failure — the only retryable kind.
    Io,
    /// The point exceeded its instruction/walk-cycle budget and was
    /// degraded to [`PointOutcome::TimedOut`].
    Timeout,
    /// A trace record failed validation (corrupt import or generator).
    CorruptTrace,
    /// The point never ran: its sweep was cancelled (operator request or
    /// daemon drain) before the point was reached.
    Cancelled,
    /// The point repeatedly killed its worker process (abort, SIGSEGV,
    /// OOM kill, hung heartbeat) and the supervisor's crash-loop breaker
    /// gave up on it. Only reachable under `--isolation process`.
    Crash,
    /// An ingested (uploaded or library) trace could not back the point:
    /// the library is unconfigured, the named trace is missing, the
    /// file fails to decode, or it holds fewer records than the run's
    /// warm-up plus measured instructions. Deterministic — the trace on
    /// disk is what it is — so never retried.
    Ingest,
    /// A result failed attestation: its payload does not match the
    /// lineage fingerprint it was signed with, or the fingerprint does
    /// not match the context the coordinator expected. The payload is
    /// well-formed but cannot be trusted — silent corruption, a stale
    /// binary, or a lying backend. Never retried against the same
    /// source (retrying would re-accept the same lie).
    Integrity,
}

impl FailureKind {
    /// Every kind, for exhaustive tests and documentation tables.
    pub const ALL: [FailureKind; 11] = [
        FailureKind::Spec,
        FailureKind::Workload,
        FailureKind::Build,
        FailureKind::Panic,
        FailureKind::Io,
        FailureKind::Timeout,
        FailureKind::CorruptTrace,
        FailureKind::Cancelled,
        FailureKind::Crash,
        FailureKind::Ingest,
        FailureKind::Integrity,
    ];

    /// The stable snake-case label used in journals and reports.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Spec => "spec",
            FailureKind::Workload => "workload",
            FailureKind::Build => "build",
            FailureKind::Panic => "panic",
            FailureKind::Io => "io",
            FailureKind::Timeout => "timeout",
            FailureKind::CorruptTrace => "corrupt_trace",
            FailureKind::Cancelled => "cancelled",
            FailureKind::Crash => "crash",
            FailureKind::Ingest => "ingest",
            FailureKind::Integrity => "integrity",
        }
    }

    /// Parses a [`FailureKind::label`] back.
    pub fn from_label(s: &str) -> Option<FailureKind> {
        FailureKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// Whether a retry can plausibly succeed. Only I/O failures are
    /// transient; a panic, bad spec, or budget blow-out is deterministic
    /// and would fail identically on every attempt.
    pub fn is_transient(self) -> bool {
        matches!(self, FailureKind::Io)
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One failed sweep point: where, what, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct SimError {
    /// The failing point's label (`NAME key=value ...`).
    pub label: String,
    /// The `(axis key, value)` pairs that distinguish the point.
    pub settings: Vec<(String, String)>,
    /// Machine-readable failure class.
    pub kind: FailureKind,
    /// Human-readable cause (panic message, validator reason, ...).
    pub detail: String,
    /// Attempts consumed (1 = failed on the first try, no retries).
    pub attempts: u32,
}

impl SimError {
    /// A failure for an anonymous context (no settings, one attempt).
    pub fn new(label: impl Into<String>, kind: FailureKind, detail: impl Into<String>) -> SimError {
        SimError {
            label: label.into(),
            settings: Vec::new(),
            kind,
            detail: detail.into(),
            attempts: 1,
        }
    }

    /// Classifies a caught panic payload: deadline sentinels become
    /// [`FailureKind::Timeout`], corruption sentinels become
    /// [`FailureKind::CorruptTrace`], everything else is a plain
    /// [`FailureKind::Panic`] with the payload's message when one exists.
    pub fn from_panic(label: impl Into<String>, payload: Box<dyn Any + Send>) -> SimError {
        let (kind, detail) = classify_panic(payload);
        SimError::new(label, kind, detail)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "point `{}` [{}]: {}", self.label, self.kind, self.detail)?;
        if self.attempts > 1 {
            write!(f, " (after {} attempts)", self.attempts)?;
        }
        Ok(())
    }
}

impl std::error::Error for SimError {}

/// Maps a panic payload to a failure kind and message: deadline
/// sentinels are timeouts, corruption sentinels are corrupt traces,
/// string payloads keep their message.
pub fn classify_panic(payload: Box<dyn Any + Send>) -> (FailureKind, String) {
    let payload = match payload.downcast::<DeadlineExceeded>() {
        Ok(d) => return (FailureKind::Timeout, d.to_string()),
        Err(p) => p,
    };
    let payload = match payload.downcast::<CorruptRecord>() {
        Ok(c) => return (FailureKind::CorruptTrace, c.to_string()),
        Err(p) => p,
    };
    let msg = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "panicked with a non-string payload".to_owned(),
        },
    };
    (FailureKind::Panic, msg)
}

/// The result of one isolated sweep point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome<T> {
    /// The point simulated successfully.
    Completed(T),
    /// The point failed (panic, bad lowering, corrupt trace, exhausted
    /// retries); the error says why.
    Failed(SimError),
    /// The point exceeded its budget and was abandoned.
    TimedOut(SimError),
}

impl<T> PointOutcome<T> {
    /// The payload, when the point completed.
    pub fn completed(&self) -> Option<&T> {
        match self {
            PointOutcome::Completed(t) => Some(t),
            _ => None,
        }
    }

    /// The error, when the point did not complete.
    pub fn error(&self) -> Option<&SimError> {
        match self {
            PointOutcome::Completed(_) => None,
            PointOutcome::Failed(e) | PointOutcome::TimedOut(e) => Some(e),
        }
    }

    /// Whether the point did not complete.
    pub fn is_failure(&self) -> bool {
        !matches!(self, PointOutcome::Completed(_))
    }

    /// Consumes the outcome, returning the payload when completed.
    pub fn into_completed(self) -> Option<T> {
        match self {
            PointOutcome::Completed(t) => Some(t),
            _ => None,
        }
    }

    /// The stable journal status string (`done` / `failed` / `timeout`).
    pub fn status_label(&self) -> &'static str {
        match self {
            PointOutcome::Completed(_) => "done",
            PointOutcome::Failed(_) => "failed",
            PointOutcome::TimedOut(_) => "timeout",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip() {
        for kind in FailureKind::ALL {
            assert_eq!(FailureKind::from_label(kind.label()), Some(kind));
            assert!(kind.label().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        assert_eq!(FailureKind::from_label("nope"), None);
    }

    #[test]
    fn only_io_is_transient() {
        for kind in FailureKind::ALL {
            assert_eq!(kind.is_transient(), kind == FailureKind::Io, "{kind}");
        }
    }

    #[test]
    fn display_includes_label_kind_and_attempts() {
        let mut e = SimError::new("ULTRIX tlb.entries=64", FailureKind::Io, "disk on fire");
        assert_eq!(e.to_string(), "point `ULTRIX tlb.entries=64` [io]: disk on fire");
        e.attempts = 3;
        assert!(e.to_string().ends_with("(after 3 attempts)"));
    }

    #[test]
    fn panic_payloads_classify_by_sentinel_type() {
        let (kind, msg) =
            classify_panic(Box::new(DeadlineExceeded { budget: 10, spent: 11, at_instr: 5 }));
        assert_eq!(kind, FailureKind::Timeout);
        assert!(msg.contains("budget"), "{msg}");
        let (kind, _) = classify_panic(Box::new(CorruptRecord { at: 7, why: "unaligned pc" }));
        assert_eq!(kind, FailureKind::CorruptTrace);
        let (kind, msg) = classify_panic(Box::new("boom".to_owned()));
        assert_eq!(kind, FailureKind::Panic);
        assert_eq!(msg, "boom");
        let (kind, _) = classify_panic(Box::new(42u32));
        assert_eq!(kind, FailureKind::Panic);
    }

    #[test]
    fn outcome_accessors() {
        let done: PointOutcome<u32> = PointOutcome::Completed(7);
        assert_eq!(done.completed(), Some(&7));
        assert!(!done.is_failure());
        assert_eq!(done.status_label(), "done");
        let failed: PointOutcome<u32> =
            PointOutcome::Failed(SimError::new("p", FailureKind::Panic, "x"));
        assert!(failed.is_failure());
        assert_eq!(failed.error().unwrap().kind, FailureKind::Panic);
        assert_eq!(failed.status_label(), "failed");
        let out: PointOutcome<u32> =
            PointOutcome::TimedOut(SimError::new("p", FailureKind::Timeout, "x"));
        assert_eq!(out.status_label(), "timeout");
        assert!(out.into_completed().is_none());
    }
}
