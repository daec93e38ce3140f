//! Retry policies with capped exponential backoff and deterministic
//! jitter.
//!
//! Only [`FailureKind::is_transient`](crate::FailureKind::is_transient)
//! errors (I/O) are retried — a panic or a bad spec fails identically on
//! every attempt. The fleet retries its backend health probes this way,
//! and the worker pool sleeps the same backoff between a crash and the
//! restart. Backoff is wall-clock (it never feeds a result), so results
//! stay bit-identical whatever the policy.
//!
//! An unjittered exponential is a thundering herd in disguise: parallel
//! workers that trip over the same shared-resource failure all sleep the
//! same `base * 2^n` and wake in lockstep. [`RetryPolicy::jitter_seed`]
//! spreads the wake-ups with a SplitMix64-derived *deterministic* jitter
//! — the sleep for a given `(seed, salt, retry)` triple is a pure
//! function, so tests (and resumed runs) stay reproducible.
//!
//! Retrying has a limit beyond one point: a resource that keeps failing
//! should be given up on. [`Breaker`] is that limit, a sliding-window
//! failure counter; the worker pool's crash-loop breaker and the
//! fleet's backend eviction both count with it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use vm_types::SplitMix64;

use crate::error::SimError;

/// How often and how patiently to retry a transient failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub retries: u32,
    /// First backoff sleep in milliseconds; doubles per retry.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// When set, backoff sleeps are jittered deterministically: retry
    /// `n` sleeps between half and all of the exponential step, the
    /// exact point chosen by SplitMix64 over `(seed, salt, n)`. `None`
    /// keeps the bare exponential.
    pub jitter_seed: Option<u64>,
}

impl RetryPolicy {
    /// No retries at all.
    pub const NONE: RetryPolicy =
        RetryPolicy { retries: 0, backoff_base_ms: 0, backoff_cap_ms: 0, jitter_seed: None };

    /// `retries` attempts with the default 25 ms → 1 s backoff curve,
    /// jittered from a fixed default seed.
    pub fn new(retries: u32) -> RetryPolicy {
        RetryPolicy {
            retries,
            backoff_base_ms: 25,
            backoff_cap_ms: 1_000,
            jitter_seed: Some(0x5eed_ba5e),
        }
    }

    /// The unjittered sleep before retry number `retry` (1-based):
    /// capped exponential, `base * 2^(retry-1)` up to the cap.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        let ms = self.backoff_base_ms.saturating_mul(1u64 << exp).min(self.backoff_cap_ms);
        Duration::from_millis(ms)
    }

    /// The jittered sleep before retry number `retry`, salted by the
    /// caller's identity (point index, worker slot, ...) so concurrent
    /// retriers of the same failure spread out instead of waking in
    /// lockstep. Equal-jitter: uniform in `[step/2, step]`. Without a
    /// [`jitter_seed`](RetryPolicy::jitter_seed) this is exactly
    /// [`backoff`](RetryPolicy::backoff).
    pub fn backoff_jittered(&self, retry: u32, salt: u64) -> Duration {
        let step = self.backoff(retry).as_millis() as u64;
        let Some(seed) = self.jitter_seed else {
            return Duration::from_millis(step);
        };
        if step == 0 {
            return Duration::ZERO;
        }
        let mut rng =
            SplitMix64::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(retry));
        let half = step / 2;
        Duration::from_millis(half + rng.next_below(step - half + 1))
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::NONE
    }
}

/// When a [`Breaker`] trips: on the failure that puts strictly more
/// than `max_failures` failures inside the sliding `window`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Failures tolerated inside the window.
    pub max_failures: u32,
    /// Sliding window the failures must fall inside.
    pub window: Duration,
}

impl Default for BreakerPolicy {
    /// The fourth failure inside a minute trips.
    fn default() -> BreakerPolicy {
        BreakerPolicy { max_failures: 3, window: Duration::from_secs(60) }
    }
}

/// A sliding-window failure counter. Time is passed in, not sampled, so
/// tests never sleep.
#[derive(Debug)]
pub struct Breaker {
    policy: BreakerPolicy,
    window: VecDeque<Instant>,
}

impl Breaker {
    /// A closed breaker under `policy`.
    pub fn new(policy: BreakerPolicy) -> Breaker {
        Breaker { policy, window: VecDeque::new() }
    }

    /// Records one failure at `now`; returns `true` when the breaker
    /// trips (the failure count inside the window exceeds the budget).
    pub fn record(&mut self, now: Instant) -> bool {
        self.window.push_back(now);
        while let Some(&front) = self.window.front() {
            if now.duration_since(front) > self.policy.window {
                self.window.pop_front();
            } else {
                break;
            }
        }
        self.failures() > self.policy.max_failures
    }

    /// Failures currently inside the window.
    pub fn failures(&self) -> u32 {
        self.window.len() as u32
    }
}

/// Runs `attempt(n)` (n = 1-based attempt number) until it succeeds, a
/// non-transient error occurs, or the policy's retries are exhausted.
/// Between attempts it sleeps the policy's jittered backoff, salted by
/// `salt` (the caller's identity, e.g. a backend id). Returns the final result with
/// its `attempts` field set to the number of attempts actually consumed.
pub fn with_retry_salted<T>(
    policy: &RetryPolicy,
    salt: u64,
    mut attempt: impl FnMut(u32) -> Result<T, SimError>,
) -> (Result<T, SimError>, u32) {
    let mut n = 1u32;
    loop {
        match attempt(n) {
            Ok(t) => return (Ok(t), n),
            Err(mut e) => {
                if !e.kind.is_transient() || n > policy.retries {
                    e.attempts = n;
                    return (Err(e), n);
                }
                std::thread::sleep(policy.backoff_jittered(n, salt));
                n += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailureKind;

    fn io_err() -> SimError {
        SimError::new("p", FailureKind::Io, "flaky")
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p =
            RetryPolicy { retries: 10, backoff_base_ms: 10, backoff_cap_ms: 45, jitter_seed: None };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(4), Duration::from_millis(45));
        assert_eq!(p.backoff(30), Duration::from_millis(45));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_salt_sensitive() {
        let p = RetryPolicy { jitter_seed: Some(42), ..RetryPolicy::new(5) };
        for retry in 1..=6 {
            let step = p.backoff(retry).as_millis();
            for salt in 0..32u64 {
                let j = p.backoff_jittered(retry, salt).as_millis();
                assert_eq!(j, p.backoff_jittered(retry, salt).as_millis(), "pure function");
                assert!(j >= step / 2 && j <= step, "retry {retry} salt {salt}: {j} vs {step}");
            }
        }
        // Different salts actually spread out (not all identical).
        let spread: std::collections::BTreeSet<_> =
            (0..32u64).map(|salt| p.backoff_jittered(3, salt)).collect();
        assert!(spread.len() > 1, "jitter never varies across salts");
    }

    #[test]
    fn without_a_seed_jitter_is_the_bare_exponential() {
        let p = RetryPolicy {
            retries: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            jitter_seed: None,
        };
        for retry in 1..=4 {
            assert_eq!(p.backoff_jittered(retry, 7), p.backoff(retry));
        }
        assert_eq!(RetryPolicy::NONE.backoff_jittered(1, 0), Duration::ZERO);
    }

    #[test]
    fn transient_errors_retry_until_success() {
        let policy =
            RetryPolicy { retries: 3, backoff_base_ms: 0, backoff_cap_ms: 0, jitter_seed: None };
        let (out, attempts) =
            with_retry_salted(&policy, 0, |n| if n < 3 { Err(io_err()) } else { Ok(n) });
        assert_eq!(out.unwrap(), 3);
        assert_eq!(attempts, 3);
    }

    #[test]
    fn exhausted_retries_report_attempts() {
        let policy =
            RetryPolicy { retries: 2, backoff_base_ms: 0, backoff_cap_ms: 0, jitter_seed: None };
        let (out, attempts) = with_retry_salted::<u32>(&policy, 0, |_| Err(io_err()));
        let e = out.unwrap_err();
        assert_eq!(attempts, 3); // 1 try + 2 retries
        assert_eq!(e.attempts, 3);
    }

    #[test]
    fn non_transient_errors_fail_fast() {
        let policy = RetryPolicy::new(5);
        let mut calls = 0;
        let (out, attempts) = with_retry_salted::<u32>(&policy, 0, |_| {
            calls += 1;
            Err(SimError::new("p", FailureKind::Panic, "boom"))
        });
        assert!(out.is_err());
        assert_eq!((calls, attempts), (1, 1));
    }

    #[test]
    fn breaker_trips_past_the_budget_inside_the_window() {
        let mut b = Breaker::new(BreakerPolicy::default());
        let t0 = Instant::now();
        assert!(!b.record(t0));
        assert!(!b.record(t0));
        assert!(!b.record(t0));
        assert!(b.record(t0), "fourth failure inside the window trips");
        assert_eq!(b.failures(), 4);
    }

    #[test]
    fn old_failures_age_out_of_the_window() {
        let mut b =
            Breaker::new(BreakerPolicy { max_failures: 1, window: Duration::from_secs(60) });
        let t0 = Instant::now();
        assert!(!b.record(t0));
        // Two minutes later the first failure no longer counts.
        let late = t0 + Duration::from_secs(120);
        assert!(!b.record(late));
        assert_eq!(b.failures(), 1);
        assert!(b.record(late), "second failure inside the fresh window trips");
    }

    #[test]
    fn zero_retry_policy_is_one_attempt() {
        let (out, attempts) = with_retry_salted::<u32>(&RetryPolicy::NONE, 0, |_| Err(io_err()));
        assert!(out.is_err());
        assert_eq!(attempts, 1);
    }
}
