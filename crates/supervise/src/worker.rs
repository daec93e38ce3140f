//! The worker side of the supervision protocol.
//!
//! A worker reads one request line at a time from stdin, computes, and
//! writes exactly one reply line to stdout — plus `{"j":"hb"}`
//! heartbeat lines while the computation runs, so the supervisor can
//! tell "slow" from "wedged". The loop exits cleanly at stdin EOF:
//! that is how a dying supervisor tells its workers to go (the pipe
//! closes with the process, even on SIGKILL), so workers never outlive
//! their supervisor as orphans.

use std::io::{self, BufRead, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// The exact heartbeat line workers emit between reply lines.
pub const HEARTBEAT_LINE: &str = "{\"j\":\"hb\"}";

/// The prefix supervisors filter heartbeats by (any `{"j":"hb"...}`
/// object qualifies, so the schema can grow fields).
pub const HEARTBEAT_PREFIX: &str = "{\"j\":\"hb\"";

/// How often a computing worker emits heartbeats.
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Runs the worker protocol until stdin EOF: each request line goes to
/// one long-lived compute thread running `handle`, while this thread
/// emits heartbeats every `interval`; the reply is written and flushed
/// as one line the moment it exists. (One thread for the worker's life,
/// not one per request: threads that overlap each get their own malloc
/// arena, which shows in the worker's peak RSS.)
///
/// `handle` must return a single line (no `\n`). A panic inside
/// `handle` is not caught — the worker dies, which is precisely the
/// signal the supervisor restarts on.
///
/// # Errors
///
/// Propagates read failures from `input` and write failures to
/// `output` (a closed pipe means the supervisor is gone; exiting is
/// correct).
pub fn worker_loop<R: BufRead, W: Write>(
    input: R,
    mut output: W,
    interval: Duration,
    mut handle: impl FnMut(&str) -> String + Send,
) -> io::Result<()> {
    std::thread::scope(|scope| {
        let (requests, inbox) = mpsc::channel::<String>();
        let (outbox, replies) = mpsc::channel();
        let job = scope.spawn(move || {
            for line in inbox {
                if outbox.send(handle(&line)).is_err() {
                    return;
                }
            }
        });
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            // A send only fails once the job thread is gone, which the
            // receive below reports.
            let _ = requests.send(line);
            // Wake on the reply itself; a timeout is a heartbeat due.
            let reply = loop {
                match replies.recv_timeout(interval) {
                    Ok(reply) => break reply,
                    Err(RecvTimeoutError::Timeout) => {
                        writeln!(output, "{HEARTBEAT_LINE}")?;
                        output.flush()?;
                    }
                    // The sender died unsent: `handle` panicked.
                    Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
                        job.join().expect_err("the job thread only exits unsent by panicking"),
                    ),
                }
            };
            writeln!(output, "{reply}")?;
            output.flush()?;
        }
        Ok(())
    })
}

/// Test hook: lets chaos tests SIGKILL a worker *mid-point* exactly
/// once. When `VM_SUPERVISE_KILL_POINT` names this request's tag and
/// `VM_SUPERVISE_KILL_ONCE` names a marker path that does not exist
/// yet, the worker creates the marker and kills itself with SIGKILL —
/// the restarted worker sees the marker and serves normally. A no-op
/// unless both variables are set.
pub fn maybe_kill_for_test(tag: u64) {
    let Ok(point) = std::env::var("VM_SUPERVISE_KILL_POINT") else { return };
    if point.parse() != Ok(tag) {
        return;
    }
    let Ok(marker) = std::env::var("VM_SUPERVISE_KILL_ONCE") else { return };
    // create_new is the atomic claim: exactly one worker dies even if
    // several race.
    if std::fs::OpenOptions::new().write(true).create_new(true).open(&marker).is_err() {
        return;
    }
    #[cfg(unix)]
    {
        let _ = std::process::Command::new("/bin/sh")
            .arg("-c")
            .arg(format!("kill -9 {}", std::process::id()))
            .status();
        // SIGKILL delivery is asynchronous; wait for it rather than
        // returning and computing a result that must not exist.
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    // Unreachable on Unix; elsewhere fall through to a hard death.
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn replies_once_per_request_and_skips_blank_lines() {
        let input = Cursor::new("a\n\nbb\n");
        let mut out = Vec::new();
        worker_loop(input, &mut out, Duration::from_secs(10), |req| format!("len:{}", req.len()))
            .unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "len:1\nlen:2\n");
    }

    #[test]
    fn slow_requests_interleave_heartbeats_before_the_reply() {
        let input = Cursor::new("slow\n");
        let mut out = Vec::new();
        worker_loop(input, &mut out, Duration::from_millis(30), |req| {
            std::thread::sleep(Duration::from_millis(200));
            format!("done:{req}")
        })
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(*lines.last().unwrap(), "done:slow");
        assert!(lines.len() > 1, "expected heartbeats before the reply: {text:?}");
        for hb in &lines[..lines.len() - 1] {
            assert!(hb.starts_with(HEARTBEAT_PREFIX), "{hb}");
            assert_eq!(*hb, HEARTBEAT_LINE);
        }
    }

    #[test]
    fn every_request_runs_on_one_compute_thread() {
        let input = Cursor::new("a\nb\nc\n");
        let mut out = Vec::new();
        let mut seen = Vec::new();
        worker_loop(input, &mut out, Duration::from_secs(10), |_| {
            seen.push(std::thread::current().id());
            "ok".to_owned()
        })
        .unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "ok\nok\nok\n");
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|&id| id == seen[0]), "requests moved threads: {seen:?}");
        assert_ne!(seen[0], std::thread::current().id(), "heartbeats need the reader free");
    }

    #[test]
    fn a_panicking_request_kills_the_loop() {
        let input = Cursor::new("fine\nboom\nnever\n");
        let mut out = Vec::new();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(input, &mut out, Duration::from_secs(10), |req| {
                assert_ne!(req, "boom", "injected");
                req.to_owned()
            })
        }));
        assert!(died.is_err(), "the panic must reach the caller");
        assert_eq!(String::from_utf8(out).unwrap(), "fine\n");
    }

    #[test]
    fn kill_hook_is_inert_without_both_variables() {
        // The variables are absent in the test environment; surviving
        // this call is the assertion.
        maybe_kill_for_test(0);
    }
}
