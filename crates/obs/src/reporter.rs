//! Verbosity-aware progress and result reporting.
//!
//! The convention throughout the experiment drivers and the sweep
//! executors:
//!
//! * **stdout** carries results — tables, claims, CSV — and nothing
//!   else, so output stays pipeable and diffable.
//! * **stderr** carries progress — headings, heartbeats, wall-clock
//!   timings, file-written notices — gated by [`Verbosity`].
//!
//! The reporter lives in `vm-obs` (rather than the experiment crate) so
//! every layer that runs long work — the experiment runner, the
//! `vm-explore` sweep executor — can report progress through one
//! mechanism instead of ad-hoc stderr prints.

use std::fmt::Display;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

/// The cadence of long-work heartbeats: silent for work shorter than
/// this, one progress line per period after that.
pub const HEARTBEAT_PERIOD: Duration = Duration::from_secs(2);

/// Process-wide verbosity, consulted by [`Reporter::global`]. Defaults to
/// [`Verbosity::Quiet`] so library callers (and tests) stay silent unless
/// a binary opts in.
static GLOBAL_VERBOSITY: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide verbosity used by [`Reporter::global`] — called
/// once by the `repro` binary after parsing `--verbosity`.
pub fn set_global_verbosity(v: Verbosity) {
    GLOBAL_VERBOSITY.store(v as u8, Ordering::Relaxed);
}

/// Orders whole stderr lines across threads. Every progress path formats
/// its complete line (with the trailing newline) *before* taking this
/// lock, then issues a single `write_all`, so concurrent sweep workers
/// and the heartbeat thread can never interleave torn fragments.
static STDERR_LINE: Mutex<()> = Mutex::new(());

/// Writes one complete line to stderr atomically with respect to every
/// other reporter in the process.
fn stderr_line(msg: impl Display) {
    let mut line = msg.to_string();
    line.push('\n');
    let _order = STDERR_LINE.lock().unwrap_or_else(|e| e.into_inner());
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// How chatty progress reporting should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Verbosity {
    /// Results only: nothing on stderr except errors.
    Quiet,
    /// Per-experiment headings, timings, and heartbeats (the default).
    #[default]
    Normal,
    /// Everything, including per-job completion lines.
    Verbose,
}

impl Verbosity {
    /// Parses `0`/`1`/`2` or `quiet`/`normal`/`verbose`.
    pub fn parse(s: &str) -> Option<Verbosity> {
        match s {
            "0" | "quiet" | "q" => Some(Verbosity::Quiet),
            "1" | "normal" | "n" => Some(Verbosity::Normal),
            "2" | "verbose" | "v" => Some(Verbosity::Verbose),
            _ => None,
        }
    }
}

/// Routes experiment output to the right stream at the right verbosity.
///
/// Shared by reference across runner worker threads; all methods take
/// `&self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reporter {
    verbosity: Verbosity,
}

impl Reporter {
    /// A reporter at the given verbosity.
    pub fn new(verbosity: Verbosity) -> Reporter {
        Reporter { verbosity }
    }

    /// A reporter that never writes to stderr (used by library callers
    /// that want the legacy silent behaviour).
    pub fn silent() -> Reporter {
        Reporter { verbosity: Verbosity::Quiet }
    }

    /// A reporter at the process-wide verbosity (see
    /// [`set_global_verbosity`]); quiet unless a binary opted in.
    pub fn global() -> Reporter {
        Reporter {
            verbosity: match GLOBAL_VERBOSITY.load(Ordering::Relaxed) {
                0 => Verbosity::Quiet,
                1 => Verbosity::Normal,
                _ => Verbosity::Verbose,
            },
        }
    }

    /// The configured verbosity.
    pub fn verbosity(&self) -> Verbosity {
        self.verbosity
    }

    /// A result line: stdout, always.
    pub fn result(&self, msg: impl Display) {
        println!("{msg}");
    }

    /// A progress line: stderr, at Normal verbosity and above. Lines are
    /// written whole — concurrent workers never produce torn output.
    pub fn progress(&self, msg: impl Display) {
        if self.verbosity >= Verbosity::Normal {
            stderr_line(msg);
        }
    }

    /// A detail line (per-job completions): stderr, at Verbose only.
    /// Lines are written whole, like [`Reporter::progress`].
    pub fn detail(&self, msg: impl Display) {
        if self.verbosity >= Verbosity::Verbose {
            stderr_line(msg);
        }
    }

    /// A heartbeat line: stderr, at Normal and above. Kept distinct from
    /// [`Reporter::detail`] so long sweeps stay visible by default. The
    /// heartbeat thread shares the line-ordered writer with the sweep
    /// workers, so a heartbeat can never land mid-progress-line.
    pub fn heartbeat(&self, msg: impl Display) {
        if self.verbosity >= Verbosity::Normal {
            stderr_line(msg);
        }
    }

    /// Runs `work` on the calling thread and returns its value the
    /// moment it returns. Meanwhile, when heartbeats print at all
    /// (Normal and above), a helper thread calls `beat` once per
    /// `period`.
    ///
    /// The helper sleeps on a channel that `work`'s completion (or
    /// unwind) disconnects, so finishing never waits out the rest of a
    /// period, and no beat runs after this method returns.
    pub fn with_heartbeat<T>(
        &self,
        period: Duration,
        mut beat: impl FnMut() + Send,
        work: impl FnOnce() -> T,
    ) -> T {
        if self.verbosity < Verbosity::Normal {
            return work();
        }
        let (done, finished) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(period) {
                    beat();
                }
            });
            // Dropped when `work` returns or unwinds, waking the helper.
            let _done = done;
            work()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbosity_parses_names_and_digits() {
        assert_eq!(Verbosity::parse("0"), Some(Verbosity::Quiet));
        assert_eq!(Verbosity::parse("quiet"), Some(Verbosity::Quiet));
        assert_eq!(Verbosity::parse("1"), Some(Verbosity::Normal));
        assert_eq!(Verbosity::parse("verbose"), Some(Verbosity::Verbose));
        assert_eq!(Verbosity::parse("3"), None);
    }

    #[test]
    fn verbosity_orders_quiet_below_verbose() {
        assert!(Verbosity::Quiet < Verbosity::Normal);
        assert!(Verbosity::Normal < Verbosity::Verbose);
        assert_eq!(Verbosity::default(), Verbosity::Normal);
    }

    #[test]
    fn silent_reporter_is_quiet() {
        assert_eq!(Reporter::silent().verbosity(), Verbosity::Quiet);
    }

    #[test]
    fn finishing_returns_without_waiting_out_the_period() {
        let t0 = std::time::Instant::now();
        let mut beats = 0;
        let v = Reporter::new(Verbosity::Normal).with_heartbeat(
            Duration::from_secs(60),
            || beats += 1,
            || 7,
        );
        assert_eq!(v, 7);
        assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
        assert_eq!(beats, 0);
    }

    #[test]
    fn beats_fire_during_the_work_and_never_after_it() {
        let beats = Mutex::new(Vec::new());
        Reporter::new(Verbosity::Normal).with_heartbeat(
            Duration::from_millis(20),
            || beats.lock().unwrap().push(std::time::Instant::now()),
            || std::thread::sleep(Duration::from_millis(100)),
        );
        let returned = std::time::Instant::now();
        let fired = beats.lock().unwrap().len();
        assert!(fired >= 1, "no beat during 100 ms of work at a 20 ms period");
        assert!(beats.lock().unwrap().iter().all(|&t| t <= returned));
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(beats.lock().unwrap().len(), fired, "a beat fired after the work finished");
    }

    #[test]
    fn a_quiet_reporter_never_beats() {
        let mut beats = 0;
        Reporter::silent().with_heartbeat(
            Duration::from_millis(1),
            || beats += 1,
            || std::thread::sleep(Duration::from_millis(20)),
        );
        assert_eq!(beats, 0);
    }

    #[test]
    fn a_panicking_work_unwinds_through_the_helper() {
        let caught = std::panic::catch_unwind(|| {
            Reporter::new(Verbosity::Normal).with_heartbeat(
                Duration::from_secs(60),
                || {},
                || panic!("boom"),
            );
        });
        let payload = caught.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn concurrent_reporters_do_not_deadlock() {
        // Quiet reporters skip the write but the point is that many
        // threads hammering the reporting paths terminate cleanly.
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let r = Reporter::new(Verbosity::Quiet);
                    for j in 0..100 {
                        r.progress(format_args!("t{i} line {j}"));
                        r.heartbeat(format_args!("t{i} beat {j}"));
                        r.detail(format_args!("t{i} detail {j}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
