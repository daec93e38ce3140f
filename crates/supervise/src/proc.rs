//! One sandboxed worker process: spawn, line transport, liveness probes.
//!
//! A worker speaks newline-delimited JSON over its stdin/stdout. Its
//! stdout is drained by a dedicated reader thread into a channel so the
//! supervisor can wait for a reply *with a timeout* (a blocking read
//! could hang forever on a wedged worker); stderr is drained into a
//! small ring buffer so a crash can be reported with the worker's last
//! words instead of "it died".

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How many trailing stderr lines a crash report keeps.
const STDERR_TAIL_LINES: usize = 8;

/// How a worker process is launched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCommand {
    /// The worker executable.
    pub program: PathBuf,
    /// Its arguments.
    pub args: Vec<String>,
    /// Extra environment variables (inherited environment plus these).
    pub envs: Vec<(String, String)>,
}

impl WorkerCommand {
    /// A command for `program` with `args` and no extra environment.
    pub fn new(program: impl Into<PathBuf>, args: &[&str]) -> WorkerCommand {
        WorkerCommand {
            program: program.into(),
            args: args.iter().map(|s| (*s).to_owned()).collect(),
            envs: Vec::new(),
        }
    }

    /// The canonical production command: re-invoke the current
    /// executable with `args` (e.g. `["worker"]` for `repro worker`).
    ///
    /// # Errors
    ///
    /// Propagates the failure to resolve the current executable path.
    pub fn current_exe(args: &[&str]) -> io::Result<WorkerCommand> {
        Ok(WorkerCommand::new(std::env::current_exe()?, args))
    }

    /// Adds an environment variable to the worker's environment.
    #[must_use]
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> WorkerCommand {
        self.envs.push((key.into(), value.into()));
        self
    }
}

/// A human-readable exit description: signal name on Unix kills, exit
/// code otherwise.
pub fn describe_exit(status: ExitStatus) -> String {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            let name = match sig {
                4 => " (SIGILL)",
                6 => " (SIGABRT)",
                9 => " (SIGKILL)",
                11 => " (SIGSEGV)",
                15 => " (SIGTERM)",
                _ => "",
            };
            return format!("killed by signal {sig}{name}");
        }
    }
    match status.code() {
        Some(code) => format!("exited with status {code}"),
        None => "exited without a status".to_owned(),
    }
}

/// A live (or recently deceased) supervised worker.
pub(crate) struct WorkerProcess {
    child: Child,
    /// `None` once closed for a graceful shutdown (EOF tells the worker
    /// to exit).
    stdin: Option<ChildStdin>,
    /// Stdout lines, fed by the reader thread; disconnects on EOF.
    lines: Receiver<String>,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
    /// The worker's OS process id.
    pub pid: u32,
}

impl fmt::Debug for WorkerProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerProcess").field("pid", &self.pid).finish_non_exhaustive()
    }
}

impl WorkerProcess {
    /// Spawns a worker and wires its pipes.
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure (missing binary, fork limits, ...).
    pub fn spawn(cmd: &WorkerCommand) -> io::Result<WorkerProcess> {
        let mut child = Command::new(&cmd.program)
            .args(&cmd.args)
            .envs(cmd.envs.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let pid = child.id();
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break; // supervisor moved on; stop pumping
                }
            }
        });
        let stderr_tail = Arc::new(Mutex::new(VecDeque::new()));
        let tail = Arc::clone(&stderr_tail);
        std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let mut t = tail.lock().unwrap_or_else(|e| e.into_inner());
                if t.len() >= STDERR_TAIL_LINES {
                    t.pop_front();
                }
                t.push_back(line);
            }
        });
        Ok(WorkerProcess { child, stdin: Some(stdin), lines, stderr_tail, pid })
    }

    /// Writes one request line (newline appended) and flushes.
    ///
    /// # Errors
    ///
    /// Fails when the worker's stdin is closed — i.e. the worker died.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let Some(stdin) = self.stdin.as_mut() else {
            return Err(io::Error::other("worker stdin already closed"));
        };
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    /// Waits up to `timeout` for the next stdout line.
    ///
    /// # Errors
    ///
    /// `Timeout` when no line arrived in time, `Disconnected` once the
    /// worker's stdout reached EOF (the worker exited or crashed).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<String, RecvTimeoutError> {
        self.lines.recv_timeout(timeout)
    }

    /// The worker's exit status, when it has already terminated.
    pub fn exited(&mut self) -> Option<ExitStatus> {
        self.child.try_wait().ok().flatten()
    }

    /// The last few stderr lines, joined, for crash reports.
    pub fn stderr_tail(&self) -> String {
        let tail = self.stderr_tail.lock().unwrap_or_else(|e| e.into_inner());
        tail.iter().cloned().collect::<Vec<_>>().join("; ")
    }

    /// Closes stdin so a healthy worker exits on its own at EOF.
    pub fn close_stdin(&mut self) {
        self.stdin = None;
    }

    /// Kills (if still alive) and reaps the worker. Consumes the
    /// handle: there is nothing meaningful left after the wait.
    pub fn reap(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits up to `grace` for voluntary exit (poll at `tick`), then
    /// kills. Used for graceful shutdown after [`close_stdin`](WorkerProcess::close_stdin).
    pub fn reap_graceful(mut self, grace: Duration, tick: Duration) {
        let deadline = std::time::Instant::now() + grace;
        while std::time::Instant::now() < deadline {
            if self.exited().is_some() {
                let _ = self.child.wait();
                return;
            }
            std::thread::sleep(tick);
        }
        self.reap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> WorkerCommand {
        WorkerCommand::new("/bin/sh", &["-c", script])
    }

    #[test]
    fn round_trips_a_line_and_reports_exit() {
        let mut w = WorkerProcess::spawn(&sh("read l; echo \"got:$l\"; echo oops >&2")).unwrap();
        w.send("ping").unwrap();
        let reply = w.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply, "got:ping");
        // EOF on stdin ends the loop-free script; it exits cleanly.
        w.close_stdin();
        assert!(w.send("x").is_err());
        // Wait for exit, then the stderr tail is observable.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while w.exited().is_none() {
            assert!(std::time::Instant::now() < deadline, "worker never exited");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(w.stderr_tail(), "oops");
        assert_eq!(describe_exit(w.exited().unwrap()), "exited with status 0");
        w.reap();
    }

    #[test]
    fn signal_deaths_are_described_by_name() {
        let mut w = WorkerProcess::spawn(&sh("kill -9 $$")).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let status = loop {
            if let Some(s) = w.exited() {
                break s;
            }
            assert!(std::time::Instant::now() < deadline, "worker never died");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(describe_exit(status), "killed by signal 9 (SIGKILL)");
        w.reap();
    }

    #[test]
    fn command_builders_compose() {
        let cmd = WorkerCommand::new("/bin/echo", &["a"]).env("K", "V");
        assert_eq!(cmd.envs, vec![("K".to_owned(), "V".to_owned())]);
        let exe = WorkerCommand::current_exe(&["worker"]).unwrap();
        assert!(exe.program.is_absolute());
        assert_eq!(exe.args, vec!["worker".to_owned()]);
    }
}
