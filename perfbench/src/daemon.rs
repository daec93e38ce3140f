//! `repro serve` daemons run as child processes of the benchmark.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use vm_obs::json::Value;
use vm_serve::Client;

/// The banner a daemon started with `--port 0` prints first.
const LISTENING: &str = "vm-serve listening on ";

/// A running `repro serve` child. Dropping it kills and reaps the child;
/// [`Daemon::stop`] drains it gracefully first.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound `HOST:PORT`.
    pub addr: String,
}

impl Daemon {
    /// Spawns `repro serve --port 0 <args>`, reads the bound address off
    /// its banner, and waits until it answers a health probe.
    ///
    /// # Errors
    ///
    /// Returns a message when the child cannot start, prints no banner,
    /// or never becomes healthy.
    pub fn spawn(repro: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(repro)
            .arg("serve")
            .args(["--port", "0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {} serve: {e}", repro.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let banner = stdout.read_line(&mut line);
        let addr = match (banner, line.trim().strip_prefix(LISTENING)) {
            (Ok(_), Some(addr)) => addr.to_owned(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon printed no listening banner (got {:?})", line.trim()));
            }
        };
        let daemon = Daemon { child: Some(child), _stdout: stdout, addr };
        daemon.wait_healthy(Duration::from_secs(10))?;
        Ok(daemon)
    }

    fn wait_healthy(&self, within: Duration) -> Result<(), String> {
        let until = Instant::now() + within;
        loop {
            let probe = Client::connect(&*self.addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| c.request(&Value::obj([("req", "health".into())])));
            match probe {
                Ok(resp) if resp.get("ok") == Some(&Value::Bool(true)) => return Ok(()),
                Ok(resp) if Instant::now() >= until => return Err(format!("unhealthy: {resp}")),
                Err(e) if Instant::now() >= until => return Err(format!("unreachable: {e}")),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Drains the daemon and waits for it to exit (killing it after 5 s).
    ///
    /// # Errors
    ///
    /// Says whether the daemon had to be killed or exited with failure.
    pub fn stop(mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else { return Ok(()) };
        if let Ok(mut c) = Client::connect(&*self.addr) {
            let _ = c.request(&Value::obj([("req", "drain".into())]));
        }
        let until = Instant::now() + Duration::from_secs(5);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon ignored drain and was killed".to_owned());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
