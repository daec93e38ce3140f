//! The NDJSON connection layer: one accept loop, one bounded
//! request-line reader, one line writer and one `watch` frame loop.
//!
//! The daemon ([`crate::server`]) serves its protocol on these, and so
//! do the fleet's `watch` proxy and control channel, so a size bound, a
//! timeout or a keepalive is written once for every listener in the
//! workspace.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use vm_obs::json::Value;

use crate::proto::{error_response, ProtoError};
use crate::watch::{lagged_frame, tick_frame, SubNext, WatchSub};

/// The longest request line a listener reads unless configured
/// otherwise (the daemon's `--max-request-bytes`).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Binds a listener for [`accept_until`]: non-blocking, so the loop can
/// check its stop condition between accepts.
///
/// # Errors
///
/// Propagates the bind or socket-option failure.
pub fn bind(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// Accepts connections on a [`bind`]-made listener until `stopped()`
/// turns true, handing each to `conn` on the accepting thread; a `conn`
/// that spawns a thread serves connections concurrently. `stopped` is
/// checked at least every 10 ms, and accept failures never end the loop.
pub fn accept_until(
    listener: &TcpListener,
    stopped: impl Fn() -> bool,
    mut conn: impl FnMut(TcpStream),
) {
    while !stopped() {
        match listener.accept() {
            Ok((stream, _peer)) => conn(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept failure (EMFILE, ECONNABORTED...): back
            // off but keep the listener alive.
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// One accepted connection: request lines in, each bounded in size;
/// response lines and `watch` frames out.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
    max: usize,
}

impl Conn {
    /// Wraps an accepted stream: `timeout` on every read and write, no
    /// Nagle delay, and request lines of at most `max` bytes.
    pub fn new(stream: TcpStream, timeout: Duration, max: usize) -> Conn {
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        let _ = stream.set_nodelay(true);
        Conn { stream, carry: Vec::new(), max }
    }

    /// The next non-blank request line, trimmed. `None` ends the
    /// connection: the peer closed, timed out or reset, or sent more
    /// than `max` bytes without a newline, which is answered `413`.
    pub fn next_line(&mut self) -> Option<String> {
        let mut chunk = [0u8; 4096];
        loop {
            while let Some(pos) = self.carry.iter().position(|&b| b == b'\n') {
                let bytes: Vec<u8> = self.carry.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&bytes);
                let line = line.trim();
                if !line.is_empty() {
                    return Some(line.to_owned());
                }
            }
            if self.carry.len() > self.max {
                let e = ProtoError::new(413, format!("request exceeds {} bytes", self.max));
                let _ = self.write_line(&error_response(&e));
                return None;
            }
            match self.stream.read(&mut chunk) {
                Ok(n) if n > 0 => self.carry.extend_from_slice(&chunk[..n]),
                // Closed, timed out or reset: drop the connection, never
                // the listener.
                _ => return None,
            }
        }
    }

    /// Writes `v` as one line.
    ///
    /// # Errors
    ///
    /// Propagates the write failure (a dead peer or a write timeout).
    pub fn write_line(&mut self, v: &Value) -> io::Result<()> {
        self.stream.write_all(format!("{v}\n").as_bytes())
    }

    /// Streams `sub`'s frames, one per line, until the hub closes, the
    /// subscriber lags out (its last line then a `lagged` frame), a
    /// write fails, or, for a single-job watch (`job = Some(id)`), that
    /// job's `done` frame is written. A quiet stream gets a `tick` frame
    /// every 5 s, so a dead peer shows up as a failed write. `now_ms`
    /// stamps the frames this loop makes itself.
    pub fn stream_frames(&mut self, sub: &WatchSub, job: Option<u64>, now_ms: &dyn Fn() -> u64) {
        let mut idle = Duration::ZERO;
        let poll = Duration::from_millis(200);
        let keepalive = Duration::from_secs(5);
        loop {
            match sub.next(poll) {
                SubNext::Frame(frame) => {
                    idle = Duration::ZERO;
                    let terminal = job.is_some()
                        && frame.get("frame").and_then(Value::as_str) == Some("done")
                        && frame.get("job").and_then(Value::as_u64) == job;
                    if self.write_line(&frame).is_err() || terminal {
                        return;
                    }
                }
                SubNext::Lagged => {
                    // The explicit last word on a dropped stream.
                    let _ = self.write_line(&lagged_frame(now_ms()));
                    return;
                }
                SubNext::Closed => return,
                SubNext::Idle => {
                    idle += poll;
                    if idle >= keepalive {
                        idle = Duration::ZERO;
                        if self.write_line(&tick_frame(now_ms())).is_err() {
                            return; // dead peer detected by the failed write
                        }
                    }
                }
            }
        }
    }
}
