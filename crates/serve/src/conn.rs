//! The NDJSON connection layer: one accept loop, one bounded
//! request-line reader, one line writer and one `watch` frame loop.
//!
//! The daemon ([`crate::server`]) serves its protocol on these, and so
//! do the fleet's `watch` proxy and control channel, so a size bound, a
//! timeout or a keepalive is written once for every listener in the
//! workspace.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use vm_obs::json::Value;

use crate::proto::{error_response, ProtoError};
use crate::watch::{lagged_frame, tick_frame, SubNext, WatchSub};

/// The longest request line a listener reads unless configured
/// otherwise (the daemon's `--max-request-bytes`).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// How often [`accept_until`]'s helper re-checks the stop condition.
const STOP_CHECK: Duration = Duration::from_millis(10);

/// Accepts connections on a blocking listener until `stopped()` turns
/// true, handing each to `conn` on the accepting thread; a `conn` that
/// spawns a thread serves connections concurrently. A connection is
/// accepted the moment it arrives.
///
/// `stopped` must stay true once it turns true. A parked helper thread
/// re-checks it every 10 ms and then wakes the blocked `accept` by
/// connecting to the listener itself (over loopback when the listener
/// is bound to an unspecified address); that connection, like any
/// accepted once `stopped` is true, is dropped and never reaches
/// `conn`. Accept failures never end the loop.
pub fn accept_until(
    listener: &TcpListener,
    stopped: impl Fn() -> bool + Sync,
    mut conn: impl FnMut(TcpStream),
) {
    let Ok(wake) = listener.local_addr().map(self_addr) else { return };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let helper = scope.spawn(|| {
            let mut woken = false;
            while !done.load(Ordering::Acquire) {
                if !woken && stopped() {
                    woken = TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok();
                }
                std::thread::park_timeout(STOP_CHECK);
            }
        });
        while !stopped() {
            match listener.accept() {
                Ok((stream, _peer)) if !stopped() => conn(stream),
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failure (EMFILE, ECONNABORTED...): back
                // off but keep the listener alive.
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        done.store(true, Ordering::Release);
        helper.thread().unpark();
    });
}

/// The address a client on this host reaches `local` at: loopback in
/// place of an unspecified (`0.0.0.0` or `::`) bind address.
fn self_addr(local: SocketAddr) -> SocketAddr {
    match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, local.port()).into(),
        IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, local.port()).into(),
        _ => local,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use std::sync::mpsc;
    use std::time::Instant;

    /// Serves `listener` on a thread, answering every request line with
    /// `{"ok":true}` on a thread per connection as the daemon does, until
    /// `stop` is set; the receiver yields once the loop has returned.
    fn echo_until(listener: TcpListener, stop: &'static AtomicBool) -> mpsc::Receiver<()> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            accept_until(
                &listener,
                || stop.load(Ordering::Acquire),
                |stream| {
                    std::thread::spawn(move || {
                        let mut conn = Conn::new(stream, Duration::from_secs(5), MAX_REQUEST_BYTES);
                        while conn.next_line().is_some() {
                            let _ = conn.write_line(&Value::obj([("ok", Value::Bool(true))]));
                        }
                    });
                },
            );
            let _ = tx.send(());
        });
        rx
    }

    #[test]
    fn an_idle_listener_accepts_each_connection_as_it_arrives() {
        static STOP: AtomicBool = AtomicBool::new(false);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ended = echo_until(listener, &STOP);
        let ping = Value::obj([("req", "ping".into())]);
        let started = Instant::now();
        for _ in 0..20 {
            let mut client = Client::connect(addr).unwrap();
            assert_eq!(client.request(&ping).unwrap().get("ok"), Some(&Value::Bool(true)));
        }
        let took = started.elapsed();
        // The loop is back in `accept` before each next client connects,
        // so one that slept 10 ms whenever no connection was waiting
        // would need about 200 ms for these 20 round trips.
        assert!(took < Duration::from_millis(100), "20 round trips took {took:?}");
        STOP.store(true, Ordering::Release);
        ended.recv_timeout(Duration::from_secs(5)).expect("the loop ends once stopped");
    }

    #[test]
    fn setting_the_stop_flag_ends_a_loop_no_client_ever_reached() {
        static STOP: AtomicBool = AtomicBool::new(false);
        let ended = echo_until(TcpListener::bind("0.0.0.0:0").unwrap(), &STOP);
        assert!(ended.recv_timeout(Duration::from_millis(50)).is_err(), "ended before the stop");
        STOP.store(true, Ordering::Release);
        ended.recv_timeout(Duration::from_secs(5)).expect("the loop ends once stopped");
    }
}
