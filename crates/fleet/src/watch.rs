//! Watch fan-in: one aggregated frame stream for the whole fleet.
//!
//! Each backend already speaks the `watch` protocol (ack, then one
//! JSON frame per line). The fleet subscribes to every backend's
//! firehose (`"job":"*"`), tags each frame with the originating
//! backend's fleet slot, and republishes it into one shared
//! [`WatchHub`]. A proxy listener then answers `watch` requests against
//! that hub on vm-serve's connection code ([`vm_serve::conn`]), so
//! `repro watch --addr <fleet>` works exactly as it does against a
//! single daemon — same ack, same frames, same keepalive, plus a
//! `backend` field saying where each frame came from.
//!
//! Fan-in readers cannot reliably tell a quiet backend from a dead one
//! through the string-error client interface, so they time the read:
//! an error that arrives as fast as the socket can fail is a dead
//! connection; an error that took the whole read timeout is just an
//! idle stream (backends keep quiet streams alive with ~5 s ticks).

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vm_obs::json::{self, Value};
use vm_serve::conn::{accept_until, Conn, MAX_REQUEST_BYTES};
use vm_serve::watch::WATCH_BUFFER;
use vm_serve::{error_response, ok_response, Client, ProtoError, WatchHub, PROTO_VERSION};

/// How long a proxy subscriber may take to send its request line, and
/// each frame write may block.
const PROXY_TIMEOUT: Duration = Duration::from_secs(30);

/// Subscribes to one backend's `watch` firehose and republishes every
/// frame into `hub`, tagged with the backend's fleet slot. Returns when
/// the backend's stream dies or `stop` is set.
pub fn fan_in_backend(id: usize, addr: &str, hub: &WatchHub, stop: &AtomicBool) {
    let Ok(mut client) = Client::connect(addr) else { return };
    let sub = Value::obj([("req", "watch".into()), ("job", "*".into())]);
    if client.send(&sub).is_err() {
        return;
    }
    match client.next_line() {
        Ok(ack) if ack.get("ok") == Some(&Value::Bool(true)) => {}
        _ => return,
    }
    let timeout = Duration::from_millis(500);
    if client.set_read_timeout(Some(timeout)).is_err() {
        return;
    }
    let mut fast_errors = 0u32;
    while !stop.load(Ordering::Acquire) {
        let started = Instant::now();
        match client.next_line() {
            Ok(mut frame) => {
                fast_errors = 0;
                if let Value::Obj(pairs) = &mut frame {
                    pairs.push(("backend".to_owned(), (id as u64).into()));
                }
                hub.publish(None, &frame);
            }
            Err(_) if started.elapsed() >= timeout / 2 => {
                // Took the whole timeout: an idle stream, keep polling.
                fast_errors = 0;
            }
            Err(_) => {
                // Instant failure twice in a row: the socket is dead.
                fast_errors += 1;
                if fast_errors >= 2 {
                    return;
                }
            }
        }
    }
}

/// A `watch`-only listener serving the fleet's aggregated hub.
#[derive(Debug)]
pub struct WatchProxy {
    listener: TcpListener,
}

impl WatchProxy {
    /// Binds the proxy (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<WatchProxy> {
        Ok(WatchProxy { listener: TcpListener::bind(addr)? })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Returns the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts watch subscribers until `stop` is set. Each connection
    /// gets its own thread: one request line, which must be a `watch`
    /// (anything else answers `400`), then an ack and frames from `hub`
    /// until the hub closes (the run finished) or the client goes away.
    pub fn serve(&self, hub: &Arc<WatchHub>, stop: &AtomicBool) {
        let t0 = Instant::now();
        accept_until(
            &self.listener,
            || stop.load(Ordering::Acquire),
            |stream| {
                let hub = Arc::clone(hub);
                std::thread::spawn(move || {
                    let mut conn = Conn::new(stream, PROXY_TIMEOUT, MAX_REQUEST_BYTES);
                    let Some(line) = conn.next_line() else { return };
                    let is_watch = json::parse(&line)
                        .is_ok_and(|v| v.get("req").and_then(Value::as_str) == Some("watch"));
                    if !is_watch {
                        let e = ProtoError::new(400, "the fleet proxy only serves watch");
                        let _ = conn.write_line(&error_response(&e));
                        return;
                    }
                    let sub = hub.subscribe(None, WATCH_BUFFER);
                    let ack =
                        ok_response([("watching", "*".into()), ("proto", PROTO_VERSION.into())]);
                    if conn.write_line(&ack).is_ok() {
                        conn.stream_frames(&sub, None, &|| t0.elapsed().as_millis() as u64);
                    }
                    hub.unsubscribe(&sub);
                });
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_acks_watch_and_streams_hub_frames() {
        let hub = Arc::new(WatchHub::new());
        let proxy = WatchProxy::bind("127.0.0.1:0").unwrap();
        let addr = proxy.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let serve = {
            let (hub, stop) = (Arc::clone(&hub), Arc::clone(&stop));
            std::thread::spawn(move || proxy.serve(&hub, &stop))
        };
        let mut client = Client::connect(addr).unwrap();
        client.send(&Value::obj([("req", "watch".into()), ("job", "*".into())])).unwrap();
        let ack = client.next_line().unwrap();
        assert_eq!(ack.get("ok"), Some(&Value::Bool(true)));
        // Wait for the proxy thread to register its subscriber, then
        // publish a tagged frame and see it arrive verbatim.
        for _ in 0..100 {
            if hub.subscribers() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(hub.subscribers() > 0, "proxy never subscribed");
        let frame = Value::obj([("frame", "progress".into()), ("backend", 2u64.into())]);
        hub.publish(None, &frame);
        let got = client.next_line().unwrap();
        assert_eq!(got, frame);
        // Closing the hub ends the stream and the client sees EOF.
        hub.close();
        assert!(client.next_line().is_err());
        stop.store(true, Ordering::Release);
        serve.join().unwrap();
    }

    #[test]
    fn proxy_rejects_non_watch_requests() {
        let hub = Arc::new(WatchHub::new());
        let proxy = WatchProxy::bind("127.0.0.1:0").unwrap();
        let addr = proxy.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let serve = {
            let (hub, stop) = (Arc::clone(&hub), Arc::clone(&stop));
            std::thread::spawn(move || proxy.serve(&hub, &stop))
        };
        let mut client = Client::connect(addr).unwrap();
        let resp = client.request(&Value::obj([("req", "health".into())])).unwrap();
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(resp.get("code").and_then(Value::as_u64), Some(400));
        stop.store(true, Ordering::Release);
        serve.join().unwrap();
    }

    /// Sends `addr` exactly one byte past the request-line limit, with
    /// no newline, and reads until the listener closes. Exactly that
    /// many bytes, so the listener has read them all when it closes and
    /// its reply is not lost to a reset.
    fn overlong_request(addr: SocketAddr) -> String {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1]).unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply).expect("the listener answers, then closes");
        reply
    }

    #[test]
    fn both_fleet_listeners_answer_413_past_the_line_limit_and_close() {
        let hub = Arc::new(WatchHub::new());
        let proxy = WatchProxy::bind("127.0.0.1:0").unwrap();
        let chan = crate::ControlChannel::bind("127.0.0.1:0").unwrap();
        let addrs = [proxy.local_addr().unwrap(), chan.local_addr().unwrap()];
        let stop = Arc::new(AtomicBool::new(false));
        let serving = [
            {
                let (hub, stop) = (Arc::clone(&hub), Arc::clone(&stop));
                std::thread::spawn(move || proxy.serve(&hub, &stop))
            },
            {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || chan.serve(&stop, &mut |_| panic!("no verb was sent")))
            },
        ];
        for addr in addrs {
            let reply = overlong_request(addr);
            let lines: Vec<&str> = reply.lines().collect();
            assert_eq!(lines.len(), 1, "one reply line, then close: {reply:?}");
            let v = json::parse(lines[0]).unwrap();
            assert_eq!(v.get("code").and_then(Value::as_u64), Some(413), "{reply}");
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        }
        stop.store(true, Ordering::Release);
        for t in serving {
            t.join().unwrap();
        }
    }

    #[test]
    fn fan_in_exits_cleanly_when_the_backend_is_gone() {
        // Bind-then-drop: nothing listens, fan-in must return, not hang.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let hub = WatchHub::new();
        let stop = AtomicBool::new(false);
        fan_in_backend(0, &format!("127.0.0.1:{port}"), &hub, &stop);
    }
}
