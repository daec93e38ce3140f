//! Elastic fleet membership: slot lifecycle and the control channel.
//!
//! PR 7's fleet was static — the backend set was fixed at launch and
//! eviction was forever. This module supplies the two pieces that make
//! it elastic:
//!
//! * [`SlotState`] / [`Slot`]: a roster entry whose lifecycle runs
//!   `Active → Probation → Probing → Active` (rejoin) or terminally to
//!   `Dead` / `Left`. Probation lifts `vm_supervise`'s crash-loop
//!   semantics to the fleet level: an evicted backend is re-probed
//!   after a cool-down instead of staying dead, and a rejoined backend
//!   runs on a reduced dispatch budget (no hedging) until it completes
//!   one point cleanly.
//! * [`ControlChannel`]: a listener on the coordinator speaking the
//!   fleet's NDJSON verb style — `join {addr}` / `leave {slot}` /
//!   `roster` — served on its own thread for the length of the run, so
//!   backends can be added or drained mid-run while the coordinator's
//!   pump never touches a socket. Joins only ever receive still-pending
//!   points; completed points are never reassigned, preserving
//!   first-result-wins dedup and the bit-exact merge.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vm_obs::json::{self, Value};
use vm_serve::conn::{accept_until, Conn, MAX_REQUEST_BYTES};
use vm_serve::{error_response, ok_response, ProtoError};

use crate::backend::Backend;

/// Where a fleet slot is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// In rotation: a driver thread is pulling work for this slot.
    Active,
    /// Evicted and cooling down; re-probed when `until` passes.
    Probation {
        /// When the next health probe is due.
        until: Instant,
        /// Failed probes so far this probation.
        probes: u32,
    },
    /// A probe thread is currently health-checking the slot.
    Probing,
    /// Permanently out: probation exhausted or disabled.
    Dead,
    /// Drained by the operator via the `leave` verb; never rejoins.
    Left,
}

impl SlotState {
    /// Stable lower-case label for roster responses and reports.
    pub fn label(&self) -> &'static str {
        match self {
            SlotState::Active => "active",
            SlotState::Probation { .. } => "probation",
            SlotState::Probing => "probing",
            SlotState::Dead => "dead",
            SlotState::Left => "left",
        }
    }

    /// Whether the slot can still return to rotation (so the run must
    /// not be declared fatally stuck on its account).
    pub fn can_work(&self) -> bool {
        matches!(self, SlotState::Active | SlotState::Probation { .. } | SlotState::Probing)
    }
}

/// One roster entry: a backend plus its membership state.
#[derive(Debug)]
pub struct Slot {
    /// The backend this slot dispatches to. Shared with the slot's
    /// driver thread, hence the `Arc`.
    pub backend: Arc<Backend>,
    /// Lifecycle state, owned by the coordinator's state lock.
    pub state: SlotState,
    /// Rejoined on a reduced dispatch budget: barred from hedging until
    /// one clean point completion clears the flag.
    pub reduced: bool,
    /// Points this slot completed (wins only, not duplicates).
    pub completed: u64,
    /// Whether the slot joined mid-run via the control channel.
    pub joined: bool,
    /// Implicated in an unresolved integrity incident (divergent
    /// duplicate or failed audit): barred from auditing and from
    /// arbitration dispatches until the incident resolves.
    pub suspect: bool,
    /// Convicted of an integrity violation and evicted. Unlike other
    /// evictions, rejoining requires *passing an audit* (re-running a
    /// completed point bit-for-bit), not just a health probe.
    pub quarantined: bool,
}

impl Slot {
    /// A fresh active slot for `backend`.
    pub fn new(backend: Backend, joined: bool) -> Slot {
        Slot {
            backend: Arc::new(backend),
            state: SlotState::Active,
            reduced: false,
            completed: 0,
            joined,
            suspect: false,
            quarantined: false,
        }
    }

    /// Whether a driver may claim work for this slot right now.
    pub fn is_active(&self) -> bool {
        self.state == SlotState::Active
    }

    /// This slot's row in a `roster` response.
    pub fn describe(&self, id: usize) -> Value {
        Value::obj([
            ("slot", (id as u64).into()),
            ("addr", self.backend.addr.as_str().into()),
            ("state", self.state.label().into()),
            ("completed", self.completed.into()),
            ("joined", Value::Bool(self.joined)),
            ("quarantined", Value::Bool(self.quarantined)),
        ])
    }
}

/// A membership verb received on the control channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlCmd {
    /// Add a backend at `addr` to the fleet; it health-gates like any
    /// launch backend and then steals from the pending pool.
    Join {
        /// The new backend's `host:port` address.
        addr: String,
    },
    /// Drain `slot`: requeue its in-flight points (the eviction path)
    /// and never dispatch to it again.
    Leave {
        /// The fleet slot to drain.
        slot: usize,
    },
    /// Report every slot's state.
    Roster,
}

/// How long a control client may take to send its request line.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(2);

/// The coordinator's membership listener: one request line, one
/// response line, close.
#[derive(Debug)]
pub struct ControlChannel {
    listener: TcpListener,
}

impl ControlChannel {
    /// Binds the control channel (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<ControlChannel> {
        Ok(ControlChannel { listener: TcpListener::bind(addr)? })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Returns the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Answers connections one at a time on the calling thread until
    /// `stop` is set. `handle` maps a parsed verb to a full response
    /// object (`Ok`) or a refusal message (`Err`, sent as a `409`).
    /// Malformed requests and unknown verbs are answered with a `400`
    /// without reaching the handler.
    pub fn serve(
        &self,
        stop: &AtomicBool,
        handle: &mut dyn FnMut(ControlCmd) -> Result<Value, String>,
    ) {
        accept_until(
            &self.listener,
            || stop.load(Ordering::Acquire),
            |stream| {
                let mut conn = Conn::new(stream, CONTROL_TIMEOUT, MAX_REQUEST_BYTES);
                let Some(line) = conn.next_line() else { return };
                let parsed = json::parse(&line)
                    .map_err(|e| format!("malformed request: {e}"))
                    .and_then(|v| parse_cmd(&v));
                let resp = match parsed {
                    Err(msg) => error_response(&ProtoError::new(400, msg)),
                    Ok(cmd) => match handle(cmd) {
                        Ok(v) => v,
                        Err(msg) => error_response(&ProtoError::new(409, msg)),
                    },
                };
                let _ = conn.write_line(&resp);
            },
        );
    }
}

/// Parses the request line of one control connection into a verb.
fn parse_cmd(v: &Value) -> Result<ControlCmd, String> {
    match v.get("req").and_then(Value::as_str) {
        Some("join") => {
            let addr = v
                .get("addr")
                .and_then(Value::as_str)
                .ok_or("join needs an `addr` (host:port) field")?;
            Ok(ControlCmd::Join { addr: addr.to_owned() })
        }
        Some("leave") => {
            let slot = v.get("slot").and_then(Value::as_u64).ok_or("leave needs a `slot` field")?;
            Ok(ControlCmd::Leave { slot: slot as usize })
        }
        Some("roster") => Ok(ControlCmd::Roster),
        Some(other) => Err(format!("unknown control verb {other:?} (join/leave/roster)")),
        None => Err("request without a `req` field".to_owned()),
    }
}

/// Convenience: the `ok` response for an accepted join.
pub fn join_response(slot: usize, pending: usize) -> Value {
    ok_response([("slot", (slot as u64).into()), ("pending", (pending as u64).into())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_serve::Client;

    /// Serves `chan` on a thread until `stop`, answering with `handle`.
    fn pump(
        chan: ControlChannel,
        stop: Arc<AtomicBool>,
        mut handle: impl FnMut(ControlCmd) -> Result<Value, String> + Send + 'static,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || chan.serve(&stop, &mut handle))
    }

    #[test]
    fn verbs_parse_and_round_trip_through_the_channel() {
        let chan = ControlChannel::bind("127.0.0.1:0").unwrap();
        let addr = chan.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let seen: Arc<std::sync::Mutex<Vec<ControlCmd>>> = Arc::default();
        let handle = {
            let seen = Arc::clone(&seen);
            move |cmd: ControlCmd| {
                seen.lock().unwrap().push(cmd.clone());
                match cmd {
                    ControlCmd::Join { .. } => Ok(join_response(3, 7)),
                    ControlCmd::Leave { slot } => Ok(ok_response([("slot", (slot as u64).into())])),
                    ControlCmd::Roster => Ok(ok_response([("slots", Value::Arr(vec![]))])),
                }
            }
        };
        let pumper = pump(chan, Arc::clone(&stop), handle);
        let mut client = Client::connect(addr).unwrap();
        let resp = client
            .request(&Value::obj([("req", "join".into()), ("addr", "127.0.0.1:9".into())]))
            .unwrap();
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(resp.get("slot").and_then(Value::as_u64), Some(3));
        assert_eq!(resp.get("pending").and_then(Value::as_u64), Some(7));
        let mut client = Client::connect(addr).unwrap();
        let resp =
            client.request(&Value::obj([("req", "leave".into()), ("slot", 1u64.into())])).unwrap();
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        let mut client = Client::connect(addr).unwrap();
        let resp = client.request(&Value::obj([("req", "roster".into())])).unwrap();
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        stop.store(true, Ordering::Release);
        pumper.join().unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(
            *seen,
            vec![
                ControlCmd::Join { addr: "127.0.0.1:9".to_owned() },
                ControlCmd::Leave { slot: 1 },
                ControlCmd::Roster,
            ]
        );
    }

    #[test]
    fn malformed_and_unknown_requests_get_a_400_without_reaching_the_handler() {
        let chan = ControlChannel::bind("127.0.0.1:0").unwrap();
        let addr = chan.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let pumper = pump(chan, Arc::clone(&stop), |_| panic!("handler must not run"));
        for req in [
            Value::obj([("req", "explode".into())]),
            Value::obj([("req", "join".into())]), // missing addr
            Value::obj([("req", "leave".into())]), // missing slot
            Value::obj([("nope", 1u64.into())]),
        ] {
            let mut client = Client::connect(addr).unwrap();
            let resp = client.request(&req).unwrap();
            assert_eq!(resp.get("ok"), Some(&Value::Bool(false)), "{req}");
            assert_eq!(resp.get("code").and_then(Value::as_u64), Some(400), "{req}");
        }
        stop.store(true, Ordering::Release);
        pumper.join().unwrap();
    }

    #[test]
    fn handler_refusals_surface_as_409() {
        let chan = ControlChannel::bind("127.0.0.1:0").unwrap();
        let addr = chan.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let pumper = pump(chan, Arc::clone(&stop), |_| Err("slot 9 is not in the roster".into()));
        let mut client = Client::connect(addr).unwrap();
        let resp =
            client.request(&Value::obj([("req", "leave".into()), ("slot", 9u64.into())])).unwrap();
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(resp.get("code").and_then(Value::as_u64), Some(409));
        stop.store(true, Ordering::Release);
        pumper.join().unwrap();
    }

    #[test]
    fn slot_lifecycle_labels_and_work_eligibility() {
        let b = Backend::from_addr(0, "127.0.0.1:1");
        let mut slot = Slot::new(b, false);
        assert!(slot.is_active() && slot.state.can_work());
        slot.state = SlotState::Probation { until: Instant::now(), probes: 1 };
        assert!(!slot.is_active() && slot.state.can_work());
        slot.state = SlotState::Probing;
        assert!(!slot.is_active() && slot.state.can_work());
        slot.state = SlotState::Dead;
        assert!(!slot.state.can_work());
        slot.state = SlotState::Left;
        assert!(!slot.state.can_work());
        assert_eq!(slot.state.label(), "left");
        let row = slot.describe(4);
        assert_eq!(row.get("slot").and_then(Value::as_u64), Some(4));
        assert_eq!(row.get("state").and_then(Value::as_str), Some("left"));
    }
}
