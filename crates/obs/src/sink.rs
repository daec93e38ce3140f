//! The [`Sink`] abstraction and basic sink combinators.
//!
//! A sink receives every [`Event`] the simulator emits. The trait carries
//! an associated `ENABLED` constant so the simulator can be generic over
//! the sink type and the compiler can delete every emit site — including
//! the argument computation feeding it — when the sink is [`NopSink`].
//! Instrumentation in the hot path must always be written as
//!
//! ```text
//! if S::ENABLED {
//!     sink.emit(now, &Event::...);
//! }
//! ```
//!
//! so the default (un-instrumented) build pays nothing.

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::Event;
use crate::stats::ObsSnapshot;

/// Receiver for simulation events.
///
/// `now` is the simulator's event clock: the number of *user* instructions
/// retired so far in the current measurement phase. It is monotonically
/// non-decreasing between [`Sink::reset`] calls.
pub trait Sink {
    /// Whether this sink actually observes events. When `false`, the
    /// simulator skips event construction entirely (the emit sites are
    /// compiled out), so a disabled sink has zero runtime cost.
    const ENABLED: bool = true;

    /// Receives one event at simulated time `now`.
    fn emit(&mut self, now: u64, ev: &Event);

    /// Clears any accumulated state. The simulator calls this when its
    /// counters are reset (end of cache/TLB warm-up) so that recorded
    /// events reconcile exactly with the measured counters.
    fn reset(&mut self) {}

    /// Returns aggregated statistics, if this sink computes any.
    fn snapshot(&self) -> Option<ObsSnapshot> {
        None
    }
}

/// The default sink: observes nothing, costs nothing.
///
/// With `ENABLED = false`, every `if S::ENABLED { … }` guard in the
/// simulator is a compile-time constant branch that the optimizer removes,
/// so simulation with `NopSink` is byte-for-byte the un-instrumented
/// simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopSink;

impl Sink for NopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _now: u64, _ev: &Event) {}
}

/// Records every event (with its timestamp) into a vector.
///
/// Intended for tests: assert on exact event sequences or reconcile event
/// counts against simulator counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingSink {
    /// The recorded `(now, event)` pairs, in emission order.
    pub events: Vec<(u64, Event)>,
}

impl RecordingSink {
    /// Creates an empty recorder.
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }

    /// Counts recorded events matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&Event) -> bool) -> u64 {
        self.events.iter().filter(|(_, ev)| pred(ev)).count() as u64
    }
}

impl Sink for RecordingSink {
    fn emit(&mut self, now: u64, ev: &Event) {
        self.events.push((now, *ev));
    }

    fn reset(&mut self) {
        self.events.clear();
    }
}

/// Fans each event out to two sinks in order.
///
/// Compose freely: `Tee(stats, Tee(jsonl, chrome))`.
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Sink, B: Sink> Sink for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn emit(&mut self, now: u64, ev: &Event) {
        if A::ENABLED {
            self.0.emit(now, ev);
        }
        if B::ENABLED {
            self.1.emit(now, ev);
        }
    }

    fn reset(&mut self) {
        self.0.reset();
        self.1.reset();
    }

    fn snapshot(&self) -> Option<ObsSnapshot> {
        self.0.snapshot().or_else(|| self.1.snapshot())
    }
}

/// A shared handle to a sink, for when the driver needs to keep access to
/// the sink while the simulator owns "it" (e.g. to snapshot after a run
/// that consumed the `MemorySystem`).
#[derive(Debug, Default)]
pub struct SharedSink<S>(Rc<RefCell<S>>);

impl<S> SharedSink<S> {
    /// Wraps a sink in a shared handle.
    pub fn new(sink: S) -> SharedSink<S> {
        SharedSink(Rc::new(RefCell::new(sink)))
    }

    /// Clones the handle (both handles refer to the same sink).
    pub fn handle(&self) -> SharedSink<S> {
        SharedSink(Rc::clone(&self.0))
    }

    /// Runs a closure with shared access to the inner sink.
    pub fn with<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Unwraps the inner sink if this is the last handle.
    pub fn try_unwrap(self) -> Result<S, SharedSink<S>> {
        Rc::try_unwrap(self.0).map(RefCell::into_inner).map_err(SharedSink)
    }
}

impl<S: Sink> Sink for SharedSink<S> {
    const ENABLED: bool = S::ENABLED;

    fn emit(&mut self, now: u64, ev: &Event) {
        self.0.borrow_mut().emit(now, ev);
    }

    fn reset(&mut self) {
        self.0.borrow_mut().reset();
    }

    fn snapshot(&self) -> Option<ObsSnapshot> {
        self.0.borrow().snapshot()
    }
}

/// `None` behaves like [`NopSink`] at runtime (but keeps `S::ENABLED`
/// compile-time, since the presence of a sink is only known dynamically).
/// Lets drivers toggle an export stream with `want.then(|| sink)`.
impl<S: Sink> Sink for Option<S> {
    const ENABLED: bool = S::ENABLED;

    fn emit(&mut self, now: u64, ev: &Event) {
        if let Some(s) = self {
            s.emit(now, ev);
        }
    }

    fn reset(&mut self) {
        if let Some(s) = self {
            s.reset();
        }
    }

    fn snapshot(&self) -> Option<ObsSnapshot> {
        self.as_ref().and_then(Sink::snapshot)
    }
}

impl<S: Sink> Sink for &mut S {
    const ENABLED: bool = S::ENABLED;

    fn emit(&mut self, now: u64, ev: &Event) {
        (**self).emit(now, ev);
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn snapshot(&self) -> Option<ObsSnapshot> {
        (**self).snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_types::HandlerLevel;

    fn walk(cycles: u64) -> Event {
        Event::WalkComplete { level: HandlerLevel::User, cycles, memrefs: 1 }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn nop_sink_is_disabled() {
        assert!(!NopSink::ENABLED);
        // Emitting anyway is harmless.
        NopSink.emit(0, &walk(1));
    }

    #[test]
    fn recording_sink_records_and_resets() {
        let mut sink = RecordingSink::new();
        sink.emit(10, &walk(5));
        sink.emit(20, &walk(6));
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.count(|e| matches!(e, Event::WalkComplete { .. })), 2);
        sink.reset();
        assert!(sink.events.is_empty());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn tee_feeds_both_and_is_enabled_if_either_is() {
        let mut tee = Tee(RecordingSink::new(), RecordingSink::new());
        assert!(<Tee<RecordingSink, RecordingSink>>::ENABLED);
        assert!(<Tee<RecordingSink, NopSink>>::ENABLED);
        assert!(!<Tee<NopSink, NopSink>>::ENABLED);
        tee.emit(1, &walk(2));
        assert_eq!(tee.0.events, tee.1.events);
    }

    #[test]
    fn shared_sink_aliases_one_recorder() {
        let shared = SharedSink::new(RecordingSink::new());
        let mut handle = shared.handle();
        handle.emit(3, &walk(4));
        assert_eq!(shared.with(|s| s.events.len()), 1);
        drop(handle);
        let inner = shared.try_unwrap().ok().unwrap();
        assert_eq!(inner.events.len(), 1);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn optional_sink_observes_only_when_present() {
        let mut none: Option<RecordingSink> = None;
        none.emit(0, &walk(1));
        assert!(none.snapshot().is_none());
        let mut some = Some(RecordingSink::new());
        some.emit(0, &walk(1));
        assert_eq!(some.as_ref().unwrap().events.len(), 1);
        some.reset();
        assert!(some.as_ref().unwrap().events.is_empty());
        assert!(<Option<RecordingSink>>::ENABLED);
    }

    #[test]
    fn mut_ref_delegates() {
        let mut rec = RecordingSink::new();
        {
            let mut by_ref = &mut rec;
            Sink::emit(&mut by_ref, 0, &walk(1));
        }
        assert_eq!(rec.events.len(), 1);
    }
}
