//! Export sinks: JSONL event streams and Chrome `trace_event` JSON.
//!
//! Both sinks write through any [`std::io::Write`] and track I/O errors
//! internally instead of panicking mid-simulation; check
//! [`JsonlSink::error`] / [`ChromeTraceSink::finish`] after the run.

use std::io::Write;

use crate::event::Event;
use crate::json::Value;
use crate::sink::Sink;
use crate::stats::ObsSnapshot;

/// Streams events as JSON Lines: one object per line, schema
/// `{"t":<instrs>,"ev":<name>, …payload}`.
///
/// The line schema is stable — tools may rely on `t` and `ev` always
/// being present and on one complete JSON object per line.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<std::io::Error>,
    lines: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a JSONL sink writing to `out` (wrap files in `BufWriter`).
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out, error: None, lines: 0 }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The first I/O error encountered, if any. Once an error occurs the
    /// sink stops writing.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the writer, or the first error encountered.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn emit(&mut self, now: u64, ev: &Event) {
        if self.error.is_some() {
            return;
        }
        let line = ev.to_json(now).to_string();
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        } else {
            self.lines += 1;
        }
    }
}

/// Writes Chrome `trace_event` JSON (the format `chrome://tracing` and
/// [Perfetto](https://ui.perfetto.dev) load).
///
/// Events become instants (`"ph":"i"`) on a per-kind thread lane;
/// explicit [`span`](ChromeTraceSink::span) calls become complete events
/// (`"ph":"X"`). Timestamps are microseconds; the simulator maps one user
/// instruction to one microsecond so trace time reads as instruction
/// counts.
#[derive(Debug)]
pub struct ChromeTraceSink<W: Write> {
    out: W,
    error: Option<std::io::Error>,
    wrote_any: bool,
    pid: u64,
}

impl<W: Write> ChromeTraceSink<W> {
    /// Creates a trace sink writing to `out` and emits the opening of the
    /// JSON array plus thread-name metadata.
    pub fn new(out: W) -> ChromeTraceSink<W> {
        let mut sink = ChromeTraceSink { out, error: None, wrote_any: false, pid: 1 };
        sink.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (tid, name) in Self::LANES {
            sink.record(&Value::obj([
                ("name", "thread_name".into()),
                ("ph", "M".into()),
                ("pid", sink.pid.into()),
                ("tid", (*tid).into()),
                ("args", Value::obj([("name", (*name).into())])),
            ]));
        }
        sink
    }

    /// Thread lanes instant events are routed to, by event name.
    const LANES: &'static [(u64, &'static str)] = &[
        (1, "spans"),
        (2, "tlb_miss"),
        (3, "walk_complete"),
        (4, "interrupt"),
        (5, "flush+eviction"),
        (6, "cache_miss"),
        (7, "sweep"),
    ];

    fn lane(ev: &Event) -> u64 {
        match ev {
            Event::TlbMiss { .. } => 2,
            Event::WalkComplete { .. } => 3,
            Event::Interrupt { .. } => 4,
            Event::ContextSwitchFlush { .. }
            | Event::HandlerEviction { .. }
            | Event::TlbEviction { .. } => 5,
            Event::CacheMiss { .. } => 6,
            Event::SweepStarted { .. }
            | Event::SweepPointDone { .. }
            | Event::PointFailed { .. }
            | Event::RunResumed { .. }
            | Event::JobAdmitted { .. }
            | Event::JobShed { .. }
            | Event::JobDone { .. }
            | Event::DrainStarted { .. }
            | Event::WorkerSpawned { .. }
            | Event::WorkerCrashed { .. }
            | Event::WorkerRestarted { .. }
            | Event::BreakerTripped { .. }
            | Event::ShardDispatched { .. }
            | Event::ShardHedged { .. }
            | Event::BackendEvicted { .. }
            | Event::BackendJoined { .. }
            | Event::BackendProbation { .. }
            | Event::BackendRejoined { .. }
            | Event::BackendRecovered { .. }
            | Event::ResultDiverged { .. }
            | Event::AuditPassed { .. }
            | Event::AuditFailed { .. }
            | Event::BackendQuarantined { .. }
            | Event::FleetMerged { .. }
            | Event::UploadStarted { .. }
            | Event::ChunkReceived { .. }
            | Event::UploadCommitted { .. }
            | Event::UploadRejected { .. }
            | Event::UploadGc { .. } => 7,
        }
    }

    fn raw(&mut self, s: &str) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(s.as_bytes()) {
                self.error = Some(e);
            }
        }
    }

    fn record(&mut self, v: &Value) {
        if self.wrote_any {
            self.raw(",\n");
        } else {
            self.raw("\n");
        }
        self.wrote_any = true;
        let line = v.to_string();
        self.raw(&line);
    }

    /// Emits a complete (`"ph":"X"`) span covering `[start_us, end_us)`.
    ///
    /// Used by drivers to mark phases (warm-up, measurement) or whole
    /// jobs; `name` appears on the span, `args` as its payload.
    pub fn span(
        &mut self,
        name: &str,
        start_us: u64,
        end_us: u64,
        args: impl IntoIterator<Item = (&'static str, Value)>,
    ) {
        let v = Value::obj([
            ("name", Value::Str(name.to_owned())),
            ("ph", "X".into()),
            ("ts", start_us.into()),
            ("dur", end_us.saturating_sub(start_us).into()),
            ("pid", self.pid.into()),
            ("tid", 1u64.into()),
            ("args", Value::obj(args)),
        ]);
        self.record(&v);
    }

    /// Closes the JSON document, flushes, and returns the writer (or the
    /// first I/O error). Call this; a dropped sink leaves the file
    /// truncated mid-array.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.raw("\n]}\n");
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    /// The first I/O error encountered, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }
}

impl<W: Write> Sink for ChromeTraceSink<W> {
    fn emit(&mut self, now: u64, ev: &Event) {
        let payload = ev.to_json(now);
        let v = Value::obj([
            ("name", ev.name().into()),
            ("ph", "i".into()),
            ("ts", now.into()),
            ("pid", self.pid.into()),
            ("tid", Self::lane(ev).into()),
            ("s", "t".into()),
            ("args", Value::obj([("detail", payload)])),
        ]);
        self.record(&v);
    }
}

/// Convenience: serializes a snapshot-bearing run summary object — used
/// by the CLI to append a final `run_summary` line to a JSONL stream.
pub fn summary_line(system: &str, instructions: u64, snap: &ObsSnapshot) -> Value {
    Value::obj([
        ("t", instructions.into()),
        ("ev", "run_summary".into()),
        ("system", system.into()),
        ("snapshot", snap.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use vm_types::HandlerLevel;

    fn sample(now: u64) -> Event {
        Event::WalkComplete { level: HandlerLevel::User, cycles: now + 1, memrefs: 1 }
    }

    #[test]
    fn jsonl_writes_one_parseable_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        for t in 0..5u64 {
            sink.emit(t * 10, &sample(t));
        }
        assert_eq!(sink.lines(), 5);
        let buf = sink.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("t").unwrap().as_u64(), Some(i as u64 * 10));
            assert_eq!(v.get("ev").unwrap().as_str(), Some("walk_complete"));
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_monotonic_ts() {
        let mut sink = ChromeTraceSink::new(Vec::new());
        sink.span("measure", 0, 300, [("instrs", 300u64.into())]);
        for t in [5u64, 40, 120, 290] {
            sink.emit(t, &sample(t));
        }
        let buf = sink.finish().unwrap();
        let doc = json::parse(&String::from_utf8(buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Metadata lanes + 1 span + 4 instants.
        assert_eq!(events.len(), ChromeTraceSink::<Vec<u8>>::LANES.len() + 5);
        let mut last_ts = 0;
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            assert!(matches!(ph, "M" | "X" | "i"), "unexpected phase {ph}");
            if ph == "i" {
                let ts = ev.get("ts").unwrap().as_u64().unwrap();
                assert!(ts >= last_ts, "timestamps must be monotonic");
                last_ts = ts;
            }
        }
    }

    #[test]
    fn empty_chrome_trace_still_parses() {
        let buf = ChromeTraceSink::new(Vec::new()).finish().unwrap();
        let doc = json::parse(&String::from_utf8(buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), ChromeTraceSink::<Vec<u8>>::LANES.len());
    }

    #[test]
    fn io_errors_are_latched_not_panicked() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.emit(0, &sample(0));
        sink.emit(1, &sample(1));
        assert_eq!(sink.lines(), 0);
        assert!(sink.error().is_some());
        assert!(sink.finish().is_err());
    }

    #[test]
    fn summary_line_round_trips() {
        let snap = ObsSnapshot::default();
        let line = summary_line("ULTRIX", 1000, &snap).to_string();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ev").unwrap().as_str(), Some("run_summary"));
        assert_eq!(v.get("system").unwrap().as_str(), Some("ULTRIX"));
    }
}
