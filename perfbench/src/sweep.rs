//! Journaled sweeps whose journal writes are timestamped, so the
//! benchmark sees when each point finished without any hook inside the
//! executor.
//!
//! `run_sweep_hardened` appends one journal line per point from the
//! worker thread that ran it, right after the point's measurement. A
//! journal target that notes the time and thread of every write
//! therefore delimits each point: it ran from the previous write on the
//! same thread (or the sweep's start) until its own write.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use vm_explore::{ExecConfig, HardenPolicy, PointResult, SweepOutcome, SweepPlan};
use vm_harden::journal::SyncWrite;
use vm_harden::JournalWriter;
use vm_obs::{NopSink, Reporter};

use crate::spans::Tracer;

/// One journal write: which line kind and point it carried, on which
/// thread, and when.
#[derive(Debug, Clone)]
pub struct JournalWrite {
    /// `run`, `point`, `assign`, ...
    pub kind: String,
    /// The point index the line names (`index` or `point` field).
    pub point: Option<u64>,
    /// The writing thread.
    pub thread: ThreadId,
    /// When the write began.
    pub start: Instant,
    /// When the write (and any sync it triggered) ended.
    pub end: Instant,
}

/// A journal target that forwards to `inner` and timestamps each write.
pub struct TimedWriter<W> {
    inner: W,
    log: Arc<Mutex<Vec<JournalWrite>>>,
}

impl<W> TimedWriter<W> {
    /// Wraps `inner`; the log is shared with the caller.
    pub fn new(inner: W) -> (TimedWriter<W>, Arc<Mutex<Vec<JournalWrite>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (TimedWriter { inner, log: Arc::clone(&log) }, log)
    }
}

/// The value of `"key":<digits>` in a JSON line, without a full parse.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The value of `"j":"<kind>"` in a journal line.
fn line_kind(line: &str) -> String {
    line.split("\"j\":\"").nth(1).and_then(|r| r.split('"').next()).unwrap_or("").to_owned()
}

impl<W: Write> Write for TimedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        self.inner.write_all(buf)?;
        let end = Instant::now();
        let head = String::from_utf8_lossy(&buf[..buf.len().min(96)]);
        let kind = line_kind(&head);
        let point = field_u64(&head, "index").or_else(|| field_u64(&head, "point"));
        let entry = JournalWrite { kind, point, thread: std::thread::current().id(), start, end };
        self.log.lock().expect("journal log poisoned").push(entry);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<W: SyncWrite> SyncWrite for TimedWriter<W> {
    fn sync(&mut self) -> io::Result<()> {
        // A batched fsync lands on the write that triggered it: extend
        // that write's interval to cover it.
        let r = self.inner.sync();
        if let Some(last) = self.log.lock().expect("journal log poisoned").last_mut() {
            last.end = Instant::now();
        }
        r
    }
}

/// One finished sweep and the timing the journal revealed.
#[derive(Debug)]
pub struct SweepRun {
    /// Wall time of `run_sweep_hardened`.
    pub wall: Duration,
    /// The executor's outcome, in point order.
    pub outcome: SweepOutcome,
    /// Per point: (index, start, journal write start, journal write end).
    pub points: Vec<(u64, Instant, Instant, Instant)>,
}

impl SweepRun {
    /// Summed point busy time (start to journaled).
    pub fn busy(&self) -> Duration {
        self.points.iter().map(|&(_, s, _, e)| e.saturating_duration_since(s)).sum()
    }

    /// The completed results, in point order.
    pub fn results(&self) -> Vec<PointResult> {
        self.outcome.results().cloned().collect()
    }
}

/// Runs `plan` through `run_sweep_hardened`, journaling every point to
/// `journal` through a [`TimedWriter`], and records the sweep and its
/// points as spans under `parent`.
///
/// # Errors
///
/// Returns a message when the journal cannot be finished.
pub fn journaled<W: SyncWrite + Send + 'static>(
    plan: &SweepPlan,
    exec: &ExecConfig,
    policy: &HardenPolicy,
    journal: W,
    tracer: &Tracer,
    parent: u64,
) -> Result<SweepRun, String> {
    let (timed, log) = TimedWriter::new(journal);
    let mut writer = JournalWriter::boxed(timed);
    writer.header(&vm_explore::run_header(plan, exec));
    let writer = Mutex::new(writer);
    let started = Instant::now();
    let outcome = vm_explore::run_sweep_hardened(
        plan,
        exec,
        policy,
        BTreeMap::new(),
        &Reporter::silent(),
        &mut NopSink,
        Some(&writer),
    );
    let wall = started.elapsed();
    writer
        .into_inner()
        .expect("journal lock poisoned")
        .finish()
        .map_err(|e| format!("sweep journal: {e}"))?;
    let writes = std::mem::take(&mut *log.lock().expect("journal log poisoned"));
    let mut last_end: HashMap<ThreadId, Instant> = HashMap::new();
    let mut points = Vec::new();
    for w in writes.iter().filter(|w| w.kind == "point") {
        let begun = last_end.insert(w.thread, w.end).unwrap_or(started);
        points.push((w.point.unwrap_or(u64::MAX), begun, w.start, w.end));
    }
    let sweep = tracer.record("explore.sweep", parent, 0, started, started + wall);
    for &(ix, s, ws, we) in &points {
        let p = tracer.record("explore.point", sweep, ix, s, we);
        tracer.record("harden.journal_append", p, ix, ws, we);
    }
    Ok(SweepRun { wall, outcome, points })
}
