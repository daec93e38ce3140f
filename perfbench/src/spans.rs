//! In-memory spans recorded around the benchmark's calls into each
//! crate, and the self-time arithmetic over them.
//!
//! A span has a name (`crate.operation`), a start, an end, a parent (0
//! for a root), and a trace id shared by every span of one unit of work
//! (a sweep point, a service job, a fleet point). Spans stay in memory
//! while the benchmark runs and are written out once, at exit. A span's
//! self time is its duration minus the part of that interval its child
//! spans cover, overlapping children counted once.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vm_obs::json::Value;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id, or 0 for a root.
    pub parent: u64,
    /// The unit of work this span belongs to.
    pub trace: u64,
    /// `crate.operation`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

/// Collects spans when on; every method is a cheap no-op when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span whose interval was measured elsewhere. Returns its
    /// id (0 when off).
    pub fn record(&self, name: &str, parent: u64, trace: u64, start: Instant, end: Instant) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            trace,
            name: name.to_owned(),
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.lock().expect("span buffer poisoned by a panicking recorder").push(span);
        id
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent child spans on it.
    pub fn span<R>(&self, name: &str, parent: u64, trace: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            trace,
            name: name.to_owned(),
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.lock().expect("span buffer poisoned by a panicking recorder").push(span);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned by a panicking recorder").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let v = Value::obj([
                ("id", s.id.into()),
                ("parent", s.parent.into()),
                ("trace", s.trace.into()),
                ("name", s.name.clone().into()),
                ("start_ns", s.start.into()),
                ("end_ns", s.end.into()),
            ]);
            writeln!(out, "{v}")?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`:
/// overlapping intervals count once.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Aggregates spans by name, computing each span's self time against
/// its direct children.
pub fn aggregate(spans: &[Span]) -> BTreeMap<String, SpanStat> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<String, SpanStat> = BTreeMap::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let kids = children.get_mut(&s.id).map_or(0, |k| covered(s.start, s.end, k));
        let stat = out.entry(s.name.clone()).or_default();
        stat.count += 1;
        stat.total += dur;
        stat.self_ns += dur - kids.min(dur);
    }
    out
}

/// Self time per crate: the sum over span names whose prefix (before
/// the first `.`) is the crate.
pub fn self_by_crate(stats: &BTreeMap<String, SpanStat>) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (name, stat) in stats {
        let krate = name.split('.').next().unwrap_or(name);
        *out.entry(krate.to_owned()).or_default() += stat.self_ns;
    }
    out
}
