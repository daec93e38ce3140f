//! The one table of shared, read-only streams behind every measurement.
//!
//! A [`StreamTable`] builds each stream's source once, under a per-stream
//! lock that later users wait on, forgets a failed build, and gives each
//! user its own copy: a clone of the unstarted generator (whose tables
//! sit behind one `Arc`) or a cursor into a library trace's decoded
//! records. A counted source is dropped after its last counted user
//! releases it; an uncounted one lives as long as the table. The
//! experiment runner counts one user per lockstep group, the sweep
//! executor one per pending point, and a worker keeps an uncounted
//! table per request.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use vm_harden::FailureKind;
use vm_trace::{InstrRecord, LibraryError, SyntheticTrace, TraceLibrary, WorkloadSpec};

use crate::exec::lock;

/// Where a stream's records come from.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// A synthetic workload, generated from a seed.
    Synthetic(WorkloadSpec, u64),
    /// A library trace, by name (without the `trace:` prefix).
    Library(String),
}

/// One user's copy of a stream.
#[derive(Debug, Clone)]
pub enum Stream {
    /// A generator of its own, on tables shared with every other copy.
    Synthetic(SyntheticTrace),
    /// Shared decoded records and this copy's cursor into them.
    Replay(Arc<Vec<InstrRecord>>, usize),
}

impl Iterator for Stream {
    type Item = InstrRecord;

    fn next(&mut self) -> Option<InstrRecord> {
        match self {
            Stream::Synthetic(trace) => trace.next(),
            Stream::Replay(records, at) => {
                let rec = *records.get(*at)?;
                *at += 1;
                Some(rec)
            }
        }
    }
}

/// The streams of one run. See the [module docs](self).
pub struct StreamTable {
    /// Where [`Source::Library`] traces load from.
    library: Option<TraceLibrary>,
    entries: Mutex<Vec<Entry>>,
    builds: AtomicUsize,
}

/// A source, its counted users yet to release it, and its unstarted
/// stream once built. A building user holds the stream's lock.
struct Entry {
    source: Source,
    users: usize,
    stream: Arc<Mutex<Option<Stream>>>,
}

impl StreamTable {
    /// A table whose library traces load from `library`, expecting one
    /// [`release`](StreamTable::release) per item of `users`.
    pub fn new(library: Option<TraceLibrary>, users: impl IntoIterator<Item = Source>) -> Self {
        let table = StreamTable { library, entries: Mutex::default(), builds: AtomicUsize::new(0) };
        for source in users {
            table.entry(&source, 1);
        }
        table
    }

    /// Counts `users` more users of `source`, adding it if it is new,
    /// and returns its stream slot.
    fn entry(&self, source: &Source, users: usize) -> Arc<Mutex<Option<Stream>>> {
        let mut entries = lock(&self.entries);
        let at = entries.iter().position(|e| e.source == *source).unwrap_or_else(|| {
            entries.push(Entry { source: source.clone(), users: 0, stream: Arc::default() });
            entries.len() - 1
        });
        entries[at].users += users;
        Arc::clone(&entries[at].stream)
    }

    /// A copy of `source`'s stream from its start, built unless another
    /// user has built it already.
    ///
    /// # Errors
    ///
    /// A degenerate synthetic workload fails as [`FailureKind::Workload`]
    /// and a library trace that cannot be loaded as
    /// [`FailureKind::Ingest`], each with its message. The next user tries
    /// again.
    pub fn take(&self, source: &Source) -> Result<Stream, (FailureKind, String)> {
        let slot = self.entry(source, 0);
        // Valid after every step (no stream just means the next user
        // builds it), so a panicked build leaves nothing to repair.
        let mut stream = lock(&slot);
        if let Some(stream) = &*stream {
            return Ok(stream.clone());
        }
        let built = match source {
            Source::Synthetic(workload, seed) => Stream::Synthetic(
                workload.build(*seed).map_err(|e| (FailureKind::Workload, e.to_string()))?,
            ),
            Source::Library(name) => {
                let ingest = |e: LibraryError| (FailureKind::Ingest, e.to_string());
                let library =
                    self.library.as_ref().ok_or_else(|| ingest(LibraryError::NoLibrary))?;
                Stream::Replay(Arc::new(library.load(name).map_err(ingest)?), 0)
            }
        };
        self.builds.fetch_add(1, Ordering::Relaxed);
        *stream = Some(built.clone());
        Ok(built)
    }

    /// Notes that a counted user of `source` has finished; after the last
    /// one, the table drops the source.
    pub fn release(&self, source: &Source) {
        let mut entries = lock(&self.entries);
        if let Some(at) = entries.iter().position(|e| e.source == *source && e.users > 0) {
            entries[at].users -= 1;
            if entries[at].users == 0 {
                entries.swap_remove(at);
            }
        }
    }

    /// How many sources the table has built.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }
}
