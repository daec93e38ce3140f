//! Chunked binary-trace ingestion: staging, checksums, quotas, and
//! crash-safe resume.
//!
//! An upload is a staged pair of files under `<state-dir>/ingest/`:
//!
//! * `NAME.part` — the raw trace bytes received so far, appended one
//!   verified chunk at a time and fsync'd before the chunk is
//!   acknowledged.
//! * `NAME.manifest` — a JSONL journal: one `begin` line (declared
//!   size and whole-trace FNV-1a fingerprint), then one `chunk` line
//!   per accepted chunk, written (and fsync'd) strictly *after* the
//!   part bytes are durable.
//!
//! That ordering makes a kill at any instant recoverable: on restart
//! the manifest's consistent prefix is authoritative — a torn trailing
//! manifest line is dropped, and any part-file bytes past the last
//! journaled chunk are truncated away. The client re-queries
//! `upload-status` by name and resends from the first missing sequence
//! number; re-sent bytes are identical, so the staged file (and the
//! committed trace) is byte-identical to an uninterrupted upload.
//!
//! Commit is the only gate into the trace library: the staged size
//! must equal the declaration, the incremental whole-trace fingerprint
//! must match the one declared at `upload-begin`, and every record
//! must decode ([`vm_trace::read_trace`]) before the atomic rename
//! into `<state-dir>/traces/`. A corrupted or truncated chunk can
//! therefore never produce a committed trace: each chunk is checksummed
//! on arrival, and the commit fingerprint + full decode re-verify the
//! whole staged file end to end.
//!
//! Admission control never blocks: past the staging watermark (or with
//! the job queue full — ingestion yields to the job path) `upload-begin`
//! answers `429` with a `retry_after` hint; quota breaches answer
//! `413`. Orphaned partials are garbage-collected on a TTL, swept at
//! daemon start and at each `upload-begin`.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, SystemTime};

use vm_obs::json::{self, Value};
use vm_obs::Event;
use vm_trace::wire::{b64_decode, fnv1a, Fnv1a};
use vm_trace::{valid_trace_name, TraceLibrary, TRACE_WORKLOAD_PREFIX};

use crate::proto::{backpressure_response, hex64, ok_response, ProtoError};

/// Quotas, watermarks, and TTLs for trace ingestion.
#[derive(Debug, Clone)]
pub struct IngestSettings {
    /// Largest single trace accepted, in raw bytes (declared and
    /// enforced while staging).
    pub max_trace_bytes: u64,
    /// Upload bytes one connection may declare over its lifetime.
    pub max_conn_bytes: u64,
    /// Staging-area high watermark: while total staged-but-uncommitted
    /// bytes sit at or past this, `upload-begin` answers `429` with
    /// `retry_after`. A soft bound — one admitted trace may overshoot
    /// it by its declaration (bounded by [`IngestSettings::max_trace_bytes`]),
    /// but gating on *staged* bytes means a retry can always succeed
    /// once staged uploads commit, abort, or age out.
    pub staging_watermark: u64,
    /// Idle partial uploads older than this are garbage-collected.
    pub partial_ttl: Duration,
}

/// The `retry_after` hint (milliseconds) in `429` responses.
const RETRY_AFTER_MS: u64 = 500;

impl Default for IngestSettings {
    fn default() -> IngestSettings {
        IngestSettings {
            max_trace_bytes: 64 << 20,
            max_conn_bytes: 256 << 20,
            staging_watermark: 256 << 20,
            partial_ttl: Duration::from_secs(3600),
        }
    }
}

/// Per-connection upload accounting, threaded through dispatch so one
/// connection cannot exceed its declared-byte quota across uploads.
#[derive(Debug, Default)]
pub struct ConnQuota {
    /// Raw trace bytes this connection has declared (minus what was
    /// already staged when it resumed an existing partial).
    pub declared: u64,
}

/// One open (staged, not yet committed) upload.
#[derive(Debug)]
struct Upload {
    name: String,
    declared_bytes: u64,
    declared_fnv: u64,
    staged: u64,
    next_seq: u64,
    /// Incremental FNV-1a over the staged bytes, in order.
    hash: Fnv1a,
    last_activity: SystemTime,
}

struct IngestState {
    uploads: BTreeMap<u64, Upload>,
    next_id: u64,
}

/// The daemon's ingestion state: open uploads, staging directory, and
/// the trace library commits land in.
pub struct Ingest {
    dir: PathBuf,
    library: TraceLibrary,
    settings: IngestSettings,
    state: Mutex<IngestState>,
}

impl Ingest {
    /// Opens (creating if needed) the staging area under `state_dir`
    /// and reloads resumable partial uploads left by a previous daemon
    /// lifetime. Unrecoverable staging pairs (corrupt manifest head,
    /// part file shorter than its journal claims) are deleted.
    ///
    /// # Errors
    ///
    /// Propagates staging-directory creation/scan failures.
    pub fn open(state_dir: &Path, settings: IngestSettings) -> io::Result<Ingest> {
        let dir = state_dir.join("ingest");
        std::fs::create_dir_all(&dir)?;
        let library = TraceLibrary::new(state_dir.join("traces"));
        let mut uploads = BTreeMap::new();
        let mut next_id = 1u64;
        let mut names: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let file_name = entry?.file_name();
            let file_name = file_name.to_string_lossy();
            if let Some(stem) = file_name.strip_suffix(".manifest") {
                names.push(stem.to_owned());
            }
        }
        names.sort_unstable();
        for name in names {
            match reload_partial(&dir, &name) {
                Some(upload) => {
                    uploads.insert(next_id, upload);
                    next_id += 1;
                }
                None => {
                    // Unusable: drop both files so the client restarts
                    // the upload from scratch instead of resuming junk.
                    let _ = std::fs::remove_file(dir.join(format!("{name}.part")));
                    let _ = std::fs::remove_file(dir.join(format!("{name}.manifest")));
                }
            }
        }
        Ok(Ingest { dir, library, settings, state: Mutex::new(IngestState { uploads, next_id }) })
    }

    /// The directory committed traces live in — the value for
    /// [`vm_explore::HardenPolicy::trace_library`].
    pub fn library_dir(&self) -> PathBuf {
        self.library.dir().to_path_buf()
    }

    fn lock(&self) -> MutexGuard<'_, IngestState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn part_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.part"))
    }

    fn manifest_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.manifest"))
    }

    fn remove_staging(&self, name: &str) {
        let _ = std::fs::remove_file(self.part_path(name));
        let _ = std::fs::remove_file(self.manifest_path(name));
    }

    /// Sweeps partial uploads idle past the TTL, deleting their staging
    /// files and emitting one [`Event::UploadGc`] each.
    pub fn gc(&self, emit: &dyn Fn(Event)) {
        let now = SystemTime::now();
        let mut st = self.lock();
        let expired: Vec<u64> = st
            .uploads
            .iter()
            .filter(|(_, u)| {
                now.duration_since(u.last_activity).unwrap_or(Duration::ZERO)
                    > self.settings.partial_ttl
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let upload = st.uploads.remove(&id).expect("expired id came from the map");
            self.remove_staging(&upload.name);
            emit(Event::UploadGc { upload: id, bytes: upload.staged });
        }
    }

    /// Opens a new upload, or resumes an existing partial with the same
    /// name and identical declaration. Backpressure (`429`) is returned
    /// through `Ok` — it is a complete response carrying `retry_after`,
    /// not a bare [`ProtoError`].
    ///
    /// # Errors
    ///
    /// `400` invalid name or impossible declaration, `409` name already
    /// committed or partial declared differently, `413` per-trace or
    /// per-connection quota exceeded.
    pub fn begin(
        &self,
        conn: &mut ConnQuota,
        name: &str,
        bytes: u64,
        fnv: u64,
        queue_full: bool,
        emit: &dyn Fn(Event),
    ) -> Result<Value, ProtoError> {
        let reject = |upload: u64, code: u16, msg: String| {
            emit(Event::UploadRejected { upload, code: u64::from(code) });
            Err(ProtoError::new(code, msg))
        };
        if !valid_trace_name(name) {
            return reject(
                0,
                400,
                format!(
                    "invalid trace name `{name}`: 1-64 chars of [a-z0-9._-], \
                     not starting with `.` or `-`"
                ),
            );
        }
        if self.library.contains(name) {
            return reject(0, 409, format!("trace `{name}` is already committed; pick a new name"));
        }
        if bytes < 8 {
            return reject(
                0,
                400,
                format!("declared {bytes} byte(s): smaller than a binary trace header"),
            );
        }
        if bytes > self.settings.max_trace_bytes {
            return reject(
                0,
                413,
                format!(
                    "declared {bytes} bytes exceeds the per-trace quota ({} bytes)",
                    self.settings.max_trace_bytes
                ),
            );
        }
        let mut st = self.lock();
        if let Some((&id, upload)) = st.uploads.iter_mut().find(|(_, u)| u.name == name) {
            if (upload.declared_bytes, upload.declared_fnv) != (bytes, fnv) {
                return reject(
                    id,
                    409,
                    format!(
                        "partial upload `{name}` was declared as {} bytes \
                         (fnv {}); resume with the same declaration or abort it",
                        upload.declared_bytes,
                        hex64(upload.declared_fnv)
                    ),
                );
            }
            let remaining = bytes - upload.staged;
            if conn.declared + remaining > self.settings.max_conn_bytes {
                return reject(
                    id,
                    413,
                    format!(
                        "connection upload quota exceeded ({} bytes)",
                        self.settings.max_conn_bytes
                    ),
                );
            }
            conn.declared += remaining;
            upload.last_activity = SystemTime::now();
            let (next_seq, staged) = (upload.next_seq, upload.staged);
            emit(Event::UploadStarted { upload: id, declared_bytes: bytes, staged_bytes: staged });
            return Ok(ok_response([
                ("upload", id.into()),
                ("next_seq", next_seq.into()),
                ("staged", staged.into()),
                ("resumed", Value::Bool(true)),
            ]));
        }
        if conn.declared + bytes > self.settings.max_conn_bytes {
            return reject(
                0,
                413,
                format!(
                    "connection upload quota exceeded ({} bytes)",
                    self.settings.max_conn_bytes
                ),
            );
        }
        let staged_total: u64 = st.uploads.values().map(|u| u.staged).sum();
        if staged_total >= self.settings.staging_watermark {
            emit(Event::UploadRejected { upload: 0, code: 429 });
            return Ok(backpressure_response(
                format!(
                    "staging area past its watermark ({} of {} bytes)",
                    staged_total, self.settings.staging_watermark
                ),
                RETRY_AFTER_MS,
            ));
        }
        if queue_full {
            emit(Event::UploadRejected { upload: 0, code: 429 });
            return Ok(backpressure_response(
                "job queue is full; ingestion yields to the job path",
                RETRY_AFTER_MS,
            ));
        }
        // Create the (empty) part file first, then journal the begin
        // line: a kill between the two leaves a zero-chunk manifest
        // that reloads as an empty partial — resumable from seq 0.
        File::create(self.part_path(name))
            .map_err(|e| ProtoError::new(500, format!("cannot create staging file: {e}")))?;
        let begin = Value::obj([
            ("m", "begin".into()),
            ("name", name.into()),
            ("bytes", bytes.into()),
            ("fnv", hex64(fnv).into()),
        ]);
        append_synced(&self.manifest_path(name), &format!("{begin}\n"))
            .map_err(|e| ProtoError::new(500, format!("cannot journal upload: {e}")))?;
        let id = st.next_id;
        st.next_id += 1;
        st.uploads.insert(
            id,
            Upload {
                name: name.to_owned(),
                declared_bytes: bytes,
                declared_fnv: fnv,
                staged: 0,
                next_seq: 0,
                hash: Fnv1a::new(),
                last_activity: SystemTime::now(),
            },
        );
        conn.declared += bytes;
        emit(Event::UploadStarted { upload: id, declared_bytes: bytes, staged_bytes: 0 });
        Ok(ok_response([
            ("upload", id.into()),
            ("next_seq", 0u64.into()),
            ("staged", 0u64.into()),
            ("resumed", Value::Bool(false)),
        ]))
    }

    /// Stages one chunk: base64-decode, verify its checksum, append it
    /// durably, journal it. A re-sent already-staged sequence number is
    /// acknowledged idempotently (`"dup":true`); a gap answers `409`
    /// naming the expected sequence number.
    ///
    /// # Errors
    ///
    /// `404` unknown upload, `400` bad base64 or checksum mismatch
    /// (the upload survives — resend the same chunk), `409` sequence
    /// gap, `413` chunk overruns the declared size, `500` staging I/O.
    pub fn chunk(
        &self,
        upload: u64,
        seq: u64,
        fnv: u64,
        data: &str,
        emit: &dyn Fn(Event),
    ) -> Result<Value, ProtoError> {
        let mut st = self.lock();
        let u = st
            .uploads
            .get_mut(&upload)
            .ok_or_else(|| ProtoError::new(404, format!("no open upload {upload}")))?;
        let bytes = match b64_decode(data) {
            Ok(bytes) => bytes,
            Err(e) => {
                emit(Event::UploadRejected { upload, code: 400 });
                return Err(ProtoError::new(400, format!("chunk {seq}: bad base64 ({e:?})")));
            }
        };
        if fnv1a(&bytes) != fnv {
            // Wire corruption. The staged prefix is untouched; the
            // client resends this sequence number intact.
            emit(Event::UploadRejected { upload, code: 400 });
            return Err(ProtoError::new(
                400,
                format!("chunk {seq}: checksum mismatch — resend it"),
            ));
        }
        if seq < u.next_seq {
            return Ok(ok_response([
                ("upload", upload.into()),
                ("seq", seq.into()),
                ("next_seq", u.next_seq.into()),
                ("staged", u.staged.into()),
                ("dup", Value::Bool(true)),
            ]));
        }
        if seq > u.next_seq {
            return Err(ProtoError::new(
                409,
                format!("chunk gap: expected seq {}, got {seq}", u.next_seq),
            ));
        }
        if u.staged + bytes.len() as u64 > u.declared_bytes {
            emit(Event::UploadRejected { upload, code: 413 });
            return Err(ProtoError::new(
                413,
                format!(
                    "chunk {seq} overruns the declared size ({} staged + {} > {})",
                    u.staged,
                    bytes.len(),
                    u.declared_bytes
                ),
            ));
        }
        // Durability order: part bytes first, manifest line second. A
        // kill between the two truncates the un-journaled tail at
        // reload — the chunk is simply resent.
        let name = u.name.clone();
        append_synced_bytes(&self.part_path(&name), &bytes)
            .map_err(|e| ProtoError::new(500, format!("cannot stage chunk: {e}")))?;
        let staged = u.staged + bytes.len() as u64;
        let line = Value::obj([
            ("m", "chunk".into()),
            ("seq", seq.into()),
            ("bytes", (bytes.len() as u64).into()),
            ("total", staged.into()),
        ]);
        append_synced(&self.manifest_path(&name), &format!("{line}\n"))
            .map_err(|e| ProtoError::new(500, format!("cannot journal chunk: {e}")))?;
        u.staged = staged;
        u.next_seq = seq + 1;
        u.hash.update(&bytes);
        u.last_activity = SystemTime::now();
        let next_seq = u.next_seq;
        emit(Event::ChunkReceived { upload, seq, bytes: bytes.len() as u64 });
        Ok(ok_response([
            ("upload", upload.into()),
            ("seq", seq.into()),
            ("next_seq", next_seq.into()),
            ("staged", staged.into()),
        ]))
    }

    /// Verifies and commits a fully staged upload: size check,
    /// whole-trace fingerprint check, full record-by-record decode,
    /// then an atomic rename into the trace library. On fingerprint or
    /// decode failure the staging files are deleted — the bytes match
    /// what the client declared, so resending cannot fix them.
    ///
    /// # Errors
    ///
    /// `404` unknown upload, `400` incomplete staging (upload
    /// survives), `400` fingerprint/decode failure (staging deleted),
    /// `500` library I/O.
    pub fn commit(&self, upload: u64, emit: &dyn Fn(Event)) -> Result<Value, ProtoError> {
        let mut st = self.lock();
        let u = st
            .uploads
            .get(&upload)
            .ok_or_else(|| ProtoError::new(404, format!("no open upload {upload}")))?;
        if u.staged != u.declared_bytes {
            return Err(ProtoError::new(
                400,
                format!(
                    "upload {upload} incomplete: staged {} of {} declared bytes",
                    u.staged, u.declared_bytes
                ),
            ));
        }
        if u.hash.digest() != u.declared_fnv {
            let u = st.uploads.remove(&upload).expect("present just above");
            self.remove_staging(&u.name);
            emit(Event::UploadRejected { upload, code: 400 });
            return Err(ProtoError::new(
                400,
                format!(
                    "upload {upload}: whole-trace fingerprint mismatch \
                     (staged {}, declared {}); staging discarded",
                    hex64(u.hash.digest()),
                    hex64(u.declared_fnv)
                ),
            ));
        }
        let name = u.name.clone();
        let part = self.part_path(&name);
        let records = match decode_trace_file(&part) {
            Ok(n) => n,
            Err(detail) => {
                st.uploads.remove(&upload);
                self.remove_staging(&name);
                emit(Event::UploadRejected { upload, code: 400 });
                return Err(ProtoError::new(
                    400,
                    format!("upload {upload}: staged bytes are not a valid trace: {detail}"),
                ));
            }
        };
        // Past the verification gate: the rename is the atomic commit
        // point. On failure the staging survives and commit can retry.
        self.library
            .install(&name, &part)
            .map_err(|e| ProtoError::new(500, format!("cannot install trace: {e}")))?;
        let u = st.uploads.remove(&upload).expect("present just above");
        let _ = std::fs::remove_file(self.manifest_path(&name));
        emit(Event::UploadCommitted { upload, bytes: u.staged, records });
        Ok(ok_response([
            ("upload", upload.into()),
            ("name", name.clone().into()),
            ("workload", format!("{TRACE_WORKLOAD_PREFIX}{name}").into()),
            ("bytes", u.staged.into()),
            ("records", records.into()),
            ("fnv", hex64(u.declared_fnv).into()),
        ]))
    }

    /// Abandons an open upload and deletes its staging files.
    ///
    /// # Errors
    ///
    /// `404` unknown upload.
    pub fn abort(&self, upload: u64, emit: &dyn Fn(Event)) -> Result<Value, ProtoError> {
        let mut st = self.lock();
        let u = st
            .uploads
            .remove(&upload)
            .ok_or_else(|| ProtoError::new(404, format!("no open upload {upload}")))?;
        self.remove_staging(&u.name);
        emit(Event::UploadRejected { upload, code: 499 });
        Ok(ok_response([("upload", upload.into()), ("aborted", Value::Bool(true))]))
    }

    /// Reports an upload's staging state, by id or by name. A name
    /// that is no longer staging but exists in the library reports
    /// `"state":"committed"` — the resume contract after a client
    /// reconnects (or the daemon restarts) mid- or post-upload.
    ///
    /// # Errors
    ///
    /// `404` when neither an open upload nor a committed trace matches.
    pub fn status(&self, upload: Option<u64>, name: Option<&str>) -> Result<Value, ProtoError> {
        let st = self.lock();
        let found = match upload {
            Some(id) => st.uploads.get(&id).map(|u| (id, u)),
            None => {
                let name = name.expect("proto guarantees id or name");
                st.uploads.iter().find(|(_, u)| u.name == name).map(|(&id, u)| (id, u))
            }
        };
        if let Some((id, u)) = found {
            return Ok(ok_response([
                ("upload", id.into()),
                ("name", u.name.clone().into()),
                ("state", "staging".into()),
                ("next_seq", u.next_seq.into()),
                ("staged", u.staged.into()),
                ("declared", u.declared_bytes.into()),
                ("fnv", hex64(u.declared_fnv).into()),
            ]));
        }
        if let Some(name) = name {
            if self.library.contains(name) {
                return Ok(ok_response([
                    ("name", name.into()),
                    ("state", "committed".into()),
                    ("workload", format!("{TRACE_WORKLOAD_PREFIX}{name}").into()),
                ]));
            }
        }
        Err(ProtoError::new(
            404,
            match (upload, name) {
                (Some(id), _) => format!("no open upload {id}"),
                (None, Some(name)) => format!("no upload or committed trace named `{name}`"),
                (None, None) => "no upload identified".to_owned(),
            },
        ))
    }
}

/// Appends `text` to `path` and fsyncs before returning.
fn append_synced(path: &Path, text: &str) -> io::Result<()> {
    append_synced_bytes(path, text.as_bytes())
}

fn append_synced_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Streams one staged file through the binary-trace decoder, counting
/// records; any decode fault is the error message.
fn decode_trace_file(path: &Path) -> Result<u64, String> {
    let file = File::open(path).map_err(|e| format!("cannot open staging: {e}"))?;
    let trace = vm_trace::read_trace(BufReader::new(file)).map_err(|e| format!("{e:?}"))?;
    let mut records = 0u64;
    for record in trace {
        record.map_err(|e| format!("record {records}: {e:?}"))?;
        records += 1;
    }
    Ok(records)
}

/// Rebuilds one partial upload from its staging pair, trusting the
/// manifest's consistent prefix: a torn trailing manifest line is
/// dropped, and part-file bytes past the last journaled chunk are
/// truncated. Returns `None` when the pair is unusable (corrupt
/// manifest head, part file shorter than the journal claims).
fn reload_partial(dir: &Path, name: &str) -> Option<Upload> {
    let manifest_path = dir.join(format!("{name}.manifest"));
    let part_path = dir.join(format!("{name}.part"));
    let text = std::fs::read_to_string(&manifest_path).ok()?;
    let mut lines = text.lines();
    let begin = json::parse(lines.next()?.trim()).ok()?;
    if begin.get("m").and_then(Value::as_str) != Some("begin") {
        return None;
    }
    if begin.get("name").and_then(Value::as_str) != Some(name) {
        return None;
    }
    let declared_bytes = begin.get("bytes").and_then(Value::as_u64)?;
    let declared_fnv =
        begin.get("fnv").and_then(Value::as_str).and_then(crate::proto::parse_hex64)?;
    let mut next_seq = 0u64;
    let mut total = 0u64;
    for line in lines {
        let Ok(v) = json::parse(line.trim()) else { break };
        if v.get("m").and_then(Value::as_str) != Some("chunk") {
            break;
        }
        let (Some(seq), Some(t)) =
            (v.get("seq").and_then(Value::as_u64), v.get("total").and_then(Value::as_u64))
        else {
            break;
        };
        if seq != next_seq || t < total {
            break;
        }
        next_seq = seq + 1;
        total = t;
    }
    let on_disk = std::fs::metadata(&part_path).ok()?.len();
    if on_disk < total || total > declared_bytes {
        // The durability order (part before manifest) makes this
        // impossible short of external tampering; don't resume it.
        return None;
    }
    if on_disk > total {
        let file = OpenOptions::new().write(true).open(&part_path).ok()?;
        file.set_len(total).ok()?;
    }
    let mut hash = Fnv1a::new();
    let mut reader = BufReader::new(File::open(&part_path).ok()?);
    let mut buf = [0u8; 64 << 10];
    let mut hashed = 0u64;
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                hash.update(&buf[..n]);
                hashed += n as u64;
            }
            Err(_) => return None,
        }
    }
    if hashed != total {
        return None;
    }
    let last_activity = std::fs::metadata(&manifest_path)
        .and_then(|m| m.modified())
        .unwrap_or_else(|_| SystemTime::now());
    Some(Upload {
        name: name.to_owned(),
        declared_bytes,
        declared_fnv,
        staged: total,
        next_seq,
        hash,
        last_activity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_trace::wire::b64_encode;

    fn settings() -> IngestSettings {
        IngestSettings {
            max_trace_bytes: 1 << 20,
            max_conn_bytes: 4 << 20,
            staging_watermark: 2 << 20,
            partial_ttl: Duration::from_secs(3600),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vm-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn no_events() -> impl Fn(Event) {
        |_| {}
    }

    /// A tiny but valid binary trace, as raw bytes.
    fn trace_bytes() -> Vec<u8> {
        let records = vm_trace::presets::by_name("gcc").unwrap().build(7).unwrap().take(200);
        let mut out = Vec::new();
        vm_trace::write_trace(&mut out, records).unwrap();
        out
    }

    fn stage_all(ingest: &Ingest, conn: &mut ConnQuota, name: &str, bytes: &[u8]) -> u64 {
        let emit = no_events();
        let fnv = fnv1a(bytes);
        let resp = ingest.begin(conn, name, bytes.len() as u64, fnv, false, &emit).unwrap();
        let id = resp.get("upload").and_then(Value::as_u64).unwrap();
        for (seq, chunk) in bytes.chunks(64).enumerate() {
            ingest.chunk(id, seq as u64, fnv1a(chunk), &b64_encode(chunk), &emit).unwrap();
        }
        id
    }

    #[test]
    fn upload_stages_verifies_and_commits_atomically() {
        let dir = temp_dir("commit");
        let ingest = Ingest::open(&dir, settings()).unwrap();
        let bytes = trace_bytes();
        let mut conn = ConnQuota::default();
        let id = stage_all(&ingest, &mut conn, "t1", &bytes);
        let resp = ingest.commit(id, &no_events()).unwrap();
        assert_eq!(resp.get("workload").and_then(Value::as_str), Some("trace:t1"));
        assert!(resp.get("records").and_then(Value::as_u64).unwrap() > 0);
        // Committed bytes are byte-identical to what the client sent.
        let committed = std::fs::read(dir.join("traces").join("t1.trace")).unwrap();
        assert_eq!(committed, bytes);
        // Staging is gone; the name now answers 409 on re-begin.
        assert!(!dir.join("ingest").join("t1.part").exists());
        let err = ingest
            .begin(&mut conn, "t1", bytes.len() as u64, fnv1a(&bytes), false, &no_events())
            .unwrap_err();
        assert_eq!(err.code, 409);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_chunks_and_fingerprints_never_commit() {
        let dir = temp_dir("corrupt");
        let ingest = Ingest::open(&dir, settings()).unwrap();
        let bytes = trace_bytes();
        let emit = no_events();
        let mut conn = ConnQuota::default();
        // Declare a wrong whole-trace fingerprint: every chunk passes
        // its own checksum, commit must still refuse.
        let resp = ingest
            .begin(&mut conn, "bad", bytes.len() as u64, fnv1a(&bytes) ^ 1, false, &emit)
            .unwrap();
        let id = resp.get("upload").and_then(Value::as_u64).unwrap();
        for (seq, chunk) in bytes.chunks(97).enumerate() {
            ingest.chunk(id, seq as u64, fnv1a(chunk), &b64_encode(chunk), &emit).unwrap();
        }
        let err = ingest.commit(id, &emit).unwrap_err();
        assert_eq!(err.code, 400);
        assert!(err.message.contains("fingerprint"), "{}", err.message);
        assert!(!dir.join("traces").join("bad.trace").exists(), "must never commit");
        // A chunk whose body does not match its checksum is rejected
        // and the staged prefix survives for an intact resend.
        let resp = ingest
            .begin(&mut conn, "flip", bytes.len() as u64, fnv1a(&bytes), false, &emit)
            .unwrap();
        let id = resp.get("upload").and_then(Value::as_u64).unwrap();
        let chunk = &bytes[..64];
        let mut flipped = chunk.to_vec();
        flipped[10] ^= 0x40;
        let err = ingest.chunk(id, 0, fnv1a(chunk), &b64_encode(&flipped), &emit).unwrap_err();
        assert_eq!(err.code, 400);
        let resp = ingest.chunk(id, 0, fnv1a(chunk), &b64_encode(chunk), &emit).unwrap();
        assert_eq!(resp.get("next_seq").and_then(Value::as_u64), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_gaps_dups_and_overruns_are_classified() {
        let dir = temp_dir("seq");
        let ingest = Ingest::open(&dir, settings()).unwrap();
        let bytes = trace_bytes();
        let emit = no_events();
        let mut conn = ConnQuota::default();
        let resp = ingest
            .begin(&mut conn, "seq", bytes.len() as u64, fnv1a(&bytes), false, &emit)
            .unwrap();
        let id = resp.get("upload").and_then(Value::as_u64).unwrap();
        let c0 = &bytes[..64];
        // Gap: seq 2 before anything is staged.
        let err = ingest.chunk(id, 2, fnv1a(c0), &b64_encode(c0), &emit).unwrap_err();
        assert_eq!(err.code, 409);
        assert!(err.message.contains("expected seq 0"), "{}", err.message);
        ingest.chunk(id, 0, fnv1a(c0), &b64_encode(c0), &emit).unwrap();
        // Duplicate: acked idempotently, nothing re-staged.
        let dup = ingest.chunk(id, 0, fnv1a(c0), &b64_encode(c0), &emit).unwrap();
        assert_eq!(dup.get("dup"), Some(&Value::Bool(true)));
        assert_eq!(dup.get("staged").and_then(Value::as_u64), Some(64));
        // Overrun: a chunk past the declared total is 413.
        let big = vec![0u8; bytes.len()];
        let err = ingest.chunk(id, 1, fnv1a(&big), &b64_encode(&big), &emit).unwrap_err();
        assert_eq!(err.code, 413);
        // Unknown id is 404.
        assert_eq!(ingest.chunk(999, 0, 0, "", &emit).unwrap_err().code, 404);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quotas_and_watermarks_backpressure_without_blocking() {
        let dir = temp_dir("quota");
        let mut s = settings();
        s.max_trace_bytes = 1000;
        s.max_conn_bytes = 1500;
        s.staging_watermark = 1200;
        let ingest = Ingest::open(&dir, s).unwrap();
        let emit = no_events();
        let mut conn = ConnQuota::default();
        // Per-trace quota.
        let err = ingest.begin(&mut conn, "big", 4096, 1, false, &emit).unwrap_err();
        assert_eq!(err.code, 413);
        // Stage 900 bytes (under the 1200 watermark at begin time), then
        // 400 more: the staging area is past the watermark, and the next
        // begin backpressures. The watermark gates on *staged* bytes, not
        // declarations — a retry can always succeed once staging drains.
        ingest.begin(&mut conn, "a", 900, 1, false, &emit).unwrap();
        let c = vec![7u8; 900];
        let id = ingest.status(None, Some("a")).unwrap();
        let id = id.get("upload").and_then(Value::as_u64).unwrap();
        ingest.chunk(id, 0, fnv1a(&c), &b64_encode(&c), &emit).unwrap();
        ingest.begin(&mut conn, "a2", 400, 2, false, &emit).unwrap();
        let c2 = vec![9u8; 400];
        let id2 = ingest.status(None, Some("a2")).unwrap();
        let id2 = id2.get("upload").and_then(Value::as_u64).unwrap();
        ingest.chunk(id2, 0, fnv1a(&c2), &b64_encode(&c2), &emit).unwrap();
        // The watermark is global: it backpressures even a fresh
        // connection with plenty of quota left.
        let mut conn_b = ConnQuota::default();
        let resp = ingest.begin(&mut conn_b, "b", 400, 3, false, &emit).unwrap();
        assert_eq!(resp.get("code").and_then(Value::as_u64), Some(429));
        assert!(resp.get("retry_after").and_then(Value::as_u64).is_some());
        // Queue-full also answers 429 (ingest yields to the job path).
        let resp = ingest.begin(&mut conn_b, "c", 100, 4, true, &emit).unwrap();
        assert_eq!(resp.get("code").and_then(Value::as_u64), Some(429));
        // Per-connection quota: 1300 declared, 700 more would exceed 1500.
        let err = ingest.begin(&mut conn, "d", 700, 5, false, &emit).unwrap_err();
        assert_eq!(err.code, 413);
        // Draining the staging area clears the backpressure, and a fresh
        // connection is not bound by the first one's declarations.
        ingest.abort(id, &emit).unwrap();
        ingest.abort(id2, &emit).unwrap();
        let mut conn2 = ConnQuota::default();
        let resp = ingest.begin(&mut conn2, "e", 100, 6, false, &emit).unwrap();
        assert_eq!(resp.get("code").and_then(Value::as_u64), Some(200));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_killed_daemon_resumes_the_staged_prefix_exactly() {
        let dir = temp_dir("resume");
        let bytes = trace_bytes();
        let fnv = fnv1a(&bytes);
        let split = bytes.len() / 2 - 13;
        {
            let ingest = Ingest::open(&dir, settings()).unwrap();
            let emit = no_events();
            let mut conn = ConnQuota::default();
            let resp =
                ingest.begin(&mut conn, "res", bytes.len() as u64, fnv, false, &emit).unwrap();
            let id = resp.get("upload").and_then(Value::as_u64).unwrap();
            ingest
                .chunk(id, 0, fnv1a(&bytes[..split]), &b64_encode(&bytes[..split]), &emit)
                .unwrap();
            // Simulate a crash *mid-chunk*: part bytes appended but the
            // manifest line never written (the torn tail).
            let mut f =
                OpenOptions::new().append(true).open(dir.join("ingest").join("res.part")).unwrap();
            f.write_all(&bytes[split..split + 40]).unwrap();
            // Ingest dropped here: the "daemon" dies.
        }
        let ingest = Ingest::open(&dir, settings()).unwrap();
        let emit = no_events();
        let status = ingest.status(None, Some("res")).unwrap();
        assert_eq!(status.get("staged").and_then(Value::as_u64), Some(split as u64));
        assert_eq!(status.get("next_seq").and_then(Value::as_u64), Some(1));
        let id = status.get("upload").and_then(Value::as_u64).unwrap();
        // Resume via begin with the same declaration, finish, commit.
        let mut conn = ConnQuota::default();
        let resp = ingest.begin(&mut conn, "res", bytes.len() as u64, fnv, false, &emit).unwrap();
        assert_eq!(resp.get("resumed"), Some(&Value::Bool(true)));
        assert_eq!(resp.get("upload").and_then(Value::as_u64), Some(id));
        ingest.chunk(id, 1, fnv1a(&bytes[split..]), &b64_encode(&bytes[split..]), &emit).unwrap();
        ingest.commit(id, &emit).unwrap();
        let committed = std::fs::read(dir.join("traces").join("res.trace")).unwrap();
        assert_eq!(committed, bytes, "resumed upload must be byte-identical");
        // A different declaration for the same partial is a 409.
        {
            let dir2 = temp_dir("resume2");
            let ingest = Ingest::open(&dir2, settings()).unwrap();
            let mut conn = ConnQuota::default();
            ingest.begin(&mut conn, "x", 1000, 5, false, &emit).unwrap();
            let err = ingest.begin(&mut conn, "x", 1001, 5, false, &emit).unwrap_err();
            assert_eq!(err.code, 409);
            let _ = std::fs::remove_dir_all(&dir2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_partials_are_garbage_collected_on_ttl() {
        let dir = temp_dir("gc");
        let mut s = settings();
        s.partial_ttl = Duration::ZERO;
        let ingest = Ingest::open(&dir, s).unwrap();
        let mut conn = ConnQuota::default();
        ingest.begin(&mut conn, "old", 1000, 9, false, &no_events()).unwrap();
        // TTL zero: any age beyond "this instant" is expired.
        std::thread::sleep(Duration::from_millis(20));
        let mut gcd = Vec::new();
        let events = std::sync::Mutex::new(&mut gcd);
        ingest.gc(&|ev| events.lock().unwrap().push(ev));
        assert!(
            matches!(gcd.as_slice(), [Event::UploadGc { .. }]),
            "expected one gc event, got {gcd:?}"
        );
        assert!(!dir.join("ingest").join("old.part").exists());
        assert_eq!(ingest.status(None, Some("old")).unwrap_err().code, 404);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_names_and_small_declarations_are_rejected_up_front() {
        let dir = temp_dir("names");
        let ingest = Ingest::open(&dir, settings()).unwrap();
        let mut conn = ConnQuota::default();
        for name in ["", ".hidden", "-dash", "UPPER", "a/b", "a b"] {
            let err = ingest.begin(&mut conn, name, 100, 1, false, &no_events()).unwrap_err();
            assert_eq!(err.code, 400, "name {name:?}");
        }
        let err = ingest.begin(&mut conn, "tiny", 4, 1, false, &no_events()).unwrap_err();
        assert_eq!(err.code, 400);
        assert!(err.message.contains("header"), "{}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
