//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, both single JSON
//! objects. Requests carry a `req` field naming the operation; responses
//! carry `ok` plus an HTTP-flavored `code` so shell clients can branch
//! without parsing prose:
//!
//! ```text
//! {"req":"submit","spec":"[mmu]\nkind=...","sweep":["tlb.entries=32,64"],"scale":"quick"}
//! {"ok":true,"code":200,"job":1,"points":2,"degraded":false,"queue_depth":1}
//! {"req":"status","job":1}
//! {"req":"result","job":1}
//! {"ok":false,"code":503,"shed":true,"error":"queue full (8 queued)"}
//! ```
//!
//! The codes are a vocabulary, not an HTTP implementation: `200` served,
//! `202` not finished yet, `400` malformed request or spec, `404`
//! unknown job, `409` upload conflict (sequence gap, name collision),
//! `413` request line or upload quota exceeded, `429` upload
//! backpressure (always with `"retry_after"` milliseconds), `500`
//! internal fault, `503` shed (queue full or daemon draining — always
//! with `"shed":true` so overload is explicit, never silent).
//!
//! Upload verbs (`upload-begin`/`upload-chunk`/`upload-commit`/
//! `upload-abort`/`upload-status`) move binary trace bytes as base64
//! chunk bodies; 64-bit checksums cross the wire as 16-hex-digit
//! strings because a JSON number is an `f64` and drops bits past 2^53.

use vm_explore::RunScale;
use vm_obs::json::{self, Value};

/// Protocol version, reported by `health`.
pub const PROTO_VERSION: u64 = 1;

/// A protocol-level rejection: status code plus human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// HTTP-flavored status code (400, 404, 413, 500, 503, ...).
    pub code: u16,
    /// Human-readable reason.
    pub message: String,
}

impl ProtoError {
    /// Builds an error with `code` and `message`.
    pub fn new(code: u16, message: impl Into<String>) -> ProtoError {
        ProtoError { code, message: message.into() }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Requested run scale for a submitted sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Smoke-test lengths ([`RunScale::QUICK`]).
    Quick,
    /// Full experiment lengths ([`RunScale::DEFAULT`]).
    #[default]
    Default,
}

impl Scale {
    /// The `(warmup, measure)` instruction counts this scale names.
    pub fn lengths(self) -> (u64, u64) {
        let scale = match self {
            Scale::Quick => RunScale::QUICK,
            Scale::Default => RunScale::DEFAULT,
        };
        (scale.warmup, scale.measure)
    }
}

/// One submitted sweep: a spec, optional axes, and run-length knobs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubmitRequest {
    /// The system spec, as TOML text (the same dialect `repro explore
    /// --spec` reads).
    pub spec: String,
    /// Sweep axes in `key=v1,v2,...` grammar (empty = the base point).
    pub sweep: Vec<String>,
    /// Named run scale; explicit `warmup`/`measure` override it.
    pub scale: Scale,
    /// Explicit warm-up instruction count.
    pub warmup: Option<u64>,
    /// Explicit measured instruction count.
    pub measure: Option<u64>,
    /// Walk-cycle budget per point (None = unlimited).
    pub point_budget: Option<u64>,
    /// Retries for transient point failures.
    pub retries: Option<u32>,
    /// Free-form client tag, echoed in status responses.
    pub tag: Option<String>,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a sweep for execution.
    Submit(SubmitRequest),
    /// Poll a job's lifecycle state and progress.
    Status {
        /// The job id to poll.
        job: u64,
    },
    /// Fetch a finished job's results.
    Result {
        /// The job id to fetch.
        job: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job id to cancel.
        job: u64,
    },
    /// Liveness probe: daemon state and queue occupancy.
    Health,
    /// Lifetime counters and latency/queue-depth histograms.
    Stats,
    /// Stop admitting work and drain (same path as SIGTERM).
    Drain,
    /// Subscribe to live progress frames for one job (`Some(id)`) or
    /// for everything the daemon does (`None`, requested as `"*"` or by
    /// omitting `job`). The connection becomes a one-way frame stream —
    /// see `docs/live.md` for the frame schema and lag semantics.
    Watch {
        /// The job to watch, or `None` for all jobs.
        job: Option<u64>,
    },
    /// Open (or resume) a staged trace upload.
    UploadBegin {
        /// The library name the trace will commit under.
        name: String,
        /// Total raw bytes the client will send.
        bytes: u64,
        /// FNV-1a fingerprint over the whole raw trace.
        fnv: u64,
    },
    /// Stage one chunk of an open upload.
    UploadChunk {
        /// The upload id from `upload-begin`.
        upload: u64,
        /// The chunk's sequence number (0-based, contiguous).
        seq: u64,
        /// FNV-1a checksum over the chunk's raw (decoded) bytes.
        fnv: u64,
        /// The chunk body, base64-encoded.
        data: String,
    },
    /// Verify and commit a fully staged upload into the trace library.
    UploadCommit {
        /// The upload id to commit.
        upload: u64,
    },
    /// Abandon an open upload and delete its staging files.
    UploadAbort {
        /// The upload id to abort.
        upload: u64,
    },
    /// Query an upload's staging state — by id, or by name so a client
    /// that reconnected (or outlived a daemon restart) can find its
    /// partial and resume from the first missing sequence number.
    UploadStatus {
        /// The upload id, when known.
        upload: Option<u64>,
        /// The upload's library name (resume path).
        name: Option<String>,
    },
}

/// Encodes a `u64` checksum/fingerprint for the wire (16 hex digits).
#[must_use]
pub fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

/// Decodes [`hex64`]: exactly 16 *lowercase* hex digits, nothing else.
/// Encoders only emit the canonical form, so the strictness costs
/// nothing — and it keeps a checksum byte-for-byte re-renderable
/// (`from_str_radix` alone would admit uppercase and a leading `+`,
/// two renderings of one value).
#[must_use]
pub fn parse_hex64(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a 400 [`ProtoError`] naming what was malformed or missing.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let bad = |msg: String| ProtoError::new(400, msg);
    let v = json::parse(line).map_err(|e| bad(format!("bad JSON: {e}")))?;
    let req = v
        .get("req")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing `req` field".to_owned()))?;
    let job = || {
        v.get("job")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad(format!("`{req}` needs a numeric `job` id")))
    };
    match req {
        "submit" => Ok(Request::Submit(parse_submit(&v)?)),
        "status" => Ok(Request::Status { job: job()? }),
        "result" => Ok(Request::Result { job: job()? }),
        "cancel" => Ok(Request::Cancel { job: job()? }),
        "health" => Ok(Request::Health),
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        "watch" => {
            let job = match v.get("job") {
                None => None,
                Some(Value::Str(s)) if s == "*" => None,
                Some(j) => Some(j.as_u64().ok_or_else(|| {
                    bad("`watch` needs a numeric `job` id, \"*\", or no `job` at all".to_owned())
                })?),
            };
            Ok(Request::Watch { job })
        }
        "upload-begin" => {
            let name = v
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("`upload-begin` needs a `name` string".to_owned()))?
                .to_owned();
            let bytes = v
                .get("bytes")
                .and_then(Value::as_u64)
                .ok_or_else(|| bad("`upload-begin` needs a numeric `bytes` total".to_owned()))?;
            Ok(Request::UploadBegin { name, bytes, fnv: fnv_field(&v, "upload-begin")? })
        }
        "upload-chunk" => {
            let upload = upload_id(&v, req)?;
            let seq = v
                .get("seq")
                .and_then(Value::as_u64)
                .ok_or_else(|| bad("`upload-chunk` needs a numeric `seq`".to_owned()))?;
            let data = v
                .get("data")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("`upload-chunk` needs a base64 `data` body".to_owned()))?
                .to_owned();
            Ok(Request::UploadChunk { upload, seq, fnv: fnv_field(&v, "upload-chunk")?, data })
        }
        "upload-commit" => Ok(Request::UploadCommit { upload: upload_id(&v, req)? }),
        "upload-abort" => Ok(Request::UploadAbort { upload: upload_id(&v, req)? }),
        "upload-status" => {
            let upload = match v.get("upload") {
                None | Some(Value::Null) => None,
                Some(u) => Some(u.as_u64().ok_or_else(|| {
                    bad("`upload-status` `upload` must be a numeric id".to_owned())
                })?),
            };
            let name = v.get("name").and_then(Value::as_str).map(str::to_owned);
            if upload.is_none() && name.is_none() {
                return Err(bad("`upload-status` needs an `upload` id or a `name`".to_owned()));
            }
            Ok(Request::UploadStatus { upload, name })
        }
        other => Err(bad(format!("unknown request `{other}`"))),
    }
}

/// The numeric `upload` id field shared by the chunk/commit/abort verbs.
fn upload_id(v: &Value, req: &str) -> Result<u64, ProtoError> {
    v.get("upload")
        .and_then(Value::as_u64)
        .ok_or_else(|| ProtoError::new(400, format!("`{req}` needs a numeric `upload` id")))
}

/// The 16-hex-digit `fnv` checksum field of the upload verbs.
fn fnv_field(v: &Value, req: &str) -> Result<u64, ProtoError> {
    v.get("fnv").and_then(Value::as_str).and_then(parse_hex64).ok_or_else(|| {
        ProtoError::new(400, format!("`{req}` needs an `fnv` checksum (16 hex digits)"))
    })
}

fn parse_submit(v: &Value) -> Result<SubmitRequest, ProtoError> {
    let bad = |msg: String| ProtoError::new(400, msg);
    let spec = v
        .get("spec")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("`submit` needs a `spec` string (TOML text)".to_owned()))?
        .to_owned();
    let sweep = match v.get("sweep") {
        None => Vec::new(),
        Some(arr) => arr
            .as_array()
            .ok_or_else(|| bad("`sweep` must be an array of axis strings".to_owned()))?
            .iter()
            .map(|a| {
                a.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| bad("`sweep` entries must be strings".to_owned()))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let scale = match v.get("scale").and_then(Value::as_str) {
        None => Scale::Default,
        Some("quick") => Scale::Quick,
        Some("default") => Scale::Default,
        Some(other) => return Err(bad(format!("unknown scale `{other}` (quick|default)"))),
    };
    let int = |key: &str| -> Result<Option<u64>, ProtoError> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(n) => n
                .as_u64()
                .map(Some)
                .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
        }
    };
    Ok(SubmitRequest {
        spec,
        sweep,
        scale,
        warmup: int("warmup")?,
        measure: int("measure")?,
        point_budget: int("point_budget")?,
        retries: int("retries")?.map(|r| r.min(u32::MAX as u64) as u32),
        tag: v.get("tag").and_then(Value::as_str).map(str::to_owned),
    })
}

/// Builds a success response: `ok:true`, `code:200`, then `fields`.
pub fn ok_response(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    let mut pairs: Vec<(String, Value)> =
        vec![("ok".to_owned(), Value::Bool(true)), ("code".to_owned(), 200u64.into())];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
    Value::Obj(pairs)
}

/// Builds a failure response. Shed rejections (code 503) additionally
/// carry `"shed":true` so overload is machine-distinguishable.
pub fn error_response(e: &ProtoError) -> Value {
    let mut pairs: Vec<(String, Value)> =
        vec![("ok".to_owned(), Value::Bool(false)), ("code".to_owned(), u64::from(e.code).into())];
    if e.code == 503 {
        pairs.push(("shed".to_owned(), Value::Bool(true)));
    }
    pairs.push(("error".to_owned(), e.message.clone().into()));
    Value::Obj(pairs)
}

/// Builds a 429-style backpressure response: the standard error shape
/// plus `"retry_after"` (milliseconds) telling the client when trying
/// again is worthwhile. Explicit shed, never a blocked connection.
pub fn backpressure_response(message: impl Into<String>, retry_after_ms: u64) -> Value {
    let mut v = error_response(&ProtoError::new(429, message));
    let Value::Obj(pairs) = &mut v else { unreachable!("error_response builds an object") };
    pairs.push(("retry_after".to_owned(), retry_after_ms.into()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_parses_with_defaults_and_overrides() {
        let line = r#"{"req":"submit","spec":"[mmu]","sweep":["tlb.entries=32,64"],"scale":"quick","tag":"t1"}"#;
        let Request::Submit(s) = parse_request(line).unwrap() else { panic!("not submit") };
        assert_eq!(s.spec, "[mmu]");
        assert_eq!(s.sweep, ["tlb.entries=32,64"]);
        assert_eq!(s.scale, Scale::Quick);
        assert_eq!(s.scale.lengths(), (200_000, 500_000));
        assert_eq!(s.warmup, None);
        assert_eq!(s.tag.as_deref(), Some("t1"));

        let line = r#"{"req":"submit","spec":"x","warmup":1000,"measure":2000,"retries":2,"point_budget":500}"#;
        let Request::Submit(s) = parse_request(line).unwrap() else { panic!("not submit") };
        assert_eq!(s.scale, Scale::Default);
        assert_eq!((s.warmup, s.measure), (Some(1000), Some(2000)));
        assert_eq!(s.retries, Some(2));
        assert_eq!(s.point_budget, Some(500));
    }

    #[test]
    fn job_requests_need_a_numeric_id() {
        for req in ["status", "result", "cancel"] {
            let ok = parse_request(&format!(r#"{{"req":"{req}","job":7}}"#)).unwrap();
            match ok {
                Request::Status { job } | Request::Result { job } | Request::Cancel { job } => {
                    assert_eq!(job, 7)
                }
                other => panic!("unexpected {other:?}"),
            }
            let err = parse_request(&format!(r#"{{"req":"{req}","job":"x"}}"#)).unwrap_err();
            assert_eq!(err.code, 400);
        }
    }

    #[test]
    fn watch_parses_job_star_and_absent() {
        assert_eq!(
            parse_request(r#"{"req":"watch","job":5}"#).unwrap(),
            Request::Watch { job: Some(5) }
        );
        assert_eq!(
            parse_request(r#"{"req":"watch","job":"*"}"#).unwrap(),
            Request::Watch { job: None }
        );
        assert_eq!(parse_request(r#"{"req":"watch"}"#).unwrap(), Request::Watch { job: None });
        assert_eq!(parse_request(r#"{"req":"watch","job":"x"}"#).unwrap_err().code, 400);
        assert_eq!(parse_request(r#"{"req":"watch","job":-1}"#).unwrap_err().code, 400);
    }

    #[test]
    fn malformed_requests_are_400() {
        for line in [
            "not json",
            "{}",
            r#"{"req":"warp"}"#,
            r#"{"req":"submit"}"#,
            r#"{"req":"submit","spec":"x","scale":"warp"}"#,
            r#"{"req":"submit","spec":"x","sweep":"not-an-array"}"#,
            r#"{"req":"submit","spec":"x","warmup":-4}"#,
        ] {
            assert_eq!(parse_request(line).unwrap_err().code, 400, "{line}");
        }
    }

    #[test]
    fn upload_verbs_parse_with_hex_checksums() {
        let fnv = 0xdead_beef_0123_4567u64;
        let line = format!(
            r#"{{"req":"upload-begin","name":"gcc-run","bytes":4096,"fnv":"{}"}}"#,
            hex64(fnv)
        );
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::UploadBegin { name: "gcc-run".to_owned(), bytes: 4096, fnv }
        );
        let line = format!(
            r#"{{"req":"upload-chunk","upload":3,"seq":0,"fnv":"{}","data":"Zm9vYmFy"}}"#,
            hex64(fnv)
        );
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::UploadChunk { upload: 3, seq: 0, fnv, data: "Zm9vYmFy".to_owned() }
        );
        assert_eq!(
            parse_request(r#"{"req":"upload-commit","upload":3}"#).unwrap(),
            Request::UploadCommit { upload: 3 }
        );
        assert_eq!(
            parse_request(r#"{"req":"upload-abort","upload":3}"#).unwrap(),
            Request::UploadAbort { upload: 3 }
        );
        assert_eq!(
            parse_request(r#"{"req":"upload-status","name":"gcc-run"}"#).unwrap(),
            Request::UploadStatus { upload: None, name: Some("gcc-run".to_owned()) }
        );
        assert_eq!(
            parse_request(r#"{"req":"upload-status","upload":3}"#).unwrap(),
            Request::UploadStatus { upload: Some(3), name: None }
        );
    }

    #[test]
    fn malformed_upload_requests_are_400() {
        for line in [
            r#"{"req":"upload-begin","bytes":10,"fnv":"00000000000000ab"}"#, // no name
            r#"{"req":"upload-begin","name":"t","fnv":"00000000000000ab"}"#, // no bytes
            r#"{"req":"upload-begin","name":"t","bytes":10}"#,               // no fnv
            r#"{"req":"upload-begin","name":"t","bytes":10,"fnv":"xyz"}"#,   // short hex
            r#"{"req":"upload-begin","name":"t","bytes":10,"fnv":12}"#,      // numeric fnv
            r#"{"req":"upload-chunk","upload":1,"seq":0,"fnv":"00000000000000ab"}"#, // no data
            r#"{"req":"upload-chunk","seq":0,"fnv":"00000000000000ab","data":""}"#, // no id
            r#"{"req":"upload-commit"}"#,
            r#"{"req":"upload-status"}"#, // needs id or name
        ] {
            assert_eq!(parse_request(line).unwrap_err().code, 400, "{line}");
        }
    }

    #[test]
    fn hex64_round_trips_and_rejects_junk() {
        for v in [0u64, 1, u64::MAX, 0x8594_4171_f739_67e8] {
            assert_eq!(parse_hex64(&hex64(v)), Some(v));
        }
        assert_eq!(parse_hex64("ab"), None, "too short");
        assert_eq!(parse_hex64("00000000000000abcd"), None, "too long");
        assert_eq!(parse_hex64("zz944171f73967e8"), None, "not hex");
        assert_eq!(parse_hex64("85944171F73967E8"), None, "uppercase is non-canonical");
        assert_eq!(parse_hex64("+5944171f73967e8"), None, "from_str_radix signs rejected");
        assert_eq!(parse_hex64(" 5944171f73967e8"), None, "whitespace rejected");
    }

    #[test]
    fn backpressure_responses_carry_retry_after() {
        let v = backpressure_response("staging full", 250);
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(v.get("code").and_then(Value::as_u64), Some(429));
        assert_eq!(v.get("retry_after").and_then(Value::as_u64), Some(250));
        assert_eq!(v.get("shed"), None, "429 is backpressure, not shed");
        assert!(json::parse(&v.to_string()).is_ok());
    }

    #[test]
    fn responses_carry_ok_code_and_shed_marker() {
        let ok = ok_response([("job", 3u64.into())]);
        assert_eq!(ok.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(ok.get("code").and_then(Value::as_u64), Some(200));
        assert_eq!(ok.get("job").and_then(Value::as_u64), Some(3));

        let shed = error_response(&ProtoError::new(503, "queue full"));
        assert_eq!(shed.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(shed.get("shed"), Some(&Value::Bool(true)));
        let not_found = error_response(&ProtoError::new(404, "no job 9"));
        assert_eq!(not_found.get("shed"), None);
        // Responses are valid single-line JSON (the framing invariant).
        assert!(json::parse(&shed.to_string()).is_ok());
        assert!(!not_found.to_string().contains('\n'));
    }
}
