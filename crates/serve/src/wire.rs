//! The `pdf-wire v1` line protocol.
//!
//! Zero-dependency, text-framed TCP, in the same `tag k=v ...` style as
//! the workspace's other codecs (`pdf-journal`, `pdf-checkpoint`,
//! `pdf-metrics`). The server greets every connection with the
//! [`WIRE_HEADER`] line; after that the client sends one
//! [`Request`] per line and reads one [`Response`] per request —
//! single-line for `ok`/`err`, multi-line for `item*`+`end` streams
//! (`list`, `watch`) and `blob` payloads (`metrics`).
//!
//! Framing rules:
//!
//! - every frame is one `\n`-terminated line of at most [`MAX_LINE`]
//!   bytes; longer lines are rejected, never buffered unboundedly;
//! - keys and values are whitespace-free tokens (no `=` in keys); the
//!   `msg` key is the exception — it must come last and captures the
//!   rest of the line verbatim;
//! - decoding rejects unknown tags, unknown keys, duplicate keys and
//!   malformed values with a [`WireError`], never a panic (fuzzed by
//!   the codec property tests).

use std::fmt;
use std::io::BufRead;

use pdf_core::ExecMode;

use crate::lifecycle::Phase;

/// The protocol greeting/version line.
pub const WIRE_HEADER: &str = "pdf-wire v1";

/// Hard cap on a single protocol line, in bytes. Defends the daemon
/// against unframed garbage on the socket.
pub const MAX_LINE: usize = 64 * 1024;

/// Why a frame could not be encoded or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The line was empty where a frame was required.
    Empty,
    /// The line exceeded [`MAX_LINE`] bytes.
    TooLong(usize),
    /// The request verb is not part of `pdf-wire v1`.
    UnknownCommand(String),
    /// A required key was missing.
    Missing(String),
    /// A key appeared that the frame does not define, or twice.
    UnexpectedKey(String),
    /// A value failed to parse.
    BadValue {
        /// The key whose value was malformed.
        key: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A campaign specification failed validation.
    BadSpec(String),
    /// The peer closed the connection mid-frame.
    UnexpectedEof,
    /// The read timed out before a complete frame arrived (the
    /// server's slowloris defense surfaces this, as does a client-side
    /// socket read timeout).
    Timeout,
    /// A response frame was malformed.
    BadResponse(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Empty => write!(f, "empty frame"),
            WireError::TooLong(n) => write!(f, "frame of {n} bytes exceeds {MAX_LINE}"),
            WireError::UnknownCommand(cmd) => write!(f, "unknown command {cmd:?}"),
            WireError::Missing(key) => write!(f, "missing key {key:?}"),
            WireError::UnexpectedKey(key) => write!(f, "unexpected or duplicate key {key:?}"),
            WireError::BadValue { key, reason } => write!(f, "bad value for {key:?}: {reason}"),
            WireError::BadSpec(what) => write!(f, "bad campaign spec: {what}"),
            WireError::UnexpectedEof => write!(f, "connection closed mid-frame"),
            WireError::Timeout => write!(f, "read timed out mid-frame"),
            WireError::BadResponse(what) => write!(f, "bad response frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A campaign submission: everything the daemon needs to build (and,
/// after a restart, rebuild) the underlying [`pdf_fleet::Fleet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Subject name ([`pdf_subjects::by_name`]).
    pub subject: String,
    /// Base RNG seed (shard `i` runs `seed + i`).
    pub seed: u64,
    /// Total execution budget across all shards.
    pub execs: u64,
    /// Worker shards inside the campaign (≥ 1; the daemon runs the
    /// shards serially inside one pool slot).
    pub shards: u64,
    /// Per-shard executions per epoch slice (≥ 1). One slice is the
    /// daemon's scheduling quantum and checkpoint interval.
    pub sync_every: u64,
    /// Instrumentation tiering for the campaign's executions.
    pub exec_mode: ExecMode,
    /// Advisory completion deadline in milliseconds, measured by the
    /// submitter (`loadgen` asserts against it); the scheduler serves
    /// nearer deadlines first.
    pub deadline_ms: Option<u64>,
    /// Client-chosen idempotency key (`key=` on the wire). A `submit`
    /// whose key matches a campaign the daemon already holds returns
    /// the *original* campaign id instead of forking a duplicate — the
    /// safe-retry contract for clients that time out mid-submit.
    pub idempotency_key: Option<String>,
}

/// The default epoch-slice length for a budget: an eighth of the
/// per-shard budget, clamped to at least 50 executions.
pub fn default_sync_every(execs: u64, shards: u64) -> u64 {
    let per_shard = (execs / shards.max(1)).max(1);
    (per_shard / 8).clamp(50, per_shard.max(50))
}

impl CampaignSpec {
    /// A single-shard, full-instrumentation spec with the default slice
    /// length and no deadline.
    pub fn new(subject: &str, seed: u64, execs: u64) -> CampaignSpec {
        CampaignSpec {
            subject: subject.to_string(),
            seed,
            execs,
            shards: 1,
            sync_every: default_sync_every(execs, 1),
            exec_mode: ExecMode::Full,
            deadline_ms: None,
            idempotency_key: None,
        }
    }

    /// Checks the structural invariants the daemon relies on. Subject
    /// *existence* is checked at submission (the daemon owns the
    /// subject registry); this checks everything checkable locally.
    ///
    /// # Errors
    ///
    /// [`WireError::BadSpec`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), WireError> {
        if !is_token(&self.subject) {
            return Err(WireError::BadSpec(format!(
                "subject {:?} is not a bare token",
                self.subject
            )));
        }
        if self.execs == 0 {
            return Err(WireError::BadSpec("execs must be at least 1".into()));
        }
        if self.shards == 0 {
            return Err(WireError::BadSpec("shards must be at least 1".into()));
        }
        if self.sync_every == 0 {
            return Err(WireError::BadSpec("sync must be at least 1".into()));
        }
        if let Some(key) = &self.idempotency_key {
            if !is_token(key) {
                return Err(WireError::BadSpec(format!(
                    "idempotency key {key:?} is not a bare token"
                )));
            }
        }
        Ok(())
    }
}

/// A point-in-time view of one campaign, as served over `status`,
/// `list` and `watch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Campaign id (daemon-assigned, monotonically increasing).
    pub id: u64,
    /// Current lifecycle phase.
    pub phase: Phase,
    /// The submitted specification.
    pub spec: CampaignSpec,
    /// Fleet synchronization epochs completed.
    pub epoch: u64,
    /// Subject executions spent so far.
    pub spent: u64,
    /// Distinct valid inputs discovered so far.
    pub valid: u64,
    /// Final [`pdf_fleet::FleetReport::digest`], present once `Done`.
    pub digest: Option<u64>,
    /// Final merged-coverage digest, present once `Done`.
    pub coverage: Option<u64>,
    /// Failure description, present once `Failed`.
    pub error: Option<String>,
}

/// A client request, one line on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a new campaign; answered with `ok id=N`.
    Submit(CampaignSpec),
    /// One campaign's status; answered with `ok <status fields>`.
    Status {
        /// Campaign id.
        id: u64,
    },
    /// Request a pause; answered with `ok id=N state=S`.
    Pause {
        /// Campaign id.
        id: u64,
    },
    /// Resume a paused campaign; answered with `ok id=N state=S`.
    Resume {
        /// Campaign id.
        id: u64,
    },
    /// Cancel a campaign; answered with `ok id=N state=S`.
    Cancel {
        /// Campaign id.
        id: u64,
    },
    /// All campaigns; answered with `item` frames then `end n=K`.
    List,
    /// Stream progress ticks (`item` frames) until the campaign is
    /// terminal, then `end <status fields>`.
    Watch {
        /// Campaign id.
        id: u64,
    },
    /// The daemon's `pdf-metrics v1` snapshot; answered with a `blob`.
    Metrics,
    /// Liveness probe; answered with `ok pong=1`.
    Ping,
    /// Graceful daemon shutdown (checkpoint everything, then exit);
    /// answered with `ok stopping=1` before the daemon quiesces.
    Shutdown,
}

/// A server response. `Ok`/`Err`/`Item`/`End` are one line each;
/// `Blob` is a `blob n=K` line followed by `K` payload lines, each
/// prefixed with `|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success, with result fields.
    Ok(Vec<(String, String)>),
    /// One element of a streamed result (`list` rows, `watch` ticks).
    Item(Vec<(String, String)>),
    /// Terminates a stream, with summary fields.
    End(Vec<(String, String)>),
    /// A multi-line text payload (e.g. a metrics snapshot).
    Blob(Vec<String>),
    /// Failure, with a machine code and human message.
    Err {
        /// Stable kebab-case error code (`no-such-campaign`, ...).
        code: String,
        /// For retryable failures (`overloaded`): how long the client
        /// should wait before trying again, in milliseconds.
        retry_after_ms: Option<u64>,
        /// Human-readable message (rest of the line, may contain
        /// spaces).
        msg: String,
    },
}

impl Response {
    /// A plain, non-retryable `err` frame.
    pub fn err(code: &str, msg: impl Into<String>) -> Response {
        Response::Err {
            code: code.to_string(),
            retry_after_ms: None,
            msg: msg.into(),
        }
    }
}

/// Whether `s` can be framed as a bare `k=v` value token.
pub fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| !c.is_whitespace() && c != '=' && c != '|')
}

/// Parses an execution-mode name, case-insensitively (`full`, `FULL`,
/// `Tiered` all work — the wire analog of `evalrunner --exec-mode`).
/// The retired `fast` mode is rejected like any unknown name.
pub fn parse_mode(s: &str) -> Result<ExecMode, WireError> {
    ExecMode::parse(s).ok_or_else(|| WireError::BadValue {
        key: "mode".into(),
        reason: format!("expected one of full, tiered; got {s:?}"),
    })
}

/// Splits `rest` into `k=v` pairs, handling the trailing rest-of-line
/// `msg=` key. Rejects keys not in `allowed` and duplicates.
pub(crate) fn parse_fields(
    rest: &str,
    allowed: &[&str],
) -> Result<Vec<(String, String)>, WireError> {
    let mut fields: Vec<(String, String)> = Vec::new();
    let mut remaining = rest.trim_start();
    while !remaining.is_empty() {
        let (key, after_key) = remaining
            .split_once('=')
            .ok_or_else(|| WireError::BadValue {
                key: remaining.split_whitespace().next().unwrap_or("").into(),
                reason: "expected k=v".into(),
            })?;
        if key.chars().any(|c| c.is_whitespace()) || key.is_empty() {
            return Err(WireError::BadValue {
                key: key.into(),
                reason: "malformed key".into(),
            });
        }
        if !allowed.contains(&key) {
            return Err(WireError::UnexpectedKey(key.into()));
        }
        if fields.iter().any(|(k, _)| k == key) {
            return Err(WireError::UnexpectedKey(key.into()));
        }
        let value;
        if key == "msg" {
            // msg consumes the rest of the line verbatim.
            value = after_key.to_string();
            remaining = "";
        } else {
            match after_key.split_once(char::is_whitespace) {
                Some((v, rest)) => {
                    value = v.to_string();
                    remaining = rest.trim_start();
                }
                None => {
                    value = after_key.to_string();
                    remaining = "";
                }
            }
            if value.is_empty() {
                return Err(WireError::BadValue {
                    key: key.into(),
                    reason: "empty value".into(),
                });
            }
        }
        fields.push((key.to_string(), value));
    }
    Ok(fields)
}

fn lookup<'a>(fields: &'a [(String, String)], key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn require<'a>(fields: &'a [(String, String)], key: &str) -> Result<&'a str, WireError> {
    lookup(fields, key).ok_or_else(|| WireError::Missing(key.into()))
}

fn parse_u64(key: &str, v: &str) -> Result<u64, WireError> {
    v.parse().map_err(|_| WireError::BadValue {
        key: key.into(),
        reason: format!("expected an integer, got {v:?}"),
    })
}

fn parse_id(fields: &[(String, String)]) -> Result<u64, WireError> {
    parse_u64("id", require(fields, "id")?)
}

fn check_line(line: &str) -> Result<&str, WireError> {
    if line.len() > MAX_LINE {
        return Err(WireError::TooLong(line.len()));
    }
    let line = line.trim_end_matches(['\r', '\n']);
    if line.trim().is_empty() {
        return Err(WireError::Empty);
    }
    Ok(line)
}

impl Request {
    /// Renders the request as its single protocol line (no newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Submit(spec) => {
                let mut line = format!(
                    "submit subject={} seed={} execs={} shards={} sync={} mode={}",
                    spec.subject,
                    spec.seed,
                    spec.execs,
                    spec.shards,
                    spec.sync_every,
                    spec.exec_mode.name(),
                );
                if let Some(d) = spec.deadline_ms {
                    line.push_str(&format!(" deadline-ms={d}"));
                }
                if let Some(k) = &spec.idempotency_key {
                    line.push_str(&format!(" key={k}"));
                }
                line
            }
            Request::Status { id } => format!("status id={id}"),
            Request::Pause { id } => format!("pause id={id}"),
            Request::Resume { id } => format!("resume id={id}"),
            Request::Cancel { id } => format!("cancel id={id}"),
            Request::List => "list".to_string(),
            Request::Watch { id } => format!("watch id={id}"),
            Request::Metrics => "metrics".to_string(),
            Request::Ping => "ping".to_string(),
            Request::Shutdown => "shutdown".to_string(),
        }
    }

    /// Parses one protocol line into a request.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; garbage and truncated frames are rejected,
    /// never panicked on.
    pub fn decode(line: &str) -> Result<Request, WireError> {
        let line = check_line(line)?;
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r),
            None => (line, ""),
        };
        let id_only =
            |rest: &str| -> Result<u64, WireError> { parse_id(&parse_fields(rest, &["id"])?) };
        let bare = |rest: &str, verb: &str| -> Result<(), WireError> {
            if rest.trim().is_empty() {
                Ok(())
            } else {
                Err(WireError::BadValue {
                    key: verb.into(),
                    reason: "takes no arguments".into(),
                })
            }
        };
        match verb {
            "submit" => {
                let fields = parse_fields(
                    rest,
                    &[
                        "subject",
                        "seed",
                        "execs",
                        "shards",
                        "sync",
                        "mode",
                        "deadline-ms",
                        "key",
                    ],
                )?;
                let subject = require(&fields, "subject")?.to_string();
                let seed = parse_u64("seed", require(&fields, "seed")?)?;
                let execs = parse_u64("execs", require(&fields, "execs")?)?;
                let shards = match lookup(&fields, "shards") {
                    Some(v) => parse_u64("shards", v)?,
                    None => 1,
                };
                let sync_every = match lookup(&fields, "sync") {
                    Some(v) => parse_u64("sync", v)?,
                    None => default_sync_every(execs, shards),
                };
                let exec_mode = match lookup(&fields, "mode") {
                    Some(v) => parse_mode(v)?,
                    None => ExecMode::Full,
                };
                let deadline_ms = match lookup(&fields, "deadline-ms") {
                    Some(v) => Some(parse_u64("deadline-ms", v)?),
                    None => None,
                };
                let idempotency_key = lookup(&fields, "key").map(str::to_string);
                let spec = CampaignSpec {
                    subject,
                    seed,
                    execs,
                    shards,
                    sync_every,
                    exec_mode,
                    deadline_ms,
                    idempotency_key,
                };
                spec.validate()?;
                Ok(Request::Submit(spec))
            }
            "status" => Ok(Request::Status { id: id_only(rest)? }),
            "pause" => Ok(Request::Pause { id: id_only(rest)? }),
            "resume" => Ok(Request::Resume { id: id_only(rest)? }),
            "cancel" => Ok(Request::Cancel { id: id_only(rest)? }),
            "watch" => Ok(Request::Watch { id: id_only(rest)? }),
            "list" => bare(rest, "list").map(|()| Request::List),
            "metrics" => bare(rest, "metrics").map(|()| Request::Metrics),
            "ping" => bare(rest, "ping").map(|()| Request::Ping),
            "shutdown" => bare(rest, "shutdown").map(|()| Request::Shutdown),
            other => Err(WireError::UnknownCommand(other.to_string())),
        }
    }
}

fn encode_fields(tag: &str, fields: &[(String, String)]) -> String {
    let mut line = tag.to_string();
    for (i, (k, v)) in fields.iter().enumerate() {
        debug_assert!(is_token(k), "unencodable key {k:?}");
        // A `msg` value is the rest of the line, so it may only close it.
        debug_assert!(k != "msg" || i + 1 == fields.len(), "msg key must be last");
        debug_assert!(k == "msg" || is_token(v), "unencodable value {v:?}");
        line.push(' ');
        line.push_str(k);
        line.push('=');
        line.push_str(v);
    }
    line
}

/// Every key a status/ok/item/end frame may carry.
pub(crate) const RESPONSE_KEYS: [&str; 19] = [
    "id",
    "state",
    "subject",
    "seed",
    "execs",
    "shards",
    "sync",
    "mode",
    "deadline-ms",
    "key",
    "epoch",
    "spent",
    "valid",
    "digest",
    "coverage",
    "n",
    "pong",
    "stopping",
    "msg",
];

impl Response {
    /// Renders the response as its wire bytes, including the trailing
    /// newline (and the payload lines of a `blob`).
    pub fn encode(&self) -> String {
        match self {
            Response::Ok(fields) => encode_fields("ok", fields) + "\n",
            Response::Item(fields) => encode_fields("item", fields) + "\n",
            Response::End(fields) => encode_fields("end", fields) + "\n",
            Response::Err {
                code,
                retry_after_ms,
                msg,
            } => {
                debug_assert!(is_token(code), "unencodable error code {code:?}");
                match retry_after_ms {
                    Some(ms) => format!("err code={code} retry-after-ms={ms} msg={msg}\n"),
                    None => format!("err code={code} msg={msg}\n"),
                }
            }
            Response::Blob(lines) => {
                let mut out = format!("blob n={}\n", lines.len());
                for l in lines {
                    debug_assert!(!l.contains('\n'), "blob line contains newline");
                    out.push('|');
                    out.push_str(l);
                    out.push('\n');
                }
                out
            }
        }
    }

    /// Reads one response frame from `reader` (one line, plus payload
    /// lines for a `blob`).
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] on a closed connection, any other
    /// [`WireError`] on malformed frames. I/O errors surface as
    /// [`WireError::BadResponse`].
    pub fn read(reader: &mut impl BufRead) -> Result<Response, WireError> {
        let line = read_capped_line(reader)?;
        let line = check_line(&line)?;
        let (tag, rest) = match line.split_once(char::is_whitespace) {
            Some((t, r)) => (t, r),
            None => (line, ""),
        };
        let keys: Vec<&str> = RESPONSE_KEYS.to_vec();
        match tag {
            "ok" => Ok(Response::Ok(parse_fields(rest, &keys)?)),
            "item" => Ok(Response::Item(parse_fields(rest, &keys)?)),
            "end" => Ok(Response::End(parse_fields(rest, &keys)?)),
            "err" => {
                let fields = parse_fields(rest, &["code", "retry-after-ms", "msg"])?;
                Ok(Response::Err {
                    code: require(&fields, "code")?.to_string(),
                    retry_after_ms: lookup(&fields, "retry-after-ms")
                        .map(|v| parse_u64("retry-after-ms", v))
                        .transpose()?,
                    msg: lookup(&fields, "msg").unwrap_or("").to_string(),
                })
            }
            "blob" => {
                let fields = parse_fields(rest, &["n"])?;
                let n = parse_u64("n", require(&fields, "n")?)?;
                if n > 1_000_000 {
                    return Err(WireError::BadValue {
                        key: "n".into(),
                        reason: format!("blob of {n} lines refused"),
                    });
                }
                let mut lines = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let payload = read_capped_line(reader)?;
                    let payload = payload.trim_end_matches(['\r', '\n']);
                    let body = payload.strip_prefix('|').ok_or_else(|| {
                        WireError::BadResponse("blob payload line missing | prefix".into())
                    })?;
                    lines.push(body.to_string());
                }
                Ok(Response::Blob(lines))
            }
            other => Err(WireError::BadResponse(format!("unknown tag {other:?}"))),
        }
    }
}

/// Reads one line, refusing to buffer more than [`MAX_LINE`] bytes.
pub fn read_capped_line<R: BufRead>(reader: &mut R) -> Result<String, WireError> {
    let mut buf = Vec::new();
    let mut limited = <&mut R as std::io::Read>::take(reader, (MAX_LINE + 2) as u64);
    let n = limited.read_until(b'\n', &mut buf).map_err(|e| {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::Timeout,
            // A connection that dies mid-frame is a (dirty) EOF, not a
            // protocol violation — callers retry or close, not complain.
            std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => WireError::UnexpectedEof,
            _ => WireError::BadResponse(format!("io: {e}")),
        }
    })?;
    if n == 0 {
        return Err(WireError::UnexpectedEof);
    }
    if buf.len() > MAX_LINE {
        return Err(WireError::TooLong(buf.len()));
    }
    // EOF mid-frame: a torn write delivered a prefix with no newline.
    // That prefix must never parse as a complete frame — `ok id=` cut
    // from `ok id=35` is a *different*, wrong message.
    if buf.last() != Some(&b'\n') {
        return Err(WireError::UnexpectedEof);
    }
    String::from_utf8(buf).map_err(|_| WireError::BadResponse("frame is not UTF-8".into()))
}

/// Renders a status as response fields, the payload of `ok` (status),
/// `item` (list rows, watch ticks) and `end` (watch terminations).
pub fn status_fields(s: &CampaignStatus) -> Vec<(String, String)> {
    let mut fields = vec![
        ("id".to_string(), s.id.to_string()),
        ("state".to_string(), s.phase.name().to_string()),
        ("subject".to_string(), s.spec.subject.clone()),
        ("seed".to_string(), s.spec.seed.to_string()),
        ("execs".to_string(), s.spec.execs.to_string()),
        ("shards".to_string(), s.spec.shards.to_string()),
        ("sync".to_string(), s.spec.sync_every.to_string()),
        ("mode".to_string(), s.spec.exec_mode.name().to_string()),
        ("epoch".to_string(), s.epoch.to_string()),
        ("spent".to_string(), s.spent.to_string()),
        ("valid".to_string(), s.valid.to_string()),
    ];
    if let Some(d) = s.spec.deadline_ms {
        fields.push(("deadline-ms".to_string(), d.to_string()));
    }
    if let Some(k) = &s.spec.idempotency_key {
        fields.push(("key".to_string(), k.clone()));
    }
    if let Some(d) = s.digest {
        fields.push(("digest".to_string(), format!("{d:016x}")));
    }
    if let Some(c) = s.coverage {
        fields.push(("coverage".to_string(), format!("{c:016x}")));
    }
    if let Some(e) = &s.error {
        // msg must come last: it captures the rest of the line.
        fields.push(("msg".to_string(), e.clone()));
    }
    fields
}

/// Reconstructs a status from response fields (the inverse of
/// [`status_fields`]).
///
/// # Errors
///
/// [`WireError`] when a required field is missing or malformed.
pub fn status_from_fields(fields: &[(String, String)]) -> Result<CampaignStatus, WireError> {
    let phase = Phase::parse(require(fields, "state")?).ok_or_else(|| WireError::BadValue {
        key: "state".into(),
        reason: "unknown phase".into(),
    })?;
    let hex = |key: &str| -> Result<Option<u64>, WireError> {
        lookup(fields, key)
            .map(|v| {
                u64::from_str_radix(v, 16).map_err(|_| WireError::BadValue {
                    key: key.into(),
                    reason: format!("expected a hex digest, got {v:?}"),
                })
            })
            .transpose()
    };
    Ok(CampaignStatus {
        id: parse_id(fields)?,
        phase,
        spec: CampaignSpec {
            subject: require(fields, "subject")?.to_string(),
            seed: parse_u64("seed", require(fields, "seed")?)?,
            execs: parse_u64("execs", require(fields, "execs")?)?,
            shards: parse_u64("shards", require(fields, "shards")?)?,
            sync_every: parse_u64("sync", require(fields, "sync")?)?,
            exec_mode: parse_mode(require(fields, "mode")?)?,
            deadline_ms: lookup(fields, "deadline-ms")
                .map(|v| parse_u64("deadline-ms", v))
                .transpose()?,
            idempotency_key: lookup(fields, "key").map(str::to_string),
        },
        epoch: parse_u64("epoch", require(fields, "epoch")?)?,
        spent: parse_u64("spent", require(fields, "spent")?)?,
        valid: parse_u64("valid", require(fields, "valid")?)?,
        digest: hex("digest")?,
        coverage: hex("coverage")?,
        error: lookup(fields, "msg").map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            subject: "arith".into(),
            seed: 7,
            execs: 4000,
            shards: 2,
            sync_every: 250,
            exec_mode: ExecMode::Tiered,
            deadline_ms: Some(9000),
            idempotency_key: Some("retry-7".into()),
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit(spec()),
            Request::Submit(CampaignSpec::new("mjs", 1, 500)),
            Request::Status { id: 3 },
            Request::Pause { id: 0 },
            Request::Resume { id: u64::MAX },
            Request::Cancel { id: 12 },
            Request::List,
            Request::Watch { id: 4 },
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.encode();
            assert_eq!(Request::decode(&line).unwrap(), req, "line {line:?}");
        }
    }

    #[test]
    fn submit_defaults_fill_in() {
        let req = Request::decode("submit subject=dyck seed=3 execs=800").unwrap();
        let Request::Submit(s) = req else {
            panic!("not a submit")
        };
        assert_eq!(s.shards, 1);
        assert_eq!(s.sync_every, default_sync_every(800, 1));
        assert_eq!(s.exec_mode, ExecMode::Full);
        assert_eq!(s.deadline_ms, None);
    }

    #[test]
    fn mode_is_case_insensitive() {
        for raw in ["TIERED", "Tiered", "tiered"] {
            let req = Request::decode(&format!("submit subject=a seed=1 execs=10 mode={raw}"));
            let Ok(Request::Submit(s)) = req else {
                panic!("mode {raw:?} rejected")
            };
            assert_eq!(s.exec_mode, ExecMode::Tiered);
        }
        assert!(matches!(
            Request::decode("submit subject=a seed=1 execs=10 mode=warp"),
            Err(WireError::BadValue { .. })
        ));
    }

    #[test]
    fn retired_fast_mode_is_rejected() {
        for raw in ["fast", "FAST"] {
            let req = Request::decode(&format!("submit subject=a seed=1 execs=10 mode={raw}"));
            assert!(
                matches!(&req, Err(WireError::BadValue { key, .. }) if key == "mode"),
                "mode={raw} gave {req:?}"
            );
        }
    }

    #[test]
    fn garbage_rejected_without_panic() {
        for bad in [
            "",
            "   ",
            "frobnicate id=1",
            "status",
            "status id=",
            "status id=abc",
            "status id=1 id=2",
            "status id=1 extra=2",
            "submit subject=a seed=1 execs=0",
            "submit subject=a seed=1 execs=5 shards=0",
            "submit subject=a seed=1 execs=5 sync=0",
            "submit seed=1 execs=5",
            "list id=1",
            "ping pong",
            "submit subject==bad seed=1 execs=5",
        ] {
            assert!(Request::decode(bad).is_err(), "accepted {bad:?}");
        }
        let long = format!("status id={}", "9".repeat(MAX_LINE));
        assert!(matches!(Request::decode(&long), Err(WireError::TooLong(_))));
    }

    #[test]
    fn responses_round_trip() {
        let status = CampaignStatus {
            id: 5,
            phase: Phase::Done,
            spec: spec(),
            epoch: 9,
            spent: 4000,
            valid: 17,
            digest: Some(0xdead_beef),
            coverage: Some(0x1234),
            error: None,
        };
        let resps = [
            Response::Ok(vec![("id".into(), "5".into())]),
            Response::Ok(status_fields(&status)),
            Response::Item(vec![
                ("id".into(), "1".into()),
                ("state".into(), "queued".into()),
            ]),
            Response::End(vec![("n".into(), "3".into())]),
            Response::Blob(vec![
                "pdf-metrics v1".into(),
                "counter name=execs value=1".into(),
            ]),
            Response::Blob(Vec::new()),
            Response::err("no-such-campaign", "campaign 99 does not exist"),
            Response::Err {
                code: "overloaded".into(),
                retry_after_ms: Some(250),
                msg: "queue is full".into(),
            },
        ];
        for resp in resps {
            let bytes = resp.encode();
            let mut reader = std::io::BufReader::new(bytes.as_bytes());
            assert_eq!(
                Response::read(&mut reader).unwrap(),
                resp,
                "bytes {bytes:?}"
            );
        }
    }

    #[test]
    fn status_fields_round_trip() {
        for phase in Phase::ALL {
            let status = CampaignStatus {
                id: 42,
                phase,
                spec: spec(),
                epoch: 3,
                spent: 1200,
                valid: 4,
                digest: phase.is_terminal().then_some(0xabcd),
                coverage: phase.is_terminal().then_some(0xef01),
                error: (phase == Phase::Failed).then(|| "epoch slice panicked: boom".to_string()),
            };
            let back = status_from_fields(&status_fields(&status)).unwrap();
            assert_eq!(back, status);
        }
    }

    #[test]
    fn truncated_blob_is_eof_not_panic() {
        let bytes = "blob n=3\n|only one line\n";
        let mut reader = std::io::BufReader::new(bytes.as_bytes());
        assert_eq!(Response::read(&mut reader), Err(WireError::UnexpectedEof));
    }
}
