//! A blocking `pdf-wire v1` client, used by `servecli`, `loadgen`,
//! `evalrunner --submit` and the serve test-suite.
//!
//! [`ServeClient`] is the raw single-connection client: any transport
//! hiccup is the caller's problem. [`RetryClient`] wraps it with the
//! fault-model contract: jittered-exponential reconnect on transport
//! errors, honoring the server's `retry-after-ms` hint on `overloaded`
//! sheds, and deterministic idempotency keys on submit so a retried
//! submission can never fork a duplicate campaign.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use pdf_chaos::Backoff;
use pdf_runtime::Digest;

use crate::wire::{
    read_capped_line, status_from_fields, CampaignSpec, CampaignStatus, Request, Response,
    WireError, WIRE_HEADER,
};

/// A client-side protocol or transport failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(std::io::Error),
    /// The server spoke something other than `pdf-wire v1`.
    Protocol(WireError),
    /// The server answered with an `err` frame.
    Server {
        /// The machine-readable error code.
        code: String,
        /// The server's retry hint (present on `overloaded`).
        retry_after_ms: Option<u64>,
        /// The human-readable message.
        msg: String,
    },
    /// The server answered with an unexpected frame kind.
    Unexpected(String),
    /// A wait ran out of time.
    Timeout,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, msg, .. } => write!(f, "server error [{code}]: {msg}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
            ClientError::Timeout => write!(f, "timed out"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// One connection to a `pdf-serve` daemon.
#[derive(Debug)]
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn get<'a>(fields: &'a [(String, String)], key: &str) -> Result<&'a str, ClientError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| ClientError::Unexpected(format!("response missing {key:?}")))
}

impl ServeClient {
    /// Connects to `addr` and verifies the server's greeting.
    ///
    /// # Errors
    ///
    /// Transport errors, or a greeting that is not [`WIRE_HEADER`].
    pub fn connect(addr: &str) -> Result<ServeClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // One request per line and every frame waited on: Nagle +
        // delayed ACK would add ~40ms per round trip on loopback.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let greeting = read_capped_line(&mut reader)?;
        if greeting.trim_end() != WIRE_HEADER {
            return Err(ClientError::Unexpected(format!(
                "greeting {:?}, want {WIRE_HEADER:?}",
                greeting.trim_end()
            )));
        }
        Ok(ServeClient { reader, writer })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        writeln!(self.writer, "{}", req.encode())?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        match Response::read(&mut self.reader)? {
            Response::Err {
                code,
                retry_after_ms,
                msg,
            } => Err(ClientError::Server {
                code,
                retry_after_ms,
                msg,
            }),
            other => Ok(other),
        }
    }

    fn expect_ok(&mut self, req: &Request) -> Result<Vec<(String, String)>, ClientError> {
        match self.roundtrip(req)? {
            Response::Ok(fields) => Ok(fields),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Submits a campaign; returns its daemon-assigned id.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; `Server` with code `bad-spec`,
    /// `unknown-subject` or `stopping` on refused submissions.
    pub fn submit(&mut self, spec: &CampaignSpec) -> Result<u64, ClientError> {
        let fields = self.expect_ok(&Request::Submit(spec.clone()))?;
        get(&fields, "id")?
            .parse()
            .map_err(|_| ClientError::Unexpected("non-numeric id".into()))
    }

    /// Fetches one campaign's status.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; `Server` with code `no-such-campaign` for
    /// unknown ids.
    pub fn status(&mut self, id: u64) -> Result<CampaignStatus, ClientError> {
        let fields = self.expect_ok(&Request::Status { id })?;
        Ok(status_from_fields(&fields)?)
    }

    fn phase_request(&mut self, req: Request) -> Result<String, ClientError> {
        let fields = self.expect_ok(&req)?;
        Ok(get(&fields, "state")?.to_string())
    }

    /// Requests a pause; returns the phase after the request (still
    /// `running` when the pause is pending a slice boundary).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; `illegal-transition` when not pausable.
    pub fn pause(&mut self, id: u64) -> Result<String, ClientError> {
        self.phase_request(Request::Pause { id })
    }

    /// Resumes a paused campaign.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; `illegal-transition` when not resumable.
    pub fn resume(&mut self, id: u64) -> Result<String, ClientError> {
        self.phase_request(Request::Resume { id })
    }

    /// Requests cancellation.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; `illegal-transition` when already terminal.
    pub fn cancel(&mut self, id: u64) -> Result<String, ClientError> {
        self.phase_request(Request::Cancel { id })
    }

    /// Lists every campaign the daemon knows.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn list(&mut self) -> Result<Vec<CampaignStatus>, ClientError> {
        writeln!(self.writer, "{}", Request::List.encode())?;
        self.writer.flush()?;
        let mut out = Vec::new();
        loop {
            match self.read_response()? {
                Response::Item(fields) => out.push(status_from_fields(&fields)?),
                Response::End(_) => return Ok(out),
                other => return Err(ClientError::Unexpected(format!("{other:?}"))),
            }
        }
    }

    /// Streams progress ticks for campaign `id`, invoking `tick` for
    /// each update, until the campaign is terminal; returns the final
    /// status.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn watch(
        &mut self,
        id: u64,
        mut tick: impl FnMut(&CampaignStatus),
    ) -> Result<CampaignStatus, ClientError> {
        writeln!(self.writer, "{}", Request::Watch { id }.encode())?;
        self.writer.flush()?;
        loop {
            match self.read_response()? {
                Response::Item(fields) => tick(&status_from_fields(&fields)?),
                Response::End(fields) => return Ok(status_from_fields(&fields)?),
                other => return Err(ClientError::Unexpected(format!("{other:?}"))),
            }
        }
    }

    /// Fetches the daemon's `pdf-metrics v1` snapshot text.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Blob(lines) => Ok(lines.join("\n") + "\n"),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Ping).map(|_| ())
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Shutdown).map(|_| ())
    }

    /// Polls `status` until campaign `id` reaches a terminal phase or
    /// `timeout` elapses; returns the terminal status.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] on expiry, otherwise any
    /// [`ClientError`] from the polling.
    pub fn wait_terminal(
        &mut self,
        id: u64,
        timeout: Duration,
    ) -> Result<CampaignStatus, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status(id)?;
            if status.phase.is_terminal() {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Retry knobs for [`RetryClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First backoff window.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// How many *failed* attempts before giving up (total tries =
    /// `max_retries + 1`).
    pub max_retries: u32,
    /// Jitter seed; the whole retry schedule is a pure function of it.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            max_retries: 8,
            seed: 0x7e7e_7e7e,
        }
    }
}

/// Whether this failure is worth a reconnect-and-retry: transport
/// deaths and mid-frame drops are; coherent server refusals (bad spec,
/// unknown subject, illegal transition) are not. `overloaded` and
/// `timeout` server codes are retryable — the server itself asked the
/// client to come back.
fn retryable(e: &ClientError) -> bool {
    match e {
        ClientError::Io(_) => true,
        ClientError::Protocol(WireError::UnexpectedEof | WireError::Timeout) => true,
        ClientError::Protocol(WireError::BadResponse(msg)) => msg.starts_with("io: "),
        ClientError::Server { code, .. } => code == "overloaded" || code == "timeout",
        _ => false,
    }
}

/// A self-healing client: lazily connects, reconnects with seeded
/// jittered-exponential backoff on transport failure, and honors the
/// server's `retry-after-ms` shed hints. See the [module docs](self).
#[derive(Debug)]
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    inner: Option<ServeClient>,
    /// Total reconnect/retry sleeps performed (introspection for tests
    /// and CLI diagnostics).
    retries: u64,
    /// How many of those retries were server shed hints
    /// (`err code=overloaded retry-after-ms=N`) rather than transport
    /// failures.
    sheds: u64,
}

impl RetryClient {
    /// A client for `addr` with the default [`RetryPolicy`]. Does not
    /// connect yet; the first call does (with retries).
    pub fn new(addr: &str) -> RetryClient {
        RetryClient::with_policy(addr, RetryPolicy::default())
    }

    /// A client with explicit retry knobs.
    pub fn with_policy(addr: &str, policy: RetryPolicy) -> RetryClient {
        RetryClient {
            addr: addr.to_string(),
            policy,
            inner: None,
            retries: 0,
            sheds: 0,
        }
    }

    /// How many retry sleeps this client has performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// How many retries were load-shed hints from the server (a subset
    /// of [`retries`](Self::retries)).
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Runs `f` against a connected [`ServeClient`], reconnecting and
    /// retrying per the policy. The retry loop:
    ///
    /// - transport failure → drop the connection, sleep the next
    ///   backoff window, reconnect, re-run `f`;
    /// - `err code=overloaded retry-after-ms=N` → sleep the *larger* of
    ///   `N` and the backoff window, re-run `f`;
    /// - any other server refusal → return it immediately (retrying a
    ///   `bad-spec` will never make it good);
    /// - `max_retries` failures → return the last error.
    ///
    /// **Retried operations must be idempotent.** [`submit`](Self::submit)
    /// makes itself so via idempotency keys; status/list/watch/ping are
    /// naturally so.
    ///
    /// # Errors
    ///
    /// The last [`ClientError`] once retries are exhausted, or the
    /// first non-retryable one.
    pub fn with_client<T>(
        &mut self,
        mut f: impl FnMut(&mut ServeClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut backoff = Backoff::new(self.policy.base, self.policy.cap, self.policy.seed);
        loop {
            let attempt = (|| -> Result<T, ClientError> {
                if self.inner.is_none() {
                    self.inner = Some(ServeClient::connect(&self.addr)?);
                }
                f(self.inner.as_mut().expect("just connected"))
            })();
            match attempt {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if !retryable(&e) || backoff.attempts() >= self.policy.max_retries {
                        return Err(e);
                    }
                    let hinted = match &e {
                        ClientError::Server {
                            retry_after_ms: Some(ms),
                            ..
                        } => {
                            self.sheds += 1;
                            Some(Duration::from_millis(*ms))
                        }
                        _ => {
                            // Transport error: the connection is suspect.
                            self.inner = None;
                            None
                        }
                    };
                    let delay = backoff.next_delay().max(hinted.unwrap_or(Duration::ZERO));
                    self.retries += 1;
                    std::thread::sleep(delay);
                }
            }
        }
    }

    /// Submits a campaign, retrying safely: when the spec carries no
    /// idempotency key, a deterministic one is derived from the spec
    /// and the policy seed, so a resubmission after a lost reply
    /// returns the original campaign id instead of forking a
    /// duplicate.
    ///
    /// # Errors
    ///
    /// As [`with_client`](Self::with_client).
    pub fn submit(&mut self, spec: &CampaignSpec) -> Result<u64, ClientError> {
        let mut spec = spec.clone();
        if spec.idempotency_key.is_none() {
            let mut key = Digest::new();
            key.write_u64(self.policy.seed);
            key.write_str(&Request::Submit(spec.clone()).encode());
            spec.idempotency_key = Some(format!("auto-{:016x}", key.finish()));
        }
        self.with_client(|c| c.submit(&spec))
    }

    /// Fetches one campaign's status, with retries.
    ///
    /// # Errors
    ///
    /// As [`with_client`](Self::with_client).
    pub fn status(&mut self, id: u64) -> Result<CampaignStatus, ClientError> {
        self.with_client(|c| c.status(id))
    }

    /// Liveness probe, with retries.
    ///
    /// # Errors
    ///
    /// As [`with_client`](Self::with_client).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.with_client(|c| c.ping())
    }

    /// Fetches the daemon's metrics snapshot, with retries.
    ///
    /// # Errors
    ///
    /// As [`with_client`](Self::with_client).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.with_client(|c| c.metrics())
    }

    /// Streams progress ticks like [`ServeClient::watch`], but
    /// reconnects and re-issues the watch when the stream drops
    /// mid-campaign (ticks may repeat across a reconnect; the final
    /// status never does).
    ///
    /// # Errors
    ///
    /// As [`with_client`](Self::with_client).
    pub fn watch(
        &mut self,
        id: u64,
        mut tick: impl FnMut(&CampaignStatus),
    ) -> Result<CampaignStatus, ClientError> {
        self.with_client(|c| c.watch(id, &mut tick))
    }

    /// Polls until campaign `id` is terminal or `timeout` elapses,
    /// reconnecting through transport failures.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] on expiry, otherwise as
    /// [`with_client`](Self::with_client).
    pub fn wait_terminal(
        &mut self,
        id: u64,
        timeout: Duration,
    ) -> Result<CampaignStatus, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status(id)?;
            if status.phase.is_terminal() {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
