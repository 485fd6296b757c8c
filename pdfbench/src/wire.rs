//! A std-only `pdf-wire v1` client and the daemon child process.
//!
//! The benchmark speaks the wire protocol itself instead of using
//! `pdf_serve::ServeClient`, so that a change to the client library
//! cannot change what the `serve-mix` workload measures: the daemon is
//! timed from outside, over its socket, exactly as any client sees it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The greeting every connection opens with.
pub const HEADER: &str = "pdf-wire v1";

/// Status poll interval of [`Conn::wait_terminal`].
pub const POLL: Duration = Duration::from_millis(1);

/// Longest frame the client accepts; the daemon caps lines at 64 KiB.
const MAX_LINE: u64 = 64 * 1024 + 2;

/// `k=v` fields of a frame, in wire order.
pub type Fields = Vec<(String, String)>;

/// One response frame (the benchmark never asks for the `item`/`end`
/// streams of `list` and `watch`).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Ok(Fields),
    Blob(Vec<String>),
    Err(String),
}

/// The value of `key` in `fields`.
pub fn field<'a>(fields: &'a Fields, key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Splits `k=v` tokens; a `msg=` key takes the rest of the line.
fn parse_fields(rest: &str) -> Result<Fields, String> {
    let mut fields = Vec::new();
    let mut rest = rest.trim_start();
    while !rest.is_empty() {
        let (key, after) = rest
            .split_once('=')
            .ok_or_else(|| format!("expected k=v in {rest:?}"))?;
        if key == "msg" {
            fields.push((key.to_string(), after.to_string()));
            break;
        }
        let (value, next) = after.split_once(' ').unwrap_or((after, ""));
        fields.push((key.to_string(), value.to_string()));
        rest = next.trim_start();
    }
    Ok(fields)
}

/// One client connection, generic over its two halves so tests can
/// replay a canned transcript.
pub struct Conn<R, W> {
    reader: R,
    writer: W,
}

impl Conn<BufReader<TcpStream>, TcpStream> {
    /// Connects to `addr` and checks the greeting.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Conn::new(BufReader::new(reader), stream)
    }
}

impl<R: BufRead, W: Write> Conn<R, W> {
    /// Wraps an open connection whose greeting is next on `reader`.
    pub fn new(reader: R, writer: W) -> Result<Self, String> {
        let mut conn = Conn { reader, writer };
        let greeting = conn.line()?;
        if greeting != HEADER {
            return Err(format!("greeting {greeting:?}, want {HEADER:?}"));
        }
        Ok(conn)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut buf = Vec::new();
        let n = (&mut self.reader)
            .take(MAX_LINE)
            .read_until(b'\n', &mut buf)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 || buf.last() != Some(&b'\n') {
            return Err("connection closed mid-frame".into());
        }
        buf.pop();
        String::from_utf8(buf).map_err(|_| "frame is not UTF-8".into())
    }

    fn frame(&mut self) -> Result<Frame, String> {
        let line = self.line()?;
        let (tag, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        match tag {
            "ok" => Ok(Frame::Ok(parse_fields(rest)?)),
            "err" => Ok(Frame::Err(rest.to_string())),
            "blob" => {
                let n: usize = field(&parse_fields(rest)?, "n")
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n <= 1_000_000)
                    .ok_or_else(|| format!("bad blob header {line:?}"))?;
                let mut lines = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let payload = self.line()?;
                    let body = payload
                        .strip_prefix('|')
                        .ok_or("blob line without | prefix")?;
                    lines.push(body.to_string());
                }
                Ok(Frame::Blob(lines))
            }
            other => Err(format!("unknown frame tag {other:?}")),
        }
    }

    /// Sends one request line and reads its (first) response frame.
    pub fn request(&mut self, line: &str) -> Result<Frame, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("write: {e}"))?;
        self.writer.flush().map_err(|e| format!("flush: {e}"))?;
        self.frame()
    }

    fn expect_ok(&mut self, line: &str) -> Result<Fields, String> {
        match self.request(line)? {
            Frame::Ok(fields) => Ok(fields),
            other => Err(format!("{line:?} answered {other:?}")),
        }
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.expect_ok("ping").map(|_| ())
    }

    /// Submits a campaign; returns its id.
    pub fn submit(&mut self, spec: &Spec) -> Result<u64, String> {
        let line = format!(
            "submit subject={} seed={} execs={} shards=1 sync={} mode=full",
            spec.subject, spec.seed, spec.execs, spec.sync_every
        );
        let fields = self.expect_ok(&line)?;
        field(&fields, "id")
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| format!("submit answered without id: {fields:?}"))
    }

    /// Polls `status` every [`POLL`] until the campaign is terminal;
    /// returns its final status fields. (`watch` would stream the same
    /// end state, but the daemon checks for it only every 25 ms, which
    /// rounds every latency up to a 25 ms step.)
    pub fn wait_terminal(&mut self, id: u64) -> Result<Fields, String> {
        loop {
            let status = self.expect_ok(&format!("status id={id}"))?;
            if matches!(
                field(&status, "state"),
                Some("done" | "failed" | "cancelled")
            ) {
                return Ok(status);
            }
            std::thread::sleep(POLL);
        }
    }

    /// The daemon's `pdf-metrics v1` snapshot text.
    pub fn metrics(&mut self) -> Result<String, String> {
        match self.request("metrics")? {
            Frame::Blob(lines) => Ok(lines.join("\n") + "\n"),
            other => Err(format!("metrics answered {other:?}")),
        }
    }

    pub fn shutdown(&mut self) -> Result<(), String> {
        self.expect_ok("shutdown").map(|_| ())
    }
}

/// The campaign fields the benchmark submits: one shard, full
/// instrumentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub subject: &'static str,
    pub seed: u64,
    pub execs: u64,
    pub sync_every: u64,
}

/// A daemon child process; killed and reaped on drop if it is still
/// running.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts `pdfbench serve-daemon` (this executable) on a fresh
    /// state directory and waits until it answers `ping`. Returns the
    /// daemon and the time from spawn to the first answered ping.
    pub fn spawn(state_dir: &Path, workers: usize) -> Result<(Daemon, Duration), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let start = Instant::now();
        let mut child = Command::new(exe)
            .arg("serve-daemon")
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--workers")
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let mut first = String::new();
        BufReader::new(stdout)
            .read_line(&mut first)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = first
            .trim()
            .strip_prefix(LISTENING)
            .ok_or_else(|| format!("daemon printed {first:?}"))?
            .to_string();
        loop {
            if Conn::connect(&daemon.addr)
                .and_then(|mut c| c.ping())
                .is_ok()
            {
                return Ok((daemon, start.elapsed()));
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon never answered ping".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Graceful wire `shutdown`, then waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        Conn::connect(&self.addr)?.shutdown()?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What `serve-daemon` prints before the bound address.
pub const LISTENING: &str = "listening on ";

/// `pdfbench serve-daemon --state-dir DIR --workers N`: the body of
/// `pdfserved`, with a persistent state directory and default server
/// limits, listening on an ephemeral localhost port.
pub fn serve_daemon(args: &[String]) -> Result<(), String> {
    use pdf_serve::{DaemonConfig, Server, ServerConfig};
    let arg = |name: &str| {
        args.windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].clone())
            .ok_or_else(|| format!("serve-daemon needs {name}"))
    };
    let state_dir = arg("--state-dir")?;
    let workers: usize = arg("--workers")?
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or("--workers must be a positive integer")?;
    let daemon = std::sync::Arc::new(
        pdf_serve::Daemon::open(DaemonConfig::persistent(workers, state_dir))
            .map_err(|e| format!("open daemon: {e}"))?,
    );
    let mut server = Server::start_with(
        std::sync::Arc::clone(&daemon),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    println!("{LISTENING}{}", server.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    server.wait_shutdown();
    server.stop();
    daemon.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn conn(transcript: &str) -> Conn<Cursor<Vec<u8>>, Vec<u8>> {
        Conn::new(Cursor::new(transcript.as_bytes().to_vec()), Vec::new()).unwrap()
    }

    #[test]
    fn replays_a_canned_transcript() {
        let mut c = conn(concat!(
            "pdf-wire v1\n",
            "ok pong=1\n",
            "ok id=7\n",
            "ok id=7 state=running subject=mjs seed=3 execs=4000 shards=1 sync=500 mode=full epoch=1 spent=500 valid=2\n",
            "ok id=7 state=done subject=mjs seed=3 execs=4000 shards=1 sync=500 mode=full epoch=8 spent=4000 valid=9 digest=00000000deadbeef coverage=0000000000abcdef\n",
            "blob n=2\n",
            "|pdf-metrics v1\n",
            "|counter execs 12\n",
            "err code=no-such-campaign msg=campaign 99 does not exist\n",
        ));
        c.ping().unwrap();
        let spec = Spec {
            subject: "mjs",
            seed: 3,
            execs: 4000,
            sync_every: 500,
        };
        assert_eq!(c.submit(&spec).unwrap(), 7);
        let end = c.wait_terminal(7).unwrap();
        assert_eq!(field(&end, "state"), Some("done"));
        assert_eq!(field(&end, "spent"), Some("4000"));
        assert_eq!(field(&end, "digest"), Some("00000000deadbeef"));
        assert_eq!(c.metrics().unwrap(), "pdf-metrics v1\ncounter execs 12\n");
        assert_eq!(
            c.request("status id=99").unwrap(),
            Frame::Err("code=no-such-campaign msg=campaign 99 does not exist".into())
        );
        let sent = String::from_utf8(c.writer.clone()).unwrap();
        assert_eq!(
            sent,
            "ping\nsubmit subject=mjs seed=3 execs=4000 shards=1 sync=500 mode=full\n\
             status id=7\nstatus id=7\nmetrics\nstatus id=99\n"
        );
    }

    #[test]
    fn rejects_bad_greetings_and_torn_frames() {
        assert!(Conn::new(Cursor::new(b"http/1.1\n".to_vec()), Vec::new()).is_err());
        let mut c = conn("pdf-wire v1\nok pong");
        assert!(c.ping().is_err(), "a frame without newline is torn");
        let mut c = conn("pdf-wire v1\nblob n=2\n|one\n");
        assert!(c.metrics().is_err());
        let mut c = conn("pdf-wire v1\nhello there\n");
        assert!(c.ping().is_err());
    }

    #[test]
    fn msg_field_keeps_the_rest_of_the_line() {
        let f = parse_fields("id=3 state=failed msg=epoch slice panicked: x=1").unwrap();
        assert_eq!(field(&f, "msg"), Some("epoch slice panicked: x=1"));
        assert_eq!(field(&f, "state"), Some("failed"));
    }
}
