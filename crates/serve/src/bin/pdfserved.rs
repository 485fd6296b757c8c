//! `pdfserved` — run the fuzzing-as-a-service daemon.
//!
//! ```text
//! pdfserved --listen 127.0.0.1:7700 --workers 4 --state-dir /var/lib/pdf-serve
//! ```
//!
//! Usage: pdfserved [--listen ADDR] [--workers N] [--state-dir DIR]
//!                  [--max-queued N] [--max-conns N] [--read-timeout-ms N]
//!
//! An unknown, repeated or malformed flag exits 2 with the usage before
//! any socket is bound; `--help` prints the usage and the defaults.
//!
//! Prints the bound address (useful with `--listen 127.0.0.1:0`) and
//! serves until a wire `shutdown` command arrives. With `--state-dir`,
//! restarting the daemon on the same directory resumes every
//! in-flight campaign digest-identically.

use std::sync::Arc;
use std::time::Duration;

use pdf_runtime::cli::Args;
use pdf_serve::{Daemon, DaemonConfig, Server, ServerConfig};

/// The flag table: `pdf_runtime::cli` parses the command line against it.
const USAGE: &str = "\
usage: pdfserved [--listen ADDR] [--workers N] [--state-dir DIR]
                 [--max-queued N] [--max-conns N] [--read-timeout-ms N]

defaults: --listen 127.0.0.1:7700, --workers 4, in-memory state,
          unlimited queue, --max-conns 64, --read-timeout-ms 30000";

fn main() {
    // Unknown flags are refused, not served on the defaults: a typo'd
    // `--addr` must not leave a daemon listening elsewhere.
    let args = Args::from_env(USAGE);
    let listen = args.value("--listen").unwrap_or("127.0.0.1:7700");
    let workers = args.or_exit(args.positive("--workers", 4)) as usize;
    let max_queued = args.or_exit(args.positive_opt("--max-queued"));
    let server_cfg = ServerConfig {
        read_timeout: Some(Duration::from_millis(
            args.or_exit(args.positive("--read-timeout-ms", 30_000)),
        )),
        max_conns: args.or_exit(args.positive("--max-conns", 64)) as usize,
        faults: None,
    };
    let mut cfg = match args.value("--state-dir") {
        Some(dir) => DaemonConfig::persistent(workers, dir),
        None => DaemonConfig::in_memory(workers),
    };
    if let Some(cap) = max_queued {
        cfg = cfg.with_max_queued(cap as usize);
    }
    let daemon = match Daemon::open(cfg) {
        Ok(d) => Arc::new(d),
        Err(e) => {
            eprintln!("error: cannot open daemon: {e}");
            std::process::exit(1);
        }
    };
    let mut server = match Server::start_with(Arc::clone(&daemon), listen, server_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    println!("pdfserved listening on {}", server.local_addr());
    server.wait_shutdown();
    server.stop();
    daemon.shutdown();
    println!("pdfserved stopped");
}
