//! Thin `pdf-wire v1` command-line client for a running `pdfserved`.
//!
//! ```text
//! Usage: servecli [--addr HOST:PORT] [--subject NAME] [--seed N] [--execs N]
//!                 [--shards N] [--sync-every N] [--exec-mode full|tiered]
//!                 [--deadline-ms N] [--key TOKEN] [--wait] COMMAND [ID]
//! ```
//!
//! Commands (every flag but `--addr` belongs to `submit`):
//!   submit --subject NAME [--seed N] [--execs N] [--shards N]
//!          [--sync-every N] [--exec-mode full|tiered]
//!          [--deadline-ms N] [--key TOKEN] [--wait]
//!                       submit one campaign; prints its id (with
//!                       `--wait`, blocks streaming progress until the
//!                       campaign is terminal and prints the final row;
//!                       `--key` sets an idempotency key so a retried
//!                       submit returns the original id)
//!   status ID           one campaign's status row
//!   pause ID            request a pause at the next slice boundary
//!   resume ID           resume a paused campaign
//!   cancel ID           cancel a queued, running or paused campaign
//!   list                every campaign the daemon knows, one row each
//!   watch ID            stream progress rows until the campaign ends
//!   metrics             dump the daemon's `pdf-metrics v1` snapshot
//!   ping                liveness probe
//!   shutdown            checkpoint everything and stop the daemon
//!
//! `--addr` defaults to `127.0.0.1:7700`, `pdfserved`'s default listen
//! address. Exit status: 0 on success, 1 when the server refuses the
//! request (unknown id, illegal transition, ...), 2 on a usage error or
//! transport failure. Usage errors (an unknown flag or command, a
//! missing or malformed ID) are caught before the daemon is dialled.
//! The streaming commands (`watch`, `submit --wait`) ride a
//! [`RetryClient`], so a daemon restart or dropped connection
//! mid-stream reconnects with backoff instead of dying.

use pdf_runtime::cli::Args;
use pdf_serve::{CampaignSpec, CampaignStatus, ClientError, RetryClient, ServeClient};

/// The flag table: `pdf_runtime::cli` parses the command line against it.
const USAGE: &str = "\
usage: servecli [--addr HOST:PORT] [--subject NAME] [--seed N] [--execs N]
                [--shards N] [--sync-every N] [--exec-mode full|tiered]
                [--deadline-ms N] [--key TOKEN] [--wait] COMMAND [ID]

commands: submit list metrics ping shutdown; status|pause|resume|cancel|watch ID";

fn main() {
    let args = Args::from_env(USAGE);
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7700");
    let Some(command) = args.positional(0) else {
        args.fail("missing COMMAND")
    };
    let takes_id = match command {
        "status" | "pause" | "resume" | "cancel" | "watch" => true,
        "submit" | "list" | "metrics" | "ping" | "shutdown" => false,
        _ => args.fail(&format!("unknown command {command:?}")),
    };
    let id = match (takes_id, args.positional(1)) {
        (true, Some(raw)) => raw.parse::<u64>().unwrap_or_else(|_| {
            args.fail(&format!(
                "{command} requires a numeric campaign id, got {raw:?}"
            ))
        }),
        (true, None) => args.fail(&format!("{command} requires a numeric campaign id")),
        (false, Some(raw)) => args.fail(&format!("{command} takes no ID, got {raw:?}")),
        (false, None) => 0,
    };
    let spec = (command == "submit").then(|| args.or_exit(submit_spec(&args)));
    let mut client = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot reach {addr}: {e} (connection refused? check that pdfserved is running there)");
            std::process::exit(2);
        }
    };
    let outcome = match command {
        "status" => client.status(id).map(|s| print_status(&s)),
        "pause" => client.pause(id).map(|s| print_state(id, &s)),
        "resume" => client.resume(id).map(|s| print_state(id, &s)),
        "cancel" => client.cancel(id).map(|s| print_state(id, &s)),
        // Streaming survives daemon restarts: the RetryClient re-dials
        // and re-issues the watch with jittered backoff.
        "watch" => RetryClient::new(addr)
            .watch(id, print_status)
            .map(|last| print_status(&last)),
        "list" => client.list().map(|all| {
            for s in &all {
                print_status(s);
            }
            eprintln!("{} campaigns", all.len());
        }),
        "metrics" => client.metrics().map(|text| print!("{text}")),
        "ping" => client.ping().map(|()| println!("pong")),
        "shutdown" => client.shutdown().map(|()| println!("stopping")),
        "submit" => {
            let spec = spec.expect("submit parsed its spec");
            submit(&mut client, addr, &spec, args.has("--wait"))
        }
        _ => unreachable!("commands are checked before connecting"),
    };
    match outcome {
        Ok(()) => {}
        Err(ClientError::Server { code, msg, .. }) => {
            eprintln!("error [{code}]: {msg}");
            std::process::exit(1);
        }
        Err(ClientError::Timeout) => {
            eprintln!("error: timed out waiting on {addr}: the daemon answered but the campaign never went terminal");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: lost {addr}: {e} (retries exhausted)");
            std::process::exit(2);
        }
    }
}

fn submit_spec(args: &Args) -> Result<CampaignSpec, String> {
    let subject = args
        .value("--subject")
        .ok_or("submit requires --subject NAME")?;
    let execs = args.positive("--execs", 5_000)?;
    let shards = args.positive("--shards", 1)?;
    Ok(CampaignSpec {
        subject: subject.to_string(),
        seed: args.positive("--seed", 1)?,
        execs,
        shards,
        sync_every: args.positive("--sync-every", pdf_serve::default_sync_every(execs, shards))?,
        exec_mode: pdf_eval::exec_mode_arg(args)?,
        deadline_ms: args.positive_opt("--deadline-ms")?,
        idempotency_key: args.value("--key").map(String::from),
    })
}

fn submit(
    client: &mut ServeClient,
    addr: &str,
    spec: &CampaignSpec,
    wait: bool,
) -> Result<(), ClientError> {
    let id = client.submit(spec)?;
    println!("submitted id={id}");
    if wait {
        let last = RetryClient::new(addr).watch(id, print_status)?;
        print_status(&last);
    }
    Ok(())
}

fn print_state(id: u64, state: &str) {
    println!("id={id} state={state}");
}

fn print_status(s: &CampaignStatus) {
    let digest = s
        .digest
        .map_or_else(|| "-".to_string(), |d| format!("{d:016x}"));
    let deadline = s
        .spec
        .deadline_ms
        .map_or_else(|| "-".to_string(), |d| format!("{d}ms"));
    print!(
        "id={} state={} subject={} seed={} execs={}/{} valid={} epoch={} \
         shards={} deadline={} digest={}",
        s.id,
        s.phase,
        s.spec.subject,
        s.spec.seed,
        s.spent,
        s.spec.execs,
        s.valid,
        s.epoch,
        s.spec.shards,
        deadline,
        digest,
    );
    match &s.error {
        Some(e) => println!(" error={e:?}"),
        None => println!(),
    }
}
