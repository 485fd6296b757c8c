//! Thin `pdf-wire v1` command-line client for a running `pdfserved`.
//! Usage: `servecli [--addr HOST:PORT] COMMAND [ARGS]`
//!
//! Commands:
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
//! transport failure. The streaming commands (`watch`, `submit
//! --wait`) ride a [`RetryClient`], so a daemon restart or dropped
//! connection mid-stream reconnects with backoff instead of dying.

use pdf_serve::{CampaignSpec, CampaignStatus, ClientError, RetryClient, ServeClient};

fn usage() -> ! {
    eprintln!(
        "usage: servecli [--addr HOST:PORT] \
         submit|status|pause|resume|cancel|list|watch|metrics|ping|shutdown [ARGS]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = addr_in(&args);
    let mut rest: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--addr" {
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    let Some(command) = rest.first().cloned() else {
        usage()
    };
    let mut client = match ServeClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot reach {addr}: {e} (connection refused? check that pdfserved is running there)");
            std::process::exit(2);
        }
    };
    let outcome = match command.as_str() {
        "submit" => submit(&mut client, &addr, &args),
        "status" => id_command(&rest).and_then(|id| client.status(id).map(|s| print_status(&s))),
        "pause" => id_command(&rest).and_then(|id| client.pause(id).map(|s| print_state(id, &s))),
        "resume" => id_command(&rest).and_then(|id| client.resume(id).map(|s| print_state(id, &s))),
        "cancel" => id_command(&rest).and_then(|id| client.cancel(id).map(|s| print_state(id, &s))),
        "list" => client.list().map(|all| {
            for s in &all {
                print_status(s);
            }
            eprintln!("{} campaigns", all.len());
        }),
        "watch" => id_command(&rest).and_then(|id| {
            // Streaming survives daemon restarts: the RetryClient
            // re-dials and re-issues the watch with jittered backoff.
            RetryClient::new(&addr).watch(id, print_status).map(|last| {
                print_status(&last);
            })
        }),
        "metrics" => client.metrics().map(|text| print!("{text}")),
        "ping" => client.ping().map(|()| println!("pong")),
        "shutdown" => client.shutdown().map(|()| println!("stopping")),
        _ => usage(),
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

fn addr_in(args: &[String]) -> String {
    for i in 1..args.len() {
        if args[i] == "--addr" {
            if let Some(a) = args.get(i + 1) {
                return a.clone();
            }
            eprintln!("error: --addr requires a value");
            std::process::exit(2);
        }
    }
    "127.0.0.1:7700".to_string()
}

fn id_command(rest: &[String]) -> Result<u64, ClientError> {
    match rest.get(1).map(|s| s.parse::<u64>()) {
        Some(Ok(id)) => Ok(id),
        _ => {
            eprintln!("error: {} requires a numeric campaign id", rest[0]);
            std::process::exit(2);
        }
    }
}

fn submit(client: &mut ServeClient, addr: &str, args: &[String]) -> Result<(), ClientError> {
    let Some(subject) = string_arg(args, "--subject") else {
        eprintln!("error: submit requires --subject NAME");
        std::process::exit(2);
    };
    let seed = pdf_eval::require_arg(pdf_eval::positive_arg_in(args, "--seed", 1));
    let execs = pdf_eval::require_arg(pdf_eval::positive_arg_in(args, "--execs", 5_000));
    let shards = pdf_eval::require_arg(pdf_eval::positive_arg_in(args, "--shards", 1));
    let sync_every = pdf_eval::require_arg(pdf_eval::positive_arg_in(
        args,
        "--sync-every",
        pdf_serve::default_sync_every(execs, shards),
    ));
    let exec_mode = pdf_eval::require_arg(pdf_eval::exec_mode_in(args));
    let deadline_ms = match pdf_eval::positive_arg_in(args, "--deadline-ms", 0) {
        Ok(0) => None,
        Ok(n) => Some(n),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let spec = CampaignSpec {
        subject,
        seed,
        execs,
        shards,
        sync_every,
        exec_mode,
        deadline_ms,
        idempotency_key: string_arg(args, "--key"),
    };
    let id = client.submit(&spec)?;
    println!("submitted id={id}");
    if args.iter().any(|a| a == "--wait") {
        let last = RetryClient::new(addr).watch(id, print_status)?;
        print_status(&last);
    }
    Ok(())
}

fn string_arg(args: &[String], flag: &str) -> Option<String> {
    for i in 1..args.len() {
        if args[i] == flag {
            return args.get(i + 1).cloned();
        }
    }
    None
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
