//! Property tests for the `pdf-wire v1` codec and the campaign
//! lifecycle state machine.
//!
//! Codec: every expressible request and status round-trips through its
//! line encoding, and arbitrary garbage is rejected with an error, not
//! a panic. Lifecycle: `transition` accepts exactly the pairs in
//! [`LEGAL_TRANSITIONS`], terminal phases absorb every event, and any
//! event sequence applied from `Queued` only ever visits phases the
//! table can reach.

use std::collections::BTreeSet;

use pdf_serve::{
    status_fields, status_from_fields, transition, CampaignSpec, CampaignStatus, Event, Phase,
    Request, Response, WireError, LEGAL_TRANSITIONS,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Bare-token strategy matching the wire grammar for subject names.
fn token() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_.-]{0,12}"
}

fn exec_mode() -> BoxedStrategy<pdf_core::ExecMode> {
    prop_oneof![
        Just(pdf_core::ExecMode::Full),
        Just(pdf_core::ExecMode::Tiered),
    ]
}

fn spec() -> impl Strategy<Value = CampaignSpec> {
    (
        (token(), any::<u64>()),
        (1u64..1_000_000, 1u64..9, 1u64..10_000),
        exec_mode(),
        ((0u64..2, 1u64..1_000_000), (0u64..2, token())),
    )
        .prop_map(
            |(
                (subject, seed),
                (execs, shards, sync_every),
                mode,
                ((has_dl, dl), (has_key, key)),
            )| CampaignSpec {
                subject,
                seed,
                execs,
                shards,
                sync_every,
                exec_mode: mode,
                deadline_ms: (has_dl == 1).then_some(dl),
                idempotency_key: (has_key == 1).then_some(key),
            },
        )
}

fn phase() -> BoxedStrategy<Phase> {
    prop_oneof![
        Just(Phase::Queued),
        Just(Phase::Running),
        Just(Phase::Paused),
        Just(Phase::Done),
        Just(Phase::Failed),
        Just(Phase::Cancelled),
    ]
}

fn event() -> BoxedStrategy<Event> {
    prop_oneof![
        Just(Event::Dispatch),
        Just(Event::Pause),
        Just(Event::Resume),
        Just(Event::Finish),
        Just(Event::Fail),
        Just(Event::Cancel),
        Just(Event::Requeue),
    ]
}

fn status() -> impl Strategy<Value = CampaignStatus> {
    (
        (any::<u64>(), phase(), spec()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (0u64..2, any::<u64>(), any::<u64>()),
        (0u64..2, "[ -~]{0,40}"),
    )
        .prop_map(
            |((id, phase, spec), (epoch, spent, valid), (has_digest, d, cov), (has_err, err))| {
                CampaignStatus {
                    id,
                    phase,
                    spec,
                    epoch,
                    spent,
                    valid,
                    digest: (has_digest == 1).then_some(d),
                    coverage: (has_digest == 1).then_some(cov),
                    error: (has_err == 1)
                        .then_some(err.trim().to_string())
                        .filter(|e| !e.is_empty()),
                }
            },
        )
}

fn request() -> impl Strategy<Value = Request> {
    (0u64..10, spec(), any::<u64>()).prop_map(|(kind, spec, id)| match kind {
        0 => Request::Submit(spec),
        1 => Request::Status { id },
        2 => Request::Pause { id },
        3 => Request::Resume { id },
        4 => Request::Cancel { id },
        5 => Request::List,
        6 => Request::Watch { id },
        7 => Request::Metrics,
        8 => Request::Ping,
        _ => Request::Shutdown,
    })
}

proptest! {
    #[test]
    fn requests_round_trip(req in request()) {
        let line = req.encode();
        let back = Request::decode(&line).expect("codec accepts its own output");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn statuses_round_trip(status in status()) {
        let fields = status_fields(&status);
        // Through the response framing too: a status travels as the
        // field list of an `ok`/`item`/`end` frame.
        let resp = Response::Ok(fields);
        let mut reader = std::io::BufReader::new(std::io::Cursor::new(resp.encode().into_bytes()));
        let Response::Ok(fields) = Response::read(&mut reader).expect("frame decodes") else {
            panic!("ok frame decoded as something else");
        };
        let back = status_from_fields(&fields).expect("status fields decode");
        prop_assert_eq!(back, status);
    }

    #[test]
    fn garbage_lines_rejected_without_panic(line in "[ -~]{0,80}") {
        // Any printable-ASCII line either decodes or errors; no panics,
        // and decode(encode(decode(line))) is stable when it decodes.
        if let Ok(req) = Request::decode(&line) {
            prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn garbage_frames_rejected_without_panic(text in "[ -~\n]{0,120}") {
        let mut reader = std::io::BufReader::new(std::io::Cursor::new(text.into_bytes()));
        // Reading frames off arbitrary bytes terminates with a value or
        // an error — never a panic, never a hang.
        for _ in 0..8 {
            match Response::read(&mut reader) {
                Ok(_) => {}
                Err(WireError::UnexpectedEof) => break,
                Err(_) => break,
            }
        }
    }

    #[test]
    fn event_sequences_stay_inside_the_table(events in vec(event(), 0..32)) {
        let reachable: BTreeSet<Phase> = LEGAL_TRANSITIONS
            .iter()
            .map(|&(_, _, to)| to)
            .chain([Phase::Queued])
            .collect();
        let mut phase = Phase::Queued;
        for e in events {
            match transition(phase, e) {
                Ok(next) => {
                    prop_assert!(
                        LEGAL_TRANSITIONS.contains(&(phase, e, next)),
                        "transition {phase:?} --{e:?}--> {next:?} not in the table"
                    );
                    phase = next;
                }
                Err(ill) => {
                    prop_assert_eq!(ill.from, phase);
                    prop_assert_eq!(ill.event, e);
                }
            }
            prop_assert!(reachable.contains(&phase));
            if phase.is_terminal() {
                for &e in &Event::ALL {
                    prop_assert!(transition(phase, e).is_err(), "terminal phase accepted {e:?}");
                }
            }
        }
    }
}

/// `transition` accepts exactly the pairs listed in the table — checked
/// exhaustively, no randomness needed.
#[test]
fn transition_matches_table_exhaustively() {
    for &from in &Phase::ALL {
        for &event in &Event::ALL {
            let legal = LEGAL_TRANSITIONS
                .iter()
                .find(|&&(f, e, _)| f == from && e == event);
            match (transition(from, event), legal) {
                (Ok(to), Some(&(_, _, want))) => assert_eq!(to, want),
                (Err(_), None) => {}
                (got, want) => {
                    panic!("{from:?} x {event:?}: transition says {got:?}, table says {want:?}")
                }
            }
        }
    }
    // Determinism of the table itself: no (from, event) pair appears twice.
    let mut pairs = BTreeSet::new();
    for &(from, event, _) in &LEGAL_TRANSITIONS {
        assert!(
            pairs.insert((from, event.name())),
            "duplicate edge {from:?} x {event:?}"
        );
    }
}

/// Phase and event names round-trip through their wire spellings.
#[test]
fn names_round_trip() {
    for &p in &Phase::ALL {
        assert_eq!(Phase::parse(p.name()), Some(p));
    }
    for &e in &Event::ALL {
        assert_eq!(Event::parse(e.name()), Some(e));
    }
    assert_eq!(Phase::parse("limbo"), None);
    assert_eq!(Event::parse("explode"), None);
}
