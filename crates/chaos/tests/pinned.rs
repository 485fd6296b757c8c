//! Pins the fault and retry schedules for one fixed seed. Both are
//! pure functions of the seed, so any change to the mixer behind them
//! shows up here as a changed schedule, not as a flaky soak.

use std::time::Duration;

use pdf_chaos::{Backoff, FaultKind, FaultPlan, FaultSpec, OpKind};

const SEED: u64 = 0x5eed;

/// One character per decision: `.` for none, else the fault kind.
fn kinds(plan: &FaultPlan, op: OpKind) -> String {
    (0..64)
        .map(|n| match plan.schedule_for(op, n).map(|f| f.kind) {
            None => '.',
            Some(FaultKind::TornWrite) => 't',
            Some(FaultKind::Enospc) => 'e',
            Some(FaultKind::Delay) => 'd',
            Some(FaultKind::ShortRead) => 's',
            Some(FaultKind::Disconnect) => 'x',
        })
        .collect()
}

/// Order-sensitive fold of every fired fault's magnitude.
fn magnitudes(plan: &FaultPlan, op: OpKind) -> u64 {
    (0..64)
        .filter_map(|n| plan.schedule_for(op, n))
        .fold(0, |acc: u64, f| acc.rotate_left(5) ^ f.magnitude)
}

#[test]
fn first_64_fault_decisions_are_pinned() {
    let plan = FaultPlan::new(SEED, FaultSpec::SOAK);
    let got: Vec<(String, u64)> = OpKind::ALL
        .iter()
        .map(|&op| (kinds(&plan, op), magnitudes(&plan, op)))
        .collect();
    let want: Vec<(String, u64)> = PINNED_PLAN
        .iter()
        .map(|&(k, m)| (k.to_string(), m))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn first_64_backoff_delays_are_pinned() {
    let backoff = Backoff::new(Duration::from_millis(1), Duration::from_secs(1), SEED);
    let got: Vec<u64> = (0..64)
        .map(|n| backoff.delay_for(n).as_micros() as u64)
        .collect();
    assert_eq!(got, PINNED_DELAYS_US);
}

const PINNED_PLAN: [(&str, u64); 5] = [
    (
        "...........t..........e..e....t.......d....d.............d..d...",
        5876884789039071398,
    ),
    (
        "............d.t.....d...............d...........................",
        11044000423356943152,
    ),
    (
        "...............................e....d..t......t.e..e...t..d...d.",
        214645698837340285,
    ),
    (
        "......dd........sd...........x.d..........d.......s..........s..",
        3398209679583972230,
    ),
    (
        ".d......d...x......d........x..........t................t.....d.",
        11383922994209416584,
    ),
];

const PINNED_DELAYS_US: [u64; 64] = [
    810, 1164, 2061, 4152, 13919, 28092, 62572, 98672, 186867, 450734, 862409, 923240, 760662,
    960839, 502489, 966131, 672194, 742072, 710051, 720165, 521509, 973227, 964993, 742092, 901336,
    927531, 514723, 576213, 820775, 901469, 520058, 626418, 608498, 521042, 850112, 506090, 782164,
    755656, 675245, 798101, 727987, 852691, 601803, 909418, 867298, 627335, 564658, 650082, 709104,
    742942, 904528, 543306, 881171, 902513, 526388, 844132, 797063, 524322, 572012, 503964, 857925,
    844735, 671670, 908956,
];
