//! The fleet determinism contract, end to end: fixed
//! `(seed, shards, sync_every)` reproduces byte-identical per-shard
//! journals and merged coverage digests across runs — serial or
//! parallel, replayed from recorded streams, and across a mid-run
//! checkpoint/kill/resume.

use pdf_core::DriverConfig;
use pdf_fleet::{merge_coverage, Fleet, FleetConfig, FleetError, FleetManifest};

fn base_cfg(seed: u64, max_execs: u64) -> DriverConfig {
    DriverConfig {
        seed,
        max_execs,
        ..DriverConfig::default()
    }
}

fn fleet_cfg(shards: usize, sync_every: u64, seed: u64, per_shard_execs: u64) -> FleetConfig {
    FleetConfig::new(shards, sync_every, base_cfg(seed, per_shard_execs))
}

#[test]
fn same_config_reproduces_digest_and_journals() {
    let subject = pdf_subjects::arith::subject();
    let cfg = fleet_cfg(3, 300, 11, 1_500);
    let a = Fleet::new(subject, cfg.clone()).unwrap().run();
    let b = Fleet::new(subject, cfg).unwrap().run();
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.coverage_digest(), b.coverage_digest());
    for (ra, rb) in a.shards.iter().zip(&b.shards) {
        assert_eq!(
            ra.decisions, rb.decisions,
            "per-shard journals must be byte-identical"
        );
        assert_eq!(ra.digest(), rb.digest());
    }
}

#[test]
fn parallel_and_serial_fleets_are_digest_identical() {
    let subject = pdf_subjects::dyck::subject();
    let mut cfg = fleet_cfg(4, 200, 5, 1_000);
    cfg.parallel = true;
    let par = Fleet::new(subject, cfg.clone()).unwrap().run();
    cfg.parallel = false;
    let ser = Fleet::new(subject, cfg).unwrap().run();
    assert_eq!(par.digest(), ser.digest());
}

#[test]
fn single_shard_fleet_matches_plain_fuzzer() {
    // With one shard there is nobody to exchange inputs with: the fleet
    // is the plain driver plus pause points, which are invisible.
    let subject = pdf_subjects::arith::subject();
    let cfg = fleet_cfg(1, 250, 9, 1_200);
    let fleet = Fleet::new(subject, cfg).unwrap().run();
    let solo = pdf_core::Fuzzer::new(subject, base_cfg(9, 1_200)).run();
    assert_eq!(fleet.shards.len(), 1);
    assert_eq!(fleet.shards[0].digest(), solo.digest());
    assert_eq!(fleet.total_execs, solo.execs);
}

#[test]
fn per_shard_journals_replay_to_identical_digests() {
    let subject = pdf_subjects::arith::subject();
    let cfg = fleet_cfg(2, 300, 21, 1_200);
    let recorded = Fleet::new(subject, cfg.clone()).unwrap().run();
    let streams: Vec<Vec<u8>> = recorded
        .shards
        .iter()
        .map(|r| r.decisions.clone())
        .collect();
    let replayed = Fleet::replaying(subject, cfg, streams).unwrap().run();
    assert_eq!(recorded.digest(), replayed.digest());
    for (ra, rb) in recorded.shards.iter().zip(&replayed.shards) {
        assert_eq!(ra.digest(), rb.digest());
    }
}

#[test]
fn checkpoint_and_resume_is_digest_identical() {
    let subject = pdf_subjects::dyck::subject();
    let cfg = fleet_cfg(2, 250, 33, 1_500);
    let uninterrupted = Fleet::new(subject, cfg.clone()).unwrap().run();

    let dir = std::env::temp_dir().join(format!("pdf-fleet-test-{}", std::process::id()));
    let mut fleet = Fleet::new(subject, cfg.clone()).unwrap();
    // Run two epochs, checkpoint, and "kill" the fleet by dropping it.
    assert!(!fleet.run_epoch());
    assert!(!fleet.run_epoch());
    fleet.checkpoint_to(&dir).unwrap();
    drop(fleet);

    let resumed = Fleet::resume_from(subject, cfg, &dir).unwrap().run();
    assert_eq!(uninterrupted.digest(), resumed.digest());
    assert_eq!(uninterrupted.coverage_digest(), resumed.coverage_digest());
    for (ra, rb) in uninterrupted.shards.iter().zip(&resumed.shards) {
        assert_eq!(ra.decisions, rb.decisions);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_generation_falls_back_to_previous_epoch() {
    let subject = pdf_subjects::dyck::subject();
    let cfg = fleet_cfg(2, 250, 44, 1_500);
    let uninterrupted = Fleet::new(subject, cfg.clone()).unwrap().run();

    let root = std::env::temp_dir().join(format!("pdf-fleet-fallback-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let (prev, cur) = (root.join("ck.prev"), root.join("ck"));
    let mut fleet = Fleet::new(subject, cfg.clone()).unwrap();
    assert!(!fleet.run_epoch());
    fleet.checkpoint_to(&prev).unwrap();
    assert!(!fleet.run_epoch());
    fleet.checkpoint_to(&cur).unwrap();
    drop(fleet);

    // Tear the newest generation's manifest mid-line.
    let manifest = cur.join(pdf_fleet::MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, &text[..text.len() / 2]).unwrap();

    // Fallback resumes the epoch-older generation — losing one epoch,
    // which the deterministic re-run then repays digest-identically.
    let (resumed, picked) =
        Fleet::resume_with_fallback(subject, cfg.clone(), &[&cur, &prev]).unwrap();
    assert_eq!(picked, 1, "should have skipped the corrupt generation");
    assert_eq!(resumed.run().digest(), uninterrupted.digest());

    // Drift still aborts immediately, even with a healthy fallback.
    let mut wrong_seed = cfg;
    wrong_seed.base.seed += 1;
    assert!(matches!(
        Fleet::resume_with_fallback(subject, wrong_seed, &[&cur, &prev]),
        Err(FleetError::Drift(_))
    ));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn tiered_fleet_is_deterministic_and_finds_valid_inputs() {
    // every input a tiered shard reports valid was accepted by a real
    // run, so sync epochs promote it as is, with no RNG and no re-run:
    // the fleet digest contract extends to the tiered exec mode
    let subject = pdf_subjects::arith::subject();
    let mut cfg = fleet_cfg(3, 300, 11, 1_500);
    cfg.base.exec_mode = pdf_core::ExecMode::Tiered;
    let a = Fleet::new(subject, cfg.clone()).unwrap().run();
    let b = Fleet::new(subject, cfg).unwrap().run();
    assert_eq!(a.digest(), b.digest(), "tiered fleet not deterministic");
    assert!(
        !a.valid_inputs.is_empty(),
        "tiered fleet found no valid inputs"
    );
    for input in &a.valid_inputs {
        assert!(subject.run(input).valid);
    }
}

#[test]
fn resume_rejects_drift() {
    let subject = pdf_subjects::dyck::subject();
    let cfg = fleet_cfg(2, 200, 1, 600);
    let dir = std::env::temp_dir().join(format!("pdf-fleet-drift-{}", std::process::id()));
    let mut fleet = Fleet::new(subject, cfg.clone()).unwrap();
    fleet.run_epoch();
    fleet.checkpoint_to(&dir).unwrap();

    let other_subject = pdf_subjects::arith::subject();
    assert!(matches!(
        Fleet::resume_from(other_subject, cfg.clone(), &dir),
        Err(FleetError::Drift(_))
    ));
    let mut wrong_seed = cfg.clone();
    wrong_seed.base.seed += 1;
    assert!(matches!(
        Fleet::resume_from(subject, wrong_seed, &dir),
        Err(FleetError::Drift(_))
    ));
    let mut wrong_shards = cfg.clone();
    wrong_shards.shards = 3;
    assert!(matches!(
        Fleet::resume_from(subject, wrong_shards, &dir),
        Err(FleetError::Drift(_))
    ));
    let mut wrong_sync = cfg;
    wrong_sync.sync_every = 999;
    assert!(matches!(
        Fleet::resume_from(subject, wrong_sync, &dir),
        Err(FleetError::Drift(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merged_coverage_is_the_union_of_shard_coverage() {
    let subject = pdf_subjects::arith::subject();
    let report = Fleet::new(subject, fleet_cfg(3, 200, 2, 800))
        .unwrap()
        .run();
    let forward = merge_coverage(report.shards.iter().map(|r| &r.all_branches));
    let backward = merge_coverage(report.shards.iter().rev().map(|r| &r.all_branches));
    assert_eq!(forward, backward, "merge must be order-independent");
    assert_eq!(report.all_branches, forward);
    for r in &report.shards {
        for b in r.all_branches.iter() {
            assert!(report.all_branches.contains(b));
        }
    }
}

#[test]
fn fleet_valid_inputs_are_deduplicated_and_really_valid() {
    let subject = pdf_subjects::arith::subject();
    let report = Fleet::new(subject, fleet_cfg(3, 150, 4, 900))
        .unwrap()
        .run();
    let mut seen = std::collections::HashSet::new();
    for input in &report.valid_inputs {
        assert!(seen.insert(input.clone()), "duplicate fleet valid input");
        assert!(subject.run(input).valid);
    }
    assert_eq!(report.valid_inputs.len(), report.valid_found_at.len());
    assert!(
        report.valid_found_at.windows(2).all(|w| w[0] <= w[1]),
        "fleet discovery order must be sorted by cost"
    );
}

#[test]
fn invalid_configs_are_rejected() {
    let subject = pdf_subjects::arith::subject();
    assert!(matches!(
        Fleet::new(subject, fleet_cfg(0, 100, 1, 100)),
        Err(FleetError::Config(_))
    ));
    assert!(matches!(
        Fleet::new(subject, fleet_cfg(2, 0, 1, 100)),
        Err(FleetError::Config(_))
    ));
    assert!(matches!(
        Fleet::replaying(subject, fleet_cfg(2, 100, 1, 100), vec![Vec::new()]),
        Err(FleetError::Config(_))
    ));
}

#[test]
fn manifest_survives_checkpoint_round_trip() {
    let subject = pdf_subjects::dyck::subject();
    let cfg = fleet_cfg(2, 200, 13, 800);
    let dir = std::env::temp_dir().join(format!("pdf-fleet-manifest-{}", std::process::id()));
    let mut fleet = Fleet::new(subject, cfg).unwrap();
    fleet.run_epoch();
    fleet.run_epoch();
    fleet.checkpoint_to(&dir).unwrap();
    let text = std::fs::read_to_string(dir.join(pdf_fleet::MANIFEST_FILE)).unwrap();
    let m = FleetManifest::decode(&text).unwrap();
    assert_eq!(m.subject, "dyck");
    assert_eq!(m.shards, 2);
    assert_eq!(m.sync_every, 200);
    assert_eq!(m.epoch, 2);
    assert_eq!(m.encode(), text, "manifest encoding must be canonical");
    std::fs::remove_dir_all(&dir).ok();
}
