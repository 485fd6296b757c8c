//! Golden-file test for the `pdf-fleet v1` manifest codec: the committed
//! file was written by the encoder this format shipped with, so
//! decoding it and re-encoding the value must reproduce its bytes
//! exactly.

use pdf_fleet::FleetManifest;

const GOLDEN: &str = include_str!("golden/fleet.manifest");

fn expected() -> FleetManifest {
    FleetManifest {
        subject: "arith".to_string(),
        config_hash: 0xdead_beef,
        base_seed: 42,
        shards: 3,
        sync_every: 250,
        epoch: 7,
        promotions: 2,
        injections: 4,
        seen_valid: vec![5, 0, 2],
        promoted: vec![0x0101, 0xff00_0000_0000_0000],
    }
}

#[test]
fn golden_manifest_decodes_and_reencodes_byte_identically() {
    let manifest = FleetManifest::decode(GOLDEN).expect("golden file decodes");
    assert_eq!(manifest, expected());
    assert_eq!(manifest.encode(), GOLDEN);
}
