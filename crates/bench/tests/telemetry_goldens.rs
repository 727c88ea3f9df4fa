//! The telemetry artifacts (JSON and pcapng of the WAN 2%-loss cell, CSV
//! of the N=8 LAN fleet) must match the goldens committed under
//! `goldens/telemetry/` byte for byte. After an intentional change,
//! regenerate them with
//!
//! ```text
//! cargo run --release -p httpipe-bench --bin telemetry -- --bless
//! ```

use httpipe_core::experiments::telemetry;
use std::path::Path;

fn assert_matches_golden(name: &str, produced: &[u8]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join("telemetry")
        .join(name);
    let golden =
        std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if let Some(at) = produced.iter().zip(&golden).position(|(a, b)| a != b) {
        panic!(
            "{name}: first differing byte at offset {at} ({} vs {} golden bytes); \
             run `telemetry -- --bless` after an intentional change",
            produced.len(),
            golden.len()
        );
    }
    assert_eq!(
        produced.len(),
        golden.len(),
        "{name}: length differs from the golden"
    );
}

#[test]
fn artifacts_match_committed_goldens() {
    let art = telemetry::smoke_artifacts();
    assert_matches_golden("smoke.json", art.json.as_bytes());
    assert_matches_golden("smoke.csv", art.csv.as_bytes());
    assert_matches_golden("smoke.pcapng", &art.pcapng);

    // The exported capture round-trips through the in-tree reader.
    let packets = netsim::pcapng::parse(&art.pcapng).expect("pcapng parses");
    assert!(!packets.is_empty(), "capture is empty");
}
