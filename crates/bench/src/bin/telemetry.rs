//! `telemetry` — the fleet observatory.
//!
//! Default mode renders the observatory scenes (SYN-burst fleet
//! timeline, RTO-stall cwnd comparison) to stdout and writes the full
//! artifacts next to the repo root:
//!
//! * `TELEMETRY_wan_rto.json` — time-series of the WAN 2%-loss pipelined
//!   cell (NewReno), hand-rolled stable JSON;
//! * `TELEMETRY_fleet.csv` — time-series of the N=8 LAN fleet as CSV;
//! * `TELEMETRY_wan_rto.pcapng` — the same WAN cell's packet capture,
//!   which Wireshark/tshark/tcptrace open directly.
//!
//! The same reduced artifacts are committed as goldens under
//! `crates/bench/goldens/telemetry/`, which
//! `crates/bench/tests/telemetry_goldens.rs` byte-compares. `--bless`
//! regenerates them after an intentional change.
//!
//! ```text
//! cargo run --release -p httpipe-bench --bin telemetry
//! cargo run --release -p httpipe-bench --bin telemetry -- --bless
//! ```

use httpipe_core::experiments::telemetry::{self, SmokeArtifacts};
use std::path::{Path, PathBuf};

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join("telemetry")
}

fn bless() {
    let art = telemetry::smoke_artifacts();
    let dir = goldens_dir();
    std::fs::create_dir_all(&dir).expect("create goldens dir");
    std::fs::write(dir.join("smoke.json"), art.json.as_bytes()).expect("write json");
    std::fs::write(dir.join("smoke.csv"), art.csv.as_bytes()).expect("write csv");
    std::fs::write(dir.join("smoke.pcapng"), &art.pcapng).expect("write pcapng");
    println!(
        "blessed goldens in {} (json {}B, csv {}B, pcapng {}B)",
        dir.display(),
        art.json.len(),
        art.csv.len(),
        art.pcapng.len()
    );
}

fn full() {
    println!("{}", telemetry::report(256));
    println!("{}", telemetry::volume_table().render());

    let SmokeArtifacts { json, csv, pcapng } = telemetry::smoke_artifacts();
    std::fs::write("TELEMETRY_wan_rto.json", json.as_bytes()).expect("write json");
    std::fs::write("TELEMETRY_fleet.csv", csv.as_bytes()).expect("write csv");
    std::fs::write("TELEMETRY_wan_rto.pcapng", &pcapng).expect("write pcapng");
    println!(
        "wrote TELEMETRY_wan_rto.json ({}B), TELEMETRY_fleet.csv ({}B), \
         TELEMETRY_wan_rto.pcapng ({}B — open it in Wireshark)",
        json.len(),
        csv.len(),
        pcapng.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--bless") => bless(),
        None => full(),
        Some(other) => {
            eprintln!("unknown flag {other}; use --bless or no flag");
            std::process::exit(2);
        }
    }
}
