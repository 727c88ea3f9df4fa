//! Differential gates for the congestion-control extraction: routing the
//! seed TCB's window arithmetic through the [`netsim::CongestionControl`]
//! trait (default variant: Reno) must be invisible. Every digest below
//! was captured on the seed before the trait existed; a mismatch means
//! the refactor changed behavior somewhere in the matrix, the impairment
//! grid or the fleet engine.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::{mux, robustness, scale};
use httpipe_core::harness::{matrix_spec, run_spec, ProtocolSetup, Scenario};
use httpserver::ServerKind;
use netsim::{CcVariant, TcpConfig};

/// Seed digest of the reduced robustness grid (loss/reorder/outage
/// impairments over three setups), captured before the CC trait landed.
/// Re-pinned when the report grew the drops-by-reason (L/O/Q) column —
/// a rendering change only; the underlying cells are covered by the
/// telemetry identity tests and the unchanged scale digest.
const SEED_ROBUSTNESS_DIGEST: u64 = 0x7c6c_bcfa_68ca_f65b;

/// Seed digest of the reduced mux report (framed transports + push).
/// Re-pinned when the matrix table grew the cancelled-push-bytes
/// (CxlB) columns — same rendering-only caveat as above.
const SEED_MUX_DIGEST: u64 = 0xb978_ca3e_2c17_9e3d;

/// Seed digest of the reduced scale report (fleets to 64 clients).
const SEED_SCALE_DIGEST: u64 = 0x4dd4_ba02_5900_c56e;

#[test]
fn reno_via_trait_reproduces_seed_robustness_digest() {
    let cells = robustness::run_points(&robustness::reduced_grid());
    assert_eq!(
        robustness::report_digest(&cells),
        SEED_ROBUSTNESS_DIGEST,
        "Reno-through-the-trait changed the robustness grid"
    );
}

#[test]
fn reno_via_trait_reproduces_seed_mux_digest() {
    assert_eq!(
        mux::report_digest(&mux::reduced_report()),
        SEED_MUX_DIGEST,
        "Reno-through-the-trait changed the mux transports"
    );
}

#[test]
fn reno_via_trait_reproduces_seed_scale_digest() {
    let cells = scale::run_points(&scale::reduced_grid());
    assert_eq!(
        scale::report_digest(&cells),
        SEED_SCALE_DIGEST,
        "Reno-through-the-trait changed the fleet engine"
    );

    // The contended cells really contend: on LAN and WAN alike, at N=64
    // the fleet's slowest client is slower than an uncontended single
    // client of the same setup, yet every client fetches the whole site.
    let mut contended = 0;
    for big in cells.iter().filter(|c| c.point.n_clients == 64) {
        let lone = cells
            .iter()
            .find(|c| {
                c.point.env == big.point.env
                    && c.point.setup == big.point.setup
                    && c.point.n_clients == 1
            })
            .expect("N=1 anchor present");
        assert!(
            big.p99 > lone.p50,
            "{:?}: 64 contending clients no slower than one",
            big.point
        );
        assert_eq!(
            big.fetched,
            64 * lone.fetched,
            "{:?}: some client fell short of the full site",
            big.point
        );
        contended += 1;
    }
    assert_eq!(contended, 2 * scale::SETUPS.len(), "LAN and WAN N=64 cells");
}

/// An explicit `TcpConfig::default()` override (which selects
/// [`CcVariant::Reno`]) must produce the identical cell to no override
/// at all — the override plumbing itself is inert.
#[test]
fn default_tcp_override_is_inert() {
    assert_eq!(TcpConfig::default().cc, CcVariant::Reno);
    for setup in [ProtocolSetup::Http10, ProtocolSetup::Http11Pipelined] {
        let base = matrix_spec(NetEnv::Wan, ServerKind::Apache, setup, Scenario::FirstTime);
        let mut overridden =
            matrix_spec(NetEnv::Wan, ServerKind::Apache, setup, Scenario::FirstTime);
        overridden.tcp = Some(TcpConfig::default());
        assert_eq!(
            run_spec(base).cell,
            run_spec(overridden).cell,
            "Some(TcpConfig::default()) differs from None for {setup:?}"
        );
    }
}
