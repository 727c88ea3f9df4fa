//! Gate: every unimpaired protocol-matrix cell must produce a trace
//! that satisfies all TCP and HTTP conformance invariants.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::protocol_matrix::matrix_setups;
use httpipe_core::harness::{matrix_spec, run_cells_map, run_spec_checked, Scenario};
use httpserver::ServerKind;

#[test]
fn lan_pipelined_first_time_is_conformant() {
    let spec = matrix_spec(
        NetEnv::Lan,
        ServerKind::Apache,
        httpipe_core::harness::ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    let (_, report) = run_spec_checked(spec);
    assert!(
        report.is_clean(),
        "violations in LAN pipelined first-time run:\n{}",
        report.summary()
    );
    assert!(report.connections > 0);
    assert!(report.http_requests >= 43);
}

#[test]
fn full_unimpaired_matrix_is_conformant() {
    let mut specs = Vec::new();
    for env in NetEnv::ALL {
        for server in [ServerKind::Apache, ServerKind::Jigsaw] {
            for &setup in matrix_setups(env) {
                for scenario in [Scenario::FirstTime, Scenario::Revalidate] {
                    specs.push(matrix_spec(env, server, setup, scenario));
                }
            }
        }
    }
    let n = specs.len();
    let (cells, report) = run_checked(specs);
    assert_eq!(cells.len(), n);
    assert!(
        report.is_clean(),
        "violations across the {n}-cell unimpaired matrix:\n{}",
        report.summary()
    );
}

/// The reduced WAN loss grid plus the jitter/reordering study
/// (`robustness::SETUPS` × `JITTER_GRID_MS`).
#[test]
fn impaired_reduced_grid_is_conformant() {
    use httpipe_core::experiments::robustness;
    let mut specs: Vec<_> = robustness::reduced_grid()
        .iter()
        .map(|p| p.spec())
        .collect();
    for setup in robustness::SETUPS {
        for jitter_ms in robustness::JITTER_GRID_MS {
            specs.push(robustness::JitterPoint { setup, jitter_ms }.spec());
        }
    }
    let n = specs.len();
    let (cells, report) = run_checked(specs);
    assert_eq!(cells.len(), n);
    assert!(
        report.is_clean(),
        "violations across the {n}-cell impaired grid:\n{}",
        report.summary()
    );
    assert!(
        report.connections > 0 && report.segments > 0 && report.http_requests > 0,
        "checker saw no traffic: trace plumbing is broken"
    );
}

/// Run every cell under the trace-invariant checker on the pool; one
/// merged report across all cells.
fn run_checked(
    specs: Vec<httpipe_core::harness::CellSpec>,
) -> (Vec<httpipe_core::result::CellResult>, conformance::Report) {
    let mut merged = conformance::Report::default();
    let cells = run_cells_map(specs, None, |spec| {
        let (out, report) = run_spec_checked(spec);
        (out.cell, report)
    })
    .into_iter()
    .map(|(cell, report)| {
        merged.merge(report);
        cell
    })
    .collect();
    (cells, merged)
}
