//! Determinism and equivalence guarantees of the parallel experiment
//! engine:
//!
//! * the same `CellSpec` always produces bit-identical `CellResult`s;
//! * `run_cells` (threaded) agrees with a serial `run_spec` loop
//!   cell-for-cell across the full Tables 4–9 matrix;
//! * stats-only tracing reports the same `TraceStats` as full tracing
//!   for every cell of the matrix, and the same `CellResult`s across
//!   the impaired robustness grid and jitter study.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::protocol_matrix::matrix_setups;
use httpipe_core::experiments::robustness::{jitter_study, reduced_grid, run_points};
use httpipe_core::harness::{matrix_spec, run_cells, run_cells_map, run_spec, CellSpec, Scenario};
use httpserver::ServerKind;
use netsim::TraceMode;

/// Every cell of Tables 4–9 (44 specs), in table order.
fn full_matrix(mode: TraceMode) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for env in [NetEnv::Lan, NetEnv::Wan, NetEnv::Ppp] {
        for server in [ServerKind::Jigsaw, ServerKind::Apache] {
            for &setup in matrix_setups(env) {
                for scenario in [Scenario::FirstTime, Scenario::Revalidate] {
                    let mut spec = matrix_spec(env, server, setup, scenario);
                    spec.trace_mode = mode;
                    specs.push(spec);
                }
            }
        }
    }
    specs
}

#[test]
fn same_spec_is_bit_identical_across_runs() {
    for (env, scenario) in [
        (NetEnv::Lan, Scenario::FirstTime),
        (NetEnv::Wan, Scenario::Revalidate),
        (NetEnv::Ppp, Scenario::FirstTime),
    ] {
        let spec = || {
            matrix_spec(
                env,
                ServerKind::Apache,
                httpipe_core::harness::ProtocolSetup::Http11Pipelined,
                scenario,
            )
        };
        let a = run_spec(spec()).cell;
        let b = run_spec(spec()).cell;
        assert_eq!(a, b, "{env:?} {scenario:?} not deterministic");
    }
}

#[test]
fn parallel_matrix_equals_serial_loop() {
    let serial: Vec<_> = full_matrix(TraceMode::StatsOnly)
        .into_iter()
        .map(|spec| run_spec(spec).cell)
        .collect();

    // Default thread policy (may be serial on a 1-core host) ...
    let parallel = run_cells(full_matrix(TraceMode::StatsOnly));
    assert_eq!(serial, parallel);

    // ... and a forced 4-worker pool, so the threaded executor and its
    // input-order result reassembly are exercised regardless of host.
    let threaded = run_cells_map(full_matrix(TraceMode::StatsOnly), Some(4), |s| {
        run_spec(s).cell
    });
    assert_eq!(serial, threaded);
}

#[test]
fn stats_only_matches_full_trace_across_matrix() {
    for (lean_spec, full_spec) in full_matrix(TraceMode::StatsOnly)
        .into_iter()
        .zip(full_matrix(TraceMode::Full))
    {
        let lean = run_spec(lean_spec);
        let full = run_spec(full_spec);
        assert_eq!(lean.cell, full.cell);
        assert_eq!(
            lean.sim.trace().stats(lean.client_host, lean.server_host),
            full.sim.trace().stats(full.client_host, full.server_host),
        );
        assert!(
            lean.sim.trace().records().is_empty(),
            "stats-only must retain no per-packet records"
        );
        assert!(!full.sim.trace().records().is_empty());
    }
}

/// The impaired cells in both trace modes: the reduced loss grid and the
/// jitter study exercise exactly the counters the trace folds beside the
/// packet counts (drops, reorders, retransmissions), so `StatsOnly` and
/// `Full` must agree on every `CellResult` there too.
#[test]
fn stats_only_matches_full_trace_under_impairment() {
    let full_trace = |mut spec: CellSpec| {
        spec.trace_mode = TraceMode::Full;
        spec
    };
    let grid = reduced_grid();
    assert!(grid
        .iter()
        .all(|p| p.spec().trace_mode == TraceMode::StatsOnly));
    let lean: Vec<_> = run_points(&grid).into_iter().map(|c| c.cell).collect();
    let full = run_cells(grid.iter().map(|p| full_trace(p.spec())).collect());
    assert_eq!(lean, full, "reduced loss grid differs across trace modes");
    assert!(lean.iter().any(|c| c.drops > 0 && c.retransmits > 0));

    let jitter = jitter_study();
    assert!(jitter
        .iter()
        .all(|(p, _)| p.spec().trace_mode == TraceMode::StatsOnly));
    let full = run_cells(jitter.iter().map(|(p, _)| full_trace(p.spec())).collect());
    let lean: Vec<_> = jitter.into_iter().map(|(_, c)| c).collect();
    assert_eq!(lean, full, "jitter study differs across trace modes");
    assert!(lean.iter().any(|c| c.reorders > 0));
}
