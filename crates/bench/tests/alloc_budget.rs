//! Allocation budget of the simulator's two hot paths, counted exactly.
//!
//! * The matrix path: all 44 cells of Tables 4–9, stats-only, run
//!   serially on this thread.
//! * The fleet path: two 16-client WAN fleets (pipelined and
//!   multiplexed) through the shared bottleneck.
//!
//! The simulation is deterministic, so once a warm-up pass of a path has
//! filled the thread-local buffer pools, the counted pass that follows
//! it allocates the same number of times on every run and in every build
//! profile. The budgets are ceilings: a change that allocates more on
//! either path fails here, and a change that allocates less may lower
//! them.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::protocol_matrix::matrix_setups;
use httpipe_core::experiments::scale::ScalePoint;
use httpipe_core::harness::{
    matrix_spec, run_cells_map, run_fleet, run_spec, CellSpec, ProtocolSetup, Scenario,
};
use httpipe_core::result::CellResult;
use httpserver::ServerKind;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc::new();

/// Packets of one matrix pass, and the most allocations it may make.
const MATRIX_PACKETS: u64 = 8_870;
const MATRIX_ALLOCS: u64 = 161_722;

/// Packets of one fleet pass, and the most allocations it may make.
const FLEET_PACKETS: u64 = 8_384;
const FLEET_ALLOCS: u64 = 134_686;

/// Every cell of Tables 4–9, in table order.
fn matrix_specs() -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for env in [NetEnv::Lan, NetEnv::Wan, NetEnv::Ppp] {
        for server in [ServerKind::Jigsaw, ServerKind::Apache] {
            for &setup in matrix_setups(env) {
                for scenario in [Scenario::FirstTime, Scenario::Revalidate] {
                    specs.push(matrix_spec(env, server, setup, scenario));
                }
            }
        }
    }
    specs
}

fn matrix_pass() -> Vec<CellResult> {
    run_cells_map(matrix_specs(), Some(1), |s| run_spec(s).cell)
}

fn fleet_pass() -> Vec<CellResult> {
    let mut cells = Vec::new();
    for setup in [ProtocolSetup::Http11Pipelined, ProtocolSetup::Multiplexed] {
        let point = ScalePoint {
            env: NetEnv::Wan,
            setup,
            n_clients: 16,
        };
        cells.extend(run_fleet(point.spec()).per_client);
    }
    cells
}

/// Run `pass` and return its cells with the allocations it made.
fn counted(pass: fn() -> Vec<CellResult>) -> (Vec<CellResult>, u64) {
    let before = counting_alloc::allocations();
    let cells = pass();
    (cells, counting_alloc::allocations() - before)
}

#[test]
fn hot_paths_stay_within_allocation_budget() {
    let warm_matrix = matrix_pass();
    let (matrix, matrix_allocs) = counted(matrix_pass);
    let warm_fleet = fleet_pass();
    let (fleet, fleet_allocs) = counted(fleet_pass);

    assert_eq!(matrix, warm_matrix, "matrix pass is not repeatable");
    assert_eq!(fleet, warm_fleet, "fleet pass is not repeatable");
    for (what, cells, packets, allocs, budget) in [
        (
            "matrix",
            &matrix,
            MATRIX_PACKETS,
            matrix_allocs,
            MATRIX_ALLOCS,
        ),
        ("fleet", &fleet, FLEET_PACKETS, fleet_allocs, FLEET_ALLOCS),
    ] {
        let sent: u64 = cells.iter().map(CellResult::packets).sum();
        assert_eq!(sent, packets, "{what} packet count changed");
        assert!(
            allocs <= budget,
            "{what} pass made {allocs} allocations over {sent} packets; budget {budget}"
        );
    }
}
