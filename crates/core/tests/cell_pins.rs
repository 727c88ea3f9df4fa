//! Exact pins for the experiment cells that are not plain matrix cells:
//! the browser, modem-compression, CSS-browse, summary and range-revisit
//! experiments each describe their run differently from `matrix_spec`.
//! One FNV-1a digest over the `Debug` rendering of every such cell, in a
//! fixed order, must stay bit-identical, so a change to how these runs
//! are described or executed cannot shift a single field unnoticed.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::ranges::{run_revisit_cell, RevisitIdiom};
use httpipe_core::experiments::{browsers, compression, content, summary};
use httpipe_core::result::CellResult;
use httpserver::ServerKind;

/// The digest of [`pinned_cells`].
const PINNED_DIGEST: u64 = 0x2b4e_8db0_960b_e91f;

fn pinned_cells() -> Vec<CellResult> {
    let mut cells = Vec::new();
    for server in [ServerKind::Jigsaw, ServerKind::Apache] {
        for (_, first, reval) in browsers::browser_cells(server) {
            cells.extend([first, reval]);
        }
    }
    for server in [ServerKind::Jigsaw, ServerKind::Apache] {
        let (plain, deflated) = compression::modem_cells(server);
        cells.extend([plain, deflated]);
    }
    for pipelined in [true, false] {
        let (original, converted) = content::css_browse_cells(pipelined);
        cells.extend([original, converted]);
    }
    cells.push(summary::baseline_cell());
    cells.push(summary::all_techniques_cell());
    for env in [NetEnv::Lan, NetEnv::Ppp] {
        for idiom in [RevisitIdiom::FullOnChange, RevisitIdiom::RangeMetadata] {
            cells.push(run_revisit_cell(env, idiom));
        }
    }
    cells
}

fn digest(cells: &[CellResult]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for c in cells {
        for &b in format!("{c:?}").as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[test]
fn non_matrix_experiment_cells_are_pinned() {
    let cells = pinned_cells();
    assert_eq!(cells.len(), 8 + 4 + 4 + 2 + 4);
    let got = digest(&cells);
    assert_eq!(
        got, PINNED_DIGEST,
        "experiment cells drifted: digest {got:#018x}\n{cells:#?}"
    );
}
