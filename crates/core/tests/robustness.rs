//! Integration tests for the loss/jitter robustness family: determinism
//! across thread counts, exact zero-loss equivalence with the unimpaired
//! protocol matrix, and the headline qualitative result — pipelining's
//! single connection is more fragile per lost packet than HTTP/1.0's four
//! parallel connections, but still wins outright at moderate loss.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::robustness::{
    self, jitter_study, LossShape, RobustnessCell, RobustnessPoint, SETUPS,
};
use httpipe_core::harness::{run_matrix_cell, ProtocolSetup, Scenario};
use httpserver::ServerKind;

/// Two runs of the reduced grid — one serial, one with an 8-thread pool —
/// must produce bit-identical reports.
#[test]
fn reduced_grid_is_deterministic_across_thread_counts() {
    let points = robustness::reduced_grid();
    assert_eq!(points.len(), 18);

    let serial: Vec<RobustnessCell> = points
        .iter()
        .map(|p| RobustnessCell {
            point: *p,
            cell: httpipe_core::harness::run_spec(p.spec()).cell,
        })
        .collect();
    let pooled = {
        let specs = points.iter().map(|p| p.spec()).collect();
        let cells = httpipe_core::harness::run_cells_map(specs, Some(8), |s| {
            httpipe_core::harness::run_spec(s).cell
        });
        points
            .iter()
            .zip(cells)
            .map(|(&point, cell)| RobustnessCell { point, cell })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        robustness::report_digest(&serial),
        robustness::report_digest(&pooled),
        "serial and 8-thread runs must render identical reports"
    );
    for (a, b) in serial.iter().zip(&pooled) {
        assert_eq!(a.cell, b.cell, "cell {:?}", a.point);
    }
}

/// The zero-loss grid rows install a live impairment pipeline (Bernoulli
/// p=0 draws per packet) yet must reproduce the unimpaired protocol
/// matrix numbers *exactly* — the pipeline may not perturb timing.
#[test]
fn zero_loss_pipeline_matches_unimpaired_matrix_exactly() {
    for env in NetEnv::ALL {
        for setup in [ProtocolSetup::Http10, ProtocolSetup::Http11Pipelined] {
            let point = RobustnessPoint {
                env,
                setup,
                scenario: Scenario::FirstTime,
                loss_pct: 0.0,
                shape: LossShape::Uniform,
                cc: netsim::CcVariant::Reno,
            };
            let impaired = httpipe_core::harness::run_spec(point.spec()).cell;
            let clean = run_matrix_cell(env, ServerKind::Apache, setup, Scenario::FirstTime);
            assert_eq!(
                impaired,
                clean,
                "{} {} zero-loss cell must equal the matrix cell",
                env.name(),
                setup.label()
            );
        }
    }
}

/// WAN first-time retrieval across the full loss grid: lossy cells
/// actually lose packets and repair them, and the protocol comparison
/// shifts the way head-of-line blocking predicts.
#[test]
fn wan_loss_grid_claims() {
    let points = robustness::grid(
        &[NetEnv::Wan],
        &robustness::LOSS_GRID_PCT,
        &SETUPS,
        &[Scenario::FirstTime],
    );
    let cells = robustness::run_points(&points);

    let find = |setup: ProtocolSetup, loss: f64, shape: LossShape| -> &RobustnessCell {
        cells
            .iter()
            .find(|c| c.point.setup == setup && c.point.loss_pct == loss && c.point.shape == shape)
            .expect("grid point present")
    };

    // Every 5%-uniform cell sees real drops and real retransmissions.
    for &setup in &SETUPS {
        let c = find(setup, 5.0, LossShape::Uniform);
        assert!(c.cell.drops > 0, "{}: no drops at 5%", setup.label());
        assert!(
            c.cell.retransmits > 0,
            "{}: drops must be repaired by retransmissions",
            setup.label()
        );
    }

    // Head-of-line blocking: at 5% uniform loss the single pipelined
    // connection pays more elapsed-time inflation *per lost packet* than
    // HTTP/1.0's four parallel connections, which localize each loss.
    let pipe = find(ProtocolSetup::Http11Pipelined, 5.0, LossShape::Uniform);
    let h10 = find(ProtocolSetup::Http10, 5.0, LossShape::Uniform);
    let per_drop = |c: &RobustnessCell| {
        robustness::inflation_pct(&cells, c).expect("baseline present") / c.cell.drops as f64
    };
    assert!(
        per_drop(pipe) > per_drop(h10),
        "pipelining must be more fragile per lost packet: {:.1}%/drop vs {:.1}%/drop",
        per_drop(pipe),
        per_drop(h10)
    );

    // ... and yet at moderate loss rates pipelining still wins outright
    // on elapsed time, in both loss shapes.
    for loss in [0.5, 2.0] {
        for shape in LossShape::ALL {
            let p = find(ProtocolSetup::Http11Pipelined, loss, shape);
            let h = find(ProtocolSetup::Http10, loss, shape);
            assert!(
                p.cell.secs < h.cell.secs,
                "pipelined must still beat HTTP/1.0 at {loss}% {}: {:.2}s vs {:.2}s",
                shape.label(),
                p.cell.secs,
                h.cell.secs
            );
        }
    }

    // The packet economy survives every loss rate.
    for c in &cells {
        if c.point.setup == ProtocolSetup::Http11Pipelined {
            let h = find(ProtocolSetup::Http10, c.point.loss_pct, c.point.shape);
            assert!(
                c.cell.packets() < h.cell.packets() * 2 / 3,
                "pipelining keeps its packet advantage under loss"
            );
        }
    }
}

/// On the modem link, pipelining also survives light loss better than
/// HTTP/1.0's parallel connections (whose bufferbloat-driven spurious
/// retransmissions the loss only compounds).
#[test]
fn ppp_light_loss_still_favors_pipelining() {
    let points = robustness::grid(
        &[NetEnv::Ppp],
        &[0.5],
        &[ProtocolSetup::Http10, ProtocolSetup::Http11Pipelined],
        &[Scenario::FirstTime],
    );
    let cells = robustness::run_points(&points);
    for shape in LossShape::ALL {
        let get = |setup: ProtocolSetup| {
            cells
                .iter()
                .find(|c| c.point.setup == setup && c.point.shape == shape)
                .expect("point present")
        };
        let pipe = get(ProtocolSetup::Http11Pipelined);
        let h10 = get(ProtocolSetup::Http10);
        assert!(
            pipe.cell.secs < h10.cell.secs,
            "PPP 0.5% {}: pipelined {:.2}s vs HTTP/1.0 {:.2}s",
            shape.label(),
            pipe.cell.secs,
            h10.cell.secs
        );
        assert!(pipe.cell.packets() < h10.cell.packets() / 2);
    }
}

/// The jitter/reordering study: reordering really happens, provokes
/// spurious fast retransmits, and every setup still completes correctly.
#[test]
fn jitter_study_reorders_and_recovers() {
    let results = jitter_study();
    assert_eq!(results.len(), 9);
    for (p, cell) in &results {
        assert_eq!(cell.fetched, 43, "all objects fetched despite jitter");
        if p.jitter_ms == 0 {
            assert_eq!(cell.reorders, 0);
            assert_eq!(cell.drops, 0);
        }
    }
    let heavy_reorders: u64 = results
        .iter()
        .filter(|(p, _)| p.jitter_ms == 25)
        .map(|(_, c)| c.reorders)
        .sum();
    assert!(heavy_reorders > 0, "25ms jitter must reorder packets");
    let heavy_rexmit: u64 = results
        .iter()
        .filter(|(p, _)| p.jitter_ms == 25)
        .map(|(_, c)| c.retransmits)
        .sum();
    assert!(
        heavy_rexmit > 0,
        "reorder-induced dup ACKs must provoke fast retransmits"
    );
}
