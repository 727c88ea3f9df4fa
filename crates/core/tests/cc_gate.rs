//! Gates for the congestion-control lab: the reduced CC grid must be
//! conformant under every variant's own invariants, and the measured
//! recovery ordering at 2% WAN loss — the lab's headline — must hold.
//!
//! The ordering pinned here is a real, deterministic measurement (every
//! variant faces the identical impairment draw sequence): on the single
//! pipelined connection, RFC 6582-style recovery (NewReno/SACK) and
//! CUBIC all beat Reno's retransmit-then-stall by a wide margin, while
//! on HTTP/1.0's four short parallel connections the fast-retransmit
//! variants are nearly indistinguishable — recovery sophistication pays
//! precisely where the paper's preferred transport concentrates traffic.

use httpipe_core::experiments::cc;
use httpipe_core::experiments::robustness;
use httpipe_core::harness::{run_spec_checked, ProtocolSetup};
use netsim::CcVariant;

fn inflation(cells: &[robustness::RobustnessCell], setup: ProtocolSetup, cc: CcVariant) -> f64 {
    cc::variant_inflation(cells, setup, 2.0, cc)
        .unwrap_or_else(|| panic!("missing 2% cell for {setup:?} {cc:?}"))
}

/// Report digest of the reduced CC grid (the value EXPERIMENTS.md
/// prints). Any change to a variant's recovery, or to the impairment
/// draws the variants share, moves it.
const REDUCED_GRID_DIGEST: u64 = 0xc1b4_e534_0e81_f033;

#[test]
fn recovery_ordering_at_two_percent_wan_loss() {
    let cells = robustness::run_points(&cc::reduced_grid());
    assert_eq!(
        cc::report_digest(&cc::report(&cells)),
        REDUCED_GRID_DIGEST,
        "the reduced CC grid's report changed"
    );

    let pipelined = |cc| inflation(&cells, ProtocolSetup::Http11Pipelined, cc);
    let reno = pipelined(CcVariant::Reno);
    let newreno = pipelined(CcVariant::NewReno);
    let sack = pipelined(CcVariant::Sack);
    let cubic = pipelined(CcVariant::Cubic);

    // The measured ordering change: on the pipelined single connection
    // every modern recovery algorithm beats Reno decisively.
    assert!(
        reno - newreno > 50.0,
        "NewReno no longer beats Reno on pipelined 2% loss ({newreno:.1} vs {reno:.1})"
    );
    assert!(
        reno - sack > 50.0,
        "SACK no longer beats Reno on pipelined 2% loss ({sack:.1} vs {reno:.1})"
    );
    assert!(
        reno - cubic > 20.0,
        "CUBIC no longer beats Reno on pipelined 2% loss ({cubic:.1} vs {reno:.1})"
    );
    // The scoreboard can only remove retransmissions, never add them.
    assert!(
        sack <= newreno + 1.0,
        "SACK worse than NewReno on pipelined 2% loss ({sack:.1} vs {newreno:.1})"
    );

    // On HTTP/1.0's four short parallel connections the fast-retransmit
    // variants are nearly indistinguishable: transfers are too short for
    // partial-ACK recovery to matter.
    let http10 = |cc| inflation(&cells, ProtocolSetup::Http10, cc);
    assert!(
        (http10(CcVariant::Reno) - http10(CcVariant::NewReno)).abs() < 5.0,
        "recovery algorithm unexpectedly matters for parallel short connections"
    );
}

#[test]
fn cc_grid_lossy_cells_are_conformant_per_variant() {
    for point in cc::reduced_grid() {
        if point.loss_pct == 0.0 || point.setup != ProtocolSetup::Http11Pipelined {
            continue;
        }
        let (out, report) = run_spec_checked(point.spec());
        assert!(
            report.is_clean(),
            "violations under {} at {}% loss:\n{}",
            point.cc.label(),
            point.loss_pct,
            report.summary()
        );
        assert!(
            out.cell.retransmits > 0,
            "{}: lossy pipelined cell had no retransmissions",
            point.cc.label()
        );
    }
}

/// Regression: a partial ACK that leaves only a short tail segment
/// outstanding must not make the hole fill carry never-sent bytes, which
/// the next output sent again at the same instant (`rexmit-justified`).
/// These WAN first-time NewReno cells at Bernoulli loss reached that
/// path with these impairment seeds.
#[test]
fn tail_hole_fill_resends_only_sent_bytes() {
    use httpipe_core::env::NetEnv;
    use httpipe_core::experiments::robustness::{LossShape, RobustnessPoint};
    use httpipe_core::harness::Scenario;
    for (setup, loss_pct, seed) in [
        (ProtocolSetup::Http11, 5.0, 11_915_124_368_882_100_592),
        (
            ProtocolSetup::Http11Pipelined,
            5.0,
            6_253_233_183_455_012_284,
        ),
        (
            ProtocolSetup::Http11Pipelined,
            2.0,
            13_683_333_705_444_358_034,
        ),
    ] {
        let point = RobustnessPoint {
            env: NetEnv::Wan,
            setup,
            scenario: Scenario::FirstTime,
            loss_pct,
            shape: LossShape::Uniform,
            cc: CcVariant::NewReno,
        };
        let mut spec = point.spec();
        spec.impair = Some(point.impairment().with_seed(seed));
        let (out, report) = run_spec_checked(spec);
        assert!(
            report.is_clean(),
            "{setup:?} at {loss_pct}% (seed {seed}):\n{}",
            report.summary()
        );
        assert_eq!(out.cell.fetched, 43, "{setup:?} at {loss_pct}%");
    }
}
