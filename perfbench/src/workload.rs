//! The three workloads, their spec lists and the untraced pass, which
//! runs them through the same public harness entry points `repro` and
//! `experiments_md` use.

use httpclient::ProtocolMode;
use httpipe_core::env::NetEnv;
use httpipe_core::experiments::protocol_matrix::matrix_setups;
use httpipe_core::experiments::robustness::RobustnessPoint;
use httpipe_core::experiments::scale::ScalePoint;
use httpipe_core::experiments::{cc, mux, robustness};
use httpipe_core::harness::{
    matrix_spec, run_fleet, run_spec, run_spec_checked, CellSpec, FleetSpec, ProtocolSetup,
    Scenario,
};
use httpipe_core::result::CellResult;
use httpserver::ServerKind;
use netsim::{CcVariant, LossModel, TraceMode};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Objects on the Microscape page: the HTML plus 42 images.
pub const SITE_OBJECTS: u64 = 43;

/// The seed at which `lossy_observed` runs the grids' own impairment
/// seeds, so its digest can be pinned.
pub const DEFAULT_SEED: u64 = 0;

/// Digest of one `matrix` pass (the same value `bench_netsim` records).
const MATRIX_DIGEST: u64 = 0xbcfa_8af8_8a22_6233;
/// Digest of one `fleet` pass.
const FLEET_DIGEST: u64 = 0x45e6_61cc_7a44_00ab;
/// Digest of one `lossy_observed` pass at [`DEFAULT_SEED`].
const LOSSY_DIGEST: u64 = 0xd116_2eb1_0ddb_6aba;

/// The N=256 fleets of the `fleet` workload.
const FLEET_POINTS: [ScalePoint; 4] = [
    ScalePoint {
        env: NetEnv::Lan,
        setup: ProtocolSetup::Http10,
        n_clients: 256,
    },
    ScalePoint {
        env: NetEnv::Wan,
        setup: ProtocolSetup::Http11Pipelined,
        n_clients: 256,
    },
    ScalePoint {
        env: NetEnv::Ppp,
        setup: ProtocolSetup::Http11,
        n_clients: 256,
    },
    ScalePoint {
        env: NetEnv::Wan,
        setup: ProtocolSetup::Multiplexed,
        n_clients: 256,
    },
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 44 single-client cells of Tables 4–9, stats-only.
    Matrix,
    /// Four N=256 fleets through the shared bottleneck, stats-only.
    Fleet,
    /// The impaired grids with trace, probe, telemetry and the
    /// conformance checker on.
    LossyObserved,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Matrix, Workload::Fleet, Workload::LossyObserved];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Matrix => "matrix",
            Workload::Fleet => "fleet",
            Workload::LossyObserved => "lossy_observed",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The digest every pass must reproduce, where the seed fixes it.
    /// Other seeds are judged by the oracles alone.
    pub fn pinned_digest(self, seed: u64) -> Option<u64> {
        match self {
            Workload::Matrix => Some(MATRIX_DIGEST),
            Workload::Fleet => Some(FLEET_DIGEST),
            Workload::LossyObserved => (seed == DEFAULT_SEED).then_some(LOSSY_DIGEST),
        }
    }
}

/// One pass's inputs: single-client cells or fleets.
pub enum Specs {
    /// Single-client cells.
    Cells(Vec<CellSpec>),
    /// Fleets.
    Fleets(Vec<FleetSpec>),
}

/// Build the workload's spec list. The first call in a process also
/// generates the Microscape site and its store (set-up).
pub fn specs(workload: Workload, seed: u64) -> Specs {
    match workload {
        Workload::Matrix => Specs::Cells(matrix_specs()),
        Workload::Fleet => Specs::Fleets(FLEET_POINTS.iter().map(ScalePoint::spec).collect()),
        Workload::LossyObserved => Specs::Cells(
            lossy_points()
                .iter()
                .map(|p| observed_spec(p, seed))
                .collect(),
        ),
    }
}

/// Every cell of Tables 4–9, in table order (`bench_netsim`'s order).
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

/// The impaired grids: robustness, congestion control and mux loss.
fn lossy_points() -> Vec<RobustnessPoint> {
    let mut points = robustness::full_grid();
    points.extend(cc::full_grid());
    points.extend(mux::loss_grid());
    points
}

/// A grid point's cell with every observation channel on. A non-default
/// seed perturbs the point's impairment seed; variants at one coordinate
/// still share their draw sequence.
fn observed_spec(point: &RobustnessPoint, seed: u64) -> CellSpec {
    let mut spec = point.spec();
    if seed != DEFAULT_SEED {
        let impair = point.impairment();
        spec.impair = Some(impair.with_seed(point.seed() ^ splitmix64(seed)));
    }
    spec.trace_mode = TraceMode::Full;
    spec.probe = true;
    spec.telemetry = true;
    spec
}

/// SplitMix64 finaliser: spreads a small workload seed over 64 bits.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The coordinates of one cell that a failure report names, enough to
/// find and re-run the cell alone.
#[derive(Clone, Copy)]
pub struct CellTag {
    index: usize,
    env: NetEnv,
    mode: ProtocolMode,
    loss: Option<LossModel>,
    impair_seed: Option<u64>,
    cc: Option<CcVariant>,
}

impl CellTag {
    /// Tag the `index`-th cell of a pass.
    pub fn of(index: usize, spec: &CellSpec) -> CellTag {
        CellTag {
            index,
            env: spec.env,
            mode: spec.client.mode,
            loss: spec.impair.as_ref().map(|i| i.loss),
            impair_seed: spec.impair.as_ref().map(|i| i.seed),
            cc: spec.tcp.as_ref().map(|t| t.cc),
        }
    }
}

impl fmt::Display for CellTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} ({:?} {:?}, loss {:?}, impairment seed {:?}, cc {:?})",
            self.index, self.env, self.mode, self.loss, self.impair_seed, self.cc
        )
    }
}

/// Name every conformance violation of a cell on stderr, so a failed
/// run says which cell broke which invariant.
pub fn report_violations(pass: &str, tag: CellTag, violations: &[conformance::Violation]) {
    for v in violations {
        eprintln!("{pass} pass, {tag}: {v}");
    }
}

/// What one pass produced and how many of its operations failed. An
/// operation is one client's page retrieval.
#[derive(Default)]
pub struct Outcome {
    /// Every client's cell, in pass order.
    pub cells: Vec<CellResult>,
    /// Operations attempted.
    pub ops: u64,
    /// Operations failed: short fetch, conformance violation or panic.
    pub failed: u64,
    /// Simulated packets, both directions, every client.
    pub packets: u64,
}

impl Outcome {
    /// Record one client's retrieval and the conformance violations its
    /// trace showed.
    pub fn record(&mut self, cell: CellResult, violations: usize) {
        self.ops += 1;
        if cell.fetched < SITE_OBJECTS {
            eprintln!(
                "operation {} fetched {} of {SITE_OBJECTS} objects",
                self.ops, cell.fetched
            );
        }
        if cell.fetched < SITE_OBJECTS || violations > 0 {
            self.failed += 1;
        }
        self.packets += cell.packets();
        self.cells.push(cell);
    }

    /// Record `ops` retrievals lost to a panic.
    pub fn panicked(&mut self, ops: u64) {
        self.ops += ops;
        self.failed += ops;
    }

    /// FNV-1a over the `Debug` rendering of every cell, in order — the
    /// rule of `bench_netsim`'s `cells_digest`.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for c in &self.cells {
            for &b in format!("{c:?}").as_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }
}

/// One untraced pass: build the spec list and run it through
/// `run_spec`, `run_spec_checked` or `run_fleet`.
pub fn run_untraced(workload: Workload, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    match specs(workload, seed) {
        Specs::Cells(specs) => {
            for (index, spec) in specs.into_iter().enumerate() {
                let observed = spec.probe;
                let tag = CellTag::of(index, &spec);
                let run = catch_unwind(AssertUnwindSafe(|| {
                    if observed {
                        let (run, report) = run_spec_checked(spec);
                        (run.cell, report.violations)
                    } else {
                        (run_spec(spec).cell, Vec::new())
                    }
                }));
                match run {
                    Ok((cell, violations)) => {
                        report_violations("untraced", tag, &violations);
                        out.record(cell, violations.len());
                    }
                    Err(_) => {
                        eprintln!("untraced pass, {tag}: panicked");
                        out.panicked(1);
                    }
                }
            }
        }
        Specs::Fleets(specs) => {
            for spec in specs {
                let clients = spec.n_clients as u64;
                match catch_unwind(AssertUnwindSafe(|| run_fleet(spec).per_client)) {
                    Ok(cells) => cells.into_iter().for_each(|c| out.record(c, 0)),
                    Err(_) => out.panicked(clients),
                }
            }
        }
    }
    out
}
