//! The fleet observatory: render telemetry time-series as ASCII
//! sparkline timelines, and package the deterministic smoke artifacts
//! (JSON, CSV, pcapng) that `crates/bench/tests/telemetry_goldens.rs`
//! compares byte-for-byte with committed goldens.
//!
//! Two scenes anchor the report:
//!
//! * **SYN burst** — the scale family's N=256 HTTP/1.0 LAN fleet slams
//!   a 64-entry listen backlog; the timeline shows the server's accept
//!   curve, the SYN-drop counter climbing during the burst, and the
//!   bottleneck queue draining.
//! * **RTO stall** — the robustness family's WAN pipelined 2%-loss cell
//!   run per congestion-control variant; cwnd timelines make the
//!   difference visible that the elapsed-time tables only imply (Reno's
//!   collapse vs NewReno/SACK riding through), and the same run exports
//!   a pcapng capture Wireshark opens directly.
//!
//! All rendering is integer arithmetic over the sink's tick/point data,
//! so the report is deterministic byte-for-byte.

use crate::env::NetEnv;
use crate::harness::{run_fleet, run_spec, ProtocolSetup, Scenario};
use crate::result::Table;
use netsim::telemetry::{Point, SeriesData, TelemetrySink};
use netsim::{CcVariant, HostId, Metric, Scope};

use super::robustness::{LossShape, RobustnessPoint};
use super::scale::ScalePoint;

/// Timeline width in columns.
pub const COLS: usize = 64;

const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render values as a Unicode block sparkline, scaled against the
/// maximum with integer arithmetic (`level = v·7 / max`).
pub fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| BLOCKS[(v * 7).checked_div(max).unwrap_or(0) as usize])
        .collect()
}

/// Resample a gauge's sample-and-hold points onto `cols` columns
/// covering ticks `0..ticks`: each column shows the gauge's value at the
/// end of its tick range (0 before the first point).
pub fn resample_gauge(points: &[Point], ticks: u64, cols: usize) -> Vec<u64> {
    let ticks = ticks.max(1);
    let mut out = Vec::with_capacity(cols);
    let mut idx = 0;
    let mut held = 0;
    for c in 0..cols {
        // End tick of this column, exclusive.
        let end = (c as u64 + 1) * ticks / cols as u64;
        while idx < points.len() && points[idx].tick < end {
            held = points[idx].value;
            idx += 1;
        }
        out.push(held);
    }
    out
}

/// Resample a counter's cumulative points onto `cols` columns as
/// per-column increments (a rate view of the counter).
pub fn resample_counter(points: &[Point], ticks: u64, cols: usize) -> Vec<u64> {
    let totals = resample_gauge(points, ticks, cols);
    let mut out = Vec::with_capacity(cols);
    let mut prev = 0;
    for t in totals {
        out.push(t - prev);
        prev = t;
    }
    out
}

/// Highest tick index recorded in any time series of the sink.
pub fn last_tick(sink: &TelemetrySink) -> u64 {
    sink.series()
        .iter()
        .flat_map(|s| s.data.points().last())
        .map(|p| p.tick)
        .max()
        .unwrap_or(0)
}

fn timeline_row(out: &mut String, label: &str, values: &[u64], unit: &str) {
    let max = values.iter().copied().max().unwrap_or(0);
    out.push_str(&format!(
        "  {label:<26} {}  peak {max}{unit}\n",
        sparkline(values)
    ));
}

fn gauge_points(sink: &TelemetrySink, scope: Scope, metric: Metric) -> &[Point] {
    sink.get(scope, metric).map_or(&[], SeriesData::points)
}

/// The SYN-burst scene: N clients slam the server's bounded listen
/// backlog. Returns the rendered timeline block.
pub fn syn_burst_timeline(n_clients: usize) -> String {
    let point = ScalePoint {
        env: NetEnv::Lan,
        setup: ProtocolSetup::Http10,
        n_clients,
    };
    let mut spec = point.spec();
    spec.telemetry = true;
    let out = run_fleet(spec);
    let sink = out.sim.telemetry();
    let server = out.server_host;
    let ticks = last_tick(sink) + 1;
    let tick_ms = sink.tick_ns() / 1_000_000;

    let mut s = String::new();
    s.push_str(&format!(
        "--- SYN burst: {} HTTP/1.0 clients vs listen backlog {} (LAN, {} ticks x {} ms) ---\n",
        n_clients,
        super::scale::LISTEN_BACKLOG,
        ticks,
        tick_ms,
    ));
    timeline_row(
        &mut s,
        "server connections",
        &resample_gauge(
            gauge_points(sink, Scope::Host(server), Metric::ServerConnections),
            ticks,
            COLS,
        ),
        "",
    );
    timeline_row(
        &mut s,
        "syn drops (per col)",
        &resample_counter(
            gauge_points(sink, Scope::Host(server), Metric::SynDrops),
            ticks,
            COLS,
        ),
        "",
    );
    // The shared bottleneck is kernel link 0; spokes sit on the `a`
    // side, so a>b is client->server (the SYN direction) and b>a the
    // response direction.
    for (dir, a_to_b) in [("queue c->s bytes", true), ("queue s->c bytes", false)] {
        timeline_row(
            &mut s,
            dir,
            &resample_gauge(
                gauge_points(sink, Scope::Link { link: 0, a_to_b }, Metric::QueueBytes),
                ticks,
                COLS,
            ),
            "B",
        );
    }
    timeline_row(
        &mut s,
        "server buffered bytes",
        &resample_gauge(
            gauge_points(sink, Scope::Host(server), Metric::ServerBufferedBytes),
            ticks,
            COLS,
        ),
        "B",
    );
    let total_syn_drops = out.server_sockets.syn_drops;
    s.push_str(&format!("  total SYN drops: {total_syn_drops}\n"));
    s
}

/// The congestion-control variants the RTO-stall scene compares.
pub const RTO_VARIANTS: [CcVariant; 3] = [CcVariant::Reno, CcVariant::NewReno, CcVariant::Sack];

/// The RTO-stall coordinate: WAN pipelined first fetch at 2% uniform
/// loss (the robustness family's head-of-line-blocking showcase).
pub fn rto_point(cc: CcVariant) -> RobustnessPoint {
    RobustnessPoint {
        env: NetEnv::Wan,
        setup: ProtocolSetup::Http11Pipelined,
        scenario: Scenario::FirstTime,
        loss_pct: 2.0,
        shape: LossShape::Uniform,
        cc,
    }
}

/// First connection of `host` carrying the given per-connection metric,
/// in key order.
fn first_conn_points(sink: &TelemetrySink, host: HostId, metric: Metric) -> &[Point] {
    sink.series()
        .iter()
        .find(|s| {
            s.key.metric == metric
                && matches!(s.key.scope, Scope::Conn { host: h, .. } if h == host)
        })
        .map_or(&[], |s| s.data.points())
}

/// The RTO-stall scene: one cwnd timeline per congestion-control
/// variant over the identical loss draw sequence, plus recovery-episode
/// counts. Returns the rendered block.
pub fn rto_stall_timeline() -> String {
    let mut s = String::new();
    s.push_str("--- RTO stall: WAN pipelined @ 2.0% uniform loss, client cwnd by CC variant ---\n");
    for cc in RTO_VARIANTS {
        let mut spec = rto_point(cc).spec();
        spec.telemetry = true;
        let out = run_spec(spec);
        let sink = out.sim.telemetry();
        let ticks = last_tick(sink) + 1;
        let cwnd = resample_gauge(
            first_conn_points(sink, out.client_host, Metric::Cwnd),
            ticks,
            COLS,
        );
        let recoveries = sink
            .get(Scope::Global, Metric::CcRecoveries(cc))
            .map_or(0, |d| match d {
                SeriesData::Counter { total, .. } => *total,
                _ => 0,
            });
        let max = cwnd.iter().copied().max().unwrap_or(0);
        s.push_str(&format!(
            "  cwnd {:<8} {}  peak {}B, {} recoveries, {:.2}s\n",
            cc.label(),
            sparkline(&cwnd),
            max,
            recoveries,
            out.cell.secs,
        ));
    }
    s
}

/// The full observatory report for EXPERIMENTS.md.
pub fn report(n_clients: usize) -> String {
    let mut s = String::new();
    s.push_str(&syn_burst_timeline(n_clients));
    s.push('\n');
    s.push_str(&rto_stall_timeline());
    s
}

/// A summary table of telemetry volume for a handful of representative
/// cells — demonstrates the `CellResult` roll-up.
pub fn volume_table() -> Table {
    let mut t = Table::new(
        "Telemetry volume (series / points / histogram samples)",
        &["Series", "Points", "HistSamples"],
    );
    for cc in RTO_VARIANTS {
        let mut spec = rto_point(cc).spec();
        spec.telemetry = true;
        let out = run_spec(spec);
        let sum = out.cell.telemetry.expect("telemetry enabled");
        t.push_row(
            &format!("WAN pipelined 2% [{}]", cc.label()),
            vec![
                sum.series.to_string(),
                sum.points.to_string(),
                sum.hist_samples.to_string(),
            ],
        );
    }
    t
}

/// The deterministic artifacts the telemetry goldens pin:
/// JSON and pcapng from a single WAN loss cell, CSV from a small fleet.
pub struct SmokeArtifacts {
    /// Telemetry series of the WAN cell, rendered as JSON.
    pub json: String,
    /// Telemetry series of the N=8 LAN fleet, rendered as CSV.
    pub csv: String,
    /// pcapng capture of the WAN cell.
    pub pcapng: Vec<u8>,
}

/// Produce the smoke artifacts (reduced grid: one cell + one small
/// fleet). Two invocations must agree byte-for-byte.
pub fn smoke_artifacts() -> SmokeArtifacts {
    let mut spec = rto_point(CcVariant::NewReno).spec();
    spec.telemetry = true;
    spec.trace_mode = netsim::TraceMode::Full;
    let cell = run_spec(spec);
    let json = cell
        .sim
        .telemetry()
        .render_json("wan-pipelined-2.0-newreno");
    let pcapng = netsim::pcapng::export_trace(cell.sim.trace()).expect("full trace");

    // Pipelined clients keep one connection each, so the CSV golden
    // stays small while still covering fleet/link/server series.
    let mut fleet_spec = ScalePoint {
        env: NetEnv::Lan,
        setup: ProtocolSetup::Http11Pipelined,
        n_clients: 8,
    }
    .spec();
    fleet_spec.telemetry = true;
    let fleet = run_fleet(fleet_spec);
    let csv = fleet.sim.telemetry().render_csv();

    SmokeArtifacts { json, csv, pcapng }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_by_integer_levels() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        assert_eq!(sparkline(&[0, 7, 14]), "▁▄█");
        assert_eq!(sparkline(&[1, 1]), "██");
    }

    #[test]
    fn resample_holds_and_carries_gauge_values() {
        let points = [Point { tick: 0, value: 5 }, Point { tick: 10, value: 9 }];
        // 20 ticks over 4 columns: boundaries at tick 5, 10, 15, 20.
        assert_eq!(resample_gauge(&points, 20, 4), vec![5, 5, 9, 9]);
        // Before any point: zero.
        let late = [Point { tick: 15, value: 3 }];
        assert_eq!(resample_gauge(&late, 20, 4), vec![0, 0, 0, 3]);
    }

    #[test]
    fn resample_counter_yields_increments() {
        let points = [Point { tick: 0, value: 2 }, Point { tick: 12, value: 7 }];
        assert_eq!(resample_counter(&points, 16, 4), vec![2, 0, 0, 5]);
    }

    #[test]
    fn rto_cell_records_conn_series_and_exports_pcap() {
        let mut spec = rto_point(CcVariant::Reno).spec();
        spec.telemetry = true;
        spec.trace_mode = netsim::TraceMode::Full;
        let out = run_spec(spec);
        let sink = out.sim.telemetry();
        assert!(!first_conn_points(sink, out.client_host, Metric::Cwnd).is_empty());
        assert!(out.cell.telemetry.expect("summary").series > 0);
        let pcap = netsim::pcapng::export_trace(out.sim.trace()).expect("full trace");
        let packets = netsim::pcapng::parse(&pcap).expect("round trip");
        assert_eq!(packets.len(), out.sim.trace().records().len());
    }

    #[test]
    fn smoke_artifacts_are_deterministic() {
        let a = smoke_artifacts();
        let b = smoke_artifacts();
        assert_eq!(a.json, b.json);
        assert_eq!(a.csv, b.csv);
        assert_eq!(a.pcapng, b.pcapng);
        assert!(a.json.contains("\"metric\": \"cwnd_bytes\""));
        assert!(a.csv.contains("syn") || a.csv.contains("server_connections"));
        assert!(!a.pcapng.is_empty());
    }
}
