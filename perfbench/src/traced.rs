//! The traced pass: the same cells and fleets re-wired from `netsim`'s
//! public API, with a phase timer around each call into a layer and a
//! timing [`App`] wrapper around the client and the server.
//!
//! It must reproduce the untraced pass's digest exactly; that proves
//! the re-wiring is the shipped path and not an approximation of it.
//!
//! An app's `on_event` time includes the kernel work that
//! `Ctx::send`/`recv`/`close` do synchronously (TCP output, link
//! transmit, queue push); only tracing inside `netsim` can split that.

use crate::workload::{report_violations, specs, CellTag, Outcome, Specs, Workload};
use httpclient::{ClientCache, ClientConfig, ClientStats, HttpClient, RequestStyle};
use httpipe_core::harness::{check_config_for, CellSpec, FleetSpec};
use httpipe_core::result::CellResult;
use httpserver::HttpServer;
use netsim::{App, AppEvent, Ctx, HostId, SimTime, Simulator, SockAddr, SocketStats, TraceStats};
use std::ops::AddAssign;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Time, calls and allocations spent inside one app's `on_event`.
#[derive(Debug, Default, Clone, Copy)]
pub struct AppCost {
    /// Wall seconds inside `on_event`.
    pub secs: f64,
    /// `on_event` calls.
    pub calls: u64,
    /// Heap allocations made inside `on_event`.
    pub allocs: u64,
}

impl AddAssign for AppCost {
    fn add_assign(&mut self, o: AppCost) {
        self.secs += o.secs;
        self.calls += o.calls;
        self.allocs += o.allocs;
    }
}

/// Wraps an app and counts the cost of every event it handles.
struct Timed<A> {
    inner: A,
    cost: AppCost,
}

impl<A> Timed<A> {
    fn new(inner: A) -> Box<Timed<A>> {
        Box::new(Timed {
            inner,
            cost: AppCost::default(),
        })
    }
}

impl<A: App> App for Timed<A> {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent) {
        let allocs = counting_alloc::allocations();
        let start = Instant::now();
        self.inner.on_event(ctx, event);
        self.cost.secs += start.elapsed().as_secs_f64();
        self.cost.calls += 1;
        self.cost.allocs += counting_alloc::allocations() - allocs;
    }
}

/// Where one traced pass's time and work went. Times are wall seconds
/// summed over the pass; counts are exact.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    /// Wall time of the whole pass.
    pub pass_s: f64,
    /// Building the spec list (`matrix_spec`, `ScalePoint::spec`, primed caches).
    pub spec_s: f64,
    /// `Simulator::new`, hosts, links, impairment, TCP config, `install_app`.
    pub build_s: f64,
    /// Inside `run_until_idle`.
    pub run_s: f64,
    /// `stats`, `socket_stats`, `app_mut`, result assembly, dropping the simulator.
    pub extract_s: f64,
    /// `conformance::check_trace`.
    pub check_s: f64,
    /// `netsim::probe::attribute`.
    pub attribute_s: f64,
    /// `TelemetrySink::summary`.
    pub summary_s: f64,
    /// Client `on_event`.
    pub client: AppCost,
    /// Server `on_event`.
    pub server: AppCost,
    /// Events processed (`run_until_idle`'s return value).
    pub events: u64,
    /// Simulated packets, both directions, every client.
    pub packets: u64,
    /// TCP retransmissions.
    pub retransmits: u64,
    /// Packets dropped at a full bottleneck queue.
    pub drops_queue: u64,
    /// Packets dropped by the loss model.
    pub drops_loss: u64,
    /// SYNs discarded at a full listen backlog.
    pub syn_drops: u64,
    /// Records in the full traces handed to the checker.
    pub trace_records: u64,
    /// Largest server peak of concurrent connections.
    pub peak_connections: u64,
    /// Heap allocations over the pass.
    pub allocs: u64,
    /// Heap bytes requested over the pass.
    pub alloc_bytes: u64,
    /// Heap allocations inside `run_until_idle`.
    pub run_allocs: u64,
}

impl Ledger {
    /// Pass wall time no phase accounts for.
    pub fn unattributed_s(&self) -> f64 {
        self.pass_s
            - (self.spec_s
                + self.build_s
                + self.run_s
                + self.extract_s
                + self.check_s
                + self.attribute_s
                + self.summary_s)
    }

    /// `run_until_idle` time outside both apps' `on_event`.
    pub fn kernel_self_s(&self) -> f64 {
        self.run_s - self.client.secs - self.server.secs
    }

    /// Allocations inside `run_until_idle` outside both apps' `on_event`.
    pub fn kernel_allocs(&self) -> u64 {
        self.run_allocs - self.client.allocs - self.server.allocs
    }

    /// Sum another pass into this one (for per-pass means).
    pub fn add(&mut self, o: &Ledger) {
        self.pass_s += o.pass_s;
        self.spec_s += o.spec_s;
        self.build_s += o.build_s;
        self.run_s += o.run_s;
        self.extract_s += o.extract_s;
        self.check_s += o.check_s;
        self.attribute_s += o.attribute_s;
        self.summary_s += o.summary_s;
        self.client += o.client;
        self.server += o.server;
        self.events += o.events;
        self.packets += o.packets;
        self.retransmits += o.retransmits;
        self.drops_queue += o.drops_queue;
        self.drops_loss += o.drops_loss;
        self.syn_drops += o.syn_drops;
        self.trace_records += o.trace_records;
        self.peak_connections = self.peak_connections.max(o.peak_connections);
        self.allocs += o.allocs;
        self.alloc_bytes += o.alloc_bytes;
        self.run_allocs += o.run_allocs;
    }

    fn count(&mut self, cell: &CellResult) {
        self.packets += cell.packets();
        self.retransmits += cell.retransmits;
        self.drops_queue += cell.drops_queue;
        self.drops_loss += cell.drops_loss;
    }
}

/// Run `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// One traced pass of the workload.
pub fn run_traced(workload: Workload, seed: u64) -> (Outcome, Ledger) {
    let mut l = Ledger::default();
    let mut out = Outcome::default();
    let (allocs, alloc_bytes) = (
        counting_alloc::allocations(),
        counting_alloc::allocated_bytes(),
    );
    let start = Instant::now();
    match timed(&mut l.spec_s, || specs(workload, seed)) {
        Specs::Cells(specs) => {
            for (index, spec) in specs.into_iter().enumerate() {
                let tag = CellTag::of(index, &spec);
                match catch_unwind(AssertUnwindSafe(|| traced_cell(spec, &mut l))) {
                    Ok((cell, violations)) => {
                        report_violations("traced", tag, &violations);
                        out.record(cell, violations.len());
                    }
                    Err(_) => {
                        eprintln!("traced pass, {tag}: panicked");
                        out.panicked(1);
                    }
                }
            }
        }
        Specs::Fleets(specs) => {
            for spec in specs {
                let clients = spec.n_clients as u64;
                match catch_unwind(AssertUnwindSafe(|| traced_fleet(spec, &mut l))) {
                    Ok(cells) => cells.into_iter().for_each(|c| out.record(c, 0)),
                    Err(_) => out.panicked(clients),
                }
            }
        }
    }
    l.pass_s = start.elapsed().as_secs_f64();
    l.allocs = counting_alloc::allocations() - allocs;
    l.alloc_bytes = counting_alloc::allocated_bytes() - alloc_bytes;
    (out, l)
}

/// `harness::run_spec` (and, for observed cells, `run_spec_checked`),
/// phase by phase. Returns the cell and its conformance violations.
fn traced_cell(spec: CellSpec, l: &mut Ledger) -> (CellResult, Vec<conformance::Violation>) {
    let observed = spec.probe;
    let check_cfg = check_config_for(&spec);
    let (mut sim, client_host, server_host) = timed(&mut l.build_s, || {
        let mut sim = Simulator::new();
        sim.set_trace_mode(spec.trace_mode);
        if spec.probe {
            sim.enable_probe();
        }
        if spec.telemetry {
            sim.enable_telemetry();
        }
        let client_host = sim.add_host("client");
        let server_host = sim.add_host("server");
        sim.add_link(client_host, server_host, spec.env.link());
        if let Some(impair) = spec.impair.clone() {
            sim.set_impairment(client_host, server_host, impair);
        }
        if let Some(tcp) = spec.tcp.clone() {
            sim.set_tcp_config(client_host, tcp.clone());
            sim.set_tcp_config(server_host, tcp);
        }
        if let Some(make) = spec.link_codec {
            sim.link_mut(client_host, server_host).set_codec(make);
        }
        sim.install_app(
            server_host,
            Timed::new(HttpServer::new(spec.server, spec.store)),
        );
        sim.install_app(
            client_host,
            Timed::new(HttpClient::with_cache(
                spec.client,
                spec.workload,
                spec.cache,
            )),
        );
        (sim, client_host, server_host)
    });
    run(&mut sim, l);

    let extract_start = Instant::now();
    let mut stats = sim.stats(client_host, server_host);
    let socket_stats = sim.socket_stats(client_host);
    l.syn_drops += sim.socket_stats(server_host).syn_drops;
    let client_stats = client_stats(&mut sim, client_host, l);
    server_cost(&mut sim, server_host, l);
    record_push(&mut stats, &client_stats);
    let mut cell = cell_result(&stats, socket_stats, &client_stats);
    l.count(&cell);
    l.extract_s += extract_start.elapsed().as_secs_f64();

    let mut violations = Vec::new();
    if observed {
        cell.telemetry = Some(timed(&mut l.summary_s, || sim.telemetry().summary()));
        let start = stats.first.unwrap_or(SimTime::from_nanos(0));
        let end = stats.last.unwrap_or(start);
        let analysis = timed(&mut l.attribute_s, || {
            netsim::probe::attribute(sim.probe_records(), start, end)
        });
        cell.probe = Some(analysis.report);
        let trace = sim.trace();
        l.trace_records += trace.records().len() as u64;
        let report = timed(&mut l.check_s, || {
            conformance::check_trace(trace.records(), trace.drop_records(), &check_cfg)
        });
        violations = report.violations;
    }
    timed(&mut l.extract_s, || drop(sim));
    (cell, violations)
}

/// `harness::run_fleet`, phase by phase.
fn traced_fleet(spec: FleetSpec, l: &mut Ledger) -> Vec<CellResult> {
    let (mut sim, client_hosts, server_host) = timed(&mut l.build_s, || {
        let mut sim = Simulator::new();
        sim.set_trace_mode(spec.trace_mode);
        if spec.telemetry {
            sim.enable_telemetry();
        }
        let client_hosts: Vec<HostId> = (0..spec.n_clients)
            .map(|i| sim.add_host(&format!("client{i}")))
            .collect();
        let server_host = sim.add_host("server");
        let mut link = spec.env.link();
        if let Some(bytes) = spec.buffer_bytes {
            link = link.with_buffer_bytes(bytes);
        }
        sim.add_shared_link(&client_hosts, server_host, link);
        if let Some(tcp) = &spec.tcp {
            for &c in &client_hosts {
                sim.set_tcp_config(c, tcp.clone());
            }
            sim.set_tcp_config(server_host, tcp.clone());
        }
        let addr = SockAddr::new(server_host, spec.server.port);
        sim.install_app(
            server_host,
            Timed::new(HttpServer::new(spec.server, spec.store)),
        );
        for &c in &client_hosts {
            let client = ClientConfig::robot(spec.setup.mode(), addr)
                .with_deflate(spec.setup.deflate())
                .with_style(RequestStyle::Robot)
                .with_reset_backoff(spec.reset_backoff);
            sim.install_app(
                c,
                Timed::new(HttpClient::with_cache(
                    client,
                    spec.workload.clone(),
                    ClientCache::new(),
                )),
            );
        }
        (sim, client_hosts, server_host)
    });
    run(&mut sim, l);

    let summary = spec
        .telemetry
        .then(|| timed(&mut l.summary_s, || sim.telemetry().summary()));
    let extract_start = Instant::now();
    let cells = client_hosts
        .iter()
        .map(|&c| {
            let mut stats = sim.stats(c, server_host);
            let socket_stats = sim.socket_stats(c);
            let client_stats = client_stats(&mut sim, c, l);
            record_push(&mut stats, &client_stats);
            let mut cell = cell_result(&stats, socket_stats, &client_stats);
            cell.telemetry = summary;
            l.count(&cell);
            cell
        })
        .collect();
    server_cost(&mut sim, server_host, l);
    l.syn_drops += sim.socket_stats(server_host).syn_drops;
    drop(sim);
    l.extract_s += extract_start.elapsed().as_secs_f64();
    cells
}

fn run(sim: &mut Simulator, l: &mut Ledger) {
    let allocs = counting_alloc::allocations();
    l.events += timed(&mut l.run_s, || sim.run_until_idle());
    l.run_allocs += counting_alloc::allocations() - allocs;
}

fn client_stats(sim: &mut Simulator, host: HostId, l: &mut Ledger) -> ClientStats {
    let client = sim
        .app_mut::<Timed<HttpClient>>(host)
        .expect("timed client app");
    l.client += client.cost;
    client.inner.stats.clone()
}

fn server_cost(sim: &mut Simulator, host: HostId, l: &mut Ledger) {
    let server = sim
        .app_mut::<Timed<HttpServer>>(host)
        .expect("timed server app");
    l.server += server.cost;
    l.peak_connections = l.peak_connections.max(server.inner.stats.peak_connections);
}

fn record_push(stats: &mut TraceStats, c: &ClientStats) {
    stats.record_push_counters(
        c.pushed_responses,
        c.pushed_bytes,
        c.cancelled_pushes,
        c.cancelled_push_bytes,
    );
}

/// The harness's `cell_result` (crate-private there), field for field.
fn cell_result(stats: &TraceStats, sockets: SocketStats, client: &ClientStats) -> CellResult {
    CellResult {
        packets_c2s: stats.packets_c2s,
        packets_s2c: stats.packets_s2c,
        bytes: stats.bytes,
        physical_bytes: stats.physical_bytes,
        secs: stats.elapsed_secs(),
        overhead_pct: stats.overhead_pct(),
        sockets_used: sockets.sockets_used,
        max_sockets: sockets.max_simultaneous,
        fetched: client.fetched.len() as u64,
        validated: client.validated() as u64,
        body_bytes: client.body_bytes() as u64,
        retries: client.retries,
        resets: client.resets,
        retransmits: stats.retransmitted_packets,
        drops: stats.drops(),
        drops_loss: stats.drops_loss,
        drops_outage: stats.drops_outage,
        drops_queue: stats.drops_queue,
        dups: stats.dup_packets,
        reorders: stats.reordered_packets,
        first_byte_secs: stats.first_byte_secs(),
        pushed_responses: client.pushed_responses,
        pushed_bytes: client.pushed_bytes,
        cancelled_pushes: client.cancelled_pushes,
        cancelled_push_bytes: client.cancelled_push_bytes,
        probe: None,
        telemetry: None,
    }
}
