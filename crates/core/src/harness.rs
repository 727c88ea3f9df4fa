//! The run engine: wires clients, a server and a network together and
//! extracts the paper's metrics from one deterministic run. Single-client
//! cells ([`run_spec`]) and fleets ([`run_fleet`]) take the same private
//! build–run–extract path and differ only in how the link is wired;
//! [`run_cells_map`] fans independent runs across a thread pool.
//!
//! Every [`Simulator`] is fully self-contained (own event queue, clock,
//! hosts, trace), so independent cells parallelize trivially: the pool
//! claims cells off a shared counter and results come back in input
//! order, bit-identical to a serial loop.

use crate::env::NetEnv;
use crate::result::CellResult;
use httpclient::{
    ClientCache, ClientConfig, HttpClient, ProtocolMode, RequestStyle, RevalidationStyle, Workload,
};
use httpserver::{Entity, HttpServer, ServerConfig, ServerKind, SiteStore};
use netsim::{HostId, LinkCodec, Simulator, SockAddr, TraceMode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use webcontent::microscape::{Microscape, SITE_MTIME};

/// The protocol column of Tables 3–9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolSetup {
    /// HTTP/1.0 with 4 parallel connections.
    Http10,
    /// HTTP/1.1, persistent connection, serialized requests.
    Http11,
    /// HTTP/1.1 with buffered pipelining.
    Http11Pipelined,
    /// Pipelining plus deflate transport compression of the HTML.
    Http11PipelinedDeflate,
    /// Framed stream multiplexing over one connection (the "what HTTP
    /// could do beyond pipelining" setup; not in the paper's tables).
    Multiplexed,
    /// Multiplexing with server push of inline images and stylesheets.
    MultiplexedPush,
}

impl ProtocolSetup {
    /// The paper's setups, in the paper's row order. The multiplexed
    /// setups are deliberately not in this list: the paper's tables are
    /// reproduced byte-identically from these four rows, and mux results
    /// are appended as separate sections via [`ProtocolSetup::MUX`].
    pub const ALL: [ProtocolSetup; 4] = [
        ProtocolSetup::Http10,
        ProtocolSetup::Http11,
        ProtocolSetup::Http11Pipelined,
        ProtocolSetup::Http11PipelinedDeflate,
    ];

    /// The beyond-the-paper multiplexed setups.
    pub const MUX: [ProtocolSetup; 2] =
        [ProtocolSetup::Multiplexed, ProtocolSetup::MultiplexedPush];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolSetup::Http10 => "HTTP/1.0",
            ProtocolSetup::Http11 => "HTTP/1.1",
            ProtocolSetup::Http11Pipelined => "HTTP/1.1 Pipelined",
            ProtocolSetup::Http11PipelinedDeflate => "HTTP/1.1 Pipelined w. compression",
            ProtocolSetup::Multiplexed => "HTTP/mux",
            ProtocolSetup::MultiplexedPush => "HTTP/mux + push",
        }
    }

    /// The client connection strategy for this setup.
    pub fn mode(self) -> ProtocolMode {
        match self {
            ProtocolSetup::Http10 => ProtocolMode::Http10Parallel { max_connections: 4 },
            ProtocolSetup::Http11 => ProtocolMode::Http11Persistent,
            ProtocolSetup::Multiplexed => ProtocolMode::Multiplexed { push: false },
            ProtocolSetup::MultiplexedPush => ProtocolMode::Multiplexed { push: true },
            _ => ProtocolMode::Http11Pipelined,
        }
    }

    /// Whether this setup negotiates deflate compression.
    pub fn deflate(self) -> bool {
        matches!(self, ProtocolSetup::Http11PipelinedDeflate)
    }

    /// Whether this setup accepts server push.
    pub fn push(self) -> bool {
        matches!(self, ProtocolSetup::MultiplexedPush)
    }
}

/// First-time retrieval or cache revalidation — the two client behaviours
/// under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Empty cache: GET everything (43 requests).
    FirstTime,
    /// Everything cached: 43 validation requests.
    Revalidate,
}

impl Scenario {
    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::FirstTime => "First Time Retrieval",
            Scenario::Revalidate => "Cache Validation",
        }
    }
}

/// Build the server-side store for the Microscape site (HTML gets a
/// pre-deflated variant).
///
/// The store for the canonical [`webcontent::microscape::site`] is built
/// once and memoized: deflating the 42 KB HTML dominates cell setup, and
/// the experiment matrix would otherwise recompress it for every cell.
pub fn microscape_store(site: &Microscape) -> Arc<SiteStore> {
    static CANONICAL: OnceLock<Arc<SiteStore>> = OnceLock::new();
    if std::ptr::eq(site, webcontent::microscape::site()) {
        return Arc::clone(CANONICAL.get_or_init(|| build_microscape_store(site)));
    }
    build_microscape_store(site)
}

fn build_microscape_store(site: &Microscape) -> Arc<SiteStore> {
    let mut store = SiteStore::new();
    store.insert(
        site.html_path(),
        Entity::new(site.html.clone().into_bytes(), "text/html", SITE_MTIME).with_deflate(),
    );
    for obj in &site.images {
        store.insert(
            &obj.path,
            Entity::new(obj.body.clone(), obj.content_type, obj.mtime),
        );
    }
    store.into_shared()
}

/// Build a store from arbitrary (path, body, content-type) triples.
pub fn custom_store(objects: &[(String, Vec<u8>, &'static str)]) -> Arc<SiteStore> {
    let mut store = SiteStore::new();
    for (path, body, ct) in objects {
        let e = Entity::new(body.clone(), ct, SITE_MTIME);
        let e = if *ct == "text/html" {
            e.with_deflate()
        } else {
            e
        };
        store.insert(path, e);
    }
    store.into_shared()
}

/// Prime a client cache as if a first visit had completed: validators
/// derived exactly as the server derives them.
pub fn primed_cache(site: &Microscape) -> ClientCache {
    let mut cache = ClientCache::new();
    cache.prime(
        site.html_path(),
        site.html.as_bytes(),
        "text/html",
        SITE_MTIME,
        webcontent::html::inline_image_sources(&site.html),
    );
    for obj in &site.images {
        cache.prime(&obj.path, &obj.body, obj.content_type, obj.mtime, vec![]);
    }
    cache
}

/// Everything configurable about one cell run.
pub struct CellSpec {
    /// Network environment (Table 1 row).
    pub env: NetEnv,
    /// Server behaviour profile.
    pub server: ServerConfig,
    /// Content the server serves.
    pub store: Arc<SiteStore>,
    /// Client behaviour profile.
    pub client: ClientConfig,
    /// What the client is asked to do.
    pub workload: Workload,
    /// Pre-primed client cache (empty for first-time runs).
    pub cache: ClientCache,
    /// Install a modem compressor on the link.
    pub link_codec: Option<fn() -> Box<dyn LinkCodec>>,
    /// Impair the link (loss, jitter, reordering, duplication, outages).
    /// `None` leaves the environment's ideal link untouched.
    pub impair: Option<netsim::ImpairConfig>,
    /// Override the TCP parameters on both hosts (ablations).
    pub tcp: Option<netsim::TcpConfig>,
    /// How much of each packet the trace retains. Batch experiment runs
    /// use [`TraceMode::StatsOnly`]; switch to [`TraceMode::Full`] when
    /// the per-packet records are needed (`dump`, `xplot`,
    /// `time_sequence`).
    pub trace_mode: TraceMode,
    /// Enable the [`netsim::probe`] flight recorder for this run: the
    /// [`CellResult`] gains a [`netsim::ProbeReport`] and the
    /// [`RunOutput`] the full [`netsim::ProbeAnalysis`]. Off by default —
    /// a disabled probe records nothing and leaves every existing metric
    /// byte-identical.
    pub probe: bool,
    /// Enable the [`netsim::telemetry`] time-series sink for this run:
    /// the [`CellResult`] gains a [`netsim::TelemetrySummary`] and the
    /// [`RunOutput`]'s simulator retains the full series. Off by default
    /// with the same discipline as the probe — a disabled sink records
    /// nothing and leaves every existing metric byte-identical.
    pub telemetry: bool,
}

/// Outcome of one run: the cell metrics plus full app access if needed.
pub struct RunOutput {
    /// The paper's metrics for this run.
    pub cell: CellResult,
    /// Client-side counters.
    pub client_stats: httpclient::ClientStats,
    /// Server-side counters.
    pub server_stats: httpserver::ServerStats,
    /// The finished simulator (trace still accessible).
    pub sim: Simulator,
    /// The client's host id.
    pub client_host: netsim::HostId,
    /// The server's host id.
    pub server_host: netsim::HostId,
    /// Full stall attribution, present when [`CellSpec::probe`] was set.
    pub probe: Option<netsim::ProbeAnalysis>,
}

/// Assemble one client's [`CellResult`] from the raw trace, socket and
/// application counters.
fn cell_result(
    stats: &netsim::TraceStats,
    socket_stats: netsim::SocketStats,
    client_stats: &httpclient::ClientStats,
) -> CellResult {
    CellResult {
        packets_c2s: stats.packets_c2s,
        packets_s2c: stats.packets_s2c,
        bytes: stats.bytes,
        physical_bytes: stats.physical_bytes,
        secs: stats.elapsed_secs(),
        overhead_pct: stats.overhead_pct(),
        sockets_used: socket_stats.sockets_used,
        max_sockets: socket_stats.max_simultaneous,
        fetched: client_stats.fetched.len() as u64,
        validated: client_stats.validated() as u64,
        body_bytes: client_stats.body_bytes() as u64,
        retries: client_stats.retries,
        resets: client_stats.resets,
        retransmits: stats.retransmitted_packets,
        drops: stats.drops(),
        drops_loss: stats.drops_loss,
        drops_outage: stats.drops_outage,
        drops_queue: stats.drops_queue,
        dups: stats.dup_packets,
        reorders: stats.reordered_packets,
        first_byte_secs: stats.first_byte_secs(),
        pushed_responses: client_stats.pushed_responses,
        pushed_bytes: client_stats.pushed_bytes,
        cancelled_pushes: client_stats.cancelled_pushes,
        cancelled_push_bytes: client_stats.cancelled_push_bytes,
        probe: None,
        telemetry: None,
    }
}

/// How the engine connects the client hosts to the server — the one step
/// in which a single-client cell and a fleet differ.
enum Wiring<'a> {
    /// One client on a private point-to-point link.
    PointToPoint {
        impair: Option<netsim::ImpairConfig>,
        codec: Option<fn() -> Box<dyn LinkCodec>>,
    },
    /// Every client through one shared bottleneck.
    Shared {
        spokes: &'a [HostId],
        buffer_bytes: Option<u64>,
    },
}

/// One simulated run as the engine executes it.
struct Run<'a> {
    env: NetEnv,
    wiring: Wiring<'a>,
    server: ServerConfig,
    store: Arc<SiteStore>,
    tcp: Option<netsim::TcpConfig>,
    trace_mode: TraceMode,
    probe: bool,
    telemetry: bool,
}

/// What the engine hands back besides the per-client cells.
struct Executed {
    sim: Simulator,
    server_host: HostId,
    server_stats: httpserver::ServerStats,
    /// Stall attribution over the first client's window, when the probe
    /// was on.
    probe: Option<netsim::ProbeAnalysis>,
}

/// The one build–run–extract path behind every simulated run.
///
/// Hosts are laid out clients-first (`HostId(0..n)`, one per item of
/// `clients`) with the server last. The TCP override applies to every
/// host; the server is installed before the clients. `each` receives
/// every client's [`CellResult`] and counters, in client order.
fn execute(
    run: Run<'_>,
    clients: impl ExactSizeIterator<Item = HttpClient>,
    mut each: impl FnMut(CellResult, &httpclient::ClientStats),
) -> Executed {
    let n = clients.len();
    let mut sim = Simulator::new();
    sim.set_trace_mode(run.trace_mode);
    if run.probe {
        sim.enable_probe();
    }
    if run.telemetry {
        sim.enable_telemetry();
    }
    for i in 0..n {
        if n == 1 {
            sim.add_host("client");
        } else {
            sim.add_host(&format!("client{i}"));
        }
    }
    let server_host = sim.add_host("server");

    match run.wiring {
        Wiring::PointToPoint { impair, codec } => {
            let client = HostId(0);
            sim.add_link(client, server_host, run.env.link());
            if let Some(impair) = impair {
                sim.set_impairment(client, server_host, impair);
            }
            if let Some(make) = codec {
                sim.link_mut(client, server_host).set_codec(make);
            }
        }
        Wiring::Shared {
            spokes,
            buffer_bytes,
        } => {
            debug_assert!(spokes.iter().enumerate().all(|(i, h)| h.0 as usize == i));
            let mut link = run.env.link();
            if let Some(bytes) = buffer_bytes {
                link = link.with_buffer_bytes(bytes);
            }
            sim.add_shared_link(spokes, server_host, link);
        }
    }
    if let Some(tcp) = &run.tcp {
        for i in 0..n {
            sim.set_tcp_config(HostId(i as u16), tcp.clone());
        }
        sim.set_tcp_config(server_host, tcp.clone());
    }

    sim.install_app(
        server_host,
        Box::new(HttpServer::new(run.server, run.store)),
    );
    for (i, client) in clients.enumerate() {
        sim.install_app(HostId(i as u16), Box::new(client));
    }
    sim.run_until_idle();

    let telemetry = run.telemetry.then(|| sim.telemetry().summary());
    let mut probe = None;
    for i in 0..n {
        let host = HostId(i as u16);
        let mut stats = sim.stats(host, server_host);
        let socket_stats = sim.socket_stats(host);
        if run.probe && i == 0 {
            let start = stats.first.unwrap_or(netsim::SimTime::from_nanos(0));
            let end = stats.last.unwrap_or(start);
            probe = Some(netsim::probe::attribute(sim.probe_records(), start, end));
        }
        let client_stats = &sim.app_mut::<HttpClient>(host).expect("client app").stats;
        stats.record_push_counters(
            client_stats.pushed_responses,
            client_stats.pushed_bytes,
            client_stats.cancelled_pushes,
            client_stats.cancelled_push_bytes,
        );
        let mut cell = cell_result(&stats, socket_stats, client_stats);
        cell.telemetry = telemetry;
        if i == 0 {
            cell.probe = probe.as_ref().map(|a| a.report);
        }
        each(cell, client_stats);
    }
    let server_stats = sim
        .app_mut::<HttpServer>(server_host)
        .expect("server app")
        .stats;
    Executed {
        sim,
        server_host,
        server_stats,
        probe,
    }
}

/// Execute one cell.
pub fn run_spec(spec: CellSpec) -> RunOutput {
    let run = Run {
        env: spec.env,
        wiring: Wiring::PointToPoint {
            impair: spec.impair,
            codec: spec.link_codec,
        },
        server: spec.server,
        store: spec.store,
        tcp: spec.tcp,
        trace_mode: spec.trace_mode,
        probe: spec.probe,
        telemetry: spec.telemetry,
    };
    let client = HttpClient::with_cache(spec.client, spec.workload, spec.cache);
    let mut result = None;
    let done = execute(run, std::iter::once(client), |cell, stats| {
        result = Some((cell, stats.clone()));
    });
    let (cell, client_stats) = result.expect("one client");
    RunOutput {
        cell,
        client_stats,
        server_stats: done.server_stats,
        sim: done.sim,
        client_host: HostId(0),
        server_host: done.server_host,
        probe: done.probe,
    }
}

/// Everything configurable about one fleet run: `n_clients` robots
/// behind one shared bottleneck link fetching from one server.
///
/// Hosts are laid out clients-first (hosts `0..n`) with the server last
/// (host `n`), so an `n_clients == 1` fleet is host-for-host identical
/// to the single-client [`matrix_spec`] topology.
pub struct FleetSpec {
    /// How many concurrent clients share the bottleneck.
    pub n_clients: usize,
    /// Network environment of the shared link.
    pub env: NetEnv,
    /// Client protocol setup (every client runs the same one).
    pub setup: ProtocolSetup,
    /// Server behaviour profile.
    pub server: ServerConfig,
    /// Content the server serves.
    pub store: Arc<SiteStore>,
    /// What every client is asked to do.
    pub workload: Workload,
    /// Bottleneck buffer bound in bytes (`None` = unbounded, the
    /// single-client model's behaviour).
    pub buffer_bytes: Option<u64>,
    /// Reset backoff applied to every client.
    pub reset_backoff: netsim::SimDuration,
    /// TCP parameter override applied to every host (`None` = defaults,
    /// i.e. Reno congestion control).
    pub tcp: Option<netsim::TcpConfig>,
    /// Trace retention for the run.
    pub trace_mode: TraceMode,
    /// Enable the [`netsim::telemetry`] time-series sink for the fleet
    /// run (per-client cells gain their [`netsim::TelemetrySummary`];
    /// the full series stay readable on the returned simulator).
    pub telemetry: bool,
}

/// Outcome of one fleet run.
pub struct FleetOutput {
    /// Per-client metrics, in client order (each derived exactly as the
    /// single-client [`run_spec`] derives its [`CellResult`]).
    pub per_client: Vec<CellResult>,
    /// Server application counters.
    pub server_stats: httpserver::ServerStats,
    /// Server host socket usage (includes `syn_drops`).
    pub server_sockets: netsim::SocketStats,
    /// The finished simulator (trace still accessible).
    pub sim: Simulator,
    /// Client host ids, in client order.
    pub client_hosts: Vec<netsim::HostId>,
    /// The server's host id.
    pub server_host: netsim::HostId,
}

/// Execute one fleet run: N clients × one shared bottleneck × one server.
pub fn run_fleet(spec: FleetSpec) -> FleetOutput {
    assert!(spec.n_clients >= 1, "a fleet needs at least one client");
    let client_hosts: Vec<HostId> = (0..spec.n_clients).map(|i| HostId(i as u16)).collect();
    let addr = SockAddr::new(HostId(spec.n_clients as u16), spec.server.port);
    let clients = (0..spec.n_clients).map(|_| {
        let client = ClientConfig::robot(spec.setup.mode(), addr)
            .with_deflate(spec.setup.deflate())
            .with_style(RequestStyle::Robot)
            .with_reset_backoff(spec.reset_backoff);
        HttpClient::with_cache(client, spec.workload.clone(), ClientCache::new())
    });
    let run = Run {
        env: spec.env,
        wiring: Wiring::Shared {
            spokes: &client_hosts,
            buffer_bytes: spec.buffer_bytes,
        },
        server: spec.server,
        store: spec.store,
        tcp: spec.tcp,
        trace_mode: spec.trace_mode,
        probe: false,
        telemetry: spec.telemetry,
    };
    let mut per_client = Vec::with_capacity(spec.n_clients);
    let done = execute(run, clients, |cell, _| per_client.push(cell));
    FleetOutput {
        per_client,
        server_stats: done.server_stats,
        server_sockets: done.sim.socket_stats(done.server_host),
        sim: done.sim,
        client_hosts,
        server_host: done.server_host,
    }
}

/// Execute one fleet under the trace-invariant checker: forces
/// [`TraceMode::Full`] and verifies every TCP/HTTP invariant over the
/// finished multi-connection trace. Fleet clients are always the tuned
/// robot (TCP_NODELAY set), and fleets run the spec's TCP parameters
/// (defaults when `spec.tcp` is `None`).
pub fn run_fleet_checked(mut spec: FleetSpec) -> (FleetOutput, conformance::Report) {
    let cfg = check_config(&spec.tcp, true, &spec.server);
    spec.trace_mode = TraceMode::Full;
    let out = run_fleet(spec);
    let report = check(&out.sim, &cfg);
    (out, report)
}

/// Build the standard cell for the protocol matrix (Tables 4–9): the
/// Microscape site, a given environment/server/protocol/scenario.
pub fn matrix_spec(
    env: NetEnv,
    server_kind: ServerKind,
    setup: ProtocolSetup,
    scenario: Scenario,
) -> CellSpec {
    let site = webcontent::microscape::site();
    let store = microscape_store(site);
    let server = match server_kind {
        ServerKind::Jigsaw => ServerConfig::jigsaw(80),
        ServerKind::Apache => ServerConfig::apache(80),
    }
    .with_deflate(setup.deflate())
    .with_mux_push(setup.push());

    // The server address is fixed by construction: host 1, port 80.
    let addr = SockAddr::new(netsim::HostId(1), 80);
    let client = ClientConfig::robot(setup.mode(), addr)
        .with_deflate(setup.deflate())
        .with_style(RequestStyle::Robot);

    let (workload, cache) = match scenario {
        Scenario::FirstTime => (
            Workload::Browse {
                start: site.html_path().into(),
            },
            ClientCache::new(),
        ),
        Scenario::Revalidate => {
            let style = match setup {
                // The old HTTP/1.0 robot had no persistent cache: plain
                // GET for the page, HEAD for the images.
                ProtocolSetup::Http10 => RevalidationStyle::HeadRequests,
                _ => RevalidationStyle::ConditionalGetEtag,
            };
            (
                Workload::Revalidate {
                    start: site.html_path().into(),
                    style,
                },
                primed_cache(site),
            )
        }
    };

    CellSpec {
        env,
        server,
        store,
        client,
        workload,
        cache,
        link_codec: None,
        impair: None,
        tcp: None,
        trace_mode: TraceMode::StatsOnly,
        probe: false,
        telemetry: false,
    }
}

/// The checker configuration for a run with these TCP parameters, client
/// TCP_NODELAY setting and server.
fn check_config(
    tcp: &Option<netsim::TcpConfig>,
    client_nodelay: bool,
    server: &ServerConfig,
) -> conformance::CheckConfig {
    conformance::CheckConfig {
        tcp: tcp.clone().unwrap_or_default(),
        client_nodelay,
        server_nodelay: server.nodelay,
        server_port: server.port,
        http: true,
    }
}

/// Derive the conformance-checker configuration a spec's trace must be
/// judged against: the TCP parameters in effect on both hosts and the
/// per-side TCP_NODELAY settings (the applications set it per socket
/// from their configs, overriding the TCP default).
pub fn check_config_for(spec: &CellSpec) -> conformance::CheckConfig {
    check_config(&spec.tcp, spec.client.nodelay, &spec.server)
}

/// Verify every TCP/HTTP invariant over a finished full trace: the
/// checker step shared by [`run_spec_checked`] and [`run_fleet_checked`].
fn check(sim: &Simulator, cfg: &conformance::CheckConfig) -> conformance::Report {
    let trace = sim.trace();
    conformance::check_trace(trace.records(), trace.drop_records(), cfg)
}

/// Execute one cell under the trace-invariant checker: forces
/// [`TraceMode::Full`] (the checker needs per-packet records; the
/// resulting [`CellResult`] is bit-identical to a `StatsOnly` run by
/// construction) and verifies every TCP/HTTP invariant over the
/// finished trace.
pub fn run_spec_checked(mut spec: CellSpec) -> (RunOutput, conformance::Report) {
    let cfg = check_config_for(&spec);
    spec.trace_mode = TraceMode::Full;
    let out = run_spec(spec);
    let report = check(&out.sim, &cfg);
    (out, report)
}

/// Worker-thread count for [`run_cells`]: the machine's available
/// parallelism, never more than the number of cells.
pub fn worker_threads(cells: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(cells).max(1)
}

/// Execute independent cells across a thread pool, returning their
/// [`CellResult`]s in input order.
///
/// Each [`Simulator`] is self-contained, so cells share nothing but the
/// read-only `Arc<SiteStore>`; results are bit-identical to running the
/// same specs in a serial loop. The pool size comes from
/// [`worker_threads`]; [`run_cells_map`] takes an explicit count.
pub fn run_cells(specs: Vec<CellSpec>) -> Vec<CellResult> {
    run_cells_map(specs, None, |s| run_spec(s).cell)
}

/// Map a function across independent work items (cell specs, fleet
/// points) on the work-stealing pool, returning the outputs in input
/// order.
///
/// The pool behind [`run_cells`] and `scale::run_points`: each worker
/// claims the next unstarted item off a shared counter, so long items
/// (PPP cells, large fleets) don't serialize behind a static partition.
/// With one thread (or one item) it degrades to a plain serial loop.
pub fn run_cells_map<I, T, F>(items: Vec<I>, threads: Option<usize>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    let threads = threads
        .unwrap_or_else(|| worker_threads(n))
        .clamp(1, n.max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let jobs: Vec<Mutex<Option<I>>> = items.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = jobs[i]
                            .lock()
                            .expect("work item lock")
                            .take()
                            .expect("work item claimed twice");
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, cell) in h.join().expect("pool worker panicked") {
                results[i] = Some(cell);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_pipelined_revalidation_is_tiny() {
        let cell = run_spec(matrix_spec(
            NetEnv::Lan,
            ServerKind::Apache,
            ProtocolSetup::Http11Pipelined,
            Scenario::Revalidate,
        ))
        .cell;
        assert_eq!(cell.fetched, 43);
        assert_eq!(cell.validated, 43, "all 43 objects revalidate");
        assert_eq!(cell.body_bytes, 0);
        assert!(
            cell.packets() < 60,
            "pipelined revalidation takes a few dozen packets, got {}",
            cell.packets()
        );
        assert_eq!(cell.sockets_used, 1);
    }

    #[test]
    fn lan_http10_first_time_has_43_connections() {
        let cell = run_spec(matrix_spec(
            NetEnv::Lan,
            ServerKind::Apache,
            ProtocolSetup::Http10,
            Scenario::FirstTime,
        ))
        .cell;
        assert_eq!(cell.fetched, 43);
        assert_eq!(cell.sockets_used, 43, "one connection per request");
        assert!(cell.max_sockets <= 8, "at most 4 active (+closing)");
        assert!(cell.body_bytes > 160_000, "the whole site transferred");
    }

    #[test]
    fn deflate_setup_compresses_html() {
        let plain = run_spec(matrix_spec(
            NetEnv::Lan,
            ServerKind::Apache,
            ProtocolSetup::Http11Pipelined,
            Scenario::FirstTime,
        ))
        .cell;
        let deflated = run_spec(matrix_spec(
            NetEnv::Lan,
            ServerKind::Apache,
            ProtocolSetup::Http11PipelinedDeflate,
            Scenario::FirstTime,
        ))
        .cell;
        assert!(deflated.bytes < plain.bytes, "compression saves wire bytes");
        // ~31 KB of HTML savings out of ~190 KB total.
        let saved = plain.bytes - deflated.bytes;
        assert!(
            (15_000..45_000).contains(&saved),
            "HTML deflate saves ~30KB, got {saved}"
        );
    }
}
