//! The discrete-event simulator: hosts, sockets, the event loop, and the
//! application programming model.
//!
//! One [`App`] runs per host and is driven purely by events: socket readiness
//! notifications and application timers. The API mirrors a classic BSD
//! socket interface (`connect` / `listen` / `send` / `recv` / `shutdown` /
//! `close`) so the HTTP client and server crates read like ordinary
//! event-driven network programs.

use crate::impair::DropReason;
use crate::link::{Link, LinkConfig, Transmit};
use crate::packet::{HostId, Segment, SockAddr};
use crate::probe::{ProbeEventKind, ProbeRecord, ProbeSink, SpanEvent};
use crate::queue::EventQueue;
use crate::tcp::{Effects, SockNotify, State, Tcb, TcpConfig, TimerKind};
use crate::telemetry::{Metric, Scope, TelemetrySink};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceMode, TraceStats};
use bytes::Bytes;
use std::any::Any;
use std::collections::{HashMap, VecDeque};

/// Identifies one socket on one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId {
    /// Host the socket lives on.
    pub host: HostId,
    /// Index into the host's socket table.
    pub slot: u32,
}

/// Events delivered to applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppEvent {
    /// Delivered once when the simulation starts.
    Start,
    /// An active open completed.
    Connected(SocketId),
    /// A passive open completed on the listener at `listener_port`.
    Accepted {
        /// The newly created connection.
        socket: SocketId,
        /// The listening port that accepted it.
        listener_port: u16,
    },
    /// Buffered data is available to read.
    Readable(SocketId),
    /// The peer half-closed; no data beyond what is buffered will arrive.
    PeerFin(SocketId),
    /// Send-buffer space freed up after a short write.
    SendSpace(SocketId),
    /// The connection was reset.
    Reset(SocketId),
    /// The connection closed gracefully.
    Closed(SocketId),
    /// An application timer set with [`Ctx::set_timer`] fired.
    Timer(u64),
}

/// A simulated application bound to one host.
///
/// `Any` is a supertrait so results can be extracted after a run via
/// [`Simulator::app_mut`].
pub trait App: Any {
    /// Handle one delivered event.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent);
}

/// Per-host socket-usage statistics (the paper's Table 3 reports both).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// Total TCP connections created over the run.
    pub sockets_used: u64,
    /// Peak number of simultaneously open (non-CLOSED) sockets.
    pub max_simultaneous: u64,
    /// SYNs silently discarded because a listener's backlog was full.
    pub syn_drops: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueuedKind {
    Arrival,
    TcpTimer {
        slot: u32,
        kind: TimerKind,
        epoch: u64,
    },
    AppTimer {
        token: u64,
    },
    /// Release the next packet from a round-robin link direction.
    LinkPump {
        link: usize,
        a_to_b: bool,
    },
}

/// The payload of one queued event. Its delivery time and FIFO tie-break
/// live in the [`EventQueue`]; the payload carries everything else.
struct QueuedEvent {
    host: HostId,
    kind: QueuedKind,
    /// Only for arrivals.
    segment: Option<Segment>,
    sent: SimTime,
    physical: usize,
    /// True for the second copy of a network-duplicated packet.
    dup: bool,
}

struct HostState {
    name: String,
    tcp_config: TcpConfig,
    sockets: Vec<Tcb>,
    /// (local port, remote addr) → socket slot.
    // simlint: allow(hash-collections): keyed lookup only; never iterated.
    demux: HashMap<(u16, SockAddr), u32>,
    /// Listening ports → optional SYN-queue backlog bound (`None` accepts
    /// unconditionally).
    // simlint: allow(hash-collections): keyed lookup only; never iterated.
    listeners: HashMap<u16, Option<u32>>,
    next_ephemeral: u16,
    stats: SocketStats,
    /// Number of currently open sockets, maintained incrementally so peak
    /// tracking stays O(1) with thousands of fleet connections.
    open_now: u64,
    /// Parallel to `sockets`: whether each slot is still counted in
    /// `open_now`.
    open_flags: Vec<bool>,
}

impl HostState {
    fn open_sockets(&self) -> u64 {
        self.sockets.iter().filter(|t| t.state.is_open()).count() as u64
    }

    /// Sockets on `port` still mid-handshake — the listener's SYN queue.
    fn syn_queue_len(&self, port: u16) -> u32 {
        self.sockets
            .iter()
            .filter(|t| t.state == State::SynRcvd && t.local.port == port)
            .count() as u32
    }
}

/// The simulation kernel: owns hosts, links, the event queue and the trace.
pub struct Kernel {
    now: SimTime,
    queue: EventQueue<QueuedEvent>,
    hosts: Vec<HostState>,
    links: Vec<Link>,
    // simlint: allow(hash-collections): keyed lookup only; never iterated.
    link_index: HashMap<(HostId, HostId), usize>,
    trace: Trace,
    probe: ProbeSink,
    telemetry: TelemetrySink,
    pending: VecDeque<(HostId, AppEvent)>,
    /// Recycled [`Effects`] scratch: every event handler borrows one and
    /// returns it drained, so the per-event effect lists keep their
    /// capacities instead of re-allocating.
    fx_pool: Vec<Effects>,
    events_processed: u64,
    /// Safety valve against runaway simulations.
    max_events: u64,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            now: SimTime::ZERO,
            queue: EventQueue::wheel(),
            hosts: Vec::new(), // simlint: allow(hot-path-alloc) kernel setup
            links: Vec::new(), // simlint: allow(hot-path-alloc) kernel setup
            link_index: HashMap::new(), // simlint: allow(hash-collections)
            trace: Trace::new(),
            probe: ProbeSink::default(),
            telemetry: TelemetrySink::default(),
            pending: VecDeque::new(),
            fx_pool: Vec::new(), // simlint: allow(hot-path-alloc) kernel setup
            events_processed: 0,
            max_events: 200_000_000,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn push(&mut self, at: SimTime, host: HostId, kind: QueuedKind) {
        self.queue.push(
            at,
            QueuedEvent {
                host,
                kind,
                segment: None,
                sent: SimTime::ZERO,
                physical: 0,
                dup: false,
            },
        );
    }

    fn push_arrival(
        &mut self,
        at: SimTime,
        host: HostId,
        segment: Segment,
        sent: SimTime,
        physical: usize,
        dup: bool,
    ) {
        self.queue.push(
            at,
            QueuedEvent {
                host,
                kind: QueuedKind::Arrival,
                segment: Some(segment),
                sent,
                physical,
                dup,
            },
        );
    }

    fn host(&mut self, id: HostId) -> &mut HostState {
        &mut self.hosts[id.0 as usize]
    }

    /// Borrow a drained [`Effects`] from the pool (capacities retained).
    fn take_fx(&mut self) -> Effects {
        self.fx_pool.pop().unwrap_or_default()
    }

    /// Return an [`Effects`] to the pool. `apply_effects` drains every
    /// list, but clear anyway so a partially-used scratch can't leak
    /// stale effects into its next borrower.
    fn recycle_fx(&mut self, mut fx: Effects) {
        fx.clear();
        self.fx_pool.push(fx);
        if self.telemetry.enabled() {
            let now = self.now;
            let held = self.fx_pool.len() as u64;
            self.telemetry
                .gauge(now, Scope::Global, Metric::PoolEffects, held);
        }
    }

    /// Sample per-link-direction telemetry after a submission or pump:
    /// drop counters by reason, the instantaneous backlog, and its
    /// distribution.
    fn telemetry_link(&mut self, link: usize, from: HostId, dropped: Option<DropReason>) {
        if !self.telemetry.enabled() {
            return;
        }
        let a_to_b = from != self.links[link].b;
        let scope = Scope::Link {
            link: link as u32,
            a_to_b,
        };
        let now = self.now;
        if let Some(reason) = dropped {
            self.telemetry
                .counter_add(now, scope, Metric::for_drop(reason), 1);
        }
        let queued = self.links[link].queued_bytes(now, from);
        self.telemetry.gauge(now, scope, Metric::QueueBytes, queued);
        self.telemetry
            .observe(scope, Metric::QueueBytesHist, queued);
    }

    /// Sample a connection's congestion state after its TCB ran: cwnd,
    /// ssthresh, flight, RTO, and recovery-episode edges.
    fn telemetry_conn_sample(&mut self, host: HostId, slot: u32) {
        if !self.telemetry.enabled() {
            return;
        }
        let tcb = &self.hosts[host.0 as usize].sockets[slot as usize];
        let scope = Scope::Conn {
            host,
            local: tcb.local,
            remote: tcb.remote,
        };
        let cwnd = tcb.cwnd() as u64;
        let ssthresh = tcb.ssthresh() as u64;
        let flight = tcb.bytes_in_flight();
        let rto = tcb.rto().as_nanos();
        let in_recovery = tcb.cc_in_recovery();
        let variant = tcb.cc_variant();
        let now = self.now;
        self.telemetry.gauge(now, scope, Metric::Cwnd, cwnd);
        self.telemetry.gauge(now, scope, Metric::Ssthresh, ssthresh);
        self.telemetry
            .gauge(now, scope, Metric::FlightBytes, flight);
        self.telemetry.gauge(now, scope, Metric::RtoNs, rto);
        self.telemetry.observe(scope, Metric::FlightHist, flight);
        let level = u64::from(in_recovery);
        if self
            .telemetry
            .gauge_changed(now, scope, Metric::CcRecoveryActive, level)
            && in_recovery
        {
            self.telemetry
                .counter_add(now, Scope::Global, Metric::CcRecoveries(variant), 1);
        }
    }

    /// Record a wire-transmit probe event for a segment the link accepted.
    /// The serialization interval is reconstructed from the link's rate and
    /// propagation delay; rate-free links serialize instantaneously.
    fn probe_wire_tx(&mut self, seg: &Segment, physical: usize, arrival: SimTime, link: usize) {
        if !self.probe.enabled() {
            return;
        }
        let cfg = self.links[link].config();
        let serialize_end = SimTime::from_nanos(
            arrival
                .as_nanos()
                .saturating_sub(cfg.propagation.as_nanos()),
        );
        let tx_ns = match cfg.bits_per_sec {
            Some(bps) => SimDuration::transmission(physical, bps).as_nanos(),
            None => 0,
        };
        let serialize_start = SimTime::from_nanos(serialize_end.as_nanos().saturating_sub(tx_ns));
        self.probe.record(ProbeRecord {
            at: self.now,
            host: seg.src.host,
            local: seg.src,
            remote: seg.dst,
            kind: ProbeEventKind::WireTx {
                bytes: physical,
                payload: seg.has_payload(),
                serialize_start,
                serialize_end,
                arrival,
            },
        });
    }

    /// Transmit a segment onto the link towards its destination.
    fn transmit(&mut self, seg: Segment) {
        let from = seg.src.host;
        let to = seg.dst.host;
        let idx = *self
            .link_index
            .get(&(from, to))
            .unwrap_or_else(|| panic!("no link between h{} and h{}", from.0, to.0));
        let now = self.now;
        let (outcome, physical) = self.links[idx].transmit(now, from, &seg);
        let mut dropped = None;
        match outcome {
            Transmit::Arrives(at) => {
                self.probe_wire_tx(&seg, physical, at, idx);
                self.push_arrival(at, to, seg, now, physical, false)
            }
            Transmit::Duplicated(at, dup_at) => {
                self.probe_wire_tx(&seg, physical, at, idx);
                self.push_arrival(at, to, seg.clone(), now, physical, false);
                self.push_arrival(dup_at, to, seg, now, physical, true);
            }
            // The tracer must see drops too: they are invisible as
            // arrivals but the paper-style summaries report them.
            Transmit::Dropped(reason) => {
                self.trace.observe_drop(now, &seg, reason);
                dropped = Some(reason);
            }
            // Round-robin links deliver via pump events instead.
            Transmit::Queued(pump_at) => {
                if let Some(at) = pump_at {
                    let a_to_b = from != self.links[idx].b;
                    self.push(at, to, QueuedKind::LinkPump { link: idx, a_to_b });
                }
            }
        }
        self.telemetry_link(idx, from, dropped);
    }

    /// Serve one packet from a round-robin link direction and schedule the
    /// follow-up pump while backlog remains.
    fn handle_link_pump(&mut self, link: usize, a_to_b: bool) {
        let now = self.now;
        let Some(p) = self.links[link].pump(now, a_to_b) else {
            return;
        };
        if let Some(at) = p.next_pump {
            self.push(
                at,
                p.segment.dst.host,
                QueuedKind::LinkPump { link, a_to_b },
            );
        }
        let to = p.segment.dst.host;
        let from = p.segment.src.host;
        let mut dropped = None;
        match p.outcome {
            Transmit::Arrives(at) => {
                self.probe_wire_tx(&p.segment, p.physical, at, link);
                self.push_arrival(at, to, p.segment, p.sent, p.physical, false)
            }
            Transmit::Duplicated(at, dup_at) => {
                self.probe_wire_tx(&p.segment, p.physical, at, link);
                self.push_arrival(at, to, p.segment.clone(), p.sent, p.physical, false);
                self.push_arrival(dup_at, to, p.segment, p.sent, p.physical, true);
            }
            Transmit::Dropped(reason) => {
                self.trace.observe_drop(now, &p.segment, reason);
                dropped = Some(reason);
            }
            Transmit::Queued(_) => unreachable!("pump never re-queues"),
        }
        self.telemetry_link(link, from, dropped);
    }

    /// Apply the side effects a TCB produced.
    fn apply_effects(&mut self, host: HostId, slot: u32, fx: &mut Effects) {
        self.telemetry_conn_sample(host, slot);
        if !fx.probe.is_empty() {
            let tcb = &self.hosts[host.0 as usize].sockets[slot as usize];
            let (local, remote) = (tcb.local, tcb.remote);
            let now = self.now;
            for ev in fx.probe.drain(..) {
                self.probe.record(ProbeRecord {
                    at: now,
                    host,
                    local,
                    remote,
                    kind: ProbeEventKind::Tcp(ev),
                });
            }
        }
        for seg in fx.segments.drain(..) {
            self.transmit(seg);
        }
        for (kind, at, epoch) in fx.timers.drain(..) {
            self.push(at, host, QueuedKind::TcpTimer { slot, kind, epoch });
        }
        let mut any_close = false;
        for n in fx.notifications.drain(..) {
            let sock = SocketId { host, slot };
            let ev = match n {
                SockNotify::Connected => AppEvent::Connected(sock),
                SockNotify::Accepted => {
                    let port = self.hosts[host.0 as usize].sockets[slot as usize]
                        .local
                        .port;
                    AppEvent::Accepted {
                        socket: sock,
                        listener_port: port,
                    }
                }
                SockNotify::Readable => AppEvent::Readable(sock),
                SockNotify::PeerFin => AppEvent::PeerFin(sock),
                SockNotify::SendSpace => AppEvent::SendSpace(sock),
                SockNotify::Reset => {
                    any_close = true;
                    AppEvent::Reset(sock)
                }
                SockNotify::Closed => {
                    any_close = true;
                    AppEvent::Closed(sock)
                }
            };
            self.pending.push_back((host, ev));
        }
        // Keep the incremental open-socket count in step with any state
        // transition to CLOSED (including notification-free aborts).
        let h = self.host(host);
        if !h.sockets[slot as usize].state.is_open() && h.open_flags[slot as usize] {
            h.open_flags[slot as usize] = false;
            h.open_now -= 1;
        }
        if any_close {
            // Remove closed sockets from the demux table so the 4-tuple can
            // be reused.
            let h = self.host(host);
            let tcb = &h.sockets[slot as usize];
            if !tcb.state.is_open() {
                let key = (tcb.local.port, tcb.remote);
                h.demux.remove(&key);
            }
        }
    }

    /// Record a newly created socket in the open-socket accounting.
    fn count_socket_open(&mut self, host: HostId) {
        let h = self.host(host);
        h.open_flags.push(true);
        h.open_now += 1;
        debug_assert_eq!(h.open_flags.len(), h.sockets.len());
    }

    fn update_peak(&mut self, host: HostId) {
        let h = self.host(host);
        debug_assert_eq!(h.open_now, h.open_sockets());
        if h.open_now > h.stats.max_simultaneous {
            h.stats.max_simultaneous = h.open_now;
        }
    }

    fn handle_arrival(
        &mut self,
        host: HostId,
        seg: Segment,
        sent: SimTime,
        physical: usize,
        dup: bool,
    ) {
        // Borrow-only capture: in stats-only mode this is a pure
        // accumulation, with no per-packet clone or allocation.
        if dup {
            self.trace.observe_dup(sent, self.now, &seg, physical);
        } else {
            self.trace.observe(sent, self.now, &seg, physical);
        }

        let key = (seg.dst.port, seg.src);
        let h = &self.hosts[host.0 as usize];
        if let Some(&slot) = h.demux.get(&key) {
            let mut fx = self.take_fx();
            let now = self.now;
            self.host(host).sockets[slot as usize].on_segment(now, &seg, &mut fx);
            self.apply_effects(host, slot, &mut fx);
            self.recycle_fx(fx);
            self.update_peak(host);
            return;
        }

        // No connection. A SYN to a listening port performs a passive open —
        // unless the listener's SYN queue is full, in which case the SYN is
        // silently discarded and the client's retransmission timer must
        // recover (classic listen-backlog overflow).
        if seg.flags.syn && !seg.flags.ack {
            if let Some(&backlog) = h.listeners.get(&seg.dst.port) {
                if let Some(cap) = backlog {
                    if h.syn_queue_len(seg.dst.port) >= cap {
                        self.host(host).stats.syn_drops += 1;
                        let now = self.now;
                        self.telemetry
                            .counter_add(now, Scope::Host(host), Metric::SynDrops, 1);
                        return;
                    }
                }
                let local = SockAddr::new(host, seg.dst.port);
                let remote = seg.src;
                let cfg = h.tcp_config.clone();
                let mut fx = self.take_fx();
                let now = self.now;
                let mut tcb = Tcb::open_passive(local, remote, cfg, &seg, now, &mut fx);
                if self.probe.enabled() {
                    tcb.set_probe_enabled(true);
                    self.probe.record(ProbeRecord {
                        at: now,
                        host,
                        local,
                        remote,
                        kind: ProbeEventKind::ConnAccepted,
                    });
                }
                let h = self.host(host);
                let slot = h.sockets.len() as u32;
                h.sockets.push(tcb);
                let prev = h.demux.insert((local.port, remote), slot);
                debug_assert!(
                    prev.is_none(),
                    "passive open clobbered live demux entry ({}, {:?})",
                    local.port,
                    remote
                );
                h.stats.sockets_used += 1;
                self.count_socket_open(host);
                self.apply_effects(host, slot, &mut fx);
                self.recycle_fx(fx);
                self.update_peak(host);
                return;
            }
        }

        // Anything else aimed at a closed port draws a RST (unless it *is*
        // a RST).
        if !seg.flags.rst {
            let rst = Segment::rst(seg.dst, seg.src, seg.ack);
            self.transmit(rst);
        }
    }

    fn handle_tcp_timer(&mut self, host: HostId, slot: u32, kind: TimerKind, epoch: u64) {
        let mut fx = self.take_fx();
        let now = self.now;
        self.host(host).sockets[slot as usize].on_timer(now, kind, epoch, &mut fx);
        self.apply_effects(host, slot, &mut fx);
        self.recycle_fx(fx);
    }

    // --- socket syscalls used by Ctx -----------------------------------

    fn sock(&mut self, id: SocketId) -> &mut Tcb {
        &mut self.hosts[id.host.0 as usize].sockets[id.slot as usize]
    }

    /// Ephemeral ports count up from 40000, wrapping back there after
    /// 65535.
    fn next_ephemeral_after(port: u16) -> u16 {
        port.wrapping_add(1).max(40_000)
    }

    fn connect(&mut self, host: HostId, remote: SockAddr) -> SocketId {
        let cfg = self.host(host).tcp_config.clone();
        let h = self.host(host);
        // Skip ports whose (port, remote) 4-tuple is still claimed by a
        // live socket — a previous connection to the same peer may linger
        // in TIME_WAIT long after the application closed it.
        let mut port = h.next_ephemeral;
        let mut scanned: u32 = 0;
        while h.demux.contains_key(&(port, remote)) {
            port = Self::next_ephemeral_after(port);
            scanned += 1;
            assert!(
                scanned <= u16::MAX as u32,
                "ephemeral ports to {remote:?} exhausted"
            );
        }
        h.next_ephemeral = Self::next_ephemeral_after(port);
        let local = SockAddr::new(host, port);
        let mut fx = self.take_fx();
        let now = self.now;
        let mut tcb = Tcb::open_active(local, remote, cfg, now, &mut fx);
        if self.probe.enabled() {
            tcb.set_probe_enabled(true);
            self.probe.record(ProbeRecord {
                at: now,
                host,
                local,
                remote,
                kind: ProbeEventKind::ConnOpen,
            });
        }
        let h = self.host(host);
        let slot = h.sockets.len() as u32;
        h.sockets.push(tcb);
        let prev = h.demux.insert((port, remote), slot);
        debug_assert!(
            prev.is_none(),
            "active open clobbered live demux entry ({port}, {remote:?})"
        );
        h.stats.sockets_used += 1;
        self.count_socket_open(host);
        self.apply_effects(host, slot, &mut fx);
        self.recycle_fx(fx);
        self.update_peak(host);
        SocketId { host, slot }
    }

    fn listen(&mut self, host: HostId, port: u16, backlog: Option<u32>) {
        self.host(host).listeners.insert(port, backlog);
    }
}

/// The API surface applications use to act on the world.
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
    host: HostId,
}

impl<'a> Ctx<'a> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// This application's host.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Begin an active open to `remote`. Completion is signalled by
    /// [`AppEvent::Connected`].
    pub fn connect(&mut self, remote: SockAddr) -> SocketId {
        self.kernel.connect(self.host, remote)
    }

    /// Accept connections on `port`; each is signalled by
    /// [`AppEvent::Accepted`].
    pub fn listen(&mut self, port: u16) {
        self.kernel.listen(self.host, port, None);
    }

    /// Like [`Ctx::listen`], but with a bounded SYN queue: while `backlog`
    /// connections sit in SYN-RCVD on `port`, further SYNs are silently
    /// dropped (counted in [`SocketStats::syn_drops`]) and must be
    /// retransmitted by the peer.
    pub fn listen_with_backlog(&mut self, port: u16, backlog: u32) {
        self.kernel.listen(self.host, port, Some(backlog));
    }

    /// Queue bytes for transmission; returns the number accepted (bounded
    /// by the socket send buffer).
    pub fn send(&mut self, sock: SocketId, data: &[u8]) -> usize {
        debug_assert_eq!(sock.host, self.host, "cannot use another host's socket");
        let mut fx = self.kernel.take_fx();
        let now = self.kernel.now;
        let n = self.kernel.sock(sock).app_send(now, data, &mut fx);
        self.kernel.apply_effects(sock.host, sock.slot, &mut fx);
        self.kernel.recycle_fx(fx);
        n
    }

    /// Read up to `max` buffered bytes.
    pub fn recv(&mut self, sock: SocketId, max: usize) -> Bytes {
        let mut fx = self.kernel.take_fx();
        let data = self.kernel.sock(sock).app_recv(max, &mut fx);
        self.kernel.apply_effects(sock.host, sock.slot, &mut fx);
        self.kernel.recycle_fx(fx);
        data
    }

    /// Bytes currently buffered for reading.
    pub fn readable_bytes(&mut self, sock: SocketId) -> usize {
        self.kernel.sock(sock).readable_bytes()
    }

    /// Half-close the sending direction (graceful FIN after queued data).
    pub fn shutdown_write(&mut self, sock: SocketId) {
        let mut fx = self.kernel.take_fx();
        let now = self.kernel.now;
        self.kernel.sock(sock).app_shutdown_write(now, &mut fx);
        self.kernel.apply_effects(sock.host, sock.slot, &mut fx);
        self.kernel.recycle_fx(fx);
        self.kernel.update_peak(sock.host);
    }

    /// Full close: also declares the application will never read again, so
    /// late-arriving data triggers a RST (the naive-close hazard).
    pub fn close(&mut self, sock: SocketId) {
        let mut fx = self.kernel.take_fx();
        let now = self.kernel.now;
        self.kernel.sock(sock).app_close(now, &mut fx);
        self.kernel.apply_effects(sock.host, sock.slot, &mut fx);
        self.kernel.recycle_fx(fx);
        self.kernel.update_peak(sock.host);
    }

    /// Abortive close: RST immediately.
    pub fn abort(&mut self, sock: SocketId) {
        let mut fx = self.kernel.take_fx();
        self.kernel.sock(sock).app_abort(&mut fx);
        self.kernel.apply_effects(sock.host, sock.slot, &mut fx);
        self.kernel.recycle_fx(fx);
        self.kernel.update_peak(sock.host);
    }

    /// Set or clear TCP_NODELAY (the Nagle algorithm).
    pub fn set_nodelay(&mut self, sock: SocketId, nodelay: bool) {
        self.kernel.sock(sock).set_nodelay(nodelay);
    }

    /// Current TCP state (for diagnostics and tests).
    pub fn sock_state(&mut self, sock: SocketId) -> State {
        self.kernel.sock(sock).state
    }

    /// Whether the probe flight recorder is collecting. Lets callers skip
    /// building span payloads entirely while the probe is off.
    pub fn probe_enabled(&self) -> bool {
        self.kernel.probe.enabled()
    }

    /// Record an HTTP-layer request-lifecycle span mark against `sock`.
    /// No-op unless the simulator's probe was enabled.
    pub fn probe_span(&mut self, sock: SocketId, ev: SpanEvent) {
        if !self.kernel.probe.enabled() {
            return;
        }
        let tcb = self.kernel.sock(sock);
        let (local, remote) = (tcb.local, tcb.remote);
        let at = self.kernel.now;
        self.kernel.probe.record(ProbeRecord {
            at,
            host: sock.host,
            local,
            remote,
            kind: ProbeEventKind::Span(ev),
        });
    }

    /// Whether the telemetry sink is collecting. Lets applications skip
    /// computing gauge values entirely while the subsystem is off.
    pub fn telemetry_enabled(&self) -> bool {
        self.kernel.telemetry.enabled()
    }

    /// Record an application-level gauge in this host's scope (e.g.
    /// server concurrency or buffered memory). No-op unless the
    /// simulator's telemetry was enabled.
    pub fn telemetry_gauge(&mut self, metric: Metric, value: u64) {
        let now = self.kernel.now;
        let host = self.host;
        self.kernel
            .telemetry
            .gauge(now, Scope::Host(host), metric, value);
    }

    /// Arm an application timer; fires as [`AppEvent::Timer`] with `token`.
    /// Timers are one-shot; arming the same token again schedules another
    /// independent firing.
    pub fn set_timer(&mut self, token: u64, delay: SimDuration) {
        let at = self.kernel.now + delay;
        let host = self.host;
        self.kernel.push(at, host, QueuedKind::AppTimer { token });
    }
}

/// The top-level simulator owning the kernel and the applications.
pub struct Simulator {
    kernel: Kernel,
    apps: Vec<Option<Box<dyn App>>>,
    started: bool,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        Simulator {
            kernel: Kernel::new(),
            apps: Vec::new(), // simlint: allow(hot-path-alloc) sim setup
            started: false,
        }
    }

    /// Add a host with default TCP configuration.
    pub fn add_host(&mut self, name: &str) -> HostId {
        let id = HostId(self.kernel.hosts.len() as u16);
        self.kernel.hosts.push(HostState {
            name: name.to_string(),
            tcp_config: TcpConfig::default(),
            sockets: Vec::new(), // simlint: allow(hot-path-alloc) per-host setup
            demux: HashMap::new(), // simlint: allow(hash-collections)
            listeners: HashMap::new(), // simlint: allow(hash-collections)
            next_ephemeral: 40_000,
            stats: SocketStats::default(),
            open_now: 0,
            open_flags: Vec::new(), // simlint: allow(hot-path-alloc) per-host setup
        });
        self.apps.push(None);
        id
    }

    /// Override the TCP parameters new sockets on `host` will use.
    pub fn set_tcp_config(&mut self, host: HostId, cfg: TcpConfig) {
        self.kernel.host(host).tcp_config = cfg;
    }

    /// Connect two hosts with a link.
    pub fn add_link(&mut self, a: HostId, b: HostId, config: LinkConfig) {
        let idx = self.kernel.links.len();
        self.kernel.links.push(Link::new(a, b, config));
        self.kernel.link_index.insert((a, b), idx);
        self.kernel.link_index.insert((b, a), idx);
    }

    /// Multiplex every `spokes` host onto ONE shared link to `hub`: all
    /// spoke→hub traffic contends for the same transmitter (and hub→spoke
    /// for the reverse one), modelling N clients behind a bottleneck
    /// router. Arbitration between spokes follows the config's
    /// [`QueueDiscipline`].
    pub fn add_shared_link(&mut self, spokes: &[HostId], hub: HostId, config: LinkConfig) {
        assert!(!spokes.is_empty(), "a shared link needs at least one spoke");
        let idx = self.kernel.links.len();
        self.kernel.links.push(Link::new(spokes[0], hub, config));
        for &s in spokes {
            assert_ne!(s, hub, "hub cannot be its own spoke");
            self.kernel.link_index.insert((s, hub), idx);
            self.kernel.link_index.insert((hub, s), idx);
        }
    }

    /// Mutable access to the link between two hosts (e.g. to install a
    /// modem codec).
    pub fn link_mut(&mut self, a: HostId, b: HostId) -> &mut Link {
        let idx = self.kernel.link_index[&(a, b)];
        &mut self.kernel.links[idx]
    }

    /// Install (or replace) the impairment pipeline on the link between
    /// two hosts. Shorthand for `link_mut(a, b).set_impairment(..)`.
    pub fn set_impairment(&mut self, a: HostId, b: HostId, impair: crate::impair::ImpairConfig) {
        self.link_mut(a, b).set_impairment(impair);
    }

    /// Install the application driving `host`.
    pub fn install_app(&mut self, host: HostId, app: Box<dyn App>) {
        self.apps[host.0 as usize] = Some(app);
    }

    /// Borrow an installed application, downcast to its concrete type.
    pub fn app_mut<T: App>(&mut self, host: HostId) -> Option<&mut T> {
        let app = self.apps[host.0 as usize].as_mut()?;
        let any: &mut dyn Any = app.as_mut();
        any.downcast_mut::<T>()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// The packet capture of the run so far.
    pub fn trace(&self) -> &Trace {
        &self.kernel.trace
    }

    /// Swap the kernel's timer wheel for the reference binary-heap event
    /// queue (differential testing only — the two pop in identical order
    /// by contract). Call before any traffic flows; queued events do not
    /// migrate.
    pub fn use_reference_queue(&mut self) {
        assert!(
            self.kernel.queue.is_empty(),
            "switch event queues before scheduling any events"
        );
        self.kernel.queue = EventQueue::heap();
    }

    /// Select how much of each packet the trace retains. Set this before
    /// traffic flows: packets already observed stay in whatever form the
    /// previous mode kept.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.kernel.trace.set_mode(mode);
    }

    /// The current trace capture mode.
    pub fn trace_mode(&self) -> TraceMode {
        self.kernel.trace.mode()
    }

    /// Turn on the probe flight recorder. Do this before traffic flows:
    /// sockets created while the probe was off never emit events.
    pub fn enable_probe(&mut self) {
        self.kernel.probe.enable();
    }

    /// Whether the probe flight recorder is collecting.
    pub fn probe_enabled(&self) -> bool {
        self.kernel.probe.enabled()
    }

    /// The probe records collected so far (always empty unless
    /// [`Simulator::enable_probe`] was called).
    pub fn probe_records(&self) -> &[ProbeRecord] {
        self.kernel.probe.records()
    }

    /// Turn on the telemetry time-series sink with the default 10 ms
    /// tick. Do this before traffic flows so series cover the whole run.
    pub fn enable_telemetry(&mut self) {
        self.kernel.telemetry.enable();
    }

    /// Like [`Simulator::enable_telemetry`], but sampling on a custom
    /// tick width.
    pub fn enable_telemetry_with_tick(&mut self, tick: SimDuration) {
        self.kernel.telemetry.set_tick(tick);
        self.kernel.telemetry.enable();
    }

    /// Whether the telemetry sink is collecting.
    pub fn telemetry_enabled(&self) -> bool {
        self.kernel.telemetry.enabled()
    }

    /// The telemetry series collected so far (empty unless
    /// [`Simulator::enable_telemetry`] was called).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.kernel.telemetry
    }

    /// Statistics over all packets between `client` and `server`.
    pub fn stats(&self, client: HostId, server: HostId) -> TraceStats {
        self.kernel.trace.stats(client, server)
    }

    /// Per-host socket usage (sockets used / max simultaneous).
    pub fn socket_stats(&self, host: HostId) -> SocketStats {
        self.kernel.hosts[host.0 as usize].stats
    }

    /// The display name the host was created with.
    pub fn host_name(&self, host: HostId) -> &str {
        &self.kernel.hosts[host.0 as usize].name
    }

    fn dispatch_pending(&mut self) {
        while let Some((host, ev)) = self.kernel.pending.pop_front() {
            let Some(mut app) = self.apps[host.0 as usize].take() else {
                continue;
            };
            let mut ctx = Ctx {
                kernel: &mut self.kernel,
                host,
            };
            app.on_event(&mut ctx, ev);
            self.apps[host.0 as usize] = Some(app);
        }
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.apps.len() {
            let host = HostId(i as u16);
            if self.apps[i].is_some() {
                self.kernel.pending.push_back((host, AppEvent::Start));
            }
        }
        self.dispatch_pending();
    }

    /// Run until the event queue drains or `deadline` passes. Returns the
    /// number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let mut processed = 0;
        while let Some((at, ev)) = self.kernel.queue.pop_before(deadline) {
            self.kernel.now = at;
            self.kernel.events_processed += 1;
            processed += 1;
            assert!(
                self.kernel.events_processed < self.kernel.max_events,
                "simulation exceeded {} events — runaway?",
                self.kernel.max_events
            );
            match ev.kind {
                QueuedKind::Arrival => {
                    let seg = ev.segment.expect("arrival carries a segment");
                    self.kernel
                        .handle_arrival(ev.host, seg, ev.sent, ev.physical, ev.dup);
                }
                QueuedKind::TcpTimer { slot, kind, epoch } => {
                    self.kernel.handle_tcp_timer(ev.host, slot, kind, epoch);
                }
                QueuedKind::AppTimer { token } => {
                    self.kernel
                        .pending
                        .push_back((ev.host, AppEvent::Timer(token)));
                }
                QueuedKind::LinkPump { link, a_to_b } => {
                    self.kernel.handle_link_pump(link, a_to_b);
                }
            }
            self.dispatch_pending();
        }
        processed
    }

    /// Run until no more events remain (including lingering TIME_WAIT
    /// timers, which merely advance the clock).
    pub fn run_until_idle(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Run for a bounded amount of simulated time from now.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.kernel.now + d;
        self.run_until(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo server: accepts connections and echoes every byte back; closes
    /// when the peer half-closes.
    struct Echo {
        port: u16,
        echoed: usize,
    }

    impl App for Echo {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
            match ev {
                AppEvent::Start => ctx.listen(self.port),
                AppEvent::Readable(s) => {
                    let data = ctx.recv(s, usize::MAX);
                    self.echoed += data.len();
                    ctx.send(s, &data);
                }
                AppEvent::PeerFin(s) => ctx.shutdown_write(s),
                _ => {}
            }
        }
    }

    /// Client that sends a payload (handling short writes), waits for the
    /// echo, then closes.
    struct EchoClient {
        server: SockAddr,
        payload: Vec<u8>,
        sent: usize,
        received: Vec<u8>,
        done: bool,
        sock: Option<SocketId>,
    }

    impl EchoClient {
        fn pump_send(&mut self, ctx: &mut Ctx<'_>, s: SocketId) {
            while self.sent < self.payload.len() {
                let n = ctx.send(s, &self.payload[self.sent..]);
                if n == 0 {
                    break;
                }
                self.sent += n;
            }
        }
    }

    impl App for EchoClient {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
            match ev {
                AppEvent::Start => {
                    self.sock = Some(ctx.connect(self.server));
                }
                AppEvent::Connected(s) | AppEvent::SendSpace(s) => {
                    self.pump_send(ctx, s);
                }
                AppEvent::Readable(s) => {
                    let data = ctx.recv(s, usize::MAX);
                    self.received.extend_from_slice(&data);
                    if self.received.len() == self.payload.len() {
                        self.done = true;
                        ctx.shutdown_write(s);
                    }
                }
                _ => {}
            }
        }
    }

    fn echo_roundtrip(cfg: LinkConfig, payload_len: usize) -> (Simulator, HostId, HostId) {
        echo_roundtrip_mode(cfg, payload_len, TraceMode::Full)
    }

    fn echo_roundtrip_mode(
        cfg: LinkConfig,
        payload_len: usize,
        mode: TraceMode,
    ) -> (Simulator, HostId, HostId) {
        let mut sim = Simulator::new();
        sim.set_trace_mode(mode);
        let client = sim.add_host("client");
        let server = sim.add_host("server");
        sim.add_link(client, server, cfg);
        sim.install_app(
            server,
            Box::new(Echo {
                port: 80,
                echoed: 0,
            }),
        );
        sim.install_app(
            client,
            Box::new(EchoClient {
                server: SockAddr::new(server, 80),
                payload: (0..payload_len).map(|i| (i % 251) as u8).collect(),
                sent: 0,
                received: Vec::new(),
                done: false,
                sock: None,
            }),
        );
        sim.run_until_idle();
        (sim, client, server)
    }

    #[test]
    fn echo_small_payload_lan() {
        let (mut sim, client, _server) = echo_roundtrip(LinkConfig::lan(), 100);
        let app = sim.app_mut::<EchoClient>(client).unwrap();
        assert!(app.done, "echo completed");
        assert_eq!(app.received.len(), 100);
    }

    #[test]
    fn echo_large_payload_wan() {
        let (mut sim, client, server) = echo_roundtrip(LinkConfig::wan(), 100_000);
        let app = sim.app_mut::<EchoClient>(client).unwrap();
        assert!(app.done);
        assert_eq!(app.received.len(), 100_000);
        let stats = sim.stats(client, server);
        // 200 KB of payload at 1460 MSS in both directions: at least 138
        // data segments, and the handshake.
        assert!(stats.total_packets() > 140);
        assert!(stats.syns == 2);
    }

    #[test]
    fn echo_over_lossy_link_still_completes() {
        let (mut sim, client, _server) =
            echo_roundtrip(LinkConfig::lan().with_drop_every(7), 50_000);
        let app = sim.app_mut::<EchoClient>(client).unwrap();
        assert!(app.done, "retransmission recovered all losses");
        assert_eq!(app.received.len(), 50_000);
    }

    #[test]
    fn connection_to_closed_port_resets() {
        struct Probe {
            server: SockAddr,
            reset: bool,
        }
        impl App for Probe {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
                match ev {
                    AppEvent::Start => {
                        ctx.connect(self.server);
                    }
                    AppEvent::Reset(_) => self.reset = true,
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new();
        let client = sim.add_host("client");
        let server = sim.add_host("server");
        sim.add_link(client, server, LinkConfig::lan());
        sim.install_app(
            client,
            Box::new(Probe {
                server: SockAddr::new(server, 81), // nothing listens there
                reset: false,
            }),
        );
        sim.run_until_idle();
        assert!(sim.app_mut::<Probe>(client).unwrap().reset);
    }

    #[test]
    fn socket_stats_track_usage() {
        let (sim, client, server) = echo_roundtrip(LinkConfig::lan(), 10);
        assert_eq!(sim.socket_stats(client).sockets_used, 1);
        assert_eq!(sim.socket_stats(server).sockets_used, 1);
        assert!(sim.socket_stats(client).max_simultaneous >= 1);
    }

    #[test]
    fn app_timer_fires() {
        struct TimerApp {
            fired: Vec<u64>,
        }
        impl App for TimerApp {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
                match ev {
                    AppEvent::Start => {
                        ctx.set_timer(7, SimDuration::from_millis(50));
                        ctx.set_timer(8, SimDuration::from_millis(10));
                    }
                    AppEvent::Timer(t) => self.fired.push(t),
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new();
        let h = sim.add_host("solo");
        sim.install_app(h, Box::new(TimerApp { fired: Vec::new() }));
        sim.run_until_idle();
        assert_eq!(sim.app_mut::<TimerApp>(h).unwrap().fired, vec![8, 7]);
    }

    #[test]
    fn elapsed_time_reflects_link_latency() {
        let (sim, client, server) = echo_roundtrip(LinkConfig::wan(), 1000);
        let stats = sim.stats(client, server);
        // Handshake + request + echo + close takes several RTTs at 90 ms.
        assert!(stats.elapsed_secs() > 0.15, "got {}", stats.elapsed_secs());
    }

    #[test]
    fn trace_dump_contains_syn() {
        let (sim, _c, _s) = echo_roundtrip(LinkConfig::lan(), 10);
        let dump = sim.trace().dump();
        assert!(dump.contains("[S]"), "dump:\n{dump}");
    }

    /// The same simulation observed in both trace modes must report
    /// identical statistics, while the stats-only run retains no records.
    #[test]
    fn stats_only_simulation_matches_full() {
        for cfg in [
            LinkConfig::lan(),
            LinkConfig::wan(),
            LinkConfig::lan().with_drop_every(7),
        ] {
            let (full, c1, s1) = echo_roundtrip_mode(cfg.clone(), 30_000, TraceMode::Full);
            let (lean, c2, s2) = echo_roundtrip_mode(cfg, 30_000, TraceMode::StatsOnly);
            assert_eq!(full.stats(c1, s1), lean.stats(c2, s2));
            assert_eq!(full.trace().len(), lean.trace().len());
            assert!(!full.trace().records().is_empty());
            assert!(lean.trace().records().is_empty());
            assert_eq!(lean.trace_mode(), TraceMode::StatsOnly);
        }
    }

    /// Ephemeral allocation must skip (port, remote) 4-tuples still
    /// claimed by live sockets instead of silently clobbering their demux
    /// entries.
    #[test]
    fn ephemeral_port_allocation_skips_live_tuples() {
        let mut sim = Simulator::new();
        let client = sim.add_host("client");
        let server = sim.add_host("server");
        sim.add_link(client, server, LinkConfig::lan());
        let remote = SockAddr::new(server, 80);
        // Claim the first two candidate ports, as lingering TIME_WAIT
        // connections to the same peer would.
        sim.kernel.host(client).demux.insert((40_000, remote), 1000);
        sim.kernel.host(client).demux.insert((40_001, remote), 1001);
        let sock = sim.kernel.connect(client, remote);
        let local = sim.kernel.sock(sock).local;
        assert_eq!(local.port, 40_002, "first free port is chosen");
        // A connection to a different peer is unaffected by those claims.
        let other = SockAddr::new(server, 8080);
        let sock2 = sim.kernel.connect(client, other);
        assert_eq!(sim.kernel.sock(sock2).local.port, 40_003);
    }

    #[test]
    fn ephemeral_ports_wrap_back_to_forty_thousand() {
        assert_eq!(Kernel::next_ephemeral_after(40_000), 40_001);
        assert_eq!(Kernel::next_ephemeral_after(u16::MAX), 40_000);
        assert_eq!(Kernel::next_ephemeral_after(39_999), 40_000);
    }

    /// Force the allocator to the top of the ephemeral range: it must wrap
    /// to 40000 mid-burst without panicking or clobbering live tuples.
    #[test]
    fn ephemeral_allocation_survives_wraparound() {
        let mut sim = Simulator::new();
        let client = sim.add_host("client");
        let server = sim.add_host("server");
        sim.add_link(client, server, LinkConfig::lan());
        let remote = SockAddr::new(server, 80);
        sim.kernel.host(client).next_ephemeral = u16::MAX - 2;
        let mut ports = Vec::new();
        for _ in 0..6 {
            let sock = sim.kernel.connect(client, remote);
            ports.push(sim.kernel.sock(sock).local.port);
        }
        assert_eq!(
            ports,
            vec![65533, 65534, 65535, 40_000, 40_001, 40_002],
            "wraps past 65535 back into the ephemeral range"
        );
    }

    /// N spoke hosts on one shared FIFO bottleneck: traffic from different
    /// clients serializes behind the same transmitter, so each transfer is
    /// slower than it would be on a private link, yet all complete.
    #[test]
    fn shared_bottleneck_serializes_competing_clients() {
        let run = |shared: bool| -> (f64, Vec<usize>) {
            let mut sim = Simulator::new();
            let clients: Vec<HostId> = (0..4).map(|i| sim.add_host(&format!("c{i}"))).collect();
            let server = sim.add_host("server");
            if shared {
                sim.add_shared_link(&clients, server, LinkConfig::ppp());
            } else {
                for &c in &clients {
                    sim.add_link(c, server, LinkConfig::ppp());
                }
            }
            sim.install_app(
                server,
                Box::new(Echo {
                    port: 80,
                    echoed: 0,
                }),
            );
            for &c in &clients {
                sim.install_app(
                    c,
                    Box::new(EchoClient {
                        server: SockAddr::new(server, 80),
                        payload: vec![7u8; 20_000],
                        sent: 0,
                        received: Vec::new(),
                        done: false,
                        sock: None,
                    }),
                );
            }
            sim.run_until_idle();
            let elapsed = clients
                .iter()
                .map(|&c| sim.stats(c, server).elapsed_secs())
                .fold(0.0f64, f64::max);
            let received = clients
                .iter()
                .map(|&c| {
                    let app = sim.app_mut::<EchoClient>(c).unwrap();
                    assert!(app.done, "every client finishes");
                    app.received.len()
                })
                .collect();
            (elapsed, received)
        };
        let (private_t, private_rx) = run(false);
        let (shared_t, shared_rx) = run(true);
        assert_eq!(private_rx, shared_rx);
        assert!(
            shared_t > 3.0 * private_t,
            "4 clients behind one 28.8k modem should take ~4x as long \
             (private {private_t:.2}s shared {shared_t:.2}s)"
        );
    }

    /// The same fleet on a round-robin bottleneck also completes, with the
    /// pump-driven delivery path.
    #[test]
    fn shared_round_robin_bottleneck_completes() {
        let mut sim = Simulator::new();
        let clients: Vec<HostId> = (0..4).map(|i| sim.add_host(&format!("c{i}"))).collect();
        let server = sim.add_host("server");
        sim.add_shared_link(
            &clients,
            server,
            LinkConfig::lan()
                .with_round_robin()
                .with_buffer_bytes(64_000),
        );
        sim.install_app(
            server,
            Box::new(Echo {
                port: 80,
                echoed: 0,
            }),
        );
        for &c in &clients {
            sim.install_app(
                c,
                Box::new(EchoClient {
                    server: SockAddr::new(server, 80),
                    payload: vec![3u8; 30_000],
                    sent: 0,
                    received: Vec::new(),
                    done: false,
                    sock: None,
                }),
            );
        }
        sim.run_until_idle();
        for &c in &clients {
            let app = sim.app_mut::<EchoClient>(c).unwrap();
            assert!(app.done);
            assert_eq!(app.received.len(), 30_000);
        }
    }

    /// A bounded listen backlog silently drops overflow SYNs; clients
    /// recover via SYN retransmission, so every connection still
    /// establishes eventually.
    #[test]
    fn listen_backlog_overflow_drops_syns_then_recovers() {
        struct BacklogEcho {
            port: u16,
            backlog: u32,
            accepted: u64,
        }
        impl App for BacklogEcho {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
                match ev {
                    AppEvent::Start => ctx.listen_with_backlog(self.port, self.backlog),
                    AppEvent::Accepted { .. } => self.accepted += 1,
                    AppEvent::Readable(s) => {
                        let data = ctx.recv(s, usize::MAX);
                        ctx.send(s, &data);
                    }
                    AppEvent::PeerFin(s) => ctx.shutdown_write(s),
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new();
        let clients: Vec<HostId> = (0..8).map(|i| sim.add_host(&format!("c{i}"))).collect();
        let server = sim.add_host("server");
        // High-latency link: SYN-RCVD entries linger a full RTT, so eight
        // simultaneous SYNs overflow a backlog of two.
        sim.add_shared_link(&clients, server, LinkConfig::wan());
        sim.install_app(
            server,
            Box::new(BacklogEcho {
                port: 80,
                backlog: 2,
                accepted: 0,
            }),
        );
        for &c in &clients {
            sim.install_app(
                c,
                Box::new(EchoClient {
                    server: SockAddr::new(server, 80),
                    payload: vec![1u8; 100],
                    sent: 0,
                    received: Vec::new(),
                    done: false,
                    sock: None,
                }),
            );
        }
        sim.run_until_idle();
        let stats = sim.socket_stats(server);
        assert!(
            stats.syn_drops > 0,
            "backlog of 2 must shed some of 8 simultaneous SYNs"
        );
        assert_eq!(stats.sockets_used, 8, "retransmitted SYNs all land");
        for &c in &clients {
            assert!(sim.app_mut::<EchoClient>(c).unwrap().done);
        }
    }
}
