//! A TCP state machine faithful enough to reproduce the protocol mechanics
//! the paper measures: three-way handshake, slow start and congestion
//! avoidance, delayed acknowledgements, the Nagle algorithm, independent
//! half-close, RST semantics on data-after-close, retransmission with
//! Jacobson RTO estimation, and fast retransmit.
//!
//! The machine is *pure*: every entry point takes the current time and an
//! [`Effects`] sink into which it pushes segments to transmit, timers to arm
//! and application notifications. The surrounding kernel (see
//! [`crate::sim`]) owns delivery, which keeps this module directly
//! unit-testable.

use crate::cc::{self, CcContext, CcCtl, CcSignal, CcVariant, CongestionControl};
use crate::packet::{SackBlocks, Segment, SockAddr, TcpFlags};
use crate::probe::{BlockReason, TcpProbeEvent};
use crate::seq::{seq_ge, seq_gt, seq_lt, seq_sub};
use crate::time::{SimDuration, SimTime};
use bytes::{Bytes, BytesMut};
use std::collections::BTreeMap;

/// Tunable parameters of a TCP endpoint.
///
/// Defaults model a mid-1990s BSD-derived stack as used in the paper's
/// testbed: 1460-byte MSS, 200 ms delayed-ACK timer, Nagle enabled, initial
/// congestion window of two segments.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: usize,
    /// Receive buffer / advertised window in bytes.
    pub recv_window: usize,
    /// Send buffer capacity in bytes; writes beyond it are truncated and the
    /// application is notified when space frees up.
    pub send_buffer: usize,
    /// Initial congestion window, in segments.
    pub initial_cwnd_segments: u32,
    /// Initial slow-start threshold in bytes.
    pub initial_ssthresh: usize,
    /// Disable the Nagle algorithm (TCP_NODELAY).
    pub nodelay: bool,
    /// Delayed-ACK timeout; an ACK is also forced every second full segment.
    pub delayed_ack: SimDuration,
    /// Retransmission timeout before any RTT measurement exists.
    pub initial_rto: SimDuration,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimDuration,
    /// How long a socket lingers in TIME_WAIT (2·MSL).
    pub time_wait: SimDuration,
    /// Which congestion-control algorithm drives the window (see
    /// [`crate::cc`]). [`CcVariant::Sack`] also turns on receiver-side
    /// SACK block generation.
    pub cc: CcVariant,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            recv_window: 65_535,
            send_buffer: 65_535,
            initial_cwnd_segments: 2,
            initial_ssthresh: 65_535,
            nodelay: false,
            delayed_ack: SimDuration::from_millis(200),
            // The classic BSD initial RTO of 3 s (RFC 1122). A smaller
            // value causes spurious retransmission storms when several
            // connections share a slow modem link — a real 1990s failure
            // mode, but not one the paper's traces show.
            initial_rto: SimDuration::from_millis(3_000),
            min_rto: SimDuration::from_millis(500),
            time_wait: SimDuration::from_secs(60),
            cc: CcVariant::Reno,
        }
    }
}

/// TCP connection states (RFC 793), minus LISTEN which is handled by the
/// kernel's port table rather than a TCB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Syn sent.
    SynSent,
    /// Syn rcvd.
    SynRcvd,
    /// Established.
    Established,
    /// Fin wait1.
    FinWait1,
    /// Fin wait2.
    FinWait2,
    /// Close wait.
    CloseWait,
    /// Last ack.
    LastAck,
    /// Closing.
    Closing,
    /// Time wait.
    TimeWait,
    /// Closed.
    Closed,
}

impl State {
    /// Whether the endpoint still occupies a socket slot visible to
    /// `netstat` (used for the paper's "max simultaneous sockets" metric).
    pub fn is_open(self) -> bool {
        !matches!(self, State::Closed)
    }
}

/// Per-connection timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// Delayed-ACK timeout.
    DelAck,
    /// TIME_WAIT expiry.
    TimeWait,
    /// Zero-window persist probe.
    Persist,
}

impl TimerKind {
    /// Number of distinct timer kinds.
    pub const COUNT: usize = 4;
    /// Stable array index for this timer kind.
    pub fn index(self) -> usize {
        match self {
            TimerKind::Rto => 0,
            TimerKind::DelAck => 1,
            TimerKind::TimeWait => 2,
            TimerKind::Persist => 3,
        }
    }
}

/// Notifications surfaced to the owning application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockNotify {
    /// Active open completed (SYN-ACK received).
    Connected,
    /// Passive open completed (handshake ACK received).
    Accepted,
    /// New data is available to read.
    Readable,
    /// The peer sent FIN: no more data will arrive after the buffered bytes.
    PeerFin,
    /// Send-buffer space freed after the application hit the cap.
    SendSpace,
    /// The connection was reset by the peer; unread data was discarded.
    Reset,
    /// The connection has fully closed gracefully.
    Closed,
}

/// Side effects produced by driving the state machine.
#[derive(Debug, Default)]
pub struct Effects {
    /// Segments to transmit, in order.
    pub segments: Vec<Segment>,
    /// Timers to arm: (kind, deadline, epoch). A timer fires only if its
    /// epoch still matches the TCB's current epoch for that kind.
    pub timers: Vec<(TimerKind, SimTime, u64)>,
    /// Events to surface to the owning application.
    pub notifications: Vec<SockNotify>,
    /// Probe events for the flight recorder (empty unless the owning
    /// kernel enabled its [`crate::probe::ProbeSink`]).
    pub probe: Vec<TcpProbeEvent>,
}

impl Effects {
    /// Drop all accumulated contents.
    pub fn clear(&mut self) {
        self.segments.clear();
        self.timers.clear();
        self.notifications.clear();
        self.probe.clear();
    }
}

/// Congestion-control and round-trip estimation state. Window policy
/// is delegated to the pluggable [`CcCtl`]; the RTT estimator and RTO
/// backoff are variant-independent and stay here.
#[derive(Debug)]
struct CongestionState {
    ctl: CcCtl,
    /// Smoothed RTT and variance (Jacobson/Karels), in nanoseconds.
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    rto: SimDuration,
    rto_backoff: u32,
    /// Outstanding RTT measurement: (sequence that must be acked, send time).
    rtt_sample: Option<(u64, SimTime)>,
}

/// A TCP control block.
#[derive(Debug)]
pub struct Tcb {
    /// This endpoint's address.
    pub local: SockAddr,
    /// The peer's address.
    pub remote: SockAddr,
    /// Current RFC 793 connection state.
    pub state: State,
    cfg: TcpConfig,

    // --- send side ---
    /// First unacknowledged sequence number.
    snd_una: u64,
    /// Next sequence number to send.
    snd_nxt: u64,
    /// Data buffer; `buf_base` is the sequence number of `send_buf[0]`.
    send_buf: BytesMut,
    buf_base: u64,
    /// Peer's advertised receive window.
    peer_window: usize,
    fin_queued: bool,
    fin_sent: bool,
    fin_seq: Option<u64>,
    /// Application hit the send-buffer cap and wants a SendSpace notify.
    send_blocked: bool,

    // --- receive side ---
    /// Next expected in-order sequence number.
    rcv_nxt: u64,
    /// In-order data awaiting application reads.
    recv_buf: BytesMut,
    /// Out-of-order segments keyed by sequence number.
    reassembly: BTreeMap<u64, Bytes>,
    /// Full segments received since the last ACK we sent (delayed-ACK rule:
    /// ack at least every second segment).
    unacked_segments: u32,
    delack_armed: bool,
    peer_fin_seq: Option<u64>,
    peer_fin_delivered: bool,
    /// The application will never read again (it called `close`); data
    /// arriving now triggers a RST, reproducing the paper's
    /// connection-management hazard.
    no_more_reads: bool,

    cc: CongestionState,
    /// Timer epochs for lazy cancellation.
    timer_epochs: [u64; TimerKind::COUNT],
    /// Set once the TCB has been reset (either direction).
    pub was_reset: bool,
    /// When false (the default), probe emission is a single branch.
    probe_enabled: bool,

    // --- statistics ---
    /// Segments this endpoint transmitted.
    pub segments_sent: u64,
    /// Retransmissions among them.
    pub segments_retransmitted: u64,
    /// Payload bytes transmitted.
    pub bytes_sent: u64,
    /// Payload bytes received in order.
    pub bytes_received: u64,
}

impl Tcb {
    /// Create a TCB performing an active open; emits the initial SYN.
    pub fn open_active(
        local: SockAddr,
        remote: SockAddr,
        cfg: TcpConfig,
        now: SimTime,
        fx: &mut Effects,
    ) -> Tcb {
        let mut tcb = Tcb::new(local, remote, cfg, State::SynSent);
        let seg = Segment {
            src: local,
            dst: remote,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: tcb.advertised_window(),
            sack: SackBlocks::NONE,
            payload: Bytes::new(),
        };
        tcb.snd_nxt = 1;
        tcb.segments_sent += 1;
        fx.segments.push(seg);
        tcb.arm_rto(now, fx);
        tcb
    }

    /// Create a TCB from a received SYN (passive open); emits the SYN-ACK.
    pub fn open_passive(
        local: SockAddr,
        remote: SockAddr,
        cfg: TcpConfig,
        syn: &Segment,
        now: SimTime,
        fx: &mut Effects,
    ) -> Tcb {
        debug_assert!(syn.flags.syn && !syn.flags.ack);
        let mut tcb = Tcb::new(local, remote, cfg, State::SynRcvd);
        tcb.rcv_nxt = syn.seq + 1;
        tcb.peer_window = syn.window;
        let seg = Segment {
            src: local,
            dst: remote,
            seq: 0,
            ack: tcb.rcv_nxt,
            flags: TcpFlags::SYN_ACK,
            window: tcb.advertised_window(),
            sack: SackBlocks::NONE,
            payload: Bytes::new(),
        };
        tcb.snd_nxt = 1;
        tcb.segments_sent += 1;
        fx.segments.push(seg);
        tcb.arm_rto(now, fx);
        tcb
    }

    fn new(local: SockAddr, remote: SockAddr, cfg: TcpConfig, state: State) -> Tcb {
        let cwnd = cfg.mss * cfg.initial_cwnd_segments as usize;
        let initial_rto = cfg.initial_rto;
        let ssthresh = cfg.initial_ssthresh;
        let cc_variant = cfg.cc;
        Tcb {
            local,
            remote,
            state,
            cfg,
            snd_una: 0,
            snd_nxt: 0,
            send_buf: BytesMut::new(),
            buf_base: 1,
            peer_window: 0,
            fin_queued: false,
            fin_sent: false,
            fin_seq: None,
            send_blocked: false,
            rcv_nxt: 0,
            recv_buf: BytesMut::new(),
            reassembly: BTreeMap::new(),
            unacked_segments: 0,
            delack_armed: false,
            peer_fin_seq: None,
            peer_fin_delivered: false,
            no_more_reads: false,
            cc: CongestionState {
                ctl: CcCtl::new(cc_variant, cwnd, ssthresh),
                srtt_ns: None,
                rttvar_ns: 0,
                rto: initial_rto,
                rto_backoff: 0,
                rtt_sample: None,
            },
            timer_epochs: [0; TimerKind::COUNT],
            was_reset: false,
            probe_enabled: false,
            segments_sent: 0,
            segments_retransmitted: 0,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// The parameters this endpoint runs with.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Enable or disable probe-event emission into [`Effects::probe`].
    /// Disabled by default; the flight recorder costs one branch per
    /// potential event while off.
    pub fn set_probe_enabled(&mut self, enabled: bool) {
        self.probe_enabled = enabled;
    }

    #[inline]
    fn probe(&self, fx: &mut Effects, ev: TcpProbeEvent) {
        if self.probe_enabled {
            fx.probe.push(ev);
        }
    }

    /// Emit a congestion-control sample reflecting the current state.
    fn probe_sample(&self, fx: &mut Effects) {
        if self.probe_enabled {
            fx.probe.push(TcpProbeEvent::Sample {
                cwnd: self.cc.ctl.cwnd() as u64,
                ssthresh: self.cc.ctl.ssthresh() as u64,
                srtt_ns: self.cc.srtt_ns,
                rto_ns: self.cc.rto.as_nanos(),
                in_flight: seq_sub(self.snd_nxt, self.snd_una),
            });
        }
    }

    /// Emit a window-blocked event naming whichever window binds.
    fn probe_send_blocked(&self, unsent: usize, fx: &mut Effects) {
        if self.probe_enabled {
            let reason = if self.peer_window < self.cc.ctl.cwnd() {
                BlockReason::PeerWindow
            } else {
                BlockReason::Cwnd
            };
            fx.probe.push(TcpProbeEvent::SendBlocked {
                reason,
                pending: unsent as u64,
            });
        }
    }

    /// Set or clear TCP_NODELAY (the Nagle algorithm).
    pub fn set_nodelay(&mut self, nodelay: bool) {
        self.cfg.nodelay = nodelay;
    }

    /// Current congestion window in bytes (exposed for tests/diagnostics).
    pub fn cwnd(&self) -> usize {
        self.cc.ctl.cwnd()
    }

    /// Current slow-start threshold in bytes (tests/diagnostics).
    pub fn ssthresh(&self) -> usize {
        self.cc.ctl.ssthresh()
    }

    /// Whether the congestion controller is inside fast recovery
    /// (always false for Reno/Cubic, which keep no recovery state).
    pub fn cc_in_recovery(&self) -> bool {
        self.cc.ctl.in_recovery()
    }

    /// Bytes sent but not yet acknowledged — the in-flight estimate the
    /// congestion controller paces against (tests/diagnostics).
    pub fn bytes_in_flight(&self) -> u64 {
        seq_sub(self.snd_nxt, self.snd_una)
    }

    /// Current retransmission timeout (tests/diagnostics).
    pub fn rto(&self) -> SimDuration {
        self.cc.rto
    }

    /// The congestion-control variant this socket was configured with.
    pub fn cc_variant(&self) -> CcVariant {
        self.cfg.cc
    }

    /// Snapshot of the TCB state the congestion controller may consult.
    /// `sack` carries the triggering segment's SACK option (or
    /// [`SackBlocks::NONE`] for segment-less events like an RTO).
    fn cc_ctx<'a>(&self, now: SimTime, sack: &'a SackBlocks) -> CcContext<'a> {
        CcContext {
            mss: self.cfg.mss,
            now,
            snd_una: self.snd_una,
            snd_nxt: self.snd_nxt,
            sack,
        }
    }

    /// Bytes of payload queued but not yet acknowledged.
    pub fn unacked_bytes(&self) -> usize {
        seq_sub(self.buf_base + self.send_buf.len() as u64, self.snd_una) as usize
    }

    /// Bytes available for the application to read.
    pub fn readable_bytes(&self) -> usize {
        self.recv_buf.len()
    }

    /// True once our FIN has been sent *and* acknowledged and the peer's FIN
    /// has been consumed — i.e. the connection ran to graceful completion.
    pub fn fully_closed(&self) -> bool {
        self.state == State::Closed && !self.was_reset
    }

    fn advertised_window(&self) -> usize {
        self.cfg.recv_window.saturating_sub(self.recv_buf.len())
    }

    fn send_limit(&self) -> u64 {
        self.buf_base + self.send_buf.len() as u64
    }

    // ------------------------------------------------------------------
    // Application entry points
    // ------------------------------------------------------------------

    /// Queue application data for transmission. Returns how many bytes were
    /// accepted (bounded by the send-buffer cap).
    pub fn app_send(&mut self, now: SimTime, data: &[u8], fx: &mut Effects) -> usize {
        if !matches!(
            self.state,
            State::SynSent | State::SynRcvd | State::Established | State::CloseWait
        ) || self.fin_queued
        {
            return 0;
        }
        let space = self.cfg.send_buffer.saturating_sub(self.unacked_bytes());
        let take = data.len().min(space);
        if take < data.len() {
            self.send_blocked = true;
        }
        self.send_buf.extend_from_slice(&data[..take]);
        if matches!(self.state, State::Established | State::CloseWait) {
            self.try_send(now, fx);
        }
        take
    }

    /// Half-close: no more application data will be sent. Queues a FIN after
    /// any buffered data; the receive side stays open.
    pub fn app_shutdown_write(&mut self, now: SimTime, fx: &mut Effects) {
        if self.fin_queued || !self.state.is_open() {
            return;
        }
        self.fin_queued = true;
        if matches!(self.state, State::Established | State::CloseWait) {
            self.try_send(now, fx);
        }
    }

    /// Full close: half-close the send side *and* declare that the
    /// application will not read again. If unread or future data exists the
    /// connection is reset — the naive close the paper warns servers about.
    pub fn app_close(&mut self, now: SimTime, fx: &mut Effects) {
        if !self.state.is_open() {
            return;
        }
        self.no_more_reads = true;
        if !self.recv_buf.is_empty() || !self.reassembly.is_empty() {
            // Unread data: BSD-style close sends RST immediately.
            self.reset(fx, true);
            return;
        }
        self.app_shutdown_write(now, fx);
    }

    /// Abortive close: send RST, discard everything.
    pub fn app_abort(&mut self, fx: &mut Effects) {
        if self.state.is_open() {
            self.reset(fx, true);
        }
    }

    /// Read up to `max` buffered bytes.
    pub fn app_recv(&mut self, max: usize, fx: &mut Effects) -> Bytes {
        let take = self.recv_buf.len().min(max);
        let before = self.advertised_window();
        let data = self.recv_buf.split_to_pooled(take);
        // If the window had effectively closed and reading reopened it,
        // send a window update so the sender does not stall.
        let after = self.advertised_window();
        if before < self.cfg.mss && after >= 2 * self.cfg.mss && self.state.is_open() {
            self.emit_ack(fx);
        }
        data
    }

    // ------------------------------------------------------------------
    // Segment arrival
    // ------------------------------------------------------------------

    /// Process an incoming segment.
    pub fn on_segment(&mut self, now: SimTime, seg: &Segment, fx: &mut Effects) {
        if !self.state.is_open() {
            return;
        }
        if seg.flags.rst {
            self.handle_rst(fx);
            return;
        }

        match self.state {
            State::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.snd_nxt {
                    self.rcv_nxt = seg.seq + 1;
                    self.peer_window = seg.window;
                    self.snd_una = seg.ack;
                    self.state = State::Established;
                    self.buf_base = self.snd_nxt;
                    self.take_rtt_sample(now, seg.ack);
                    self.cancel_timer(TimerKind::Rto);
                    self.probe(fx, TcpProbeEvent::Established);
                    self.probe_sample(fx);
                    self.emit_ack(fx);
                    fx.notifications.push(SockNotify::Connected);
                    self.try_send(now, fx);
                }
                return;
            }
            State::SynRcvd => {
                if seg.flags.ack && seg.ack == self.snd_nxt {
                    self.snd_una = seg.ack;
                    self.state = State::Established;
                    self.buf_base = self.snd_nxt;
                    self.peer_window = seg.window;
                    self.take_rtt_sample(now, seg.ack);
                    self.cancel_timer(TimerKind::Rto);
                    self.probe(fx, TcpProbeEvent::Established);
                    fx.notifications.push(SockNotify::Accepted);
                    // Fall through to process any data on the ACK.
                } else if seg.flags.syn && !seg.flags.ack {
                    // Duplicate SYN: retransmit the SYN-ACK.
                    self.retransmit(now, fx);
                    return;
                } else {
                    return;
                }
            }
            State::TimeWait => {
                // Retransmitted FIN from the peer: re-ACK it.
                if seg.flags.fin {
                    self.emit_ack(fx);
                }
                return;
            }
            _ => {}
        }

        self.peer_window = seg.window;
        if seg.flags.ack {
            self.handle_ack(now, seg, fx);
        }
        if seg.has_payload() || seg.flags.fin {
            self.handle_data(now, seg, fx);
        }
        if self.state.is_open() {
            self.try_send(now, fx);
        }
    }

    fn handle_rst(&mut self, fx: &mut Effects) {
        // Data already buffered but not yet read by the application is
        // discarded: the paper's observation that a server RST destroys
        // responses the client TCP had successfully received.
        self.recv_buf.clear();
        self.reassembly.clear();
        self.send_buf.clear();
        self.was_reset = true;
        self.state = State::Closed;
        self.cancel_all_timers();
        fx.notifications.push(SockNotify::Reset);
    }

    fn reset(&mut self, fx: &mut Effects, notify_peer: bool) {
        if notify_peer {
            fx.segments
                .push(Segment::rst(self.local, self.remote, self.snd_nxt));
            self.segments_sent += 1;
        }
        self.recv_buf.clear();
        self.reassembly.clear();
        self.send_buf.clear();
        self.was_reset = true;
        self.state = State::Closed;
        self.cancel_all_timers();
    }

    fn handle_ack(&mut self, now: SimTime, seg: &Segment, fx: &mut Effects) {
        let ack = seg.ack;
        if seq_gt(ack, self.snd_nxt) {
            return; // acks data we never sent; ignore
        }
        if seq_gt(ack, self.snd_una) {
            let newly_acked = seq_sub(ack, self.snd_una) as usize;
            self.snd_una = ack;
            self.cc.rto_backoff = 0;
            self.take_rtt_sample(now, ack);
            let ctx = self.cc_ctx(now, &seg.sack);
            let sig = self.cc.ctl.on_ack(&ctx, newly_acked);

            // Trim acknowledged bytes from the retransmission buffer. The
            // FIN, if ours was acked, occupies one unit past the data.
            let data_acked = ack.min(self.send_limit());
            if seq_gt(data_acked, self.buf_base) {
                let drop = seq_sub(data_acked, self.buf_base) as usize;
                self.send_buf.advance(drop);
                self.buf_base = data_acked;
            }
            if self.send_blocked && self.unacked_bytes() < self.cfg.send_buffer {
                self.send_blocked = false;
                fx.notifications.push(SockNotify::SendSpace);
            }

            let fin_acked = self.fin_seq.is_some_and(|f| seq_gt(ack, f));
            if fin_acked {
                match self.state {
                    State::FinWait1 => {
                        self.state = if self.peer_fin_seq.is_some() {
                            self.enter_time_wait(now, fx);
                            State::TimeWait
                        } else {
                            State::FinWait2
                        }
                    }
                    State::Closing => {
                        self.enter_time_wait(now, fx);
                        self.state = State::TimeWait;
                    }
                    State::LastAck => {
                        self.state = State::Closed;
                        self.cancel_all_timers();
                        fx.notifications.push(SockNotify::Closed);
                    }
                    _ => {}
                }
            }

            if self.snd_una == self.snd_nxt {
                self.cancel_timer(TimerKind::Rto);
            } else {
                self.arm_rto(now, fx);
            }
            // NewReno/SACK partial-ACK recovery: the controller asked
            // for the next hole to be retransmitted right away.
            if sig == CcSignal::Retransmit && seq_gt(self.snd_nxt, self.snd_una) {
                self.probe(fx, TcpProbeEvent::FastRetransmit);
                self.retransmit(now, fx);
            }
            self.probe_sample(fx);
        } else if ack == self.snd_una
            && !seg.has_payload()
            && !seg.flags.syn
            && !seg.flags.fin
            && seq_gt(self.snd_nxt, self.snd_una)
        {
            // Duplicate ACK while data is outstanding.
            let ctx = self.cc_ctx(now, &seg.sack);
            match self.cc.ctl.on_dup_ack(&ctx) {
                CcSignal::Loss => {
                    // Loss inferred from the third duplicate ACK: let
                    // the controller collapse its windows, then fast
                    // retransmit.
                    let ctx = self.cc_ctx(now, &seg.sack);
                    self.cc.ctl.on_loss(&ctx);
                    self.probe(fx, TcpProbeEvent::FastRetransmit);
                    self.retransmit(now, fx);
                }
                CcSignal::Retransmit => {
                    self.probe(fx, TcpProbeEvent::FastRetransmit);
                    self.retransmit(now, fx);
                }
                CcSignal::None => {}
            }
        }

        // Zero-window handling: arm the persist timer if data waits.
        if self.peer_window == 0 && seq_gt(self.send_limit(), self.snd_nxt) {
            self.probe(fx, TcpProbeEvent::ZeroWindow);
            self.arm_timer(TimerKind::Persist, now + self.cc.rto, fx);
        }
    }

    fn handle_data(&mut self, now: SimTime, seg: &Segment, fx: &mut Effects) {
        let mut seq = seg.seq;
        // simlint: allow(hot-path-alloc) -- `Bytes` clone is a refcount
        // bump sharing the pooled buffer, not a copy.
        let mut payload = seg.payload.clone();

        // Trim any portion we already have.
        if seq_lt(seq, self.rcv_nxt) {
            let overlap = seq_sub(self.rcv_nxt, seq) as usize;
            if overlap >= payload.len() && !seg.flags.fin {
                // Entirely a duplicate: re-ACK immediately to resync.
                self.emit_ack(fx);
                return;
            }
            payload = payload.slice(overlap.min(payload.len())..);
            seq = self.rcv_nxt;
        }

        if seq_gt(seq, self.rcv_nxt) {
            // Out of order: stash and send an immediate duplicate ACK.
            if !payload.is_empty() {
                self.reassembly.entry(seq).or_insert(payload);
            }
            if seg.flags.fin {
                self.peer_fin_seq = Some(seq_sub(seg.seq_end(), 1));
            }
            self.emit_ack(fx);
            return;
        }

        // In-order data.
        let mut delivered = false;
        if !payload.is_empty() {
            self.bytes_received += payload.len() as u64;
            self.recv_buf.extend_from_slice(&payload);
            self.rcv_nxt += payload.len() as u64;
            delivered = true;
        }
        if seg.flags.fin {
            self.peer_fin_seq = Some(seq_sub(seg.seq_end(), 1));
        }

        // Drain the reassembly queue.
        while let Some((&s, _)) = self.reassembly.first_key_value() {
            if seq_gt(s, self.rcv_nxt) {
                break;
            }
            let (s, data) = self.reassembly.pop_first().unwrap();
            let skip = seq_sub(self.rcv_nxt, s) as usize;
            if skip < data.len() {
                let fresh = &data[skip..];
                self.bytes_received += fresh.len() as u64;
                self.recv_buf.extend_from_slice(fresh);
                self.rcv_nxt += fresh.len() as u64;
                delivered = true;
            }
        }

        if self.no_more_reads && delivered {
            // Data arrived for a fully closed application: reset, as real
            // stacks do. This is what turns a naive server close into lost
            // responses at the client.
            self.reset(fx, true);
            return;
        }

        let mut fin_consumed = false;
        if let Some(fin_seq) = self.peer_fin_seq {
            if self.rcv_nxt == fin_seq {
                self.rcv_nxt = fin_seq + 1;
                fin_consumed = true;
            }
        }

        if delivered && !self.peer_fin_delivered {
            fx.notifications.push(SockNotify::Readable);
        }

        if fin_consumed && !self.peer_fin_delivered {
            self.peer_fin_delivered = true;
            fx.notifications.push(SockNotify::PeerFin);
            match self.state {
                State::Established => self.state = State::CloseWait,
                State::FinWait1 => {
                    // Our FIN is still unacked.
                    self.state = State::Closing;
                }
                State::FinWait2 => {
                    self.enter_time_wait(now, fx);
                    self.state = State::TimeWait;
                }
                _ => {}
            }
            // FIN is acknowledged immediately.
            self.emit_ack(fx);
            return;
        }

        if delivered {
            self.unacked_segments += 1;
            let force = self.unacked_segments >= 2;
            if force {
                self.emit_ack(fx);
            } else if !self.delack_armed {
                self.delack_armed = true;
                let deadline = now + self.cfg.delayed_ack;
                self.probe(fx, TcpProbeEvent::DelAckArm { deadline });
                self.arm_timer(TimerKind::DelAck, deadline, fx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Drive a timer expiry. `epoch` must match the epoch the timer was
    /// armed with, otherwise the timer was cancelled or superseded.
    pub fn on_timer(&mut self, now: SimTime, kind: TimerKind, epoch: u64, fx: &mut Effects) {
        if self.timer_epochs[kind.index()] != epoch || !self.state.is_open() {
            return;
        }
        self.probe(fx, TcpProbeEvent::TimerFired { kind });
        match kind {
            TimerKind::DelAck => {
                self.delack_armed = false;
                if self.unacked_segments > 0 {
                    self.emit_ack(fx);
                }
            }
            TimerKind::Rto => {
                if seq_gt(self.snd_nxt, self.snd_una) {
                    // Timeout: multiplicative back-off, collapse cwnd, go
                    // back into slow start (RFC 2001).
                    let ctx = self.cc_ctx(now, &SackBlocks::NONE);
                    self.cc.ctl.on_rto(&ctx);
                    self.cc.rto_backoff += 1;
                    self.cc.rtt_sample = None; // Karn's algorithm
                    self.probe(fx, TcpProbeEvent::RtoFire);
                    self.retransmit(now, fx);
                }
            }
            TimerKind::TimeWait => {
                self.state = State::Closed;
                self.cancel_all_timers();
                fx.notifications.push(SockNotify::Closed);
            }
            TimerKind::Persist => {
                if self.peer_window == 0 && seq_gt(self.send_limit(), self.snd_nxt) {
                    // One-byte window probe.
                    let off = seq_sub(self.snd_nxt, self.buf_base) as usize;
                    let payload = Bytes::pooled_copy_from_slice(&self.send_buf[off..off + 1]);
                    self.emit_data_segment(self.snd_nxt, payload, false, fx);
                    self.arm_timer(TimerKind::Persist, now + self.cc.rto, fx);
                }
            }
        }
    }

    fn arm_timer(&mut self, kind: TimerKind, at: SimTime, fx: &mut Effects) {
        let e = &mut self.timer_epochs[kind.index()];
        *e += 1;
        fx.timers.push((kind, at, *e));
    }

    fn cancel_timer(&mut self, kind: TimerKind) {
        self.timer_epochs[kind.index()] += 1;
    }

    fn cancel_all_timers(&mut self) {
        for e in &mut self.timer_epochs {
            *e += 1;
        }
    }

    fn arm_rto(&mut self, now: SimTime, fx: &mut Effects) {
        let rto = self
            .cc
            .rto
            .saturating_mul(1u64 << self.cc.rto_backoff.min(6));
        self.arm_timer(TimerKind::Rto, now + rto, fx);
    }

    fn enter_time_wait(&mut self, now: SimTime, fx: &mut Effects) {
        let tw = self.cfg.time_wait;
        self.arm_timer(TimerKind::TimeWait, now + tw, fx);
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    fn take_rtt_sample(&mut self, now: SimTime, ack: u64) {
        if let Some((seq, sent)) = self.cc.rtt_sample {
            if seq_ge(ack, seq) {
                let sample = now.since(sent).as_nanos();
                match self.cc.srtt_ns {
                    None => {
                        self.cc.srtt_ns = Some(sample);
                        self.cc.rttvar_ns = sample / 2;
                    }
                    Some(srtt) => {
                        let err = sample.abs_diff(srtt);
                        self.cc.rttvar_ns = (3 * self.cc.rttvar_ns + err) / 4;
                        self.cc.srtt_ns = Some((7 * srtt + sample) / 8);
                    }
                }
                let rto_ns = self.cc.srtt_ns.unwrap() + (4 * self.cc.rttvar_ns).max(10_000_000);
                self.cc.rto = SimDuration::from_nanos(rto_ns).max(self.cfg.min_rto);
                self.cc.rtt_sample = None;
            }
        }
    }

    /// The SACK option for an outgoing ACK: the receiver's out-of-order
    /// spans, merged, when this endpoint runs SACK; empty otherwise.
    fn sack_for_ack(&self) -> SackBlocks {
        if self.cfg.cc != CcVariant::Sack || self.reassembly.is_empty() {
            return SackBlocks::NONE;
        }
        cc::wire_sack_blocks(
            self.reassembly
                .iter()
                .map(|(&s, p)| (s, s + p.len() as u64)),
            self.rcv_nxt,
        )
    }

    fn emit_ack(&mut self, fx: &mut Effects) {
        if self.delack_armed {
            self.probe(fx, TcpProbeEvent::DelAckFlush);
        }
        self.unacked_segments = 0;
        self.cancel_timer(TimerKind::DelAck);
        self.delack_armed = false;
        fx.segments.push(Segment {
            src: self.local,
            dst: self.remote,
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            flags: TcpFlags::ACK,
            window: self.advertised_window(),
            sack: self.sack_for_ack(),
            payload: Bytes::new(),
        });
        self.segments_sent += 1;
    }

    fn emit_data_segment(&mut self, seq: u64, payload: Bytes, fin: bool, fx: &mut Effects) {
        let flags = TcpFlags {
            syn: false,
            ack: true,
            fin,
            rst: false,
            psh: payload.len() < self.cfg.mss || fin,
        };
        // Data segments piggyback the current ACK.
        if self.delack_armed {
            self.probe(fx, TcpProbeEvent::DelAckFlush);
        }
        self.unacked_segments = 0;
        self.cancel_timer(TimerKind::DelAck);
        self.delack_armed = false;
        self.bytes_sent += payload.len() as u64;
        self.segments_sent += 1;
        fx.segments.push(Segment {
            src: self.local,
            dst: self.remote,
            seq,
            ack: self.rcv_nxt,
            flags,
            window: self.advertised_window(),
            sack: self.sack_for_ack(),
            payload,
        });
    }

    /// Transmit whatever the congestion window, peer window, Nagle and
    /// buffered data allow.
    fn try_send(&mut self, now: SimTime, fx: &mut Effects) {
        if !matches!(
            self.state,
            State::Established
                | State::CloseWait
                | State::FinWait1
                | State::Closing
                | State::LastAck
        ) {
            return;
        }
        let mut sent_any = false;
        loop {
            if self.fin_sent {
                break;
            }
            let in_flight = seq_sub(self.snd_nxt, self.snd_una) as usize;
            let wnd = self.cc.ctl.cwnd().min(self.peer_window);
            let avail = wnd.saturating_sub(in_flight);
            let unsent = seq_sub(self.send_limit(), self.snd_nxt) as usize;
            let len = unsent.min(self.cfg.mss).min(avail);
            let fin_now = self.fin_queued && (self.snd_nxt + len as u64) == self.send_limit();

            if len == 0 && !fin_now {
                if unsent > 0 {
                    self.probe_send_blocked(unsent, fx);
                }
                break;
            }
            if len == 0 && fin_now && in_flight > 0 && unsent > 0 {
                // Window-blocked with data still queued before the FIN.
                self.probe_send_blocked(unsent, fx);
                break;
            }
            // Nagle: hold sub-MSS segments while data is in flight, unless
            // this segment also carries our FIN.
            if len > 0 && len < self.cfg.mss && in_flight > 0 && !self.cfg.nodelay && !fin_now {
                self.probe(
                    fx,
                    TcpProbeEvent::SendBlocked {
                        reason: BlockReason::Nagle,
                        pending: unsent as u64,
                    },
                );
                break;
            }

            let off = seq_sub(self.snd_nxt, self.buf_base) as usize;
            let payload = Bytes::pooled_copy_from_slice(&self.send_buf[off..off + len]);
            if self.cc.rtt_sample.is_none() && (len > 0 || fin_now) {
                self.cc.rtt_sample = Some((self.snd_nxt + len as u64 + u64::from(fin_now), now));
            }
            self.emit_data_segment(self.snd_nxt, payload, fin_now, fx);
            self.snd_nxt += len as u64;
            if fin_now {
                self.fin_seq = Some(self.snd_nxt);
                self.snd_nxt += 1;
                self.fin_sent = true;
                match self.state {
                    State::Established => self.state = State::FinWait1,
                    State::CloseWait => self.state = State::LastAck,
                    _ => {}
                }
            }
            sent_any = true;
            if fin_now {
                break;
            }
        }
        if sent_any {
            self.arm_rto(now, fx);
            self.probe_sample(fx);
        }
    }

    /// Retransmit the first unacknowledged segment (and FIN/SYN-ACK where
    /// appropriate).
    fn retransmit(&mut self, now: SimTime, fx: &mut Effects) {
        self.segments_retransmitted += 1;
        match self.state {
            State::SynSent => {
                fx.segments.push(Segment {
                    src: self.local,
                    dst: self.remote,
                    seq: 0,
                    ack: 0,
                    flags: TcpFlags::SYN,
                    window: self.advertised_window(),
                    sack: SackBlocks::NONE,
                    payload: Bytes::new(),
                });
                self.segments_sent += 1;
            }
            State::SynRcvd => {
                fx.segments.push(Segment {
                    src: self.local,
                    dst: self.remote,
                    seq: 0,
                    ack: self.rcv_nxt,
                    flags: TcpFlags::SYN_ACK,
                    window: self.advertised_window(),
                    sack: SackBlocks::NONE,
                    payload: Bytes::new(),
                });
                self.segments_sent += 1;
            }
            _ => {
                let data_start = self.snd_una.max(self.buf_base);
                // Only bytes already sent: a tail hole fill must not carry
                // unsent data, which the next output would send again
                // (`snd_nxt` is never rewound here).
                let data_end = self.send_limit().min(self.snd_nxt);
                if data_start < data_end {
                    let off = seq_sub(data_start, self.buf_base) as usize;
                    let mut len = ((data_end - data_start) as usize).min(self.cfg.mss);
                    // SACK: stop short of the first range the peer
                    // already holds — never resend a SACKed octet.
                    if let Some(cap) = self.cc.ctl.rexmit_cap(data_start) {
                        if seq_gt(cap, data_start) {
                            len = len.min(seq_sub(cap, data_start) as usize);
                        }
                    }
                    let payload = Bytes::pooled_copy_from_slice(&self.send_buf[off..off + len]);
                    let fin = self.fin_sent && self.fin_seq == Some(data_start + len as u64);
                    self.emit_data_segment(data_start, payload, fin, fx);
                } else if self.fin_sent && self.fin_seq == Some(self.snd_una) {
                    // Retransmit a bare FIN.
                    self.emit_data_segment(self.snd_una, Bytes::new(), true, fx);
                }
            }
        }
        self.arm_rto(now, fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::HostId;

    const CLIENT: SockAddr = SockAddr::new(HostId(0), 40_000);
    const SERVER: SockAddr = SockAddr::new(HostId(1), 80);

    fn fx() -> Effects {
        Effects::default()
    }

    /// Drive a full handshake, returning (client, server) TCBs in
    /// Established state.
    fn established() -> (Tcb, Tcb) {
        let now = SimTime::ZERO;
        let mut cfx = fx();
        let mut client = Tcb::open_active(CLIENT, SERVER, TcpConfig::default(), now, &mut cfx);
        let syn = cfx.segments.pop().unwrap();
        assert!(syn.flags.syn && !syn.flags.ack);

        let mut sfx = fx();
        let mut server =
            Tcb::open_passive(SERVER, CLIENT, TcpConfig::default(), &syn, now, &mut sfx);
        let synack = sfx.segments.pop().unwrap();
        assert!(synack.flags.syn && synack.flags.ack);

        let mut cfx = fx();
        client.on_segment(now, &synack, &mut cfx);
        assert_eq!(client.state, State::Established);
        assert!(cfx.notifications.contains(&SockNotify::Connected));
        let ack = cfx.segments.pop().unwrap();

        let mut sfx = fx();
        server.on_segment(now, &ack, &mut sfx);
        assert_eq!(server.state, State::Established);
        assert!(sfx.notifications.contains(&SockNotify::Accepted));
        (client, server)
    }

    /// Shuttle segments between the two TCBs until both sides quiesce.
    /// Timers are not simulated; returns the total number of segments
    /// exchanged.
    fn pump(a: &mut Tcb, b: &mut Tcb, now: SimTime) -> usize {
        let mut from_a: Vec<Segment> = Vec::new();
        let mut from_b: Vec<Segment> = Vec::new();
        let mut count = 0;
        loop {
            let mut progressed = false;
            let mut e = fx();
            for seg in from_a.drain(..) {
                count += 1;
                b.on_segment(now, &seg, &mut e);
            }
            from_b.append(&mut e.segments);
            let mut e = fx();
            for seg in from_b.drain(..) {
                count += 1;
                a.on_segment(now, &seg, &mut e);
            }
            from_a.append(&mut e.segments);
            if !from_a.is_empty() || !from_b.is_empty() {
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        count
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (c, s) = established();
        assert_eq!(c.state, State::Established);
        assert_eq!(s.state, State::Established);
    }

    #[test]
    fn data_transfer_and_read() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        assert_eq!(c.app_send(now, b"hello world", &mut e), 11);
        let seg = e.segments.pop().unwrap();
        assert_eq!(&seg.payload[..], b"hello world");

        let mut e = fx();
        s.on_segment(now, &seg, &mut e);
        assert!(e.notifications.contains(&SockNotify::Readable));
        let mut e2 = fx();
        assert_eq!(&s.app_recv(1024, &mut e2)[..], b"hello world");
    }

    #[test]
    fn large_write_segments_at_mss() {
        let (mut c, _s) = established();
        let mut e = fx();
        let data = vec![0xAB; 4000];
        c.app_send(SimTime::ZERO, &data, &mut e);
        // cwnd = 2 * MSS: exactly two full segments go out now.
        assert_eq!(e.segments.len(), 2);
        assert!(e.segments.iter().all(|s| s.payload.len() == 1460));
    }

    #[test]
    fn slow_start_doubles_window() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        let data = vec![0u8; 64_000];
        c.app_send(now, &data, &mut e);
        assert_eq!(e.segments.len(), 2, "initial cwnd is two segments");
        // Deliver them; server acks (second segment forces an ACK).
        let mut sfx = fx();
        for seg in e.segments.drain(..) {
            s.on_segment(now, &seg, &mut sfx);
        }
        let acks: Vec<_> = sfx.segments.drain(..).collect();
        assert_eq!(acks.len(), 1, "delayed ack: one ACK per two segments");
        let mut e = fx();
        c.on_segment(now, &acks[0], &mut e);
        // cwnd grew by up to one MSS per acked MSS -> 2 more in flight
        // than before; after one full-window ack, 2 * 1460 acked, cwnd
        // grows by min(acked, mss) = 1460 -> 3 segments, plus the window
        // slid by 2: 4 new segments may depart... at minimum more than 2.
        assert!(
            e.segments.len() >= 3,
            "window opened: got {}",
            e.segments.len()
        );
    }

    #[test]
    fn nagle_holds_small_segment_with_data_in_flight() {
        let (mut c, _s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"first", &mut e);
        assert_eq!(e.segments.len(), 1, "no data in flight: sends immediately");
        let mut e = fx();
        c.app_send(now, b"second", &mut e);
        assert_eq!(e.segments.len(), 0, "Nagle holds the second small write");
    }

    #[test]
    fn nodelay_disables_nagle() {
        let (mut c, _s) = established();
        c.set_nodelay(true);
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"first", &mut e);
        c.app_send(now, b"second", &mut e);
        assert_eq!(e.segments.len(), 2);
    }

    #[test]
    fn nagle_releases_on_ack() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"first", &mut e);
        let first = e.segments.pop().unwrap();
        let mut e = fx();
        c.app_send(now, b"second", &mut e);
        assert!(e.segments.is_empty());

        // Server receives and (eventually) acks.
        let mut sfx = fx();
        s.on_segment(now, &first, &mut sfx);
        // Only one small segment: ack comes from the delack timer.
        let (kind, at, epoch) = sfx.timers[0];
        assert_eq!(kind, TimerKind::DelAck);
        let mut sfx2 = fx();
        s.on_timer(at, kind, epoch, &mut sfx2);
        let ack = sfx2.segments.pop().expect("delayed ack fired");

        let mut e = fx();
        c.on_segment(now, &ack, &mut e);
        assert_eq!(e.segments.len(), 1, "held segment released by ACK");
        assert_eq!(&e.segments[0].payload[..], b"second");
    }

    #[test]
    fn delayed_ack_every_second_segment() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, &vec![0u8; 2920], &mut e);
        assert_eq!(e.segments.len(), 2);
        let mut sfx = fx();
        s.on_segment(now, &e.segments[0], &mut sfx);
        assert!(sfx.segments.is_empty(), "first segment: ack deferred");
        s.on_segment(now, &e.segments[1], &mut sfx);
        assert_eq!(sfx.segments.len(), 1, "second segment forces ack");
    }

    #[test]
    fn graceful_close_both_ways() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_shutdown_write(now, &mut e);
        let finseg = e.segments.pop().unwrap();
        assert!(finseg.flags.fin);
        assert_eq!(c.state, State::FinWait1);

        let mut sfx = fx();
        s.on_segment(now, &finseg, &mut sfx);
        assert_eq!(s.state, State::CloseWait);
        assert!(sfx.notifications.contains(&SockNotify::PeerFin));
        let ack = sfx.segments.pop().unwrap();

        let mut e = fx();
        c.on_segment(now, &ack, &mut e);
        assert_eq!(c.state, State::FinWait2);

        // Server closes its half.
        let mut sfx = fx();
        s.app_shutdown_write(now, &mut sfx);
        assert_eq!(s.state, State::LastAck);
        let fin2 = sfx.segments.pop().unwrap();
        let mut e = fx();
        c.on_segment(now, &fin2, &mut e);
        assert_eq!(c.state, State::TimeWait);
        let last_ack = e.segments.pop().unwrap();
        let mut sfx = fx();
        s.on_segment(now, &last_ack, &mut sfx);
        assert_eq!(s.state, State::Closed);
        assert!(sfx.notifications.contains(&SockNotify::Closed));
        assert!(s.fully_closed());
    }

    #[test]
    fn fin_piggybacks_on_last_data() {
        let (mut c, _s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"bye", &mut e);
        e.segments.clear();
        // Buffered write followed by shutdown: next segment carries FIN.
        let mut c2 = established().0;
        let mut e = fx();
        c2.app_send(now, b"xyz", &mut e);
        c2.app_shutdown_write(now, &mut e);
        assert_eq!(e.segments.len(), 2);
        // Under Nagle the 3-byte payload went out alone first; FIN follows
        // separately since fin may always be sent.
        assert!(e.segments[1].flags.fin);
    }

    #[test]
    fn close_with_unread_data_sends_rst() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"request", &mut e);
        let seg = e.segments.pop().unwrap();
        let mut sfx = fx();
        s.on_segment(now, &seg, &mut sfx);
        // Server closes without reading: RST.
        let mut sfx = fx();
        s.app_close(now, &mut sfx);
        assert_eq!(sfx.segments.len(), 1);
        assert!(sfx.segments[0].flags.rst);
        assert_eq!(s.state, State::Closed);
    }

    #[test]
    fn data_after_close_resets_and_client_loses_buffered_responses() {
        // The paper's connection-management hazard: server closes after N
        // responses; late requests hit the closed socket, the RST destroys
        // data the client had not yet read.
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;

        // Server sends a response, then closes naively.
        let mut sfx = fx();
        s.app_send(now, b"response-1", &mut sfx);
        let resp = sfx.segments.pop().unwrap();
        let mut sfx = fx();
        s.app_close(now, &mut sfx); // no unread data -> graceful FIN
        let _fin = sfx.segments.pop().unwrap();

        // Response arrives at the client but the app has not read it yet.
        let mut cfx = fx();
        c.on_segment(now, &resp, &mut cfx);
        assert_eq!(c.readable_bytes(), 10);

        // Client pipelines another request; it arrives after the server
        // app closed -> server resets.
        let mut cfx = fx();
        c.app_send(now, b"request-2", &mut cfx);
        let req2 = cfx.segments.pop().unwrap();
        let mut sfx = fx();
        s.on_segment(now, &req2, &mut sfx);
        assert!(
            sfx.segments.iter().any(|seg| seg.flags.rst),
            "server must reset on data after close"
        );
        let rst = sfx
            .segments
            .iter()
            .find(|seg| seg.flags.rst)
            .unwrap()
            .clone();

        // The RST destroys the client's buffered response.
        let mut cfx = fx();
        c.on_segment(now, &rst, &mut cfx);
        assert!(cfx.notifications.contains(&SockNotify::Reset));
        assert_eq!(c.readable_bytes(), 0, "buffered response was discarded");
        assert!(c.was_reset);
    }

    #[test]
    fn retransmission_on_rto() {
        let (mut c, _s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"lost data", &mut e);
        let orig = e.segments.pop().unwrap();
        let (kind, at, epoch) = *e
            .timers
            .iter()
            .find(|(k, _, _)| *k == TimerKind::Rto)
            .expect("rto armed");
        let mut e = fx();
        c.on_timer(at, kind, epoch, &mut e);
        let rtx = e.segments.pop().expect("retransmission");
        assert_eq!(rtx.seq, orig.seq);
        assert_eq!(rtx.payload, orig.payload);
        assert_eq!(c.segments_retransmitted, 1);
        assert_eq!(c.cwnd(), 1460, "cwnd collapses to one MSS on timeout");
    }

    #[test]
    fn fast_retransmit_on_three_dup_acks() {
        let (mut c, _s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, &vec![1u8; 2920], &mut e);
        assert_eq!(e.segments.len(), 2);
        let dup = Segment {
            src: SERVER,
            dst: CLIENT,
            seq: 1,
            ack: 1, // nothing new
            flags: TcpFlags::ACK,
            window: 65_535,
            sack: SackBlocks::NONE,
            payload: Bytes::new(),
        };
        let mut e = fx();
        for _ in 0..2 {
            c.on_segment(now, &dup, &mut e);
        }
        assert!(e.segments.is_empty());
        c.on_segment(now, &dup, &mut e);
        let rtx: Vec<_> = e.segments.iter().filter(|s| s.has_payload()).collect();
        assert_eq!(rtx.len(), 1, "third dup-ack triggers fast retransmit");
        assert_eq!(rtx[0].seq, 1);
    }

    #[test]
    fn out_of_order_reassembly() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.set_nodelay(true);
        c.app_send(now, b"AAAA", &mut e);
        c.app_send(now, b"BBBB", &mut e);
        assert_eq!(e.segments.len(), 2);
        let (a, b) = (e.segments[0].clone(), e.segments[1].clone());

        // Deliver out of order.
        let mut sfx = fx();
        s.on_segment(now, &b, &mut sfx);
        assert_eq!(s.readable_bytes(), 0);
        assert_eq!(sfx.segments.len(), 1, "immediate dup-ack on gap");
        assert_eq!(sfx.segments[0].ack, 1);
        let mut sfx = fx();
        s.on_segment(now, &a, &mut sfx);
        assert_eq!(s.readable_bytes(), 8);
        let mut e2 = fx();
        assert_eq!(&s.app_recv(64, &mut e2)[..], b"AAAABBBB");
    }

    #[test]
    fn send_buffer_cap_and_sendspace_notify() {
        let cfg = TcpConfig {
            send_buffer: 1000,
            ..TcpConfig::default()
        };
        let now = SimTime::ZERO;
        let mut cfx = fx();
        let mut c = Tcb::open_active(CLIENT, SERVER, cfg.clone(), now, &mut cfx);
        let syn = cfx.segments.pop().unwrap();
        let mut sfx = fx();
        let mut s = Tcb::open_passive(SERVER, CLIENT, TcpConfig::default(), &syn, now, &mut sfx);
        let synack = sfx.segments.pop().unwrap();
        let mut cfx = fx();
        c.on_segment(now, &synack, &mut cfx);
        let ack = cfx
            .segments
            .drain(..)
            .find(|s| s.flags.ack && !s.flags.syn)
            .unwrap();
        let mut sfx = fx();
        s.on_segment(now, &ack, &mut sfx);

        let mut e = fx();
        let taken = c.app_send(now, &vec![0u8; 2000], &mut e);
        assert_eq!(taken, 1000, "write truncated at the send-buffer cap");
        // Deliver everything; the single sub-MSS segment is acked by the
        // delayed-ACK timer, after which SendSpace must appear.
        let segs: Vec<_> = e.segments.drain(..).collect();
        let mut sfx = fx();
        for seg in &segs {
            s.on_segment(now, seg, &mut sfx);
        }
        let (kind, at, epoch) = *sfx
            .timers
            .iter()
            .find(|(k, _, _)| *k == TimerKind::DelAck)
            .expect("delack armed for the lone segment");
        let mut sfx2 = fx();
        s.on_timer(at, kind, epoch, &mut sfx2);
        let mut notified = false;
        for ackseg in sfx.segments.drain(..).chain(sfx2.segments.drain(..)) {
            let mut cfx = fx();
            c.on_segment(now, &ackseg, &mut cfx);
            notified |= cfx.notifications.contains(&SockNotify::SendSpace);
        }
        assert!(notified);
    }

    #[test]
    fn pump_full_conversation() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.set_nodelay(true);
        s.set_nodelay(true);
        c.app_send(now, &vec![7u8; 10_000], &mut e);
        // Feed initial burst through the pump.
        let mut first: Vec<Segment> = e.segments.drain(..).collect();
        let mut sfx = fx();
        for seg in first.drain(..) {
            s.on_segment(now, &seg, &mut sfx);
        }
        for seg in sfx.segments.drain(..).collect::<Vec<_>>() {
            let mut cfx = fx();
            c.on_segment(now, &seg, &mut cfx);
            let mut sfx2 = fx();
            for seg2 in cfx.segments.drain(..) {
                s.on_segment(now, &seg2, &mut sfx2);
            }
            for seg3 in sfx2.segments.drain(..).collect::<Vec<_>>() {
                let mut cfx2 = fx();
                c.on_segment(now, &seg3, &mut cfx2);
                let mut tail = cfx2.segments.drain(..).collect::<Vec<_>>();
                let mut sfx3 = fx();
                while let Some(seg4) = tail.pop() {
                    s.on_segment(now, &seg4, &mut sfx3);
                }
                for seg5 in sfx3.segments.drain(..).collect::<Vec<_>>() {
                    let mut cfx3 = fx();
                    c.on_segment(now, &seg5, &mut cfx3);
                    // At this point the window is large enough to finish.
                    let mut sfx4 = fx();
                    for seg6 in cfx3.segments.drain(..) {
                        s.on_segment(now, &seg6, &mut sfx4);
                    }
                }
            }
        }
        let _ = pump(&mut c, &mut s, now);
        assert_eq!(s.bytes_received, 10_000);
        let mut e2 = fx();
        assert_eq!(s.app_recv(20_000, &mut e2).len(), 10_000);
    }
}
