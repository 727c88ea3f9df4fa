//! Point-to-point link model.
//!
//! A [`Link`] connects two hosts with independent per-direction state:
//! bandwidth (serialization delay), propagation delay, a composable
//! impairment pipeline ([`crate::impair`]: loss, jitter, reordering,
//! duplication, outages, queue bounds), and an optional link-level
//! compressor modelling V.42bis modem compression.
//!
//! The link is a FIFO per direction: a packet begins transmission when the
//! previous one has finished serializing, and arrives one propagation delay
//! after its serialization completes. This reproduces the queueing that makes
//! a 28.8 kbps modem downlink the bottleneck in the paper's PPP tests.
//! Jitter can add extra delay on top, and — only when reordering is
//! explicitly enabled — break the FIFO property.

use crate::impair::{DropReason, ImpairConfig, ImpairState, LossModel};
use crate::packet::{HostId, Segment};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// How a link arbitrates between competing senders in one direction.
///
/// Matters only for shared bottlenecks (several client hosts multiplexed
/// onto one link): a point-to-point link has a single sender per direction,
/// for which both disciplines degenerate to the same FIFO behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// One FIFO per direction: packets serialize in submission order
    /// regardless of which host sent them.
    Fifo,
    /// Per-source-host queues served round-robin, one packet per turn —
    /// an idealized fair-queueing bottleneck router.
    RoundRobin,
}

/// A stateful link-level compressor applied to each packet's bytes to decide
/// how long the packet occupies the wire.
///
/// This models modem data compression (ITU V.42bis): the packet still exists
/// as a packet (counts are unchanged) but its serialization time shrinks when
/// the payload is compressible. Implementations keep dictionary state across
/// packets in one direction, as a real modem does for the whole PPP byte
/// stream.
pub trait LinkCodec: Send {
    /// Returns the number of bytes actually sent on the wire for a packet of
    /// `wire_bytes` whose application payload is `payload`.
    ///
    /// Headers are assumed incompressible; implementations typically compress
    /// only the payload portion and add back `wire_bytes - payload.len()`.
    fn wire_bytes(&mut self, wire_bytes: usize, payload: &[u8]) -> usize;

    /// A short human-readable name used in traces.
    fn name(&self) -> &'static str;
}

/// Configuration for one link between two hosts (symmetric by default).
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Bandwidth in bits per second; `None` means infinitely fast
    /// serialization (useful for idealized tests).
    pub bits_per_sec: Option<u64>,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Impairments applied to each direction (independent random streams).
    pub impair: ImpairConfig,
    /// How competing senders share each direction (see [`QueueDiscipline`]).
    pub discipline: QueueDiscipline,
    /// Tail-drop buffer bound in bytes per direction; `None` means the
    /// queue is unbounded. Only payload-bearing packets are dropped, the
    /// same courtesy the loss models extend to pure ACKs.
    pub buffer_bytes: Option<u64>,
}

impl LinkConfig {
    /// 10 Mbit/s Ethernet LAN, sub-millisecond RTT (Table 1, row 1).
    pub fn lan() -> Self {
        LinkConfig {
            bits_per_sec: Some(10_000_000),
            propagation: SimDuration::from_micros(250),
            impair: ImpairConfig::none(),
            discipline: QueueDiscipline::Fifo,
            buffer_bytes: None,
        }
    }

    /// Transcontinental WAN: high bandwidth, ~90 ms RTT (Table 1, row 2).
    pub fn wan() -> Self {
        LinkConfig {
            bits_per_sec: Some(10_000_000),
            propagation: SimDuration::from_millis(45),
            impair: ImpairConfig::none(),
            discipline: QueueDiscipline::Fifo,
            buffer_bytes: None,
        }
    }

    /// 28.8 kbps dialup PPP, ~150 ms RTT (Table 1, row 3).
    pub fn ppp() -> Self {
        LinkConfig {
            bits_per_sec: Some(28_800),
            propagation: SimDuration::from_millis(75),
            impair: ImpairConfig::none(),
            discipline: QueueDiscipline::Fifo,
            buffer_bytes: None,
        }
    }

    /// An ideal link: no serialization delay, fixed propagation.
    pub fn ideal(propagation: SimDuration) -> Self {
        LinkConfig {
            bits_per_sec: None,
            propagation,
            impair: ImpairConfig::none(),
            discipline: QueueDiscipline::Fifo,
            buffer_bytes: None,
        }
    }

    /// Returns a copy dropping every `n`-th data packet per direction — a
    /// thin constructor over [`LossModel::EveryNth`], kept for the
    /// deterministic loss/retransmission tests.
    pub fn with_drop_every(mut self, n: u64) -> Self {
        assert!(n > 0, "drop interval must be positive");
        self.impair.loss = LossModel::EveryNth { n };
        self
    }

    /// Returns a copy with the given impairment pipeline installed.
    pub fn with_impairment(mut self, impair: ImpairConfig) -> Self {
        self.impair = impair;
        self
    }

    /// Returns a copy serving competing senders round-robin per source host.
    pub fn with_round_robin(mut self) -> Self {
        self.discipline = QueueDiscipline::RoundRobin;
        self
    }

    /// Returns a copy with a tail-drop buffer bound of `bytes` per direction.
    pub fn with_buffer_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "buffer bound must be positive");
        self.buffer_bytes = Some(bytes);
        self
    }
}

/// Round-robin arbitration state for one direction of a shared bottleneck.
struct RrState {
    /// Per-source FIFO queues, in first-seen source order. Each entry keeps
    /// the submission time so traces can report true queueing delay.
    queues: Vec<(HostId, VecDeque<(Segment, SimTime)>)>,
    /// Total wire bytes waiting across all queues.
    queued_bytes: u64,
    /// Index of the queue the next pump serves first.
    next: usize,
    /// A pump event is already scheduled for this direction.
    pump_armed: bool,
}

impl RrState {
    fn new() -> Self {
        RrState {
            queues: Vec::new(), // simlint: allow(hot-path-alloc) per-link setup
            queued_bytes: 0,
            next: 0,
            pump_armed: false,
        }
    }

    fn has_backlog(&self) -> bool {
        self.queues.iter().any(|(_, q)| !q.is_empty())
    }
}

/// Per-direction dynamic state.
struct Direction {
    /// Time at which the transmitter becomes free.
    busy_until: SimTime,
    /// Impairment pipeline state; `None` when the config is a pass-through.
    impair: Option<ImpairState>,
    codec: Option<Box<dyn LinkCodec>>,
    /// Arbitration queues; `None` under [`QueueDiscipline::Fifo`].
    rr: Option<RrState>,
}

impl Direction {
    fn new(cfg: &LinkConfig, index: u64) -> Self {
        Direction {
            busy_until: SimTime::ZERO,
            impair: ImpairState::new(&cfg.impair, index),
            codec: None,
            rr: match cfg.discipline {
                QueueDiscipline::Fifo => None,
                QueueDiscipline::RoundRobin => Some(RrState::new()),
            },
        }
    }
}

/// The outcome of submitting a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmit {
    /// The packet will arrive at the given time.
    Arrives(SimTime),
    /// The packet was duplicated in flight: the original and the copy
    /// arrive at the two given times.
    Duplicated(SimTime, SimTime),
    /// The packet was dropped for the given reason.
    Dropped(DropReason),
    /// The packet entered a round-robin arbitration queue. When the inner
    /// time is `Some`, the caller must schedule a [`Link::pump`] for this
    /// direction at that time (a pump chain is already running otherwise).
    Queued(Option<SimTime>),
}

/// One packet released from a round-robin queue by [`Link::pump`].
pub struct Pumped {
    /// The released packet.
    pub segment: Segment,
    /// When the packet was originally submitted to the link.
    pub sent: SimTime,
    /// Its fate on the wire (never [`Transmit::Queued`]).
    pub outcome: Transmit,
    /// Bytes occupied on the physical wire after link compression.
    pub physical: usize,
    /// When to pump this direction again; `None` when the queues drained.
    pub next_pump: Option<SimTime>,
}

/// A full-duplex point-to-point link between hosts `a` and `b`.
pub struct Link {
    /// The a.
    pub a: HostId,
    /// The b.
    pub b: HostId,
    config: LinkConfig,
    a_to_b: Direction,
    b_to_a: Direction,
}

impl Link {
    /// Create a new, empty instance.
    pub fn new(a: HostId, b: HostId, config: LinkConfig) -> Self {
        let a_to_b = Direction::new(&config, 0);
        let b_to_a = Direction::new(&config, 1);
        Link {
            a,
            b,
            config,
            a_to_b,
            b_to_a,
        }
    }

    /// The link parameters.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Install a link-level compressor on both directions, constructed per
    /// direction by `make` (the dictionaries of the two directions are
    /// independent, as in a real modem pair).
    pub fn set_codec(&mut self, mut make: impl FnMut() -> Box<dyn LinkCodec>) {
        self.a_to_b.codec = Some(make());
        self.b_to_a.codec = Some(make());
    }

    /// Replace the impairment pipeline on both directions. Resets the
    /// per-direction impairment state (random streams restart from the new
    /// seed); serialization state is untouched.
    pub fn set_impairment(&mut self, impair: ImpairConfig) {
        self.a_to_b.impair = ImpairState::new(&impair, 0);
        self.b_to_a.impair = ImpairState::new(&impair, 1);
        self.config.impair = impair;
    }

    /// Bytes currently queued for serialization in one direction at `now`:
    /// the backlog a tail-drop queue bound is compared against.
    fn backlog_bytes(busy_until: SimTime, now: SimTime, bits_per_sec: Option<u64>) -> u64 {
        match bits_per_sec {
            Some(bps) => {
                let ns = busy_until.since(now).as_nanos() as u128;
                (ns * bps as u128 / 8_000_000_000) as u64
            }
            None => 0,
        }
    }

    /// Bytes waiting to serialize in the direction a packet from `from`
    /// would take, observed at `now`: the round-robin arbitration backlog,
    /// or the FIFO transmitter backlog implied by `busy_until`. This is
    /// the quantity tail-drop bounds compare against, exposed for the
    /// telemetry queue-depth gauge.
    pub fn queued_bytes(&self, now: SimTime, from: HostId) -> u64 {
        let dir = if from == self.b {
            &self.b_to_a
        } else {
            &self.a_to_b
        };
        match &dir.rr {
            Some(rr) => rr.queued_bytes,
            None => Self::backlog_bytes(dir.busy_until, now, self.config.bits_per_sec),
        }
    }

    /// Submit `segment` for transmission at time `now`.
    ///
    /// Under FIFO arbitration, returns the arrival time at the far end (or
    /// `Dropped` / `Duplicated`), plus the number of bytes the packet
    /// occupied on the physical wire after any link compression. Under
    /// round-robin, the packet enters a per-source queue and the outcome is
    /// `Queued`; the caller drives delivery via [`Link::pump`].
    pub fn transmit(&mut self, now: SimTime, from: HostId, segment: &Segment) -> (Transmit, usize) {
        let Link {
            config,
            a_to_b,
            b_to_a,
            ..
        } = self;
        // Any spoke of a shared link sits on the `a` side; only the hub
        // itself transmits in the b→a direction.
        let dir = if from == self.b { b_to_a } else { a_to_b };

        if let Some(rr) = dir.rr.as_mut() {
            let wire = segment.wire_len() as u64;
            if segment.has_payload() {
                if let Some(cap) = config.buffer_bytes {
                    if rr.queued_bytes + wire > cap {
                        return (Transmit::Dropped(DropReason::Queue), 0);
                    }
                }
            }
            let queue = match rr.queues.iter_mut().position(|(h, _)| *h == from) {
                Some(i) => &mut rr.queues[i].1,
                None => {
                    rr.queues.push((from, VecDeque::new()));
                    &mut rr.queues.last_mut().unwrap().1
                }
            };
            queue.push_back((segment.clone(), now));
            rr.queued_bytes += wire;
            if rr.pump_armed {
                return (Transmit::Queued(None), 0);
            }
            rr.pump_armed = true;
            return (Transmit::Queued(Some(dir.busy_until.max(now))), 0);
        }

        if segment.has_payload() {
            if let Some(cap) = config.buffer_bytes {
                let backlog = Self::backlog_bytes(dir.busy_until, now, config.bits_per_sec);
                if backlog + segment.wire_len() as u64 > cap {
                    return (Transmit::Dropped(DropReason::Queue), 0);
                }
            }
        }

        if let Some(st) = dir.impair.as_mut() {
            let backlog = Self::backlog_bytes(dir.busy_until, now, config.bits_per_sec);
            if let Some(reason) = st.pre_wire(&config.impair, now, segment.has_payload(), backlog) {
                return (Transmit::Dropped(reason), 0);
            }
        }

        Self::serialize(dir, config, now, segment)
    }

    /// Serialize one packet onto the wire of `dir` starting no earlier than
    /// `now`, applying codec, bandwidth and post-wire impairments.
    fn serialize(
        dir: &mut Direction,
        config: &LinkConfig,
        now: SimTime,
        segment: &Segment,
    ) -> (Transmit, usize) {
        let raw = segment.wire_len();
        let physical = match dir.codec.as_mut() {
            Some(codec) => codec.wire_bytes(raw, &segment.payload),
            None => raw,
        };

        let start = dir.busy_until.max(now);
        let tx = match config.bits_per_sec {
            Some(bps) => SimDuration::transmission(physical, bps),
            None => SimDuration::ZERO,
        };
        let done = start + tx;
        dir.busy_until = done;
        let nominal = done + config.propagation;

        match dir.impair.as_mut() {
            Some(st) => {
                // Duplicate copies trail the original by a fraction of the
                // propagation delay, as a copy taking a marginally longer
                // path would.
                let gap = SimDuration::from_nanos(config.propagation.as_nanos() / 8)
                    .max(SimDuration::from_micros(1));
                match st.post_wire(&config.impair, nominal, gap) {
                    (at, Some(dup_at)) => (Transmit::Duplicated(at, dup_at), physical),
                    (at, None) => (Transmit::Arrives(at), physical),
                }
            }
            None => (Transmit::Arrives(nominal), physical),
        }
    }

    /// Release the next packet from a round-robin direction. Returns `None`
    /// when every queue is empty (the pump chain then stops; the next
    /// [`Link::transmit`] restarts it). `a_to_b` selects the direction the
    /// pump event was scheduled for.
    pub fn pump(&mut self, now: SimTime, a_to_b: bool) -> Option<Pumped> {
        let Link {
            config,
            a_to_b: fwd,
            b_to_a: rev,
            ..
        } = self;
        let dir = if a_to_b { fwd } else { rev };
        let rr = dir.rr.as_mut().expect("pump on a FIFO direction");

        let n = rr.queues.len();
        let pick = (0..n)
            .map(|i| (rr.next + i) % n)
            .find(|&i| !rr.queues[i].1.is_empty());
        let Some(idx) = pick else {
            rr.pump_armed = false;
            return None;
        };
        let (segment, sent) = rr.queues[idx].1.pop_front().unwrap();
        rr.next = (idx + 1) % n;
        rr.queued_bytes -= segment.wire_len() as u64;
        let backlog_bytes = rr.queued_bytes;
        let more = rr.has_backlog();

        // Pre-wire impairments (loss, outages) apply as the packet reaches
        // the head of the queue; the transmitter stays free on a drop, so
        // the next pump fires immediately.
        if let Some(st) = dir.impair.as_mut() {
            if let Some(reason) =
                st.pre_wire(&config.impair, now, segment.has_payload(), backlog_bytes)
            {
                let next_pump = if more {
                    Some(now)
                } else {
                    dir.rr.as_mut().unwrap().pump_armed = false;
                    None
                };
                return Some(Pumped {
                    segment,
                    sent,
                    outcome: Transmit::Dropped(reason),
                    physical: 0,
                    next_pump,
                });
            }
        }

        let (outcome, physical) = Self::serialize(dir, config, now, &segment);
        let next_pump = if more {
            Some(dir.busy_until)
        } else {
            dir.rr.as_mut().unwrap().pump_armed = false;
            None
        };
        Some(Pumped {
            segment,
            sent,
            outcome,
            physical,
            next_pump,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impair::JitterModel;
    use crate::packet::{SockAddr, TcpFlags};
    use bytes::Bytes;

    fn seg(len: usize) -> Segment {
        Segment {
            src: SockAddr::new(HostId(0), 1),
            dst: SockAddr::new(HostId(1), 2),
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0,
            sack: crate::packet::SackBlocks::NONE,
            payload: Bytes::from(vec![b'x'; len]),
        }
    }

    #[test]
    fn fifo_serialization() {
        // Two 1460-byte packets on 10 Mbit/s: second arrives one
        // serialization time after the first.
        let mut link = Link::new(HostId(0), HostId(1), LinkConfig::lan());
        let (t1, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(1460));
        let (t2, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(1460));
        let (Transmit::Arrives(t1), Transmit::Arrives(t2)) = (t1, t2) else {
            panic!("expected arrivals");
        };
        let tx = SimDuration::transmission(1500, 10_000_000);
        assert_eq!(t2.since(t1), tx);
    }

    #[test]
    fn directions_are_independent() {
        let mut link = Link::new(HostId(0), HostId(1), LinkConfig::ppp());
        let (a, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(512));
        let (b, _) = link.transmit(SimTime::ZERO, HostId(1), &seg(512));
        assert_eq!(
            a, b,
            "full duplex: reverse direction does not queue behind forward"
        );
    }

    #[test]
    fn ideal_link_has_only_propagation() {
        let mut link = Link::new(
            HostId(0),
            HostId(1),
            LinkConfig::ideal(SimDuration::from_millis(10)),
        );
        let (t, _) = link.transmit(SimTime::from_nanos(5), HostId(0), &seg(100_000));
        assert_eq!(
            t,
            Transmit::Arrives(SimTime::from_nanos(5) + SimDuration::from_millis(10))
        );
    }

    #[test]
    fn deterministic_drop_model() {
        let mut link = Link::new(HostId(0), HostId(1), LinkConfig::lan().with_drop_every(3));
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            let (o, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(100));
            outcomes.push(matches!(o, Transmit::Dropped(_)));
        }
        assert_eq!(outcomes, vec![false, false, true, false, false, true]);
    }

    #[test]
    fn pure_acks_never_dropped() {
        let mut link = Link::new(HostId(0), HostId(1), LinkConfig::lan().with_drop_every(1));
        let (o, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(0));
        assert!(matches!(o, Transmit::Arrives(_)));
    }

    #[test]
    fn drop_reason_reported() {
        let mut link = Link::new(HostId(0), HostId(1), LinkConfig::lan().with_drop_every(1));
        let (o, wire) = link.transmit(SimTime::ZERO, HostId(0), &seg(10));
        assert_eq!(o, Transmit::Dropped(DropReason::Loss));
        assert_eq!(wire, 0, "dropped packets never touch the wire");
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn outage_drops_then_recovers() {
        let cfg = LinkConfig::lan()
            .with_impairment(ImpairConfig::none().with_outage(at_ms(10), at_ms(20)));
        let mut link = Link::new(HostId(0), HostId(1), cfg);
        let (up, _) = link.transmit(at_ms(5), HostId(0), &seg(100));
        assert!(matches!(up, Transmit::Arrives(_)));
        let (down, _) = link.transmit(at_ms(15), HostId(0), &seg(100));
        assert_eq!(down, Transmit::Dropped(DropReason::Outage));
        let (later, _) = link.transmit(at_ms(25), HostId(0), &seg(100));
        assert!(matches!(later, Transmit::Arrives(_)));
    }

    #[test]
    fn duplication_produces_two_arrivals() {
        let cfg = LinkConfig::lan().with_impairment(ImpairConfig::none().with_duplication(1.0));
        let mut link = Link::new(HostId(0), HostId(1), cfg);
        let (o, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(100));
        let Transmit::Duplicated(first, second) = o else {
            panic!("expected duplication, got {o:?}");
        };
        assert!(second > first);
    }

    #[test]
    fn jitter_without_reorder_stays_fifo() {
        let cfg =
            LinkConfig::lan().with_impairment(ImpairConfig::none().with_seed(77).with_jitter(
                JitterModel::Uniform {
                    min: SimDuration::ZERO,
                    max: SimDuration::from_millis(20),
                },
            ));
        let mut link = Link::new(HostId(0), HostId(1), cfg);
        let mut last = SimTime::ZERO;
        for i in 0..200u64 {
            let now = SimTime::from_nanos(i * 10_000);
            let (o, _) = link.transmit(now, HostId(0), &seg(100));
            let Transmit::Arrives(at) = o else {
                panic!("no loss configured")
            };
            assert!(at >= last, "packet {i} overtook its predecessor");
            last = at;
        }
    }

    #[test]
    fn set_impairment_replaces_pipeline() {
        let mut link = Link::new(HostId(0), HostId(1), LinkConfig::lan());
        let (o, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(10));
        assert!(matches!(o, Transmit::Arrives(_)));
        link.set_impairment(ImpairConfig::none().with_loss(LossModel::EveryNth { n: 1 }));
        let (o, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(10));
        assert_eq!(o, Transmit::Dropped(DropReason::Loss));
    }

    struct HalfCodec;
    impl LinkCodec for HalfCodec {
        fn wire_bytes(&mut self, wire: usize, payload: &[u8]) -> usize {
            wire - payload.len() + payload.len() / 2
        }
        fn name(&self) -> &'static str {
            "half"
        }
    }

    fn seg_from(src: u16, len: usize) -> Segment {
        Segment {
            src: SockAddr::new(HostId(src), 1),
            dst: SockAddr::new(HostId(9), 2),
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0,
            sack: crate::packet::SackBlocks::NONE,
            payload: Bytes::from(vec![b'x'; len]),
        }
    }

    #[test]
    fn fifo_buffer_bound_tail_drops() {
        // 10 Mbit/s with a 3000-byte buffer: the third 1460-byte packet
        // submitted at the same instant exceeds the bound and is dropped.
        let mut link = Link::new(
            HostId(0),
            HostId(1),
            LinkConfig::lan().with_buffer_bytes(3_000),
        );
        let (t1, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(1460));
        assert!(matches!(t1, Transmit::Arrives(_)));
        let (t2, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(1460));
        assert!(matches!(t2, Transmit::Arrives(_)));
        let (t3, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(1460));
        assert_eq!(t3, Transmit::Dropped(DropReason::Queue));
        // Pure ACKs pass even when the buffer is full.
        let (ack, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(0));
        assert!(matches!(ack, Transmit::Arrives(_)));
    }

    #[test]
    fn round_robin_interleaves_competing_sources() {
        // Source 0 floods three packets, source 5 submits one; round-robin
        // must serve 0, 5, 0, 0 rather than draining source 0 first.
        let cfg = LinkConfig::lan().with_round_robin();
        let mut link = Link::new(HostId(0), HostId(9), cfg);
        let (o, _) = link.transmit(SimTime::ZERO, HostId(0), &seg_from(0, 1000));
        let Transmit::Queued(Some(first_pump)) = o else {
            panic!("expected a pump schedule, got {o:?}");
        };
        assert_eq!(first_pump, SimTime::ZERO);
        for _ in 0..2 {
            let (o, _) = link.transmit(SimTime::ZERO, HostId(0), &seg_from(0, 1000));
            assert_eq!(o, Transmit::Queued(None), "pump chain already armed");
        }
        let (o, _) = link.transmit(SimTime::ZERO, HostId(5), &seg_from(5, 1000));
        assert_eq!(o, Transmit::Queued(None));

        let mut order = Vec::new();
        let mut at = first_pump;
        loop {
            let p = link.pump(at, true).expect("backlog remains");
            order.push(p.segment.src.host.0);
            match p.next_pump {
                Some(next) => at = next,
                None => break,
            }
        }
        assert_eq!(order, vec![0, 5, 0, 0]);
        assert!(link.pump(at, true).is_none(), "queues drained");
    }

    #[test]
    fn round_robin_preserves_per_source_order_and_spacing() {
        let cfg = LinkConfig::lan().with_round_robin();
        let mut link = Link::new(HostId(0), HostId(9), cfg);
        let mut seqs = Vec::new();
        for i in 0..4u64 {
            let mut s = seg_from(0, 1460);
            s.seq = i;
            let _ = link.transmit(SimTime::ZERO, HostId(0), &s);
        }
        let mut arrivals = Vec::new();
        let mut at = SimTime::ZERO;
        loop {
            let p = link.pump(at, true).unwrap();
            seqs.push(p.segment.seq);
            let Transmit::Arrives(t) = p.outcome else {
                panic!("no impairments configured");
            };
            arrivals.push(t);
            match p.next_pump {
                Some(next) => at = next,
                None => break,
            }
        }
        assert_eq!(seqs, vec![0, 1, 2, 3], "per-source FIFO order");
        let tx = SimDuration::transmission(1500, 10_000_000);
        for w in arrivals.windows(2) {
            assert_eq!(w[1].since(w[0]), tx, "back-to-back serialization");
        }
    }

    #[test]
    fn round_robin_buffer_bound_tail_drops() {
        let cfg = LinkConfig::lan()
            .with_round_robin()
            .with_buffer_bytes(3_000);
        let mut link = Link::new(HostId(0), HostId(9), cfg);
        let (o1, _) = link.transmit(SimTime::ZERO, HostId(0), &seg_from(0, 1460));
        assert!(matches!(o1, Transmit::Queued(Some(_))));
        let (o2, _) = link.transmit(SimTime::ZERO, HostId(1), &seg_from(1, 1460));
        assert_eq!(o2, Transmit::Queued(None));
        let (o3, _) = link.transmit(SimTime::ZERO, HostId(2), &seg_from(2, 1460));
        assert_eq!(o3, Transmit::Dropped(DropReason::Queue));
        // Draining one packet frees space again.
        let p = link.pump(SimTime::ZERO, true).unwrap();
        assert!(matches!(p.outcome, Transmit::Arrives(_)));
        let (o4, _) = link.transmit(SimTime::ZERO, HostId(2), &seg_from(2, 1460));
        assert_eq!(o4, Transmit::Queued(None));
    }

    #[test]
    fn codec_shrinks_wire_time() {
        let mut plain = Link::new(HostId(0), HostId(1), LinkConfig::ppp());
        let mut compressed = Link::new(HostId(0), HostId(1), LinkConfig::ppp());
        compressed.set_codec(|| Box::new(HalfCodec));
        let (outcome_p, raw) = plain.transmit(SimTime::ZERO, HostId(0), &seg(1000));
        let (outcome_c, small) = compressed.transmit(SimTime::ZERO, HostId(0), &seg(1000));
        let Transmit::Arrives(tp) = outcome_p else {
            panic!()
        };
        let Transmit::Arrives(tc) = outcome_c else {
            panic!()
        };
        assert!(tc < tp);
        assert_eq!(raw, 1040);
        assert_eq!(small, 540);
    }
}
