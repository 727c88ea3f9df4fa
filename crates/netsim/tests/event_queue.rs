//! Differential tests for the timer-wheel event queue: every sequence
//! of operations must produce *exactly* the pop order of an ordering
//! oracle kept here — a `BTreeMap` keyed by `(at, push sequence)` — same
//! times, same items, same tie-breaks. Driven by a deterministic seeded
//! PRNG (the build environment has no crates.io access, so `proptest` is
//! unavailable).

use netsim::queue::EventQueue;
use netsim::sim::{App, AppEvent, Ctx};
use netsim::{LinkConfig, SimTime, Simulator, SockAddr, TraceMode, TraceStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The queue contract stated directly: earliest deadline first, FIFO
/// among equal deadlines.
#[derive(Default)]
struct Oracle {
    entries: BTreeMap<(SimTime, u64), u64>,
    next_seq: u64,
}

impl Oracle {
    fn push(&mut self, at: SimTime, item: u64) {
        self.next_seq += 1;
        self.entries.insert((at, self.next_seq), item);
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
        let entry = self.entries.first_entry()?;
        if entry.key().0 > deadline {
            return None;
        }
        let ((at, _), item) = entry.remove_entry();
        Some((at, item))
    }
}

/// Drive the wheel and the oracle through the same operations,
/// asserting the pop streams match step for step.
struct Pair {
    wheel: EventQueue<u64>,
    oracle: Oracle,
}

impl Pair {
    fn new() -> Self {
        Pair {
            wheel: EventQueue::new(),
            oracle: Oracle::default(),
        }
    }

    fn push(&mut self, at: SimTime, item: u64) {
        self.wheel.push(at, item);
        self.oracle.push(at, item);
        assert_eq!(self.wheel.len(), self.oracle.entries.len());
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
        let w = self.wheel.pop_before(deadline);
        let o = self.oracle.pop_before(deadline);
        assert_eq!(w, o, "wheel and oracle disagree at deadline {deadline:?}");
        assert_eq!(self.wheel.len(), self.oracle.entries.len());
        w
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.pop_before(SimTime::MAX)
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.wheel.is_empty() && self.oracle.entries.is_empty());
    }
}

#[test]
fn randomized_interleavings_match_heap_reference() {
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(0x0007_E001 + seed);
        let mut pair = Pair::new();
        let mut now = 0u64;
        for _ in 0..2_000 {
            if rng.gen_bool(0.6) || pair.wheel.is_empty() {
                // Push at a time spread across wheel levels: nearby,
                // mid-range, or far future.
                let delta = match rng.gen_range(0u32..10) {
                    0..=5 => rng.gen_range(0u64..4_096),
                    6..=8 => rng.gen_range(0u64..10_000_000),
                    _ => rng.gen_range(0u64..30_000_000_000),
                };
                pair.push(SimTime::from_nanos(now + delta), rng.gen());
            } else if rng.gen_bool(0.5) {
                if let Some((at, _)) = pair.pop() {
                    now = now.max(at.as_nanos());
                }
            } else {
                let deadline = SimTime::from_nanos(now + rng.gen_range(0u64..5_000_000));
                if let Some((at, _)) = pair.pop_before(deadline) {
                    now = now.max(at.as_nanos());
                }
            }
        }
        pair.drain();
    }
}

#[test]
fn equal_timestamp_bursts_pop_fifo() {
    // Clean check first: one burst at one instant drains in push order.
    let mut pair = Pair::new();
    let at = SimTime::from_nanos(42);
    for i in 0..100u64 {
        pair.push(at, i);
    }
    for i in 0..100u64 {
        assert_eq!(
            pair.pop(),
            Some((at, i)),
            "equal-timestamp events popped out of push order"
        );
    }
    // Then randomized bursts, including repeat bursts at instants used
    // in earlier rounds (a late push at an already-drained-past time):
    // global order is enforced by the step-for-step oracle comparison
    // in `Pair`.
    let mut rng = SmallRng::seed_from_u64(0x0007_E002);
    let mut pair = Pair::new();
    let mut now = 0u64;
    let mut next_item = 0u64;
    let mut instants: Vec<u64> = Vec::new();
    for _ in 0..200 {
        let at = if !instants.is_empty() && rng.gen_bool(0.3) {
            instants[rng.gen_range(0..instants.len())]
        } else {
            now + rng.gen_range(0u64..1_000_000)
        };
        instants.push(at);
        let burst = rng.gen_range(1usize..24);
        for _ in 0..burst {
            pair.push(SimTime::from_nanos(at), next_item);
            next_item += 1;
        }
        let take = rng.gen_range(0usize..=burst);
        for _ in 0..take {
            let (got_at, _) = pair.pop().expect("burst entry");
            now = now.max(got_at.as_nanos());
        }
    }
    pair.drain();
}

#[test]
fn far_future_rto_timers_order_correctly() {
    let mut pair = Pair::new();
    // The kernel's worst spread: per-packet events nanoseconds apart
    // with retransmission timers seconds out (top wheel levels), plus
    // one far outlier.
    for i in 0..64u64 {
        pair.push(SimTime::from_nanos(i * 7), i);
        pair.push(SimTime::from_nanos(3_000_000_000 + i * 13), 1_000 + i);
    }
    pair.push(SimTime::from_nanos(u64::MAX / 2), 9_999);
    // Pops before a deadline between the clusters take only the near
    // ones, in order.
    let mut last = None;
    while let Some((at, _)) = pair.pop_before(SimTime::from_nanos(1_000_000)) {
        if let Some(prev) = last {
            assert!(at >= prev);
        }
        last = Some(at);
    }
    assert_eq!(last, Some(SimTime::from_nanos(63 * 7)));
    // The RTO cluster and the outlier drain in order too.
    pair.drain();
}

#[test]
fn cancel_and_rearm_pattern_matches_reference() {
    // The kernel cancels timers by epoch (a stale entry pops and is
    // ignored), then re-arms at a new time: both the superseded and the
    // replacement entry coexist in the queue. The queue must keep exact
    // order among all of them.
    let mut rng = SmallRng::seed_from_u64(0x0007_E003);
    let mut pair = Pair::new();
    let mut now = 0u64;
    let mut armed: Vec<u64> = Vec::new();
    for round in 0..500u64 {
        // Arm a timer.
        let at = now + rng.gen_range(1u64..5_000_000);
        pair.push(SimTime::from_nanos(at), round);
        armed.push(at);
        // Sometimes "cancel and re-arm": push a replacement at a
        // different time while the stale entry is still queued.
        if rng.gen_bool(0.4) {
            let again = now + rng.gen_range(1u64..10_000_000);
            pair.push(SimTime::from_nanos(again), round | 1 << 32);
        }
        // Fire everything due in the next half-millisecond.
        let deadline = SimTime::from_nanos(now + 500_000);
        while let Some((at, _)) = pair.pop_before(deadline) {
            now = now.max(at.as_nanos());
        }
        now += rng.gen_range(0u64..250_000);
    }
    pair.drain();
}

#[test]
fn pushes_behind_the_current_time_keep_heap_order() {
    // A failed pop_before can leave the wheel's internal cursor ahead of
    // the last popped time; pushes behind it (tests and apps schedule
    // "now") must still drain in exact (time, push-order) order.
    let mut pair = Pair::new();
    pair.push(SimTime::from_nanos(1_000_000), 1);
    // Deadline miss: nothing due, but the wheel may cascade internally.
    assert_eq!(pair.pop_before(SimTime::from_nanos(500)), None);
    pair.push(SimTime::from_nanos(10), 2);
    pair.push(SimTime::from_nanos(10), 3);
    pair.push(SimTime::ZERO, 4);
    assert_eq!(pair.pop(), Some((SimTime::ZERO, 4)));
    assert_eq!(pair.pop(), Some((SimTime::from_nanos(10), 2)));
    assert_eq!(pair.pop(), Some((SimTime::from_nanos(10), 3)));
    assert_eq!(pair.pop(), Some((SimTime::from_nanos(1_000_000), 1)));
    assert_eq!(pair.pop(), None);
}

// ---------------------------------------------------------------------
// Simulator-level pin
// ---------------------------------------------------------------------

struct Echo {
    port: u16,
    pending: Vec<u8>,
    peer_done: bool,
}
impl Echo {
    fn flush(&mut self, ctx: &mut Ctx<'_>, s: netsim::SocketId) {
        while !self.pending.is_empty() {
            let n = ctx.send(s, &self.pending);
            if n == 0 {
                return;
            }
            self.pending.drain(..n);
        }
        if self.peer_done {
            ctx.shutdown_write(s);
        }
    }
}
impl App for Echo {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => ctx.listen(self.port),
            AppEvent::Readable(s) => {
                let data = ctx.recv(s, usize::MAX);
                self.pending.extend_from_slice(&data);
                self.flush(ctx, s);
            }
            AppEvent::SendSpace(s) => self.flush(ctx, s),
            AppEvent::PeerFin(s) => {
                self.peer_done = true;
                self.flush(ctx, s);
            }
            _ => {}
        }
    }
}

struct Blaster {
    server: SockAddr,
    to_send: usize,
    sent: usize,
    got: usize,
}
impl Blaster {
    fn pump(&mut self, ctx: &mut Ctx<'_>, s: netsim::SocketId) {
        while self.sent < self.to_send {
            let n = ctx.send(s, &vec![0x5A; (self.to_send - self.sent).min(8192)]);
            if n == 0 {
                return;
            }
            self.sent += n;
        }
    }
}
impl App for Blaster {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                ctx.connect(self.server);
            }
            AppEvent::Connected(s) | AppEvent::SendSpace(s) => self.pump(ctx, s),
            AppEvent::Readable(s) => {
                self.got += ctx.recv(s, usize::MAX).len();
                if self.got >= self.to_send {
                    ctx.shutdown_write(s);
                }
            }
            _ => {}
        }
    }
}

/// Run one 256 KiB WAN echo transfer and return (events processed,
/// client/server trace stats, bytes echoed back).
fn echo_run(mode: TraceMode) -> (u64, TraceStats, usize) {
    let mut sim = Simulator::new();
    sim.set_trace_mode(mode);
    let client = sim.add_host("client");
    let server = sim.add_host("server");
    sim.add_link(client, server, LinkConfig::wan());
    sim.install_app(
        server,
        Box::new(Echo {
            port: 80,
            pending: Vec::new(),
            peer_done: false,
        }),
    );
    sim.install_app(
        client,
        Box::new(Blaster {
            server: SockAddr::new(server, 80),
            to_send: 256 * 1024,
            sent: 0,
            got: 0,
        }),
    );
    let events = sim.run_until_idle();
    let stats = sim.stats(client, server);
    let got = sim.app_mut::<Blaster>(client).unwrap().got;
    (events, stats, got)
}

/// The echo transfer's event count and trace statistics, pinned: a
/// change to event order anywhere in the kernel (queue, TCB step, wire
/// path, trace fold) moves one of them.
#[test]
fn echo_transfer_events_and_stats_are_pinned() {
    let pinned = TraceStats {
        packets_c2s: 208,
        packets_s2c: 187,
        bytes: 540_088,
        physical_bytes: 540_088,
        header_bytes: 15_800,
        payload_bytes: 524_288,
        syns: 2,
        fins: 2,
        pure_acks: 31,
        first: Some(SimTime::ZERO),
        last: Some(SimTime::from_nanos(1_292_491_200)),
        first_payload_c2s: Some(SimTime::from_nanos(136_296_000)),
        first_payload_s2c: Some(SimTime::from_nanos(182_496_000)),
        ..TraceStats::default()
    };
    for mode in [TraceMode::Full, TraceMode::StatsOnly] {
        let (events, stats, got) = echo_run(mode);
        assert_eq!(got, 256 * 1024, "transfer incomplete in {mode:?}");
        assert_eq!(events, 1382, "event count moved in {mode:?}");
        assert_eq!(stats, pinned, "trace stats moved in {mode:?}");
    }
}
