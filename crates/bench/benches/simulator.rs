//! Benchmarks of the simulation substrate itself: raw event throughput of
//! the TCP machine over the three link models, the modem compressor, and
//! three kernel micros (event-queue push/pop, pooled segment alloc/free,
//! impairment pass-through).

use httpipe_bench::{bench_fn, bench_throughput, group};
use netsim::queue::EventQueue;
use netsim::sim::{App, AppEvent, Ctx};
use netsim::{
    HostId, ImpairConfig, Link, LinkConfig, ModemCompressor, Segment, SimDuration, SimTime,
    Simulator, SockAddr, TcpFlags, Transmit,
};

/// Minimal bulk-transfer pair used to stress the TCP path.
struct Sender {
    server: SockAddr,
    total: usize,
    sent: usize,
}

impl App for Sender {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                ctx.connect(self.server);
            }
            AppEvent::Connected(s) | AppEvent::SendSpace(s) => {
                while self.sent < self.total {
                    let n = ctx.send(s, &[0xAB; 4096][..4096.min(self.total - self.sent)]);
                    if n == 0 {
                        return;
                    }
                    self.sent += n;
                }
                ctx.shutdown_write(s);
            }
            _ => {}
        }
    }
}

struct Sink;

impl App for Sink {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => ctx.listen(80),
            AppEvent::Readable(s) => {
                let _ = ctx.recv(s, usize::MAX);
            }
            AppEvent::PeerFin(s) => ctx.shutdown_write(s),
            _ => {}
        }
    }
}

fn bulk_transfer(link: LinkConfig, bytes: usize) -> u64 {
    let mut sim = Simulator::new();
    let client = sim.add_host("client");
    let server = sim.add_host("server");
    sim.add_link(client, server, link);
    sim.install_app(server, Box::new(Sink));
    sim.install_app(
        client,
        Box::new(Sender {
            server: SockAddr::new(server, 80),
            total: bytes,
            sent: 0,
        }),
    );
    sim.run_until_idle()
}

fn bench_bulk() {
    group("tcp_bulk_1mb");
    for (name, link) in [
        ("lan", LinkConfig::lan()),
        ("wan", LinkConfig::wan()),
        ("lossy_lan", LinkConfig::lan().with_drop_every(97)),
    ] {
        bench_throughput(name, 1 << 20, 20, || bulk_transfer(link.clone(), 1 << 20));
    }
}

fn bench_modem_codec() {
    let html = &webcontent::microscape::site().html;
    group("modem_lzw");
    bench_throughput("html_42k", html.len() as u64, 50, || {
        let mut lzw = netsim::modem::LzwSizer::new();
        lzw.push(html.as_bytes()) + lzw.finish()
    });
    let _ = ModemCompressor::new();
}

/// Deterministic 64-bit mix (splitmix64 step) for event times.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Timer-wheel push/pop with the arrival pattern the kernel produces:
/// mostly near-future times with an RTO-like far tail. 2^17 operations
/// per iteration.
fn event_queue_push_pop() {
    const N: u64 = 1 << 16;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut state = 7u64;
    let mut now = 0u64;
    for i in 0..N {
        let r = mix(&mut state);
        // ~1/64 of events are far-future retransmission timers.
        let delta = if r % 64 == 0 {
            3_000_000_000 + r % 1_000_000_000
        } else {
            r % 2_000_000
        };
        q.push(SimTime::from_nanos(now + delta), i);
        // Drain roughly half as we go, advancing the clock.
        if i % 2 == 0 {
            if let Some((at, _)) = q.pop_before(SimTime::MAX) {
                now = at.as_nanos();
            }
        }
    }
    while q.pop_before(SimTime::MAX).is_some() {}
    assert!(q.is_empty());
}

/// Full-size segments through a link whose impairment pipeline is
/// configured but inert: the per-packet cost every matrix cell pays.
/// 2^14 segments per iteration.
fn impair_passthrough(seg: &Segment) {
    const N: u64 = 1 << 14;
    let (a, b) = (seg.src.host, seg.dst.host);
    let mut link = Link::new(
        a,
        b,
        LinkConfig::lan().with_impairment(ImpairConfig::none()),
    );
    let mut now = SimTime::ZERO;
    for _ in 0..N {
        match link.transmit(now, a, seg).0 {
            Transmit::Arrives(at) => now = at,
            other => panic!("pass-through link dropped a packet: {other:?}"),
        }
        now += SimDuration::from_micros(1);
    }
}

fn bench_kernel() {
    group("kernel");
    bench_fn("event_queue_push_pop (2^17 ops)", 20, event_queue_push_pop);

    let payload = vec![0xA5u8; 1460];
    bench_fn("segment_alloc_free (2^14 MSS buffers)", 20, || {
        for _ in 0..1 << 14 {
            std::hint::black_box(bytes::Bytes::pooled_copy_from_slice(&payload));
        }
    });

    let seg = Segment {
        src: SockAddr::new(HostId(0), 40_000),
        dst: SockAddr::new(HostId(1), 80),
        seq: 1,
        ack: 1,
        flags: TcpFlags::ACK,
        window: 65_535,
        sack: netsim::SackBlocks::NONE,
        payload: bytes::Bytes::pooled_copy_from_slice(&payload),
    };
    bench_fn("impair_passthrough (2^14 segments)", 20, || {
        impair_passthrough(&seg)
    });
}

fn main() {
    bench_bulk();
    bench_modem_codec();
    bench_kernel();
}
