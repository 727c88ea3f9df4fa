//! The repository benchmark: end-to-end and per-layer cost of three
//! workloads, each layer measured from outside by timing the public
//! calls into it. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload matrix --seed 0 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs untraced passes and reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced passes and reports the
//! per-layer metrics. Every pass is checked; the last stdout line is one
//! JSON object, and the exit code is non-zero when any check failed.

mod calibrate;
mod host;
mod traced;
mod workload;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{Outcome, Workload};

/// Count every heap allocation, for the per-layer allocation metrics.
#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc::new();

/// Fresh processes whose set-up time is sampled; the median is reported.
const SETUP_SAMPLES: usize = 9;
/// Timed untraced passes a `--trace 0` run makes at least.
const MIN_PASSES: usize = 3;
/// Untraced/traced pass pairs a `--trace 1` run makes at least.
const MIN_PAIRS: usize = 2;

const USAGE: &str = "usage: httpipe-perfbench --workload <matrix|fleet|lossy_observed> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: build the workload's inputs, print the elapsed time
    /// since process start, and exit (one set-up sample).
    setup_only: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut setup_only) = (0, 10, false, false);
        while let Some(flag) = args.next() {
            if flag == "--setup-only" {
                setup_only = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {flag}: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match number()? {
                        0 => false,
                        1 => true,
                        _ => return Err(format!("bad --trace: {value}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            setup_only,
        })
    }
}

/// Median of a non-empty sample (sorts it).
pub(crate) fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Operations attempted and failed over a run, and the digest every
/// pass must reproduce.
struct Tally {
    attempted: u64,
    failed: u64,
    expected: Option<u64>,
}

impl Tally {
    /// Count a pass's operations and check its digest. The first pass
    /// at an unpinned seed sets the digest the later passes must match.
    fn check(&mut self, label: &str, out: &Outcome) {
        self.attempted += out.ops;
        self.failed += out.failed;
        let digest = out.digest();
        match self.expected {
            None => self.expected = Some(digest),
            Some(want) if want != digest => {
                eprintln!("{label} pass digest {digest:#018x}, expected {want:#018x}");
                self.failed += 1;
            }
            Some(_) => {}
        }
    }
}

/// Named metrics with units, printed in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let specs = workload::specs(args.workload, args.seed);
        let secs = started.elapsed().as_secs_f64();
        std::hint::black_box(&specs);
        println!("{secs}");
        return ExitCode::SUCCESS;
    }

    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        expected: args.workload.pinned_digest(args.seed),
    };
    let mut metrics = if args.trace {
        traced_run(&args, &mut tally)
    } else {
        match untraced_run(&args, &mut tally) {
            Ok(m) => m,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    };
    let failed_share = ratio(tally.failed as f64, tally.attempted as f64);
    if args.trace {
        metrics.put("failed_share", failed_share, "ratio");
    }

    println!(
        "# {} seed={} trace={} digest={:#018x} attempted={} failed={} failed_share={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        tally.expected.unwrap_or_default(),
        tally.attempted,
        tally.failed,
        failed_share,
    );
    for (name, value, unit) in &metrics.0 {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Untraced passes for `--seconds`: the end-to-end metrics.
fn untraced_run(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let (w, seed) = (args.workload, args.seed);
    let setup_s = measure_setup(args)?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    tally.check("warm-up", &workload::run_untraced(w, seed));

    let (mut walls, mut cpus, mut packets) = (Vec::new(), Vec::new(), 0);
    while walls.len() < MIN_PASSES || Instant::now() < deadline {
        let cpu = host::cpu_seconds();
        let start = Instant::now();
        let out = workload::run_untraced(w, seed);
        walls.push(start.elapsed().as_secs_f64());
        cpus.push(host::cpu_seconds() - cpu);
        packets = out.packets;
        tally.check("untraced", &out);
    }
    let wall_s = median(&mut walls);

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("wall_s", wall_s, "s");
    m.put("cpu_s", median(&mut cpus), "s");
    m.put("sim_pps", ratio(packets as f64, wall_s), "packets/s");
    m.put("peak_rss_mb", host::peak_rss_mib(), "MiB");
    Ok(m)
}

/// Median set-up time over fresh processes of this binary, each timed
/// from its start to its finished spec list.
fn measure_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let out = Command::new(&exe)
            .args(["--setup-only", "--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .output()
            .map_err(|e| format!("spawn set-up sample: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text.trim().parse::<f64>();
        match (out.status.success(), secs) {
            (true, Ok(secs)) => samples.push(secs),
            _ => return Err(format!("set-up sample failed: {}", out.status)),
        }
    }
    Ok(median(&mut samples))
}

/// Calibrations, then alternating untraced and traced passes for
/// `--seconds`: the per-layer metrics.
fn traced_run(args: &Args, tally: &mut Tally) -> Metrics {
    let (w, seed) = (args.workload, args.seed);
    let cal = calibrate::run();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    tally.check("warm-up", &workload::run_untraced(w, seed));

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut sum = traced::Ledger::default();
    while traced.len() < MIN_PAIRS || Instant::now() < deadline {
        let start = Instant::now();
        let out = workload::run_untraced(w, seed);
        untraced.push(start.elapsed().as_secs_f64());
        tally.check("untraced", &out);

        let (out, ledger) = traced::run_traced(w, seed);
        traced.push(ledger.pass_s);
        tally.check("traced", &out);
        sum.add(&ledger);
    }
    let trace_overhead = median(&mut traced) / median(&mut untraced);

    // Per-pass means: times and counts add up exactly to the pass wall.
    let n = traced.len() as f64;
    let l = &sum;
    let per = |v: f64| v / n;
    let packets = l.packets as f64;
    let mut m = Metrics::default();
    m.put("core.pass_s", per(l.pass_s), "s");
    m.put("core.spec_s", per(l.spec_s), "s");
    m.put("core.unattributed_s", per(l.unattributed_s()), "s");
    m.put("netsim.build_s", per(l.build_s), "s");
    m.put("netsim.extract_s", per(l.extract_s), "s");
    m.put("netsim.run_s", per(l.run_s), "s");
    m.put("netsim.kernel_self_s", per(l.kernel_self_s()), "s");
    m.put("netsim.events", per(l.events as f64), "count");
    m.put("netsim.packets", per(packets), "count");
    let kernel_ns = l.kernel_self_s() * 1e9;
    m.put(
        "netsim.ns_per_event",
        ratio(kernel_ns, l.events as f64),
        "ns/event",
    );
    m.put(
        "netsim.ns_per_packet",
        ratio(kernel_ns, packets),
        "ns/packet",
    );
    m.put("netsim.retransmits", per(l.retransmits as f64), "count");
    m.put("netsim.drops_queue", per(l.drops_queue as f64), "count");
    m.put("netsim.drops_loss", per(l.drops_loss as f64), "count");
    m.put("netsim.syn_drops", per(l.syn_drops as f64), "count");
    for (prefix, cost) in [("httpclient", l.client), ("httpserver", l.server)] {
        let calls = cost.calls as f64;
        m.put(format!("{prefix}.on_event_s"), per(cost.secs), "s");
        m.put(format!("{prefix}.calls"), per(calls), "count");
        m.put(
            format!("{prefix}.ns_per_call"),
            ratio(cost.secs * 1e9, calls),
            "ns/call",
        );
        m.put(format!("{prefix}.allocs"), per(cost.allocs as f64), "count");
    }
    m.put(
        "httpserver.peak_connections",
        l.peak_connections as f64,
        "count",
    );
    m.put(
        "alloc.per_packet",
        ratio(l.allocs as f64, packets),
        "allocs/packet",
    );
    m.put(
        "alloc.bytes_per_packet",
        ratio(l.alloc_bytes as f64, packets),
        "B/packet",
    );
    m.put(
        "alloc.kernel_per_packet",
        ratio(l.kernel_allocs() as f64, packets),
        "allocs/packet",
    );
    m.put("netsim.trace.records", per(l.trace_records as f64), "count");
    m.put("conformance.check_s", per(l.check_s), "s");
    m.put(
        "conformance.records_per_s",
        ratio(l.trace_records as f64, l.check_s),
        "records/s",
    );
    m.put("netsim.probe.attribute_s", per(l.attribute_s), "s");
    m.put("netsim.telemetry.summary_s", per(l.summary_s), "s");
    m.put("webcontent.site_s", cal.site_s, "s");
    m.put("httpserver.store_s", cal.store_s, "s");
    m.put(
        "webcontent.html_scan_ns_per_kb",
        cal.html_scan_ns_per_kb,
        "ns/KiB",
    );
    m.put("flate.inflate_ns_per_kb", cal.inflate_ns_per_kb, "ns/KiB");
    m.put("httpwire.parse_ns_per_msg", cal.parse_ns_per_msg, "ns/msg");
    m.put("httpmux.exchange_ns", cal.exchange_ns, "ns");
    m.put("trace_overhead", trace_overhead, "ratio");
    m
}
