//! Benchmarks and table reproduction for the SIGCOMM '97 HTTP/1.1 study.
//!
//! [`registry`] lists every reproduced table and figure once, in
//! EXPERIMENTS.md order; the `repro` binary prints an entry's text and
//! `experiments_md` writes EXPERIMENTS.md from the entries' sections. The
//! plain wall-clock benches in `benches/` are timed by [`bench_fn`], a
//! minimal in-tree harness with no external dependency.

use std::time::{Duration, Instant};

pub mod registry;
mod sections;

/// One timed benchmark result.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Iterations actually timed.
    pub iters: u32,
    /// Mean wall-clock time per iteration.
    pub mean: Duration,
    /// Fastest single iteration.
    pub min: Duration,
}

impl Measurement {
    /// Mean throughput for `bytes` processed per iteration, in MB/s.
    pub fn mb_per_sec(&self, bytes: u64) -> f64 {
        let secs = self.mean.as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        bytes as f64 / secs / 1_000_000.0
    }
}

/// Time `f` and report per-iteration statistics: one warm-up call, then
/// up to `max_iters` iterations or ~`budget` of wall clock, whichever
/// comes first.
// Host-clock timing is the product here, not simulation state. simlint: allow(wall-clock)
pub fn bench_fn<T>(name: &str, max_iters: u32, mut f: impl FnMut() -> T) -> Measurement {
    // Warm-up (also forces lazy statics to initialise outside timing).
    std::hint::black_box(f());
    let budget = Duration::from_millis(500);
    let start = Instant::now();
    let mut iters = 0u32;
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    while iters < max_iters && start.elapsed() < budget {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let dt = t0.elapsed();
        total += dt;
        min = min.min(dt);
        iters += 1;
    }
    let m = Measurement {
        iters,
        mean: total / iters.max(1),
        min,
    };
    println!(
        "{name:<44} {:>10.3?} mean  {:>10.3?} min  ({} iters)",
        m.mean, m.min, m.iters
    );
    m
}

/// `bench_fn` plus a throughput line for `bytes` processed per iteration.
pub fn bench_throughput<T>(
    name: &str,
    bytes: u64,
    max_iters: u32,
    f: impl FnMut() -> T,
) -> Measurement {
    let m = bench_fn(name, max_iters, f);
    println!("{name:<44} {:>10.1} MB/s", m.mb_per_sec(bytes));
    m
}

/// Print a group header.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}
