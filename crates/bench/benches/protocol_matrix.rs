//! Wall-clock benches over the paper's protocol matrix (Tables 3–11) and
//! the operational studies (Nagle, connection management). Each bench
//! runs the full deterministic simulation of one table cell, so the
//! numbers are "time to simulate", while the *measured* packet/byte/
//! elapsed outputs are printed by `repro`.

use httpipe_bench::{bench_fn, group};
use httpipe_core::env::NetEnv;
use httpipe_core::experiments::{browsers, closemgmt, nagle};
use httpipe_core::harness::{matrix_spec, run_spec, ProtocolSetup, Scenario};
use httpserver::ServerKind;

fn bench_matrix() {
    // Force one-time site generation outside the timing loops.
    let _ = webcontent::microscape::site();

    group("matrix");
    for env in [NetEnv::Lan, NetEnv::Wan, NetEnv::Ppp] {
        for setup in [
            ProtocolSetup::Http10,
            ProtocolSetup::Http11,
            ProtocolSetup::Http11Pipelined,
            ProtocolSetup::Http11PipelinedDeflate,
        ] {
            if env == NetEnv::Ppp && setup == ProtocolSetup::Http10 {
                continue; // Tables 8/9 omit HTTP/1.0, as the paper does
            }
            for scenario in [Scenario::FirstTime, Scenario::Revalidate] {
                let id = format!(
                    "{}/{}/{}",
                    env.name(),
                    setup.label().replace(' ', "_"),
                    match scenario {
                        Scenario::FirstTime => "first",
                        Scenario::Revalidate => "reval",
                    }
                );
                bench_fn(&id, 10, || {
                    run_spec(matrix_spec(env, ServerKind::Apache, setup, scenario)).cell
                });
            }
        }
    }
}

fn bench_browsers() {
    let _ = webcontent::microscape::site();
    group("browsers");
    for b_kind in [browsers::Browser::Navigator, browsers::Browser::Explorer] {
        bench_fn(
            &format!("{}/reval", b_kind.label().replace(' ', "_")),
            10,
            || browsers::run_browser_cell(b_kind, ServerKind::Apache, false),
        );
    }
}

fn bench_operational() {
    let _ = webcontent::microscape::site();
    group("operational");
    bench_fn("nagle/worst_case", 10, || {
        nagle::run_nagle_cell(
            NetEnv::Lan,
            nagle::NagleCase {
                nodelay: false,
                buffered: false,
            },
        )
    });
    bench_fn("close/naive_rst_recovery", 10, || {
        closemgmt::run_close_cell(NetEnv::Lan, 5, true)
    });
}

fn main() {
    bench_matrix();
    bench_browsers();
    bench_operational();
}
