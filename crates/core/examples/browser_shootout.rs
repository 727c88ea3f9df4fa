//! Tables 10–11: the shipping browsers of mid-1997 (Navigator 4 and
//! Internet Explorer 4 betas) against both servers over a 28.8k modem,
//! compared with the tuned pipelined robot.
//!
//! ```text
//! cargo run --release --example browser_shootout
//! ```

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::browsers;
use httpipe_core::harness::{matrix_spec, run_spec, ProtocolSetup, Scenario};
use httpserver::ServerKind;

fn main() {
    for kind in [ServerKind::Jigsaw, ServerKind::Apache] {
        println!("{}", browsers::browser_table(kind).render());
    }

    // The robot rows of Tables 8/9, for comparison.
    println!("=== The tuned pipelined robot, for comparison (PPP, Apache) ===");
    let spec = |scenario| {
        matrix_spec(
            NetEnv::Ppp,
            ServerKind::Apache,
            ProtocolSetup::Http11Pipelined,
            scenario,
        )
    };
    let first = run_spec(spec(Scenario::FirstTime)).cell;
    let reval = run_spec(spec(Scenario::Revalidate)).cell;
    println!(
        "first visit:  {:>4} packets  {:>7} bytes  {:>6.1}s",
        first.packets(),
        first.bytes,
        first.secs
    );
    println!(
        "revalidation: {:>4} packets  {:>7} bytes  {:>6.1}s",
        reval.packets(),
        reval.bytes,
        reval.secs
    );
    println!(
        "\nBoth browsers spend several times the packets of a pipelined\n\
         HTTP/1.1 client on revalidation — the paper's motivation for\n\
         getting HTTP/1.1 deployed."
    );
}
