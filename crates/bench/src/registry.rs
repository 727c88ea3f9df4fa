//! The experiment registry: every table and figure this repository
//! reproduces, in EXPERIMENTS.md order. `repro <id>` prints an entry's
//! [`Experiment::text`]; `experiments_md` prints [`PREAMBLE`] and then
//! every entry's [`Experiment::section`].

use crate::sections;
pub use crate::sections::PREAMBLE;
use httpipe_core::env::NetEnv;
use httpipe_core::experiments::probe::{self, ProbeCell};
use httpipe_core::experiments::robustness::{self, RobustnessCell};
use httpipe_core::experiments::scale::{self, ScaleCell};
use httpipe_core::experiments::{
    ablations, browsers, cc, closemgmt, compression, content, mux, nagle, protocol_matrix, ranges,
    summary, telemetry, verbosity,
};
use httpipe_core::harness::{matrix_spec, run_spec, ProtocolSetup, Scenario};
use httpipe_core::result::Table;
use httpserver::ServerKind;

/// One reproduced table, figure or study.
pub struct Experiment {
    /// The name `repro` selects it by.
    pub id: &'static str,
    /// One line for `repro list`.
    pub what: &'static str,
    /// What `repro <id>` prints.
    pub text: fn() -> String,
    /// The EXPERIMENTS.md section this entry opens, if any; it ends with
    /// a newline, and `experiments_md` puts a blank line between sections.
    pub section: Option<fn() -> String>,
}

/// Every experiment, in EXPERIMENTS.md section order.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        what: "Tested network environments",
        text: || tables([protocol_matrix::table1()]),
        section: None,
    },
    Experiment {
        id: "table3",
        what: "Initial (untuned) LAN cache revalidation, Jigsaw",
        text: || tables([protocol_matrix::table3()]),
        section: Some(sections::table3),
    },
    Experiment {
        id: "table4",
        what: "Jigsaw, LAN: protocol matrix",
        text: || matrix_text(NetEnv::Lan, ServerKind::Jigsaw),
        section: Some(|| sections::matrix(NetEnv::Lan, ServerKind::Jigsaw)),
    },
    Experiment {
        id: "table5",
        what: "Apache, LAN: protocol matrix",
        text: || matrix_text(NetEnv::Lan, ServerKind::Apache),
        section: Some(|| sections::matrix(NetEnv::Lan, ServerKind::Apache)),
    },
    Experiment {
        id: "table6",
        what: "Jigsaw, WAN: protocol matrix",
        text: || matrix_text(NetEnv::Wan, ServerKind::Jigsaw),
        section: Some(|| sections::matrix(NetEnv::Wan, ServerKind::Jigsaw)),
    },
    Experiment {
        id: "table7",
        what: "Apache, WAN: protocol matrix",
        text: || matrix_text(NetEnv::Wan, ServerKind::Apache),
        section: Some(|| sections::matrix(NetEnv::Wan, ServerKind::Apache)),
    },
    Experiment {
        id: "table8",
        what: "Jigsaw, PPP: protocol matrix",
        text: || matrix_text(NetEnv::Ppp, ServerKind::Jigsaw),
        section: Some(|| sections::matrix(NetEnv::Ppp, ServerKind::Jigsaw)),
    },
    Experiment {
        id: "table9",
        what: "Apache, PPP: protocol matrix",
        text: || matrix_text(NetEnv::Ppp, ServerKind::Apache),
        section: Some(|| sections::matrix(NetEnv::Ppp, ServerKind::Apache)),
    },
    Experiment {
        id: "table10",
        what: "Jigsaw, PPP: Navigator vs Internet Explorer",
        text: || tables([browsers::browser_table(ServerKind::Jigsaw)]),
        section: Some(|| sections::browsers(ServerKind::Jigsaw)),
    },
    Experiment {
        id: "table11",
        what: "Apache, PPP: Navigator vs Internet Explorer",
        text: || tables([browsers::browser_table(ServerKind::Apache)]),
        section: Some(|| sections::browsers(ServerKind::Apache)),
    },
    Experiment {
        id: "modem",
        what: "Deflate vs V.42bis modem compression (single HTML GET)",
        text: || tables([compression::modem_table()]),
        section: Some(sections::modem),
    },
    Experiment {
        id: "deflate",
        what: "HTML transport compression and the tag-case effect",
        text: || tables([compression::deflate_table()]),
        section: Some(sections::deflate),
    },
    Experiment {
        id: "figure1",
        what: "The 'solutions' GIF vs its HTML+CSS replacement",
        text: figure1_text,
        section: Some(sections::figure1),
    },
    Experiment {
        id: "css",
        what: "CSS replacement analysis + end-to-end browse comparison",
        text: || tables([content::css_analysis_table(), content::css_browse_table()]),
        section: None,
    },
    Experiment {
        id: "png",
        what: "GIF->PNG and GIF->MNG conversion study",
        text: || tables([content::conversion_table()]),
        section: Some(sections::png),
    },
    Experiment {
        id: "nagle",
        what: "Nagle algorithm x write buffering interaction",
        text: || {
            tables([
                nagle::nagle_table(NetEnv::Lan),
                nagle::nagle_table(NetEnv::Ppp),
            ])
        },
        section: Some(sections::nagle),
    },
    Experiment {
        id: "closerst",
        what: "Connection-management: naive close vs independent half-close",
        text: || tables([closemgmt::close_table(NetEnv::Ppp, 5)]),
        section: Some(sections::closerst),
    },
    Experiment {
        id: "ranges",
        what: "Poor man's multiplexing: leading-range revisit of a revised site",
        text: || tables([ranges::range_table(NetEnv::Ppp)]),
        section: Some(sections::ranges),
    },
    Experiment {
        id: "verbosity",
        what: "HTTP request redundancy and the compact-encoding headroom",
        text: || tables([verbosity::verbosity_table()]),
        section: Some(sections::verbosity),
    },
    Experiment {
        id: "ablations",
        what: "Design-choice sweeps: buffer threshold, flush timer, app flush, initial cwnd",
        text: ablations_text,
        section: Some(sections::ablations),
    },
    Experiment {
        id: "summary",
        what: "Back-of-envelope: all techniques vs HTTP/1.0 over a modem",
        text: || tables([summary::summary_table()]),
        section: Some(sections::summary),
    },
    Experiment {
        id: "robustness",
        what: "Protocol matrix under packet loss + jitter/reordering study",
        text: || robustness_text(&robustness::run_points(&robustness::full_grid())),
        section: Some(sections::robustness),
    },
    Experiment {
        id: "scale",
        what: "Many-client fleets on one bottleneck: fairness, peak server connections, SYN drops",
        text: || scale_text(&scale::run_points(&scale::full_grid())),
        section: Some(sections::scale),
    },
    Experiment {
        id: "diagnose",
        what: "Where the time goes: elapsed time of the canonical cells split by cause",
        text: || diagnose_text(&probe::run_points(&probe::canonical_grid())),
        section: Some(sections::diagnose),
    },
    Experiment {
        id: "mux",
        what: "Multiplexing + server push: matrix, loss shared fate, fleets, stall probe",
        text: mux_text,
        section: Some(sections::mux),
    },
    Experiment {
        id: "cc",
        what: "Loss grid under Reno/NewReno/SACK/CUBIC recovery + per-variant stall probe",
        text: || {
            let cells = robustness::run_points(&cc::full_grid());
            let mut shown = cc::report(&cells);
            shown.push(cc::probe_table(&cc::probe_rows()));
            tables(shown)
        },
        section: Some(sections::cc),
    },
    Experiment {
        id: "telemetry",
        what: "Fleet observatory: SYN-burst and loss-recovery timelines, telemetry volume",
        text: telemetry_text,
        section: Some(sections::telemetry),
    },
    Experiment {
        id: "xplot",
        what: "Write xplot-format time-sequence graphs (the paper's debugging tool)",
        text: xplot_text,
        section: None,
    },
];

/// Rendered tables, each followed by a blank line.
pub(crate) fn tables(tables: impl IntoIterator<Item = Table>) -> String {
    tables.into_iter().map(|t| t.render() + "\n").collect()
}

fn matrix_text(env: NetEnv, server: ServerKind) -> String {
    tables([protocol_matrix::matrix_table(env, server)])
}

fn figure1_text() -> String {
    let f = content::figure1();
    format!(
        "=== Figure 1 - 'solutions' banner ===\n\
         GIF bytes:              {}\n\
         CSS rule:               {}\n\
         Replacement markup:     {}\n\
         HTML+CSS bytes:         {}\n\
         Reduction factor:       {:.1}x\n\n",
        f.gif_bytes,
        f.css_rule,
        f.markup,
        f.replacement_bytes,
        f.gif_bytes as f64 / f.replacement_bytes as f64
    )
}

pub(crate) fn ablations_text() -> String {
    tables(ablations::ablation_tables())
}

pub(crate) fn robustness_text(cells: &[RobustnessCell]) -> String {
    let mut shown = robustness::report(cells);
    shown.push(robustness::jitter_table(&robustness::jitter_study()));
    tables(shown)
}

pub(crate) fn scale_text(cells: &[ScaleCell]) -> String {
    tables(scale::report(cells))
}

/// The "where the time goes" table of probed cells; `diagnose` prints it
/// before the per-cell timelines.
pub fn diagnose_text(cells: &[ProbeCell]) -> String {
    tables([probe::report(cells)])
}

pub(crate) fn mux_text() -> String {
    let mut shown = Vec::new();
    for env in NetEnv::ALL {
        for server in [ServerKind::Jigsaw, ServerKind::Apache] {
            shown.push(mux::matrix_table(env, server));
        }
    }
    let loss = robustness::run_points(&mux::loss_grid());
    shown.extend(robustness::report(&loss));
    shown.extend(NetEnv::ALL.map(|env| mux::shared_fate_table(&loss, env)));
    shown.extend(scale::report(&scale::run_points(&mux::fleet_grid())));
    shown.push(probe::report(&probe::run_points(&mux::probe_grid())));
    tables(shown)
}

/// The observatory scenes and the telemetry volume table; the `telemetry`
/// binary prints them before writing its artifacts.
pub fn telemetry_text() -> String {
    format!(
        "{}\n{}\n",
        telemetry::report(256),
        telemetry::volume_table().render()
    )
}

/// Write `xplot_<name>.xpl` (server-to-client time-sequence graphs of the
/// first-time WAN retrieval) into the working directory and report each.
fn xplot_text() -> String {
    let mut out = String::new();
    for (name, setup) in [
        ("http10", ProtocolSetup::Http10),
        ("pipelined", ProtocolSetup::Http11Pipelined),
    ] {
        let mut spec = matrix_spec(NetEnv::Wan, ServerKind::Apache, setup, Scenario::FirstTime);
        // The matrix defaults to stats-only tracing; xplot needs the
        // per-packet records.
        spec.trace_mode = netsim::TraceMode::Full;
        let run = run_spec(spec);
        let plot = run
            .sim
            .trace()
            .xplot(run.server_host, &format!("{name} first-time WAN"))
            .expect("trace captured in Full mode");
        let path = format!("xplot_{name}.xpl");
        std::fs::write(&path, plot).expect("write xplot file");
        out.push_str(&format!("wrote {path} (server->client time-sequence)\n"));
    }
    out
}
