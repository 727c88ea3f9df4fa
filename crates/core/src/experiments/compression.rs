//! The compression experiments:
//!
//! * §"Changing Web Content Representation": deflating the Microscape
//!   HTML with default settings ("compressed more than a factor of three
//!   from 42K to 11K", ≈19% of the total payload);
//! * §"Further Compression Experiments": a single HTML GET over real
//!   28.8 k modems with V.42bis-style link compression, uncompressed vs
//!   pre-deflated ("Saved using compression: 68.7% of packets, ~64% of
//!   time"), and the tag-case study (lowercase tags compress to ≈.27,
//!   mixed case to ≈.35).

use crate::env::NetEnv;
use crate::harness::{matrix_spec, run_spec, CellSpec, ProtocolSetup, Scenario};
use crate::result::{CellResult, Table};
use flate::{deflate, Level};
use httpclient::Workload;
use httpserver::ServerKind;
use netsim::ModemCompressor;

/// Deflate statistics for the Microscape HTML — the paper's headline
/// compression claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtmlDeflateStudy {
    /// Size of the page as served.
    pub html_bytes: usize,
    /// Size after deflate at the default level.
    pub deflated_bytes: usize,
    /// Compression ratio of the page as authored (mixed-case tags).
    pub ratio_mixed: f64,
    /// Ratio after rewriting every tag to lowercase.
    pub ratio_lowercase: f64,
    /// Total payload reduction across the whole page fetch.
    pub payload_saving_pct: f64,
}

/// Run the HTML deflate study on the Microscape page.
pub fn html_deflate_study() -> HtmlDeflateStudy {
    let site = webcontent::microscape::site();
    let html = &site.html;
    let deflated = deflate(html.as_bytes(), Level::Default);
    let lowercase = site.html_lowercase();
    let deflated_lower = deflate(lowercase.as_bytes(), Level::Default);

    let total_payload = html.len() + site.images.iter().map(|o| o.body.len()).sum::<usize>();
    let saving = html.len() - deflated.len();

    HtmlDeflateStudy {
        html_bytes: html.len(),
        deflated_bytes: deflated.len(),
        ratio_mixed: deflated.len() as f64 / html.len() as f64,
        ratio_lowercase: deflated_lower.len() as f64 / lowercase.len() as f64,
        payload_saving_pct: saving as f64 * 100.0 / total_payload as f64,
    }
}

/// One row of the §8.2.1 modem experiment: a single GET of the HTML over
/// a 28.8k modem *with V.42bis link compression active* — once with the
/// plain HTML, once with the pre-deflated entity.
pub fn modem_cells(server_kind: ServerKind) -> (CellResult, CellResult) {
    let run_one = |setup| {
        run_spec(CellSpec {
            workload: Workload::FetchList {
                paths: vec![webcontent::microscape::site().html_path().to_string()],
            },
            // The modem pair compresses the PPP stream either way.
            link_codec: Some(|| Box::new(ModemCompressor::new())),
            ..matrix_spec(NetEnv::Ppp, server_kind, setup, Scenario::FirstTime)
        })
        .cell
    };
    (
        run_one(ProtocolSetup::Http11Pipelined),
        run_one(ProtocolSetup::Http11PipelinedDeflate),
    )
}

/// Render the §8.2.1 table for both servers.
pub fn modem_table() -> Table {
    let mut t = Table::new(
        "Modem compression vs deflate - single HTML GET over 28.8k with V.42bis",
        &["Jigsaw Pa", "Jigsaw Sec", "Apache Pa", "Apache Sec"],
    );
    let (j_plain, j_deflate) = modem_cells(ServerKind::Jigsaw);
    let (a_plain, a_deflate) = modem_cells(ServerKind::Apache);
    t.push_row(
        "Uncompressed HTML",
        vec![
            j_plain.packets().to_string(),
            format!("{:.2}", j_plain.secs),
            a_plain.packets().to_string(),
            format!("{:.2}", a_plain.secs),
        ],
    );
    t.push_row(
        "Compressed HTML",
        vec![
            j_deflate.packets().to_string(),
            format!("{:.2}", j_deflate.secs),
            a_deflate.packets().to_string(),
            format!("{:.2}", a_deflate.secs),
        ],
    );
    let pct = |plain: &CellResult, comp: &CellResult| {
        format!(
            "{:.1}%",
            (1.0 - comp.packets() as f64 / plain.packets() as f64) * 100.0
        )
    };
    let secpct = |plain: &CellResult, comp: &CellResult| {
        format!("{:.1}%", (1.0 - comp.secs / plain.secs) * 100.0)
    };
    t.push_row(
        "Saved using compression",
        vec![
            pct(&j_plain, &j_deflate),
            secpct(&j_plain, &j_deflate),
            pct(&a_plain, &a_deflate),
            secpct(&a_plain, &a_deflate),
        ],
    );
    t
}

/// Render the deflate study table.
pub fn deflate_table() -> Table {
    let s = html_deflate_study();
    let mut t = Table::new("HTML transport compression (zlib defaults)", &["Value"]);
    t.push_row("HTML bytes", vec![s.html_bytes.to_string()]);
    t.push_row("Deflated bytes", vec![s.deflated_bytes.to_string()]);
    t.push_row(
        "Ratio (mixed-case tags)",
        vec![format!("{:.3}", s.ratio_mixed)],
    );
    t.push_row(
        "Ratio (lowercase tags)",
        vec![format!("{:.3}", s.ratio_lowercase)],
    );
    t.push_row(
        "Share of total page payload saved",
        vec![format!("{:.1}%", s.payload_saving_pct)],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn html_compresses_roughly_3x() {
        let s = html_deflate_study();
        assert!(
            s.ratio_mixed < 0.40,
            "paper: 42K -> ~11K; got ratio {:.3}",
            s.ratio_mixed
        );
        // ~19% of the total payload in the paper; ours depends on the
        // synthetic page but must be in the same region.
        assert!(
            (10.0..30.0).contains(&s.payload_saving_pct),
            "payload saving {:.1}%",
            s.payload_saving_pct
        );
    }

    #[test]
    fn lowercase_tags_compress_better() {
        let s = html_deflate_study();
        assert!(
            s.ratio_lowercase < s.ratio_mixed,
            "paper: .27 vs .35; got {:.3} vs {:.3}",
            s.ratio_lowercase,
            s.ratio_mixed
        );
    }

    #[test]
    fn deflate_beats_modem_compression() {
        // Paper: ~68.7% packet saving, ~64% elapsed-time saving even
        // though the modem compresses the plain HTML too.
        let (plain, deflated) = modem_cells(ServerKind::Apache);
        assert!(plain.packets() > 0 && deflated.packets() > 0);
        let pkt_saving = 1.0 - deflated.packets() as f64 / plain.packets() as f64;
        let sec_saving = 1.0 - deflated.secs / plain.secs;
        assert!(
            pkt_saving > 0.40,
            "packet saving should be large, got {:.2}",
            pkt_saving
        );
        assert!(
            sec_saving > 0.35,
            "time saving should be large, got {:.2}",
            sec_saving
        );
        // And the modem did help the plain run (physical < nominal bytes).
        assert!(plain.physical_bytes < plain.bytes);
    }
}
