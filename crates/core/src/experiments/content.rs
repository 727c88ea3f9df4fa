//! The content-change experiments: Figure 1 and the CSS replacement
//! analysis, the GIF→PNG / GIF→MNG conversion study, and a full
//! end-to-end browse of the CSS-converted page.

use crate::env::NetEnv;
use crate::harness::{custom_store, matrix_spec, run_spec, CellSpec, ProtocolSetup, Scenario};
use crate::result::{CellResult, Table};
use httpclient::Workload;
use httpserver::ServerKind;
use webcontent::convert::{convert_site, ConversionReport};
use webcontent::css;
use webcontent::synth::ImageRole;

/// Figure 1: the 682-byte "solutions" GIF and its ~150-byte HTML+CSS
/// replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureOne {
    /// Size of the generated banner GIF.
    pub gif_bytes: usize,
    /// The stylesheet rule, serialized compactly.
    pub css_rule: String,
    /// The in-document replacement markup.
    pub markup: String,
    /// CSS rule plus markup, total bytes.
    pub replacement_bytes: usize,
}

/// Reproduce Figure 1 with the generated "solutions" banner.
pub fn figure1() -> FigureOne {
    let site = webcontent::microscape::site();
    let obj = site
        .object("/images/solutions.gif")
        .expect("solutions banner exists");
    let rule = css::banner_rule("banner");
    let css_rule = css::serialize(&css::Stylesheet { rules: vec![rule] });
    let markup = css::replacement_markup(ImageRole::TextBanner, "banner", "solutions")
        .expect("banners are replaceable");
    FigureOne {
        gif_bytes: obj.body.len(),
        replacement_bytes: css_rule.len() + markup.len(),
        css_rule,
        markup,
    }
}

/// The CSS replacement analysis over the whole page.
pub fn css_analysis_table() -> Table {
    let site = webcontent::microscape::site();
    let analysis = site.css_analysis();
    let mut t = Table::new(
        "CSS1 image replacement analysis (40 static images + 2 animations)",
        &["Value"],
    );
    t.push_row(
        "Images replaceable by HTML+CSS",
        vec![analysis.replaced_count().to_string()],
    );
    t.push_row(
        "HTTP requests eliminated",
        vec![analysis.requests_saved().to_string()],
    );
    t.push_row(
        "Net payload bytes saved",
        vec![analysis.bytes_saved().to_string()],
    );
    t.push_row(
        "Total image bytes on page",
        vec![analysis.total_gif_bytes().to_string()],
    );
    t
}

/// The GIF→PNG / GIF→MNG conversion report.
pub fn conversion_report() -> ConversionReport {
    let site = webcontent::microscape::site();
    ConversionReport::from_conversions(&convert_site(&site.images))
}

/// Render the conversion study.
pub fn conversion_table() -> Table {
    let r = conversion_report();
    let mut t = Table::new(
        "GIF -> PNG / MNG conversion",
        &["GIF bytes", "Converted", "Saved"],
    );
    t.push_row(
        "40 static images (PNG)",
        vec![
            r.static_gif_bytes.to_string(),
            r.static_png_bytes.to_string(),
            r.static_saved().to_string(),
        ],
    );
    t.push_row(
        "2 animations (MNG)",
        vec![
            r.anim_gif_bytes.to_string(),
            r.anim_mng_bytes.to_string(),
            r.anim_saved().to_string(),
        ],
    );
    t.push_row(
        "Images that grew",
        vec![r.grew.to_string(), String::new(), String::new()],
    );
    t
}

/// Simulated browse of the original vs the CSS-converted page over PPP:
/// what style sheets buy end-to-end, HTTP version unchanged.
pub fn css_browse_cells(pipelined: bool) -> (CellResult, CellResult) {
    let setup = if pipelined {
        ProtocolSetup::Http11Pipelined
    } else {
        ProtocolSetup::Http10
    };
    let base = || matrix_spec(NetEnv::Ppp, ServerKind::Apache, setup, Scenario::FirstTime);
    let original = run_spec(base()).cell;

    let variant = webcontent::microscape::site().css_variant();
    let mut objects: Vec<(String, Vec<u8>, &'static str)> = vec![(
        "/index.html".to_string(),
        variant.html.clone().into_bytes(),
        "text/html",
    )];
    for obj in &variant.kept {
        objects.push((obj.path.clone(), obj.body.clone(), "image/gif"));
    }
    let converted = run_spec(CellSpec {
        store: custom_store(&objects),
        workload: Workload::Browse {
            start: "/index.html".into(),
        },
        ..base()
    })
    .cell;
    (original, converted)
}

/// Render the CSS end-to-end comparison.
pub fn css_browse_table() -> Table {
    let (orig, conv) = css_browse_cells(true);
    let mut t = Table::new(
        "First-time browse, PPP, HTTP/1.1 pipelined: original vs CSS-converted page",
        &["Requests", "Pa", "Bytes", "Sec"],
    );
    for (label, c) in [("Original page", &orig), ("CSS-converted page", &conv)] {
        t.push_row(
            label,
            vec![
                c.fetched.to_string(),
                c.packets().to_string(),
                c.bytes.to_string(),
                format!("{:.2}", c.secs),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_reduction_factor() {
        let f = figure1();
        // Paper: 682-byte GIF vs ~150 bytes of HTML+CSS — a factor > 4.
        assert!(
            f.gif_bytes as f64 / f.replacement_bytes as f64 >= 3.0,
            "{} / {}",
            f.gif_bytes,
            f.replacement_bytes
        );
        assert!(f.css_rule.contains("P.banner"));
        assert!(f.markup.contains("solutions"));
    }

    #[test]
    fn conversion_matches_paper_direction() {
        let r = conversion_report();
        assert!(r.static_saved() > 0, "PNG saves overall");
        assert!(
            r.anim_saved() as f64 / r.anim_gif_bytes as f64 > 0.2,
            "MNG saves substantially"
        );
        assert!(r.grew > 0, "tiny images grow (the sub-200-byte effect)");
    }

    #[test]
    fn css_page_saves_requests_and_time() {
        let (orig, conv) = css_browse_cells(true);
        assert_eq!(orig.fetched, 43);
        assert!(
            conv.fetched < orig.fetched,
            "CSS removes requests: {} -> {}",
            orig.fetched,
            conv.fetched
        );
        assert!(conv.bytes < orig.bytes);
        assert!(conv.secs < orig.secs);
        assert!(conv.packets() < orig.packets());
    }
}
