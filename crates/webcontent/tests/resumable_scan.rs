//! Differential test of the resumable `<img src>` scan, driven by a
//! deterministic seeded PRNG: a document delivered in random chunks and
//! scanned from each returned checkpoint must discover exactly the
//! sources, in order, that re-scanning every received prefix from the
//! start discovers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use webcontent::html::{attr_value, scan_inline_image_bytes};

/// The full-prefix scan the resumable one replaced, kept as the oracle:
/// comments and declarations skipped whole, an unterminated trailing tag
/// is text.
fn oracle_scan(html: &str, mut f: impl FnMut(&str)) {
    let bytes = html.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        if bytes[i..].starts_with(b"<!--") {
            if let Some(end) = html[i..].find("-->") {
                i += end + 3;
                continue;
            }
        }
        if bytes[i..].starts_with(b"<!") {
            if let Some(end) = html[i..].find('>') {
                i += end + 1;
                continue;
            }
        }
        let Some(end) = html[i..].find('>') else {
            return;
        };
        let inner = &html[i + 1..i + end];
        let (closing, inner) = match inner.strip_prefix('/') {
            Some(rest) => (true, rest),
            None => (false, inner),
        };
        let name_end = inner
            .find(|c: char| c.is_ascii_whitespace())
            .unwrap_or(inner.len());
        let name = &inner[..name_end];
        if name.is_empty() {
            i += 1;
            continue;
        }
        if !closing && name.eq_ignore_ascii_case("img") {
            if let Some(src) = attr_value(&inner[name_end..], "src") {
                f(src);
            }
        }
        i += end + 1;
    }
}

/// Record `src` if it was not seen before.
fn note_new(seen: &mut BTreeSet<String>, order: &mut Vec<String>, src: &str) {
    if seen.insert(src.to_string()) {
        order.push(src.to_string());
    }
}

/// New sources, in order, when every received prefix is re-scanned
/// from the start after lossy UTF-8 decoding.
fn full_prefix_discovery(doc: &[u8], cuts: &[usize]) -> Vec<String> {
    let (mut seen, mut order) = (BTreeSet::new(), Vec::new());
    for &cut in cuts {
        let text = String::from_utf8_lossy(&doc[..cut]);
        oracle_scan(&text, |src| note_new(&mut seen, &mut order, src));
    }
    order
}

/// New sources, in order, when each received prefix is scanned from
/// the previous checkpoint.
fn resumable_discovery(doc: &[u8], cuts: &[usize]) -> Vec<String> {
    let (mut seen, mut order) = (BTreeSet::new(), Vec::new());
    let mut checkpoint = 0;
    for &cut in cuts {
        let next = scan_inline_image_bytes(&doc[..cut], checkpoint, |src| {
            note_new(&mut seen, &mut order, src)
        });
        assert!(
            (checkpoint..=cut).contains(&next),
            "checkpoint {next} outside {checkpoint}..={cut}"
        );
        checkpoint = next;
    }
    order
}

/// Chunk boundaries ending at `len`: all 1-byte, or random sizes.
fn chunking(rng: &mut SmallRng, len: usize, max_chunk: usize) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < len {
        at = (at + rng.gen_range(1..=max_chunk)).min(len);
        cuts.push(at);
    }
    cuts
}

/// A document stitched from fragments that stress the checkpoint rule.
fn adversarial_doc(rng: &mut SmallRng) -> Vec<u8> {
    let mut doc = Vec::new();
    for n in 0..rng.gen_range(1..40) {
        let piece: Vec<u8> = match rng.gen_range(0..16) {
            0 => format!("<img src=a{n}.gif>").into(),
            1 => format!("<IMG SRC=\"B{n}.GIF\" WIDTH=3>").into(),
            2 => format!("<!-- hidden > <img src=c{n}.gif> -->").into(),
            3 => b"<!--".to_vec(),
            4 => b"-->".to_vec(),
            5 => b"<!DOCTYPE HTML PUBLIC>".to_vec(),
            6 => b"<>".to_vec(),
            7 => b"< p>".to_vec(),
            8 => format!("<img src='d{n}.gif'").into(),
            9 => b">".to_vec(),
            10 => format!("text \u{e9}\u{20ac} {n} ").into(),
            11 => vec![0xFF, b'x', 0xC3],
            12 => format!("<img src=\"\u{fc}{n}.gif\">").into(),
            13 => {
                let mut v = format!("<img src=e{n}").into_bytes();
                v.extend_from_slice(&[0xE2, 0x82]);
                v.extend_from_slice(b".gif>");
                v
            }
            14 => format!("</img><imgx src=f{n}.gif><p>").into(),
            _ => format!("<!-- {n} -->").into(),
        };
        doc.extend_from_slice(&piece);
    }
    doc
}

fn assert_same_discovery(doc: &[u8], cuts: &[usize], what: &str) {
    assert_eq!(
        resumable_discovery(doc, cuts),
        full_prefix_discovery(doc, cuts),
        "{what}: cuts {cuts:?}"
    );
}

#[test]
fn microscape_page_in_random_chunks() {
    let html = webcontent::microscape::site().html.as_bytes();
    let mut rng = SmallRng::seed_from_u64(0x5CA9_0001);
    // Chunks of 1..=max bytes; the oracle re-scans every prefix, so the
    // small maxima (many 1-byte chunks) run on the page's first 4 KiB.
    for (case, max) in [1, 2, 8, 64, 1460, 3000].into_iter().enumerate() {
        let doc = if max < 64 { &html[..4096] } else { html };
        let cuts = chunking(&mut rng, doc.len(), max);
        assert_same_discovery(doc, &cuts, &format!("case {case}, chunks up to {max}"));
    }
    assert_eq!(
        resumable_discovery(html, &chunking(&mut rng, html.len(), 1460)).len(),
        42
    );
}

#[test]
fn adversarial_corpus_in_random_chunks() {
    let mut rng = SmallRng::seed_from_u64(0x5CA9_0002);
    for case in 0..300 {
        let doc = adversarial_doc(&mut rng);
        let every_byte: Vec<usize> = (1..=doc.len()).collect();
        assert_same_discovery(&doc, &every_byte, &format!("case {case}, 1-byte"));
        let max = rng.gen_range(1..64);
        let cuts = chunking(&mut rng, doc.len(), max);
        assert_same_discovery(&doc, &cuts, &format!("case {case}"));
    }
}
