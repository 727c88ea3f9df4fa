//! The experiment registry agrees with the committed EXPERIMENTS.md. No
//! simulation runs here: only ids, descriptions and headings are read.

use httpipe_bench::registry::EXPERIMENTS;
use std::collections::BTreeSet;

/// The ids each `## ` heading of EXPERIMENTS.md cites, in file order: a
/// heading ending in (`repro a b`) cites `a` and `b`; one ending in
/// (`diagnose`) cites `diagnose`.
fn heading_citations() -> Vec<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let md = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    md.lines()
        .filter_map(|line| line.strip_prefix("## "))
        .map(|heading| {
            assert!(heading.ends_with("`)"), "heading cites no id: {heading}");
            let cited = heading.rsplit('`').nth(1).unwrap();
            let cited = cited.strip_prefix("repro ").unwrap_or(cited);
            cited.split_whitespace().map(str::to_string).collect()
        })
        .collect()
}

#[test]
fn ids_are_unique_and_described() {
    let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
    for e in EXPERIMENTS {
        assert!(!e.what.trim().is_empty(), "{} has no description", e.id);
    }
}

#[test]
fn every_heading_cites_registry_ids() {
    let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let citations = heading_citations();
    assert!(!citations.is_empty(), "EXPERIMENTS.md has no sections");
    for cited in citations.iter().flatten() {
        assert!(
            ids.contains(cited.as_str()),
            "heading cites unknown id {cited}"
        );
    }
}

#[test]
fn every_section_is_cited_by_its_heading_in_order() {
    let openers: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.section.is_some())
        .map(|e| e.id)
        .collect();
    let citations = heading_citations();
    let first_cited: Vec<&str> = citations.iter().map(|c| c[0].as_str()).collect();
    assert_eq!(
        openers, first_cited,
        "the i-th section-opening entry must be the first id of the i-th heading"
    );
}
