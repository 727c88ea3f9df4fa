//! Gate on the client's streaming-discovery work, counted exactly: over
//! every first-time cell of the protocol matrix, the robot scans each
//! byte of the start page and inflates each byte of a deflate-coded page
//! a bounded number of times, however the page is split into segments.
//! Re-scanning and re-inflating the whole received prefix on every
//! arriving segment would cost about 17x and 5x the page.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::protocol_matrix::matrix_setups;
use httpipe_core::harness::{matrix_spec, run_spec, Scenario};
use httpserver::ServerKind;

#[test]
fn first_time_pages_are_scanned_and_inflated_a_bounded_number_of_times() {
    let html_len = webcontent::microscape::site().html.len() as u64;
    let mut cells = 0;
    for env in NetEnv::ALL {
        for server in [ServerKind::Jigsaw, ServerKind::Apache] {
            for &setup in matrix_setups(env) {
                let out = run_spec(matrix_spec(env, server, setup, Scenario::FirstTime));
                let stats = &out.client_stats;
                let what = format!("{env:?} {server:?} {setup:?}");
                assert_eq!(out.cell.fetched, 43, "{what}");
                // Streaming discovery plus the completed page and its
                // cache entry: at least two whole passes, at most three.
                assert!(
                    (2 * html_len..=3 * html_len).contains(&stats.html_bytes_scanned),
                    "{what}: scanned {} bytes of a {html_len}-byte page",
                    stats.html_bytes_scanned
                );
                // The streaming inflater, then the completed body's decode.
                let inflated = stats.html_bytes_inflated;
                if setup.deflate() {
                    assert!(
                        (html_len..=2 * html_len).contains(&inflated),
                        "{what}: inflated {inflated} bytes of a {html_len}-byte page"
                    );
                } else {
                    assert_eq!(inflated, 0, "{what}");
                }
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 22);
}
