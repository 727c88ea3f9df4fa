//! Layer-alone calibrations: one public function of a layer, called
//! directly on the Microscape site's own bytes. They attribute the app
//! `on_event` time the outside view cannot split, and the set-up time.

use crate::median;
use httpipe_core::harness::microscape_store;
use httpmux::{MuxConn, MuxEvent};
use httpwire::{format_http_date, Method, Response, ResponseParser, StatusCode, Version};
use std::hint::black_box;
use std::time::Instant;
use webcontent::microscape::{self, Microscape};

/// Timed repetitions of each calibration; the median is reported.
const SAMPLES: usize = 5;
/// Minimum wall time of one sample of a per-unit calibration.
const SAMPLE_SECS: f64 = 0.02;

/// Per-layer costs measured in isolation.
pub struct Calibration {
    /// `Microscape::generate`, seconds.
    pub site_s: f64,
    /// `microscape_store` on a freshly generated site (includes the
    /// `flate` pre-deflate of the HTML), seconds.
    pub store_s: f64,
    /// `for_each_inline_image_source` over the HTML, ns per KiB scanned.
    pub html_scan_ns_per_kb: f64,
    /// zlib decompression of the store's deflated HTML, ns per KiB inflated.
    pub inflate_ns_per_kb: f64,
    /// `ResponseParser` over the 43 serialized site responses, ns per message.
    pub parse_ns_per_msg: f64,
    /// One `MuxConn` request/response exchange with a site object's body, ns.
    pub exchange_ns: f64,
}

/// Run every calibration. Panics if a layer returns a wrong result.
pub fn run() -> Calibration {
    let mut site = None;
    let site_s = median_secs(3, || site = Some(Microscape::generate()));
    let site = site.expect("generated site");
    let store_s = median_secs(3, || {
        black_box(microscape_store(&site));
    });

    let site = microscape::site();
    let html = site.html.as_bytes();
    let kib = |bytes: usize| bytes as f64 / 1024.0;

    let mut found = 0usize;
    let html_scan_ns_per_kb = per_unit_ns(kib(html.len()), || {
        webcontent::html::for_each_inline_image_source(black_box(&site.html), |_| found += 1);
    });
    assert!(found > 0, "the scan finds the page's images");

    let store = microscape_store(site);
    let deflated = store
        .get(site.html_path())
        .and_then(|e| e.deflated.clone())
        .expect("the store pre-deflates the HTML");
    let inflate_ns_per_kb = per_unit_ns(kib(html.len()), || {
        let out = flate::zlib::decompress(black_box(&deflated)).expect("inflate");
        assert_eq!(out, html, "inflate reproduces the HTML");
    });

    let objects = site_objects(site);
    let wire: Vec<u8> = objects
        .iter()
        .flat_map(|(path, ct, body)| response(path, ct, body).to_bytes())
        .collect();
    let parse_ns_per_msg = per_unit_ns(objects.len() as f64, || {
        let mut parser = ResponseParser::new();
        for _ in &objects {
            parser.expect(Method::Get);
        }
        parser.feed(black_box(&wire));
        for (_, _, body) in &objects {
            let resp = parser.next().expect("parse").expect("complete response");
            assert_eq!(resp.body.len(), body.len(), "parsed body length");
        }
    });

    let exchange_ns = per_unit_ns(objects.len() as f64, || mux_exchange(&objects));

    Calibration {
        site_s,
        store_s,
        html_scan_ns_per_kb,
        inflate_ns_per_kb,
        parse_ns_per_msg,
        exchange_ns,
    }
}

/// (path, content type, body) of the page and its 42 images.
fn site_objects(site: &Microscape) -> Vec<(String, &'static str, Vec<u8>)> {
    let mut objects = vec![(
        site.html_path().to_string(),
        "text/html",
        site.html.clone().into_bytes(),
    )];
    objects.extend(
        site.images
            .iter()
            .map(|o| (o.path.clone(), o.content_type, o.body.clone())),
    );
    objects
}

/// A 200 response for one object, with the headers the server sends.
fn response(path: &str, content_type: &str, body: &[u8]) -> Response {
    Response::new(Version::Http11, StatusCode::OK)
        .with_header("Date", format_http_date(microscape::SITE_MTIME))
        .with_header("Server", "Apache/1.2b10")
        .with_header("Content-Type", content_type)
        .with_header("ETag", format!("\"{}-{}\"", path.len(), body.len()))
        .with_header("Last-Modified", format_http_date(microscape::SITE_MTIME))
        .with_header("Content-Length", body.len().to_string())
        .with_body(body.to_vec())
}

/// Request every object on one multiplexed connection and answer each
/// with its body; check every byte arrived.
fn mux_exchange(objects: &[(String, &'static str, Vec<u8>)]) {
    let mut client = MuxConn::client(false);
    let mut server = MuxConn::server();
    let mut paths = Vec::new();
    for (path, _, _) in objects {
        let req = vec![
            (":method".to_string(), "GET".to_string()),
            (":path".to_string(), path.clone()),
        ];
        paths.push((client.open_stream(&req, true), path.as_str()));
    }
    let resp = vec![(":status".to_string(), "200".to_string())];
    let mut wire = Vec::with_capacity(64 * 1024);
    let mut received = 0usize;
    loop {
        let mut moved = false;
        wire.clear();
        if client.take_output(usize::MAX, &mut wire) > 0 {
            server.feed(&wire);
            moved = true;
        }
        while let Some(ev) = server.poll_event() {
            if let MuxEvent::Headers { stream, fields, .. } = ev {
                let path = fields
                    .iter()
                    .find(|(k, _)| k == ":path")
                    .map(|(_, v)| v.as_str())
                    .expect(":path");
                let body = &objects
                    .iter()
                    .find(|(p, _, _)| p == path)
                    .expect("requested object")
                    .2;
                server.send_headers(stream, &resp, false);
                server.send_data(stream, body, true);
            }
        }
        wire.clear();
        if server.take_output(usize::MAX, &mut wire) > 0 {
            client.feed(&wire);
            moved = true;
        }
        while let Some(ev) = client.poll_event() {
            if let MuxEvent::Data { data, .. } = ev {
                received += data.len();
            }
        }
        if !moved && client.idle() && server.idle() {
            break;
        }
    }
    let sent: usize = objects.iter().map(|o| o.2.len()).sum();
    assert_eq!(received, sent, "every body byte crossed the mux");
}

/// Median wall seconds of `n` calls of `f`.
fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// Median ns per unit of work, where one call of `f` does `units`;
/// each sample repeats `f` for at least [`SAMPLE_SECS`].
fn per_unit_ns(units: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed().as_secs_f64() < SAMPLE_SECS {
                f();
                calls += 1;
            }
            start.elapsed().as_secs_f64() * 1e9 / (calls as f64 * units)
        })
        .collect();
    median(&mut samples)
}
