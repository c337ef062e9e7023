//! The `/metrics` pipeline counters are the global collector's always-on
//! atomics: serving every `/v1` route leaves span recording off, records no
//! spans, and still moves the counters, which never go backwards.
//!
//! This file is a single `#[test]` on purpose: it drains the process-global
//! collector, which resets the counters any other test in the binary reads.

mod common;

use common::{get, metric_value, post};
use rat_core::telemetry;
use rat_serve::api::escape_json;
use rat_serve::{ServeConfig, Server};

/// Counters that every round of the seven routes must move.
const MOVED: [&str; 5] = [
    "pipeline_sim_runs",
    "pipeline_engine_jobs",
    "pipeline_batch_points",
    "pipeline_mc_samples",
    "pipeline_cache_response_hits",
];

/// One body per `/v1` route.
fn routes() -> Vec<(&'static str, String)> {
    let ws = escape_json(&toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap());
    vec![
        (
            "/v1/solve",
            format!("{{\"worksheet_toml\": \"{ws}\", \"target\": 8.0}}"),
        ),
        (
            "/v1/sweep",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"param\": \"fclock\", \
                 \"values\": [75e6, 100e6, 150e6]}}"
            ),
        ),
        (
            "/v1/uncertainty",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"samples\": 128, \"seed\": 7, \
                 \"ranges\": [{{\"param\": \"fclock\", \"lo\": 75e6, \"hi\": 150e6}}]}}"
            ),
        ),
        (
            "/v1/explore",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"min_speedup\": 4.0, \
                 \"fclocks\": [100e6, 150e6]}}"
            ),
        ),
        (
            "/v1/optimize",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"seed\": 3, \
                 \"generations\": 2, \"population\": 8}}"
            ),
        ),
        (
            "/v1/sensitivity",
            format!("{{\"worksheet_toml\": \"{ws}\"}}"),
        ),
        (
            "/v1/simulate",
            "{\"app\": \"sort\", \"mhz\": 150.0}".to_string(),
        ),
    ]
}

fn scrape(addr: std::net::SocketAddr) -> Vec<u64> {
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200, "{body}");
    MOVED
        .iter()
        .map(|name| {
            let v = metric_value(&body, &format!("{name} "))
                .unwrap_or_else(|| panic!("{name} missing:\n{body}"));
            assert!(v > 0, "{name} is 0 with spans off:\n{body}");
            v
        })
        .collect()
}

#[test]
fn counters_flow_with_spans_off() {
    let handle = Server::start(ServeConfig::default()).expect("server starts");
    let addr = handle.addr();
    // Each body twice, so the repeat is a response-cache hit.
    for (path, body) in routes().iter().chain(routes().iter()) {
        let (status, resp) = post(addr, path, body);
        assert_eq!(status, 200, "{path}: {resp}");
    }
    let first = scrape(addr);
    for (path, body) in &routes() {
        let (status, resp) = post(addr, path, body);
        assert_eq!(status, 200, "{path}: {resp}");
    }
    let second = scrape(addr);
    for ((name, a), b) in MOVED.iter().zip(&first).zip(&second) {
        assert!(b >= a, "{name} went backwards: {a} -> {b}");
    }
    handle.shutdown();

    let collector = telemetry::global();
    assert!(!collector.is_enabled(), "serving turned span recording on");
    let spans = collector.drain().spans;
    assert!(spans.is_empty(), "serving recorded {} spans", spans.len());
}
