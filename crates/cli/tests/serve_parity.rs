//! CLI↔serve parity against the real binary: for every analysis mode, the
//! stdout of a cold `rat` process must be byte-identical to the report a
//! warm `rat serve` returns for the same request. The in-process half of
//! the parity suite is `crates/serve/tests/parity.rs`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::Duration;

use rat_core::params::RatInput;
use rat_core::telemetry::json::{self, Json};
use rat_serve::api::escape_json;
use rat_serve::{ServeConfig, Server, ServerHandle};

fn rat_binary() -> &'static str {
    env!("CARGO_BIN_EXE_rat")
}

fn start(workers: usize) -> ServerHandle {
    Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

fn pdf1d() -> RatInput {
    rat_apps::pdf::pdf1d::rat_input(150.0e6)
}

fn ws_toml(input: &RatInput) -> String {
    toml::to_string(input).expect("worksheet serializes")
}

/// POST `body` to `path` on a connection the server closes after one
/// response, returning `(status, body)` with headers stripped.
fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    write!(
        s,
        "POST {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Parse a success envelope and return its `report` field.
fn report_of(body: &str) -> String {
    let doc = json::parse(body).unwrap_or_else(|e| panic!("bad JSON {e}: {body}"));
    doc.get("report")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no report field: {body}"))
        .to_string()
}

#[test]
fn server_reports_match_cold_cli_stdout_for_every_mode() {
    // Spawn the real binary per mode and compare its stdout to the warm
    // server's report — the end-to-end version of the shared-renderer
    // argument. The CLI prints `{report}\n`, so stdout = report + newline.
    let input = pdf1d();
    let dir = std::env::temp_dir().join(format!("rat-serve-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ws_path = dir.join("ws.toml");
    std::fs::write(&ws_path, ws_toml(&input)).unwrap();
    let ws = ws_path.to_string_lossy().into_owned();

    let cli = |args: &[&str]| -> String {
        let out = Command::new(rat_binary())
            .args(args)
            .output()
            .expect("spawning the rat binary");
        assert!(
            out.status.success(),
            "rat {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };

    let handle = start(2);
    let addr = handle.addr();
    let serve = |path: &str, body: &str| -> String {
        let (status, resp) = post(addr, path, body);
        assert_eq!(status, 200, "{path}: {resp}");
        report_of(&resp)
    };
    let ws_json = escape_json(&ws_toml(&input));

    let pairs = [
        (
            cli(&["solve", &ws, "8"]),
            serve(
                "/v1/solve",
                &format!("{{\"worksheet_toml\": \"{ws_json}\", \"target\": 8.0}}"),
            ),
        ),
        (
            cli(&["solve", "--strict", &ws, "4"]),
            serve(
                "/v1/solve",
                &format!(
                    "{{\"worksheet_toml\": \"{ws_json}\", \"target\": 4.0, \"strict\": true}}"
                ),
            ),
        ),
        (
            cli(&["sweep", &ws, "fclock", "75e6", "100e6", "150e6"]),
            serve(
                "/v1/sweep",
                &format!(
                    "{{\"worksheet_toml\": \"{ws_json}\", \"param\": \"fclock\", \
                     \"values\": [75e6, 100e6, 150e6]}}"
                ),
            ),
        ),
        (
            cli(&["uncertainty", &ws, "fclock", "75e6", "150e6"]),
            serve(
                "/v1/uncertainty",
                &format!(
                    "{{\"worksheet_toml\": \"{ws_json}\", \
                     \"ranges\": [{{\"param\": \"fclock\", \"lo\": 75e6, \"hi\": 150e6}}]}}"
                ),
            ),
        ),
        (
            cli(&["explore", &ws, "5", "--fclocks", "100e6,150e6"]),
            serve(
                "/v1/explore",
                &format!(
                    "{{\"worksheet_toml\": \"{ws_json}\", \"min_speedup\": 5.0, \
                     \"fclocks\": [100e6, 150e6]}}"
                ),
            ),
        ),
        (
            cli(&["sensitivity", &ws]),
            serve(
                "/v1/sensitivity",
                &format!("{{\"worksheet_toml\": \"{ws_json}\"}}"),
            ),
        ),
        (
            cli(&[
                "optimize",
                &ws,
                "--seed",
                "7",
                "--generations",
                "4",
                "--population",
                "48",
            ]),
            serve(
                "/v1/optimize",
                &format!(
                    "{{\"worksheet_toml\": \"{ws_json}\", \"seed\": 7, \
                     \"generations\": 4, \"population\": 48}}"
                ),
            ),
        ),
    ];
    handle.shutdown();
    for (i, (cli_stdout, server_report)) in pairs.iter().enumerate() {
        assert_eq!(
            *cli_stdout,
            format!("{server_report}\n"),
            "CLI stdout vs server report diverged for pair {i}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Split a failed CLI run's stderr into its `error:` line and its
/// `caused by:` lines, the CLI's form of an error body.
fn cli_error_lines(stderr: &str) -> (String, Vec<String>) {
    let mut lines = stderr.lines();
    let error = lines
        .next()
        .and_then(|l| l.strip_prefix("error: "))
        .unwrap_or_else(|| panic!("no error line: {stderr}"))
        .to_string();
    let causes = lines
        .filter_map(|l| l.strip_prefix("  caused by: "))
        .map(str::to_string)
        .collect();
    (error, causes)
}

/// Parse an error envelope into its `error` and `caused_by` fields.
fn body_error_lines(body: &str) -> (String, Vec<String>) {
    let doc = json::parse(body).unwrap_or_else(|e| panic!("bad JSON {e}: {body}"));
    let error = doc.get("error").and_then(Json::as_str);
    let causes = doc.get("caused_by").and_then(Json::as_array);
    match (error, causes) {
        (Some(error), Some(causes)) => (
            error.to_string(),
            causes
                .iter()
                .map(|c| c.as_str().expect("string cause").to_string())
                .collect(),
        ),
        _ => panic!("not an error body: {body}"),
    }
}

/// The DESIGN.md §10/§14 table: the HTTP status each CLI exit code maps to.
fn status_for_exit(code: i32) -> u16 {
    match code {
        2 | 3 => 400,
        4 => 422,
        5 => 500,
        other => panic!("exit {other} has no HTTP counterpart here"),
    }
}

#[test]
fn bad_inputs_fail_alike_through_the_binary_and_the_server() {
    // Each bad input runs through the real binary and through POST /v1/*.
    // The exit code and the status must follow the taxonomy table, and since
    // these are value and model errors (not argv or JSON syntax), the CLI's
    // `error:`/`caused by:` lines must equal the body's `error`/`caused_by`.
    let input = pdf1d();
    let dir = std::env::temp_dir().join(format!("rat-error-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ws_path = dir.join("ws.toml");
    std::fs::write(&ws_path, ws_toml(&input)).unwrap();
    let ws = ws_path.to_string_lossy().into_owned();
    let ws_json = escape_json(&ws_toml(&input));
    let body = |extra: &str| format!("{{\"worksheet_toml\": \"{ws_json}\"{extra}}}");

    let cases: Vec<(&str, Vec<&str>, &str, String, i32)> = vec![
        (
            "inverted fclock_range",
            vec!["optimize", &ws, "--fclock-range", "2e8,1e8"],
            "/v1/optimize",
            body(", \"fclock_range\": [2e8, 1e8]"),
            3,
        ),
        (
            "population 0",
            vec!["optimize", &ws, "--population", "0"],
            "/v1/optimize",
            body(", \"population\": 0"),
            3,
        ),
        (
            "unknown device",
            vec!["optimize", &ws, "--devices", "asic9000"],
            "/v1/optimize",
            body(", \"devices\": [\"asic9000\"]"),
            3,
        ),
        (
            "inverted uncertainty range",
            vec!["uncertainty", &ws, "fclock", "150e6", "75e6"],
            "/v1/uncertainty",
            body(", \"ranges\": [{\"param\": \"fclock\", \"lo\": 150e6, \"hi\": 75e6}]"),
            3,
        ),
        (
            "empty sweep values",
            vec!["sweep", &ws, "fclock"],
            "/v1/sweep",
            body(", \"param\": \"fclock\", \"values\": []"),
            3,
        ),
        (
            "all-infeasible optimize space",
            vec![
                "optimize",
                &ws,
                "--seed",
                "3",
                "--generations",
                "2",
                "--population",
                "32",
                "--devices",
                "lx25",
                "--precision-bits",
                "32",
                "--throughput-range",
                "30,40",
            ],
            "/v1/optimize",
            body(
                ", \"seed\": 3, \"generations\": 2, \"population\": 32, \
                 \"devices\": [\"lx25\"], \"precision_bits\": [32], \
                 \"throughput_range\": [30.0, 40.0]",
            ),
            4,
        ),
        (
            "solve --strict at 1e9",
            vec!["solve", "--strict", &ws, "1e9"],
            "/v1/solve",
            body(", \"target\": 1e9, \"strict\": true"),
            4,
        ),
        (
            "clock past the simulator's band",
            vec!["trace", "pdf1d", "--mhz", "1e9"],
            "/v1/simulate",
            "{\"app\": \"pdf1d\", \"mhz\": 1e9}".to_string(),
            5,
        ),
    ];

    let handle = start(2);
    for (name, args, route, json_body, exit) in &cases {
        let out = Command::new(rat_binary())
            .args(args)
            .output()
            .expect("spawning the rat binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*exit), "{name}: {stderr}");
        let (status, resp) = post(handle.addr(), route, json_body);
        assert_eq!(status, status_for_exit(*exit), "{name}: {resp}");
        assert_eq!(
            cli_error_lines(&stderr),
            body_error_lines(&resp),
            "{name}: CLI stderr and the error body diverged"
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
