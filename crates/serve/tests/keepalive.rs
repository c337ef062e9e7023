//! Keep-alive transport robustness: persistent connections must serve many
//! requests, honor `Connection:` overrides mid-stream, bound slow and
//! hostile clients with the same 408/400 behavior the close-per-request
//! server had, and never let a bad second request poison a good first
//! response.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use common::{read_response, report_of, split_response};
use rat_serve::api::escape_json;
use rat_serve::{ServeConfig, Server, ServerHandle};

fn start(config: ServeConfig) -> ServerHandle {
    Server::start(config).expect("server starts")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

fn solve_request(target: f64) -> String {
    let ws = escape_json(&toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap());
    let body = format!("{{\"worksheet_toml\": \"{ws}\", \"target\": {target}}}");
    format!(
        "POST /v1/solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Read until EOF, asserting the server closed without sending more bytes.
fn assert_closed_silently(s: &mut TcpStream) {
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).expect("read to close");
    assert!(
        rest.is_empty(),
        "expected a silent close, got: {:?}",
        String::from_utf8_lossy(&rest)
    );
}

#[test]
fn one_connection_serves_many_requests_and_counts_one_accept() {
    let handle = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut s = connect(handle.addr());
    let mut reports = Vec::new();
    for target in [8.0, 4.0, 8.0] {
        s.write_all(solve_request(target).as_bytes()).unwrap();
        let raw = read_response(&mut s);
        assert!(
            raw.contains("Connection: keep-alive"),
            "HTTP/1.1 default should keep the connection: {raw}"
        );
        let (status, body) = split_response(&raw);
        assert_eq!(status, 200, "{body}");
        reports.push(report_of(&body));
    }
    assert_eq!(reports[0], reports[2], "same request drifted on one conn");
    assert_ne!(reports[0], reports[1], "distinct targets must differ");
    drop(s);
    let summary = handle.shutdown();
    assert_eq!(summary.accepted, 1, "one socket, one accept: {summary:?}");
    assert!(summary.ok >= 3, "three requests served: {summary:?}");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = start(ServeConfig::default());
    let mut s = connect(handle.addr());
    // Both requests in one write: the bytes of the second sit buffered
    // while the first computes, and the answers come back in order.
    let batch = format!("{}{}", solve_request(8.0), solve_request(4.0));
    s.write_all(batch.as_bytes()).unwrap();
    let (s1, first) = split_response(&read_response(&mut s));
    let (s2, second) = split_response(&read_response(&mut s));
    assert_eq!((s1, s2), (200, 200));
    assert!(
        report_of(&first).contains("8x speedup") && report_of(&second).contains("4x speedup"),
        "pipelined responses out of order:\n{first}\n{second}"
    );
    handle.shutdown();
}

#[test]
fn pipelined_garbage_does_not_poison_the_prior_response() {
    let handle = start(ServeConfig::default());
    let mut s = connect(handle.addr());
    // A valid request with non-HTTP garbage pipelined right behind it (a
    // request line with no path token). The valid one must answer 200 in
    // full; the garbage maps to 400 and the connection closes (framing is
    // unrecoverable after a parse failure).
    let batch = format!("{}\x01\x02\x03garbage\r\n\r\n", solve_request(8.0));
    s.write_all(batch.as_bytes()).unwrap();
    let (status, body) = split_response(&read_response(&mut s));
    assert_eq!(status, 200, "valid request poisoned by garbage: {body}");
    assert!(!report_of(&body).is_empty());
    let garbage_response = read_response(&mut s);
    let (status, _) = split_response(&garbage_response);
    assert_eq!(status, 400, "garbage should map to 400: {garbage_response}");
    assert!(
        garbage_response.contains("Connection: close"),
        "protocol errors must close: {garbage_response}"
    );
    assert_closed_silently(&mut s);
    handle.shutdown();
}

#[test]
fn slowloris_second_request_gets_408_then_close() {
    let handle = start(ServeConfig {
        workers: 1,
        request_timeout: Duration::from_millis(300),
        keepalive_idle: Duration::from_secs(10),
        ..ServeConfig::default()
    });
    let mut s = connect(handle.addr());
    s.write_all(solve_request(8.0).as_bytes()).unwrap();
    let (status, _) = split_response(&read_response(&mut s));
    assert_eq!(status, 200);
    // Start a second request but stall after a few header bytes: once the
    // first byte lands the per-request deadline applies, so this is a 408
    // (not a silent idle close) followed by a hangup.
    let stalled = Instant::now();
    s.write_all(b"POST /v1/solve HTTP/1.1\r\nContent-Le")
        .unwrap();
    let raw = read_response(&mut s);
    let (status, _) = split_response(&raw);
    assert_eq!(status, 408, "stalled second request should 408: {raw}");
    // The 300 ms request deadline answers, not the 10 s idle wait.
    let took = stalled.elapsed();
    assert!(took < Duration::from_secs(3), "408 after {took:?}");
    assert!(raw.contains("Connection: close"), "{raw}");
    assert_closed_silently(&mut s);
    let summary = handle.shutdown();
    assert_eq!(summary.errored, 1, "the 408 counts as errored: {summary:?}");
}

#[test]
fn connection_close_is_honored_mid_stream() {
    let handle = start(ServeConfig::default());
    let mut s = connect(handle.addr());
    s.write_all(solve_request(8.0).as_bytes()).unwrap();
    let raw = read_response(&mut s);
    assert!(raw.contains("Connection: keep-alive"), "{raw}");
    // Second request asks to close; the server must say so and hang up.
    s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let raw = read_response(&mut s);
    let (status, body) = split_response(&raw);
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    assert!(raw.contains("Connection: close"), "{raw}");
    assert_closed_silently(&mut s);
    handle.shutdown();
}

#[test]
fn idle_connections_are_closed_silently_not_408ed() {
    let handle = start(ServeConfig {
        keepalive_idle: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let mut s = connect(handle.addr());
    s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, _) = split_response(&read_response(&mut s));
    assert_eq!(status, 200);
    // Say nothing. The idle deadline passes and the server closes without
    // writing a byte — an idle client is not a protocol error.
    assert_closed_silently(&mut s);
    let summary = handle.shutdown();
    assert_eq!(
        summary.errored, 0,
        "idle close is not an error: {summary:?}"
    );
}

#[test]
fn the_per_connection_request_cap_closes_politely() {
    let handle = start(ServeConfig {
        max_requests_per_conn: 3,
        ..ServeConfig::default()
    });
    let mut s = connect(handle.addr());
    for i in 0..3 {
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let raw = read_response(&mut s);
        let (status, _) = split_response(&raw);
        assert_eq!(status, 200);
        let expect_keep = i < 2;
        assert_eq!(
            raw.contains("Connection: keep-alive"),
            expect_keep,
            "request {i} of a 3-capped connection: {raw}"
        );
    }
    assert_closed_silently(&mut s);
    let summary = handle.shutdown();
    assert_eq!((summary.accepted, summary.ok), (1, 3), "{summary:?}");
}
