//! The `rat bench --serve` load generator.
//!
//! Two in-process servers, one workload, four measurements:
//!
//! 1. **Close-per-request baseline**: a server with the response cache
//!    disabled, every request on a fresh connection — the pre-keep-alive
//!    serving path, preserved as the honest comparison point.
//! 2. **Keep-alive mixed load**: the full server (response cache on),
//!    persistent connections, the same request mix with heavy
//!    duplication across clients — the shape a dashboard or sweep driver
//!    actually produces. The RPS ratio between the two phases is the
//!    tentpole evidence (`keepalive_vs_close_rps`, gated ≥ 3x).
//! 3. **Warm repeat latency**: the p50 of one identical request repeated on
//!    a warm connection, against the cached server vs the uncached baseline
//!    (`warm_cached_speedup`, gated ≥ 5x).
//! 4. **Warm server vs cold CLI**: the p50 of a cached `solve` against the
//!    warm server vs spawning a cold `rat solve` process (the resident-
//!    service ratio earlier evidence pinned at ≥ 10x).
//!
//! Clients are honest HTTP/1.1 citizens: framed reads (never trusting EOF),
//! reconnect when the server says `Connection: close`, and split timings so
//! connect() cost is visible separately from request round-trips.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::api::escape_json;
use crate::server::{ServeConfig, Server};

/// Results of one load-generation run. All latencies in microseconds.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Whether this was the reduced-size quick run.
    pub quick: bool,
    /// Keep-alive mixed-load requests completed (all 200s).
    pub requests: u64,
    /// Wall time for the keep-alive mixed-load phase, milliseconds.
    pub wall_ms: f64,
    /// Keep-alive mixed-load throughput, requests per second.
    pub rps: f64,
    /// Close-per-request baseline requests completed.
    pub close_requests: u64,
    /// Close-per-request baseline throughput, requests per second.
    pub close_rps: f64,
    /// `rps / close_rps` — the serving-path overhaul's headline ratio,
    /// gated ≥ 3x by the perf gate.
    pub keepalive_vs_close_rps: f64,
    /// Fraction of keep-alive-phase requests that reused an existing
    /// connection: `(requests - connects) / requests`.
    pub reuse_ratio: f64,
    /// Median `TcpStream::connect` time across both phases.
    pub connect_p50_us: f64,
    /// Keep-alive mixed-load median latency (request write → full response).
    pub p50_us: f64,
    /// Keep-alive mixed-load 99th percentile latency.
    pub p99_us: f64,
    /// Keep-alive mixed-load 99.9th percentile latency.
    pub p999_us: f64,
    /// p50 of an identical repeated request against the uncached baseline
    /// server (recomputed every time) on a warm connection.
    pub warm_uncached_p50_us: f64,
    /// p50 of the same repeated request against the cached server (rendered
    /// once, replayed from the response cache) on a warm connection.
    pub warm_cached_p50_us: f64,
    /// `warm_uncached_p50_us / warm_cached_p50_us` — gated ≥ 5x.
    pub warm_cached_speedup: f64,
    /// p50 of a cached `solve` against the warm server.
    pub warm_solve_p50_us: f64,
    /// p50 of a cold `rat solve` process invocation (fork+exec+parse+solve).
    pub cold_cli_solve_p50_us: f64,
    /// `cold_cli_solve_p50_us / warm_solve_p50_us` — the resident-service
    /// speedup earlier evidence pinned at ≥ 10x.
    pub warm_vs_cold: f64,
}

/// Exact percentile of a latency sample (nearest-rank), in microseconds.
pub fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize).max(1);
    samples[rank.min(samples.len()) - 1] as f64
}

/// A measuring HTTP/1.1 client: persistent connection (when `keep_alive`),
/// `Content-Length`-framed response reads with a carry-over buffer, and
/// split connect vs request timing.
struct HttpClient {
    addr: SocketAddr,
    keep_alive: bool,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Times a connection was (re)established.
    connects: u64,
    /// Requests completed.
    requests: u64,
    /// Each connect() duration, microseconds.
    connect_us: Vec<u64>,
}

impl HttpClient {
    fn new(addr: SocketAddr, keep_alive: bool) -> Self {
        HttpClient {
            addr,
            keep_alive,
            stream: None,
            buf: Vec::new(),
            connects: 0,
            requests: 0,
            connect_us: Vec::new(),
        }
    }

    fn ensure_connected(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            let t = Instant::now();
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.connect_us
                .push(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
            self.connects += 1;
            self.buf.clear();
            self.stream = Some(s);
        }
        Ok(())
    }

    /// POST and return `(status, body)`. Reconnects transparently if a
    /// reused connection was closed under us (idle deadline, request cap).
    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let connection = if self.keep_alive {
            ""
        } else {
            "Connection: close\r\n"
        };
        let request = format!(
            "POST {path} HTTP/1.1\r\n{connection}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut retried = false;
        loop {
            let reused = self.stream.is_some();
            self.ensure_connected()?;
            match self.try_round_trip(request.as_bytes()) {
                Ok((status, body, close)) => {
                    if close || !self.keep_alive {
                        self.stream = None;
                        self.buf.clear();
                    }
                    self.requests += 1;
                    return Ok((status, body));
                }
                Err(e) if reused && !retried => {
                    // The server may close a kept-alive connection at any
                    // time (idle, per-connection cap); one clean retry on a
                    // fresh socket is the contract-following response.
                    retried = true;
                    self.stream = None;
                    self.buf.clear();
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn try_round_trip(&mut self, request: &[u8]) -> std::io::Result<(u16, String, bool)> {
        let stream = self.stream.as_mut().expect("connected");
        stream.write_all(request)?;

        // Head: grow the carry-over buffer until the blank line.
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before response head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut content_length = 0usize;
        let mut close = !self.keep_alive;
        for line in head.lines() {
            if let Some((name, value)) = line.split_once(':') {
                let (name, value) = (name.trim(), value.trim());
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().unwrap_or(0);
                } else if name.eq_ignore_ascii_case("connection")
                    && value.eq_ignore_ascii_case("close")
                {
                    close = true;
                }
            }
        }
        self.buf.drain(..head_end);

        // Body: buffered bytes first, then exact reads — never past the end,
        // so a pipelined next response (there is none, but the framing must
        // not depend on that) would survive in the buffer.
        while self.buf.len() < content_length {
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[..content_length]).into_owned();
        self.buf.drain(..content_length);
        Ok((status, body, close))
    }
}

fn solve_body(ws_toml: &str) -> String {
    format!(
        "{{\"worksheet_toml\": \"{}\", \"target\": 8.0}}",
        escape_json(ws_toml)
    )
}

/// The mixed-mode request set: one body per analysis mode on the shipped
/// pdf1d worksheet, a cached simulation point, and a small seeded optimize —
/// fired repeatedly by every client, so the stream is duplicate-heavy the
/// way real dashboard traffic is.
fn mixed_bodies(ws_toml: &str) -> Vec<(&'static str, String)> {
    let ws = escape_json(ws_toml);
    vec![
        ("/v1/solve", solve_body(ws_toml)),
        (
            "/v1/sweep",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"param\": \"fclock\", \
                 \"values\": [100e6, 150e6, 200e6, 250e6]}}"
            ),
        ),
        (
            "/v1/sensitivity",
            format!("{{\"worksheet_toml\": \"{ws}\"}}"),
        ),
        (
            "/v1/uncertainty",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"samples\": 256, \
                 \"ranges\": [{{\"param\": \"alpha\", \"lo\": 0.5, \"hi\": 1.0}}]}}"
            ),
        ),
        (
            "/v1/explore",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"min_speedup\": 5.0, \
                 \"fclocks\": [100e6, 150e6, 200e6]}}"
            ),
        ),
        (
            "/v1/simulate",
            "{\"app\": \"pdf1d\", \"mhz\": 150.0}".into(),
        ),
        (
            "/v1/optimize",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"seed\": 7, \
                 \"generations\": 2, \"population\": 16}}"
            ),
        ),
    ]
}

/// What one load phase measured.
struct PhaseStats {
    latencies_us: Vec<u64>,
    wall: Duration,
    requests: u64,
    connects: u64,
    connect_us: Vec<u64>,
}

/// Fire `per_client` requests from each of `clients` threads at `addr`,
/// walking the shared body list round-robin from a per-client offset.
fn run_phase(
    addr: SocketAddr,
    bodies: &[(&'static str, String)],
    clients: usize,
    per_client: usize,
    keep_alive: bool,
) -> std::io::Result<PhaseStats> {
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = bodies.to_vec();
            std::thread::spawn(move || -> std::io::Result<(Vec<u64>, u64, u64, Vec<u64>)> {
                let mut client = HttpClient::new(addr, keep_alive);
                let mut lat = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let (path, body) = &bodies[(c + i) % bodies.len()];
                    let t = Instant::now();
                    let (status, resp) = client.post(path, body)?;
                    assert_eq!(status, 200, "load request failed ({path}): {resp}");
                    lat.push(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
                }
                Ok((lat, client.requests, client.connects, client.connect_us))
            })
        })
        .collect();
    let mut stats = PhaseStats {
        latencies_us: Vec::new(),
        wall: Duration::ZERO,
        requests: 0,
        connects: 0,
        connect_us: Vec::new(),
    };
    for t in threads {
        let (lat, requests, connects, connect_us) = t.join().expect("load client panicked")?;
        stats.latencies_us.extend(lat);
        stats.requests += requests;
        stats.connects += connects;
        stats.connect_us.extend(connect_us);
    }
    stats.wall = started.elapsed();
    Ok(stats)
}

/// p50 of `n` sequential repeats of one request on a warm keep-alive
/// connection — the per-request cost with connect() amortized away.
fn warm_repeat_p50(addr: SocketAddr, path: &str, body: &str, n: usize) -> std::io::Result<f64> {
    let mut client = HttpClient::new(addr, true);
    // One untimed request to warm the connection and (when enabled) the
    // response cache.
    let (status, resp) = client.post(path, body)?;
    assert_eq!(status, 200, "warm-up request failed: {resp}");
    let mut lat = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let (status, resp) = client.post(path, body)?;
        assert_eq!(status, 200, "warm repeat failed: {resp}");
        lat.push(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    Ok(percentile_us(&mut lat, 0.50))
}

/// Run the load generator. `rat_binary` is the compiled CLI used for the
/// cold-process comparison (the CLI passes its own `current_exe`). `quick`
/// shrinks every phase for CI smoke tests.
pub fn run(rat_binary: &Path, quick: bool) -> std::io::Result<LoadReport> {
    let ws_toml =
        toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).expect("worksheet serializes");

    // A worksheet file for the cold CLI runs.
    let ws_path = std::env::temp_dir().join(format!("rat-serve-bench-{}.toml", std::process::id()));
    std::fs::write(&ws_path, &ws_toml)?;

    let (clients, per_client, warm_n, cold_n) = if quick {
        (2usize, 30usize, 30usize, 3usize)
    } else {
        (4, 250, 200, 9)
    };
    let bodies = mixed_bodies(&ws_toml);
    // The repeated-identical-request probe: a Monte-Carlo body heavy enough
    // that recomputing it is real work, exactly the kind of request a
    // polling dashboard repeats.
    let warm_probe = (
        "/v1/uncertainty",
        format!(
            "{{\"worksheet_toml\": \"{}\", \"samples\": 4096, \
             \"ranges\": [{{\"param\": \"alpha\", \"lo\": 0.5, \"hi\": 1.0}}]}}",
            escape_json(&ws_toml)
        ),
    );

    // Phase 1: the close-per-request, no-response-cache baseline server.
    let baseline = Server::start(ServeConfig {
        workers: 4,
        response_cache_bytes: 0,
        ..ServeConfig::default()
    })?;
    let close_stats = run_phase(baseline.addr(), &bodies, clients, per_client, false)?;
    let warm_uncached_p50_us =
        warm_repeat_p50(baseline.addr(), warm_probe.0, &warm_probe.1, warm_n)?;
    baseline.shutdown();

    // Phase 2: the full server — keep-alive and the response cache.
    let handle = Server::start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })?;
    let addr = handle.addr();
    let keep_stats = run_phase(addr, &bodies, clients, per_client, true)?;
    let warm_cached_p50_us = warm_repeat_p50(addr, warm_probe.0, &warm_probe.1, warm_n)?;

    // Phase 3: warm cached solve, sequential, exact latencies — the
    // longstanding warm-server-vs-cold-CLI probe.
    let warm_body = solve_body(&ws_toml);
    let mut warm_client = HttpClient::new(addr, true);
    let mut warm = Vec::with_capacity(warm_n);
    for _ in 0..warm_n {
        let t = Instant::now();
        let (status, resp) = warm_client.post("/v1/solve", &warm_body)?;
        assert_eq!(status, 200, "warm solve failed: {resp}");
        warm.push(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
    }

    handle.shutdown();

    // Phase 4: cold CLI process invocations of the same solve.
    let mut cold = Vec::with_capacity(cold_n);
    for _ in 0..cold_n {
        let t = Instant::now();
        let out = std::process::Command::new(rat_binary)
            .arg("solve")
            .arg(&ws_path)
            .arg("8")
            .output()?;
        assert!(
            out.status.success(),
            "cold `rat solve` failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        cold.push(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    let _ = std::fs::remove_file(&ws_path);

    let mut mixed = keep_stats.latencies_us.clone();
    let mut connect_all: Vec<u64> = close_stats
        .connect_us
        .iter()
        .chain(&keep_stats.connect_us)
        .copied()
        .collect();
    let requests = keep_stats.requests;
    let close_requests = close_stats.requests;
    let rps = requests as f64 / keep_stats.wall.as_secs_f64().max(1e-9);
    let close_rps = close_requests as f64 / close_stats.wall.as_secs_f64().max(1e-9);
    let warm_solve_p50_us = percentile_us(&mut warm, 0.50);
    let cold_cli_solve_p50_us = percentile_us(&mut cold, 0.50);
    Ok(LoadReport {
        quick,
        requests,
        wall_ms: keep_stats.wall.as_secs_f64() * 1e3,
        rps,
        close_requests,
        close_rps,
        keepalive_vs_close_rps: rps / close_rps.max(1e-9),
        reuse_ratio: (requests.saturating_sub(keep_stats.connects)) as f64
            / (requests as f64).max(1.0),
        connect_p50_us: percentile_us(&mut connect_all, 0.50),
        p50_us: percentile_us(&mut mixed, 0.50),
        p99_us: percentile_us(&mut mixed, 0.99),
        p999_us: percentile_us(&mut mixed, 0.999),
        warm_uncached_p50_us,
        warm_cached_p50_us,
        warm_cached_speedup: warm_uncached_p50_us / warm_cached_p50_us.max(1.0),
        warm_solve_p50_us,
        cold_cli_solve_p50_us,
        warm_vs_cold: cold_cli_solve_p50_us / warm_solve_p50_us.max(1.0),
    })
}

impl LoadReport {
    /// Human-readable rendering for `rat bench --serve` without `--json`.
    pub fn render(&self) -> String {
        format!(
            "serve load{}: {} keep-alive requests in {:.1} ms ({:.0} req/s)\n\
             \x20 close-per-request baseline: {} requests at {:.0} req/s -> keep-alive {:.1}x\n\
             \x20 connection reuse: {:.3} (connect p50 {:.0} us)\n\
             \x20 mixed-mode latency: p50 {:.0} us | p99 {:.0} us | p999 {:.0} us\n\
             \x20 repeated request p50: uncached {:.0} us vs cached {:.0} us ({:.1}x)\n\
             \x20 cached solve p50: warm server {:.0} us vs cold CLI {:.0} us ({:.1}x)\n",
            if self.quick { " (quick)" } else { "" },
            self.requests,
            self.wall_ms,
            self.rps,
            self.close_requests,
            self.close_rps,
            self.keepalive_vs_close_rps,
            self.reuse_ratio,
            self.connect_p50_us,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.warm_uncached_p50_us,
            self.warm_cached_p50_us,
            self.warm_cached_speedup,
            self.warm_solve_p50_us,
            self.cold_cli_solve_p50_us,
            self.warm_vs_cold,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![50, 10, 30, 20, 40];
        assert_eq!(percentile_us(&mut v, 0.50), 30.0);
        assert_eq!(percentile_us(&mut v, 0.99), 50.0);
        assert_eq!(percentile_us(&mut v, 0.0), 10.0);
        assert_eq!(percentile_us(&mut [], 0.5), 0.0);
    }

    #[test]
    fn keep_alive_client_reuses_its_connection() {
        let handle = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let mut client = HttpClient::new(handle.addr(), true);
        let body = "{\"app\": \"sort\", \"mhz\": 147.0}";
        for _ in 0..5 {
            let (status, _) = client.post("/v1/simulate", body).expect("request");
            assert_eq!(status, 200);
        }
        assert_eq!(client.requests, 5);
        assert_eq!(client.connects, 1, "keep-alive client reconnected");
        handle.shutdown();
    }

    #[test]
    fn close_client_reconnects_every_request() {
        let handle = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let mut client = HttpClient::new(handle.addr(), false);
        let body = "{\"app\": \"sort\", \"mhz\": 147.0}";
        for _ in 0..3 {
            let (status, _) = client.post("/v1/simulate", body).expect("request");
            assert_eq!(status, 200);
        }
        assert_eq!(client.connects, 3, "close client must not reuse");
        assert_eq!(client.connect_us.len(), 3);
        handle.shutdown();
    }

    #[test]
    fn keep_alive_client_survives_a_server_side_close() {
        let handle = Server::start(ServeConfig {
            workers: 1,
            max_requests_per_conn: 2,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let mut client = HttpClient::new(handle.addr(), true);
        let body = "{\"app\": \"sort\", \"mhz\": 147.0}";
        for _ in 0..5 {
            let (status, _) = client.post("/v1/simulate", body).expect("request");
            assert_eq!(status, 200);
        }
        // Cap of 2 per connection → 5 requests need 3 connections, and the
        // reconnects are transparent.
        assert_eq!(client.requests, 5);
        assert_eq!(client.connects, 3);
        handle.shutdown();
    }
}
