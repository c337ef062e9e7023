//! The traced run: the workloads' seeded requests replayed in-process, one
//! call at a time, through each layer's public function, with a span around
//! every call. The request path mirrors what `rat serve` does per request
//! (read, raw key, raw lookup, parse, canonical key, single-flight begin,
//! compute, render, cache fill, write); queue wait and worker handoff have
//! no public boundary and are not replayed. The fresh requests go into a
//! response cache already at capacity, as in the timed `serve_fresh`
//! window, so their cache writes pay for eviction.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rat_core::engine::{Engine, EngineConfig};
use rat_serve::api::{self, ApiRequest};
use rat_serve::coalesce::Coalescer;
use rat_serve::http::{self, Connection};
use rat_serve::keys;
use rat_serve::respcache::{Lookup, ResponseCache};

use crate::client;
use crate::gen::{self, FreshStream, Request};
use crate::procs;
use crate::stats;
use crate::trace::{Trace, Tracer};
use crate::workloads;

/// Rounds of the 21-body hot set replayed after one untraced warm pass.
pub const HOT_ROUNDS: u64 = 100;
/// Leading requests of the fresh stream replayed.
pub const FRESH_REPLAY: u64 = 2000;
/// `rat help` runs timed for the exec floor.
pub const EXEC_FLOOR_RUNS: u64 = 21;
/// The server's default response-cache budget, which the replay caches use.
pub const RESPONSE_CACHE_BYTES: usize = 16 * 1024 * 1024;

/// Request-id ranges of the replays, so one trace holds them all.
pub const HOT_RIDS: Range<u64> = 0..1 << 32;
/// See [`HOT_RIDS`].
pub const FRESH_RIDS: Range<u64> = 1 << 32..2 << 32;
/// See [`HOT_RIDS`].
pub const CLI_RIDS: Range<u64> = 2 << 32..3 << 32;

/// The paper artifacts in `rat reproduce all` order, with their span names.
pub const ARTIFACTS: [(&str, &str); 13] = [
    ("table1", "bench.artifact.table1"),
    ("table2", "bench.artifact.table2"),
    ("table3", "bench.artifact.table3"),
    ("table4", "bench.artifact.table4"),
    ("table5", "bench.artifact.table5"),
    ("table6", "bench.artifact.table6"),
    ("table7", "bench.artifact.table7"),
    ("table8", "bench.artifact.table8"),
    ("table9", "bench.artifact.table9"),
    ("table10", "bench.artifact.table10"),
    ("figure1", "bench.artifact.figure1"),
    ("figure2", "bench.artifact.figure2"),
    ("figure3", "bench.artifact.figure3"),
];

/// The span around `api::handle` (or the coalesced solve) per mode.
pub fn handle_span(mode: &str) -> &'static str {
    match mode {
        "solve" => "api.handle.solve",
        "sweep" => "api.handle.sweep",
        "uncertainty" => "api.handle.uncertainty",
        "explore" => "api.handle.explore",
        "optimize" => "api.handle.optimize",
        "sensitivity" => "api.handle.sensitivity",
        "simulate" => "api.handle.simulate",
        other => unreachable!("unknown mode {other}"),
    }
}

/// Every compute span: the seven handlers plus the coalesced solve.
pub const COMPUTE_SPANS: [&str; 8] = [
    "coalesce.solve",
    "api.handle.solve",
    "api.handle.sweep",
    "api.handle.uncertainty",
    "api.handle.explore",
    "api.handle.optimize",
    "api.handle.sensitivity",
    "api.handle.simulate",
];

/// The cache-fill spans that together make `respcache.insert`.
pub const INSERT_SPANS: [&str; 3] = [
    "respcache.begin",
    "respcache.complete",
    "respcache.alias_raw",
];

/// The layers on the hot path (raw-tier hit), as `(layer, spans)`.
pub const HOT_PATH: [(&str, &[&str]); 4] = [
    ("http.read_request", &["http.read_request"]),
    ("keys.raw_key", &["keys.raw_key"]),
    ("respcache.lookup_raw", &["respcache.lookup_raw"]),
    ("http.write_json", &["http.write_json"]),
];

/// The layers on the fresh path (miss at both tiers), as `(layer, spans)`.
pub const FRESH_PATH: [(&str, &[&str]); 9] = [
    ("http.read_request", &["http.read_request"]),
    ("keys.raw_key", &["keys.raw_key"]),
    ("respcache.lookup_raw", &["respcache.lookup_raw"]),
    ("api.parse", &["api.parse"]),
    ("keys.request_key", &["keys.request_key"]),
    ("respcache.insert", &INSERT_SPANS),
    ("compute", &COMPUTE_SPANS),
    ("api.to_json", &["api.to_json"]),
    ("http.write_json", &["http.write_json"]),
];

/// A server-side socket and its client over loopback, standing in for one
/// kept-alive connection.
struct Loopback {
    client: TcpStream,
    conn: Connection,
    buf: Vec<u8>,
    served: u64,
}

impl Loopback {
    fn new() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (server, _) = listener.accept()?;
        client.set_nodelay(true)?;
        server.set_nodelay(true)?;
        client.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Loopback {
            client,
            conn: Connection::new(server),
            buf: Vec::new(),
            served: 0,
        })
    }
}

/// Size of the placeholder bodies [`fill_to_capacity`] stores, about that
/// of a typical fresh response, so a full shard holds as many entries.
const FILL_BODY_BYTES: usize = 576;

/// Fill `cache` to the share of its capacity the timed `serve_fresh`
/// window starts at, with placeholder bodies under hashed keys, so the
/// replay's cache writes evict as the server's do in that window.
fn fill_to_capacity(cache: &Arc<ResponseCache>) {
    let body = Arc::new(" ".repeat(FILL_BODY_BYTES));
    let target = workloads::FILL_SHARE * (2 * RESPONSE_CACHE_BYTES) as f64;
    let mut i = 0u64;
    while (cache.stats().bytes as f64) < target {
        for _ in 0..1024 {
            let key = keys::raw_key("/fill", &i.to_string());
            if let Lookup::Miss(guard) = cache.begin(key) {
                guard.complete(Arc::clone(&body));
            }
            cache.alias_raw(key, &body);
            i += 1;
        }
    }
}

/// One server's worth of request-path state.
struct Pipeline {
    engine: Engine,
    cache: Arc<ResponseCache>,
    coalescer: Coalescer,
    wire: Loopback,
}

impl Pipeline {
    fn new() -> std::io::Result<Self> {
        Ok(Pipeline {
            // What `rat serve` gives each worker: the CLI's default config.
            engine: Engine::new(EngineConfig::default()),
            cache: ResponseCache::new(RESPONSE_CACHE_BYTES),
            coalescer: Coalescer::default(),
            wire: Loopback::new()?,
        })
    }

    /// Compute a parsed request the way the server does: solve through the
    /// coalescer, everything else through `api::handle`.
    fn compute(&self, t: &Tracer, rid: u64, parsed: &ApiRequest) -> Result<api::ApiOk, String> {
        let _handle = t.span(handle_span(parsed.mode()), rid);
        match parsed {
            ApiRequest::Solve {
                input,
                target,
                strict,
            } => {
                let quad = {
                    let _s = t.span("coalesce.solve", rid);
                    self.coalescer.solve(input, *target)
                };
                let report = if *strict {
                    api::solve_report_strict_from_quad(input, *target, &quad)
                        .map_err(|e| api::ApiError::Mode(e).message())
                } else {
                    Ok(api::solve_report_from_quad(input, *target, &quad))
                };
                report.map(|report| api::ApiOk {
                    mode: "solve",
                    report,
                })
            }
            _ => api::handle(&self.engine, parsed, Some(fpga_sim::SimCache::global()))
                .map_err(|e| e.message()),
        }
    }

    /// Everything between reading the request and writing the response.
    fn respond(
        &self,
        t: &Tracer,
        rid: u64,
        mode: &str,
        path: &str,
        body: &str,
    ) -> Result<Arc<String>, String> {
        let raw = {
            let _s = t.span("keys.raw_key", rid);
            keys::raw_key(path, body)
        };
        let hit = {
            let _s = t.span("respcache.lookup_raw", rid);
            self.cache.lookup_raw(raw)
        };
        if let Some(body) = hit {
            return Ok(body);
        }
        let parsed = {
            let _s = t.span("api.parse", rid);
            api::parse_mode_request(mode, body)
        }
        .map_err(|e| e.message())?;
        let key = {
            let _s = t.span("keys.request_key", rid);
            keys::request_key(
                &parsed,
                self.engine.config().root_seed,
                self.engine.config().jobs,
            )
        };
        let lookup = {
            let _s = t.span("respcache.begin", rid);
            self.cache.begin(key)
        };
        let body = match lookup {
            Lookup::Hit(body) => body,
            Lookup::Miss(guard) => {
                let ok = self.compute(t, rid, &parsed)?;
                let body = {
                    let _s = t.span("api.to_json", rid);
                    Arc::new(ok.to_json())
                };
                let _s = t.span("respcache.complete", rid);
                guard.complete(Arc::clone(&body));
                body
            }
        };
        let _s = t.span("respcache.alias_raw", rid);
        self.cache.alias_raw(raw, &body);
        Ok(body)
    }

    /// One request over the loopback connection. Returns the response body
    /// the client read, or why the request failed.
    fn round_trip(&mut self, t: &Tracer, rid: u64, req: &Request) -> Result<Vec<u8>, String> {
        let bytes = client::request_bytes("POST", &req.path(), &req.body);
        self.wire
            .client
            .write_all(&bytes)
            .map_err(|e| e.to_string())?;
        let (result, wrote) = {
            let _request = t.span("request", rid);
            let read = {
                let _s = t.span("http.read_request", rid);
                self.wire.conn.read_request(
                    Duration::from_secs(10),
                    Duration::from_secs(10),
                    http::MAX_BODY_BYTES,
                    self.wire.served > 0,
                )
            };
            let result = match read {
                Ok((request, _)) => self.respond(t, rid, req.mode, &request.path, &request.body),
                Err(_) => Err("in-process read_request failed".to_string()),
            };
            let (status, body) = match &result {
                Ok(body) => (200, Arc::clone(body)),
                Err(e) => (500, Arc::new(e.clone())),
            };
            let _s = t.span("http.write_json", rid);
            let wrote = http::write_json(self.wire.conn.stream(), status, &body, true);
            (result, wrote)
        };
        self.wire.served += 1;
        wrote.map_err(|e| e.to_string())?;
        let response = client::read_response(&mut self.wire.client, &mut self.wire.buf)
            .map_err(|e| e.to_string())?;
        result.map(|_| response.body)
    }
}

/// Process CPU one route took in the fresh replay.
#[derive(Debug, Clone, Copy)]
pub struct RouteCpu {
    /// The route's mode.
    pub mode: &'static str,
    /// Requests replayed.
    pub requests: u64,
    /// User+system CPU of this process over those requests, µs.
    pub cpu_us: f64,
}

/// What the traced run measured.
pub struct LayerRun {
    /// Every span.
    pub trace: Trace,
    /// Per-route CPU of the fresh replay, in [`api::MODES`] order.
    pub fresh_cpu: Vec<RouteCpu>,
    /// In-process requests or steps that failed.
    pub failures: Vec<String>,
    /// Whether the in-process `reproduce all` matched the golden output.
    pub artifacts_match_golden: bool,
}

/// Replay the hot set, the fresh stream and the CLI layers under `seed`.
pub fn run(seed: u64, rat: &Path, golden: &str) -> Result<LayerRun, String> {
    let tracer = Tracer::new();
    let mut failures = Vec::new();
    let io = |e: std::io::Error| format!("loopback setup: {e}");

    // Hot: one untraced pass fills the cache, then rounds of raw-tier hits.
    let hot = gen::hot_set(seed);
    let mut p = Pipeline::new().map_err(io)?;
    let warm = Tracer::off();
    for (i, req) in hot.iter().enumerate() {
        if let Err(e) = p.round_trip(&warm, i as u64, req) {
            failures.push(format!("hot warm-up {}: {e}", req.mode));
        }
    }
    let mut rid = HOT_RIDS.start;
    for _ in 0..HOT_ROUNDS {
        for req in &hot {
            if let Err(e) = p.round_trip(&tracer, rid, req) {
                failures.push(format!("hot {}: {e}", req.mode));
            }
            rid += 1;
        }
    }

    // Fresh: the leading requests of the timed stream, each a miss into a
    // full cache, with the process CPU of each request charged to its route.
    let fresh = FreshStream::new(seed);
    let mut p = Pipeline::new().map_err(io)?;
    fill_to_capacity(&p.cache);
    let mut fresh_cpu: Vec<RouteCpu> = api::MODES
        .iter()
        .map(|&mode| RouteCpu {
            mode,
            requests: 0,
            cpu_us: 0.0,
        })
        .collect();
    for i in 0..FRESH_REPLAY {
        let req = fresh.request(i);
        let cpu0 = procs::self_cpu();
        let result = p.round_trip(&tracer, FRESH_RIDS.start + i, &req);
        let cpu = procs::self_cpu().saturating_sub(cpu0);
        if let Some(r) = fresh_cpu.iter_mut().find(|r| r.mode == req.mode) {
            r.requests += 1;
            r.cpu_us += cpu.as_secs_f64() * 1e6;
        }
        if let Err(e) = result {
            failures.push(format!("fresh #{i} {}: {e}", req.mode));
        }
    }
    drop(p);

    // CLI: the paper-scale MD count, each artifact from a cold simulator
    // cache, and the exec floor of a trivial `rat` invocation.
    let rid = CLI_RIDS.start;
    {
        let _s = tracer.span("apps.md_paper_scale", rid);
        std::hint::black_box(rat_apps::md::hw::MdDesign::paper_scale());
    }
    fpga_sim::SimCache::global().clear();
    let mut reproduced = String::new();
    for (id, span) in ARTIFACTS {
        let a = {
            let _s = tracer.span(span, rid + 1);
            rat_bench::artifact(id, false)
        };
        match a {
            Some(a) => {
                reproduced.push_str(&format!("==== {} — {} ====\n{}\n", a.id, a.title, a.body))
            }
            None => failures.push(format!("artifact {id} missing")),
        }
    }
    for i in 0..EXEC_FLOOR_RUNS {
        let mut cmd = procs::rat_command(rat);
        cmd.arg("help");
        let run = {
            let _s = tracer.span("cli.exec_floor", rid + 2 + i);
            procs::run_measured(cmd)
        };
        match run {
            Ok(r) if r.success => {}
            Ok(_) => failures.push("rat help exited non-zero".into()),
            Err(e) => failures.push(e),
        }
    }
    Ok(LayerRun {
        trace: tracer.finish(),
        fresh_cpu,
        failures,
        // The CLI prints the concatenation with one trailing newline more.
        artifacts_match_golden: format!("{reproduced}\n") == golden,
    })
}

impl LayerRun {
    /// Median per-request self time (µs) of the spans in `names` within
    /// `rids`; 0 when no request had such a span.
    pub fn p50_us(&self, names: &[&str], rids: Range<u64>) -> f64 {
        let mut us: Vec<f64> = self
            .trace
            .per_request_self_ns(names, rids)
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect();
        stats::median(&mut us).unwrap_or(0.0)
    }

    /// The predicted per-request time (µs) of a path: the sum of each
    /// layer's median self time.
    pub fn predicted_us(&self, path: &[(&str, &[&str])], rids: Range<u64>) -> f64 {
        path.iter()
            .map(|(_, spans)| self.p50_us(spans, rids.clone()))
            .sum()
    }

    /// Predicted `rat reproduce all` exec-to-exit time (µs): the exec floor
    /// plus every artifact's render time.
    pub fn predicted_cli_us(&self) -> f64 {
        let artifacts: Vec<&str> = ARTIFACTS.iter().map(|(_, s)| *s).collect();
        self.p50_us(&["cli.exec_floor"], CLI_RIDS) + self.p50_us(&artifacts, CLI_RIDS)
    }
}
