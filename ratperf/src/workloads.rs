//! The timed, untraced part of each workload: set-up, closed-loop load
//! against the real `rat` process, and the correctness checks.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rat_core::engine::{Engine, EngineConfig};
use rat_serve::api;

use crate::client::{self, Client};
use crate::gen::{self, FreshStream, Request};
use crate::layers::RESPONSE_CACHE_BYTES;
use crate::procs::{self, ServeProcess};
use crate::scrape::Scrape;
use crate::stats;

/// The workloads, by the names `BENCHMARK.json` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dashboard traffic: a fixed 21-body set, nearly all raw-tier hits.
    ServeHot,
    /// A designer's exploration: every request new.
    ServeFresh,
    /// Sequential `rat reproduce all` runs.
    CliReproduce,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeHot,
        Workload::ServeFresh,
        Workload::CliReproduce,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeFresh => "serve_fresh",
            Workload::CliReproduce => "cli_reproduce",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How many set-ups a run times; `setup_s` is their median.
pub const SERVE_SETUPS: usize = 15;
/// See [`SERVE_SETUPS`]; a CLI set-up is one full `reproduce all`.
pub const CLI_SETUPS: usize = 3;
/// One in this many `serve_fresh` responses is re-rendered in-process and
/// compared byte for byte.
pub const FRESH_SAMPLE_EVERY: u64 = 16;

/// Target length of the equal slices a serve window is cut into.
/// Throughput, p50 and CPU per operation are reported as medians over
/// slices, so a burst of load from elsewhere on the host moves a few slices
/// rather than the result.
pub const SLICE_SECS: f64 = 1.0;

/// The share of the response cache's capacity the `serve_fresh` fill waits
/// for. The cache has two tiers (raw and canonical keys), each with `rat
/// serve`'s default byte budget, and `response_cache_bytes` counts both.
pub const FILL_SHARE: f64 = 0.98;
/// Fresh requests generated once to time the generator.
const GEN_PROBE: u64 = 2000;
const FILL_POLL: Duration = Duration::from_millis(100);
const FILL_LIMIT: Duration = Duration::from_secs(120);

const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One slice of a timed window: a serve slice, or one CLI invocation.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Successful operations that completed in the slice.
    pub ops: u64,
    /// Slice length, s.
    pub secs: f64,
    /// Median latency of those operations, µs.
    pub p50_us: f64,
    /// `rat` CPU time spent in the slice, µs.
    pub cpu_us: f64,
}

/// What the timed part of a run measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Latency of every successful operation, µs.
    pub latencies_us: Vec<f64>,
    /// The window in slices (serve) or per invocation (CLI).
    pub slices: Vec<Slice>,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed (status, I/O, timeout, exit code, or output).
    pub failed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// CPU time of the `rat` process(es) over the window.
    pub cpu: Duration,
    /// Peak RSS of the server, or of the largest CLI child, KiB.
    pub peak_rss_kib: u64,
    /// Duration of each set-up, s.
    pub setups_s: Vec<f64>,
    /// Why things failed (first few), and failed cross-checks.
    pub problems: Vec<String>,
    /// Operations sent per mode in the timed window.
    pub sent: Vec<(&'static str, u64)>,
    /// `/metrics` before and after the window (serve only).
    pub scrapes: Option<(Scrape, Scrape)>,
    /// The response-cache fill before the window (`serve_fresh` only).
    pub fill: Option<Fill>,
    /// What generating and framing one fresh request costs this client,
    /// µs (`serve_fresh` only).
    pub gen_us_per_request: Option<f64>,
    /// Engine jobs and simulator-cache hits/misses summed over CLI runs,
    /// from the stats lines `rat` prints on stderr.
    pub cli_counts: CliCounts,
}

/// The `serve_fresh` response-cache fill.
#[derive(Debug, Clone, Copy)]
pub struct Fill {
    /// Fresh requests sent.
    pub requests: u64,
    /// How long it took, s.
    pub secs: f64,
    /// `response_cache_bytes` at its end.
    pub bytes: f64,
}

/// Work counts a CLI run reports on stderr.
#[derive(Debug, Default, Clone, Copy)]
pub struct CliCounts {
    /// Engine jobs.
    pub engine_jobs: u64,
    /// Simulator-cache hits.
    pub sim_hits: u64,
    /// Simulator-cache misses.
    pub sim_misses: u64,
}

impl Timed {
    /// Successful operations.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }
}

/// The body `rat serve` must send for `req`, rendered in-process.
pub fn expected_body(engine: &Engine, req: &Request) -> Result<Vec<u8>, String> {
    let parsed = api::parse_mode_request(req.mode, &req.body).map_err(|e| e.message())?;
    let ok = api::handle(engine, &parsed, None).map_err(|e| e.message())?;
    Ok(ok.to_json().into_bytes())
}

fn scrape(addr: std::net::SocketAddr) -> Result<Scrape, String> {
    let r = Client::new(addr, IO_TIMEOUT)
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if r.status != 200 {
        return Err(format!("GET /metrics answered {}", r.status));
    }
    Ok(Scrape::parse(&String::from_utf8_lossy(&r.body)))
}

/// Spawn a server, wait for readiness, and send the warm-up pass: each
/// hot-set body once, checked byte for byte.
fn set_up_server(
    rat: &Path,
    workers: usize,
    hot: &[Request],
    expected: &[Vec<u8>],
) -> Result<ServeProcess, String> {
    let server = ServeProcess::spawn(rat, workers)?;
    server.await_ready(IO_TIMEOUT)?;
    let mut c = Client::new(server.addr, IO_TIMEOUT);
    for (req, want) in hot.iter().zip(expected) {
        let r = c
            .post(&req.path(), &req.body)
            .map_err(|e| format!("warm-up {}: {e}", req.mode))?;
        if r.status != 200 || &r.body != want {
            return Err(format!(
                "warm-up {} answered {} with a body that differs from the in-process render",
                req.mode, r.status
            ));
        }
    }
    Ok(server)
}

/// Per-client result of the load loop.
#[derive(Default)]
struct ClientRun {
    /// `(completion time since the loop started in s, latency in µs)` of
    /// every successful operation.
    done: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    status_200: u64,
    failures: Vec<String>,
    sent: Vec<(&'static str, u64)>,
    /// `(index, body)` of sampled fresh responses.
    samples: Vec<(u64, Vec<u8>)>,
}

impl ClientRun {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    fn count_sent(&mut self, mode: &'static str) {
        match self.sent.iter_mut().find(|(m, _)| *m == mode) {
            Some(e) => e.1 += 1,
            None => self.sent.push((mode, 1)),
        }
    }
}

/// What the load clients share.
struct Load<'a> {
    workload: Workload,
    addr: std::net::SocketAddr,
    clients: usize,
    hot: &'a [Request],
    hot_framed: &'a [Vec<u8>],
    expected: &'a [Vec<u8>],
    fresh: &'a FreshStream,
    /// The next fresh index to send; the fill and the window share it, so
    /// no fresh request is ever sent twice.
    next_fresh: AtomicU64,
}

impl Load<'_> {
    /// One closed-loop keep-alive client, until `stop` is set.
    fn client(&self, c: usize, start: Instant, stop: &AtomicBool) -> ClientRun {
        let mut run = ClientRun::default();
        let mut client = Client::new(self.addr, IO_TIMEOUT);
        let mut k = c * self.hot.len() / self.clients;
        while !stop.load(Ordering::Relaxed) {
            if let Err(e) = client.connect() {
                run.attempted += 1;
                run.fail(format!("connect: {e}"));
                continue;
            }
            let (mode, index, framed) = match self.workload {
                Workload::ServeHot => {
                    let i = k % self.hot.len();
                    k += 1;
                    (
                        self.hot[i].mode,
                        i as u64,
                        std::borrow::Cow::Borrowed(&self.hot_framed[i]),
                    )
                }
                _ => {
                    let i = self.next_fresh.fetch_add(1, Ordering::Relaxed);
                    let req = self.fresh.request(i);
                    let bytes = client::request_bytes("POST", &req.path(), &req.body);
                    (req.mode, i, std::borrow::Cow::Owned(bytes))
                }
            };
            run.count_sent(mode);
            run.attempted += 1;
            let t = Instant::now();
            let result = client.send(&framed);
            let us = t.elapsed().as_secs_f64() * 1e6;
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    run.fail(format!("{mode}: {e}"));
                    continue;
                }
            };
            if r.status == 200 {
                run.status_200 += 1;
            }
            let good = r.status == 200
                && match self.workload {
                    Workload::ServeHot => r.body == self.expected[index as usize],
                    _ => r
                        .body
                        .starts_with(format!("{{\"mode\": \"{mode}\",").as_bytes()),
                };
            if !good {
                run.fail(format!(
                    "{mode} #{index}: status {} or wrong body",
                    r.status
                ));
                continue;
            }
            run.done.push(((t - start).as_secs_f64() + us / 1e6, us));
            if self.workload == Workload::ServeFresh
                && self.fresh.sampled(index, FRESH_SAMPLE_EVERY)
            {
                run.samples.push((index, r.body));
            }
        }
        run
    }

    /// Run the clients while `main` runs on this thread; stop them when it
    /// returns.
    fn drive<R>(&self, start: Instant, main: impl FnOnce() -> R) -> (Vec<ClientRun>, R) {
        let stop = AtomicBool::new(false);
        std::thread::scope(|sc| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    let stop = &stop;
                    sc.spawn(move || self.client(c, start, stop))
                })
                .collect();
            let out = main();
            stop.store(true, Ordering::Relaxed);
            let runs = handles
                .into_iter()
                .map(|h| h.join().expect("load client panicked"))
                .collect();
            (runs, out)
        })
    }
}

/// Send the fresh stream until the server's response cache holds
/// [`FILL_SHARE`] of its capacity, so every timed slice falls in the
/// eviction regime and none in the cheaper fill-up before it. Returns the
/// client runs, the `/metrics` scrapes it took, and the bytes it saw last.
fn fill_response_cache(load: &Load) -> Result<(Vec<ClientRun>, u64, f64), String> {
    let target = FILL_SHARE * (2 * RESPONSE_CACHE_BYTES) as f64;
    let start = Instant::now();
    let (runs, polled) = load.drive(start, || {
        let mut scrapes = 0;
        loop {
            std::thread::sleep(FILL_POLL);
            let s = scrape(load.addr)?;
            scrapes += 1;
            let bytes = s.get("response_cache_bytes");
            if bytes >= target {
                return Ok((scrapes, bytes));
            }
            if start.elapsed() > FILL_LIMIT {
                return Err(format!(
                    "the response cache held {bytes} of {target} bytes after {} s of fill",
                    FILL_LIMIT.as_secs()
                ));
            }
        }
    });
    let (scrapes, bytes) = polled?;
    Ok((runs, scrapes, bytes))
}

/// Compare sampled fresh response `index` with its in-process render.
fn check_sample(
    engine: &Engine,
    fresh: &FreshStream,
    index: u64,
    body: &[u8],
) -> Result<(), String> {
    let req = fresh.request(index);
    match expected_body(engine, &req) {
        Ok(want) if want == body => Ok(()),
        Ok(_) => Err(format!(
            "fresh #{index} ({}) differs from the in-process render",
            req.mode
        )),
        Err(e) => Err(format!(
            "fresh #{index} ({}) fails in-process: {e}",
            req.mode
        )),
    }
}

/// Run a serve workload: set up [`SERVE_SETUPS`] times, then drive the last
/// server with `clients` closed-loop keep-alive clients for `seconds`.
/// `serve_fresh` first fills the response cache (see
/// [`fill_response_cache`]).
pub fn run_serve(
    workload: Workload,
    rat: &Path,
    seed: u64,
    seconds: f64,
    clients: usize,
) -> Result<Timed, String> {
    let hot = gen::hot_set(seed);
    let engine = Engine::new(EngineConfig::default());
    let expected = hot
        .iter()
        .map(|r| expected_body(&engine, r))
        .collect::<Result<Vec<_>, _>>()?;
    let hot_framed: Vec<Vec<u8>> = hot
        .iter()
        .map(|r| client::request_bytes("POST", &r.path(), &r.body))
        .collect();
    let fresh = FreshStream::new(seed);

    let mut timed = Timed::default();
    if workload == Workload::ServeFresh {
        let start = Instant::now();
        for i in 0..GEN_PROBE {
            let req = fresh.request(i);
            std::hint::black_box(client::request_bytes("POST", &req.path(), &req.body));
        }
        timed.gen_us_per_request = Some(start.elapsed().as_secs_f64() * 1e6 / GEN_PROBE as f64);
    }
    let mut server = None;
    for k in 0..SERVE_SETUPS {
        let start = Instant::now();
        let s = set_up_server(rat, clients, &hot, &expected)?;
        timed.setups_s.push(start.elapsed().as_secs_f64());
        if k + 1 < SERVE_SETUPS {
            s.shutdown(IO_TIMEOUT)?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let pid = server.pid();
    let load = Load {
        workload,
        addr: server.addr,
        clients,
        hot: &hot,
        hot_framed: &hot_framed,
        expected: &expected,
        fresh: &fresh,
        next_fresh: AtomicU64::new(0),
    };

    let mut runs = Vec::new();
    // Responses with status 200 the server sends outside the window: one
    // readiness probe, the warm-up pass, and the scrapes before it.
    let mut outside_200 = 1 + hot.len() as u64 + 1;
    if workload == Workload::ServeFresh {
        let start = Instant::now();
        let (fill_runs, scrapes, bytes) = fill_response_cache(&load)?;
        let requests: u64 = fill_runs.iter().map(|r| r.attempted).sum();
        outside_200 += scrapes + fill_runs.iter().map(|r| r.status_200).sum::<u64>();
        timed.fill = Some(Fill {
            requests,
            secs: start.elapsed().as_secs_f64(),
            bytes,
        });
        runs.extend(fill_runs);
    }

    let before = scrape(server.addr)?;
    let cpu0 = procs::process_cpu(pid)?;
    let start = Instant::now();
    let slices = ((seconds / SLICE_SECS).round() as usize).max(1);
    let slice_secs = seconds / slices as f64;
    let (window_runs, cpu_marks) = load.drive(start, || {
        (1..=slices)
            .map(|k| {
                let at = start + Duration::from_secs_f64(slice_secs * k as f64);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                procs::process_cpu(pid)
            })
            .collect::<Vec<_>>()
    });
    timed.window = start.elapsed();
    timed.cpu = procs::process_cpu(pid)?.saturating_sub(cpu0);
    timed.peak_rss_kib = procs::peak_rss_kib(pid)?;
    let after = scrape(server.addr)?;
    server.shutdown(IO_TIMEOUT)?;

    let cpu_marks: Vec<Duration> = std::iter::once(Ok(cpu0))
        .chain(cpu_marks)
        .collect::<Result<_, _>>()?;
    // The fill is checked like the window, but only the window's
    // operations are counted and timed, so fill failures are problems.
    for run in runs {
        for f in run.failures {
            timed.problems.push(format!("fill: {f}"));
        }
        for (index, body) in run.samples {
            if let Err(e) = check_sample(&engine, &fresh, index, &body) {
                timed.problems.push(format!("fill: {e}"));
            }
        }
    }
    let mut samples = Vec::new();
    let mut status_200 = 0;
    let mut done = Vec::new();
    for run in window_runs {
        done.extend(run.done);
        timed.attempted += run.attempted;
        timed.failed += run.failed;
        status_200 += run.status_200;
        for (mode, n) in run.sent {
            match timed.sent.iter_mut().find(|(m, _)| *m == mode) {
                Some(e) => e.1 += n,
                None => timed.sent.push((mode, n)),
            }
        }
        timed.problems.extend(
            run.failures
                .into_iter()
                .take(8 - timed.problems.len().min(8)),
        );
        samples.extend(run.samples);
    }
    timed
        .sent
        .sort_by_key(|(m, _)| api::MODES.iter().position(|x| x == m));
    timed.latencies_us = done.iter().map(|&(_, us)| us).collect();
    timed.slices = (0..slices)
        .map(|k| {
            let (lo, hi) = (slice_secs * k as f64, slice_secs * (k + 1) as f64);
            let mut lat: Vec<f64> = done
                .iter()
                .filter(|&&(at, _)| at >= lo && at < hi)
                .map(|&(_, us)| us)
                .collect();
            Slice {
                ops: lat.len() as u64,
                secs: slice_secs,
                p50_us: stats::median(&mut lat).unwrap_or(0.0),
                cpu_us: (cpu_marks[k + 1].saturating_sub(cpu_marks[k])).as_secs_f64() * 1e6,
            }
        })
        .collect();

    // Sampled fresh responses, re-rendered in-process after the window.
    for (index, body) in samples {
        if let Err(e) = check_sample(&engine, &fresh, index, &body) {
            timed.fail(e);
        }
    }

    // The server must have answered exactly what the client saw.
    let expect_200 = outside_200 + status_200;
    if after.ok_responses() as u64 != expect_200 {
        timed.problems.push(format!(
            "server counted {} responses with status 200, client expected {expect_200}",
            after.ok_responses()
        ));
    }
    timed.scrapes = Some((before, after));
    Ok(timed)
}

fn parse_cli_counts(stderr: &str) -> CliCounts {
    let mut c = CliCounts::default();
    let num_before = |line: &str, word: &str| -> u64 {
        line.split(word)
            .next()
            .and_then(|head| head.split_whitespace().last())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    };
    for line in stderr.lines() {
        if let Some(rest) = line.strip_prefix("engine: ") {
            c.engine_jobs += num_before(rest, " jobs");
        } else if let Some(rest) = line.strip_prefix("sim cache: ") {
            c.sim_hits += num_before(rest, " hit(s)");
            c.sim_misses += rest
                .split(", ")
                .nth(1)
                .map_or(0, |m| num_before(m, " miss(es)"));
        }
    }
    c
}

/// Run `cli_reproduce`: [`CLI_SETUPS`] untimed invocations, then
/// sequential timed ones for `seconds`, each checked against the golden
/// output.
pub fn run_cli(rat: &Path, seconds: f64, golden: &str) -> Result<Timed, String> {
    let reproduce = || {
        let mut cmd = procs::rat_command(rat);
        cmd.args(["reproduce", "all"]);
        cmd
    };
    let mut timed = Timed::default();
    for _ in 0..CLI_SETUPS {
        let start = Instant::now();
        let run = procs::run_measured(reproduce())?;
        timed.setups_s.push(start.elapsed().as_secs_f64());
        if !run.success || run.stdout != golden.as_bytes() {
            return Err(
                "set-up `rat reproduce all` failed or differs from the golden output".into(),
            );
        }
    }
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        timed.attempted += 1;
        timed.sent = vec![("reproduce", timed.attempted)];
        let run = match procs::run_measured(reproduce()) {
            Ok(r) => r,
            Err(e) => {
                timed.fail(e);
                continue;
            }
        };
        timed.cpu += run.cpu;
        timed.peak_rss_kib = timed.peak_rss_kib.max(run.maxrss_kib);
        if !run.success {
            timed.fail("rat reproduce all exited non-zero".into());
        } else if run.stdout != golden.as_bytes() {
            timed.fail("rat reproduce all differs from the golden output".into());
        } else {
            let counts = parse_cli_counts(&String::from_utf8_lossy(&run.stderr));
            timed.cli_counts.engine_jobs += counts.engine_jobs;
            timed.cli_counts.sim_hits += counts.sim_hits;
            timed.cli_counts.sim_misses += counts.sim_misses;
            let us = run.wall.as_secs_f64() * 1e6;
            timed.latencies_us.push(us);
            timed.slices.push(Slice {
                ops: 1,
                secs: run.wall.as_secs_f64(),
                p50_us: us,
                cpu_us: run.cpu.as_secs_f64() * 1e6,
            });
        }
    }
    timed.window = start.elapsed();
    Ok(timed)
}
