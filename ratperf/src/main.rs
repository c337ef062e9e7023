//! `ratperf`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path ratperf/Cargo.toml -- \
//!     --workload <serve_hot|serve_fresh|cli_reproduce|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the root of a checkout. It builds release `rat` from that tree,
//! runs the workload against it, prints a human-readable report, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}` —
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ratperf::layers::{self, LayerRun, CLI_RIDS, FRESH_PATH, FRESH_RIDS, HOT_PATH, HOT_RIDS};
use ratperf::procs;
use ratperf::scrape::Scrape;
use ratperf::stats;
use ratperf::trace;
use ratperf::workloads::{self, Timed, Workload};

const GOLDEN: &str = include_str!("../../crates/bench/tests/golden/reproduce_all.txt");

/// Empty spans timed to report what one recorded span costs.
const SPAN_COST_SAMPLES: usize = 50_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (serve_hot, serve_fresh, cli_reproduce or all)".into());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Non-finite values cannot be written as JSON numbers; they only arise
/// when nothing succeeded, which already makes the run incorrect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A 128-bit digest of the source tree `rat` is built from, so numbers from
/// a checkout that is not a git repository still name their code.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "src", "vendor"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut d = fpga_sim::SpecDigest::new();
    for f in files {
        d.write_str(&f.strip_prefix(root).unwrap_or(&f).to_string_lossy());
        d.write_bytes(&std::fs::read(&f).unwrap_or_default());
    }
    format!("{:032x}", d.finish())
}

fn provenance(root: &Path, rat: &Path, args: &Args, workload: Workload, timed: &Timed) -> String {
    let mut p = String::from("provenance:\n");
    let _ = writeln!(p, "  workload            {}", workload.name());
    let _ = writeln!(p, "  seed                {}", args.seed);
    let _ = writeln!(
        p,
        "  timed window        {} s requested, {:.3} s measured",
        args.seconds,
        timed.window.as_secs_f64()
    );
    let _ = writeln!(p, "  nproc               {}", nproc());
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        is_x86_feature_detected!("avx2"),
        is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    let _ = writeln!(p, "  avx2 / fma          {avx2} / {fma}");
    let _ = writeln!(
        p,
        "  rustc               {}",
        command_line("rustc", &["-V"], root).unwrap_or_else(|| "unavailable".into())
    );
    let _ = writeln!(
        p,
        "  commit              {}",
        // Only the checkout's own repository names its commit; git would
        // otherwise answer for any repository enclosing it.
        root.join(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "HEAD"], root))
            .flatten()
            .unwrap_or_else(|| "unavailable (not a git checkout)".into())
    );
    let _ = writeln!(p, "  source digest       {}", source_digest(root));
    let _ = writeln!(
        p,
        "  RAT_FORCE_SCALAR    {}",
        std::env::var("RAT_FORCE_SCALAR").unwrap_or_else(|_| "unset".into())
    );
    let _ = writeln!(
        p,
        "  rat binary          {} (release, built from this tree)",
        rat.strip_prefix(root).unwrap_or(rat).display()
    );
    if workload != Workload::CliReproduce {
        let _ = writeln!(
            p,
            "  load                {} closed-loop keep-alive clients, {} server workers",
            nproc(),
            nproc()
        );
    }
    let total: u64 = timed.sent.iter().map(|(_, n)| n).sum();
    let shares: Vec<String> = timed
        .sent
        .iter()
        .map(|(m, n)| format!("{m} {:.1}% ({n})", 100.0 * ratio(*n as f64, total as f64)))
        .collect();
    let _ = writeln!(p, "  route shares        {}", shares.join(", "));
    if workload == Workload::ServeFresh {
        let sched: Vec<String> = ratperf::gen::FRESH_SHARES
            .iter()
            .map(|(m, n)| format!("{m} {n}"))
            .collect();
        let _ = writeln!(p, "  fresh schedule      per 100: {}", sched.join(", "));
    }
    p
}

struct EndToEnd {
    json: Vec<Metric>,
    client_p50_us: f64,
}

fn end_to_end(workload: Workload, timed: &Timed, out: &mut String) -> EndToEnd {
    let slice_median = |f: &dyn Fn(&workloads::Slice) -> f64| {
        let mut v: Vec<f64> = timed.slices.iter().filter(|s| s.ops > 0).map(f).collect();
        stats::median(&mut v).unwrap_or(0.0)
    };
    let throughput = slice_median(&|s| s.ops as f64 / s.secs);
    let p50 = slice_median(&|s| s.p50_us);
    let cpu = slice_median(&|s| s.cpu_us / s.ops as f64);
    let mut lat = timed.latencies_us.clone();
    let p99 = stats::quantile(&mut lat, 0.99).unwrap_or(0.0);
    let beyond = stats::count_above(&lat, p99);
    let rss = timed.peak_rss_kib as f64 / 1024.0;
    let setup = stats::median(&mut timed.setups_s.clone()).unwrap_or(0.0);
    let error_rate = ratio(timed.failed as f64, timed.attempted as f64);
    let n = lat.len();
    let over = match workload {
        Workload::CliReproduce => format!("median over {} invocations", timed.slices.len()),
        _ => format!(
            "median over {} slices of {:.1} s",
            timed.slices.len(),
            timed.slices.first().map_or(0.0, |s| s.secs)
        ),
    };
    let _ = writeln!(
        out,
        "end-to-end, {} (untraced run; rates and p50 are the {over}):",
        workload.name()
    );
    let _ = writeln!(
        out,
        "  throughput_ops_s    {throughput:>14.3} 1/s    ({} ok ops in {:.3} s overall)",
        timed.ok(),
        timed.window.as_secs_f64()
    );
    let per_slice: Vec<String> = timed
        .slices
        .iter()
        .map(|s| format!("{:.1}", s.p50_us))
        .collect();
    let _ = writeln!(
        out,
        "  latency_p50_us      {p50:>14.3} us     (n = {n}; per slice {})",
        per_slice.join(" ")
    );
    if beyond >= 10 {
        let _ = writeln!(
            out,
            "  latency_p99_us      {p99:>14.3} us     (n = {n}, {beyond} beyond)"
        );
    } else {
        let _ = writeln!(
            out,
            "  latency_p99_us      {:>14} us     (n = {n}: fewer than 10 samples beyond p99)",
            "n/a"
        );
    }
    let _ = writeln!(
        out,
        "  error_rate          {error_rate:>14.6}        ({} failed / {} attempted)",
        timed.failed, timed.attempted
    );
    let _ = writeln!(
        out,
        "  cpu_us_per_op       {cpu:>14.3} us     ({:.3} s rat CPU over the window)",
        timed.cpu.as_secs_f64()
    );
    let _ = writeln!(out, "  peak_rss_mib        {rss:>14.3} MiB");
    if let Some(f) = &timed.fill {
        let _ = writeln!(
            out,
            "  cache fill          {:>14.3} s      ({} fresh requests before the window, until \
             response_cache_bytes = {:.0}; not part of setup_s)",
            f.secs, f.requests, f.bytes
        );
    }
    if let Some(g) = timed.gen_us_per_request {
        let _ = writeln!(
            out,
            "  request generator   {g:>14.3} us     (client CPU to generate and frame one fresh request)"
        );
    }
    let setups: Vec<String> = timed.setups_s.iter().map(|s| format!("{s:.4}")).collect();
    let _ = writeln!(
        out,
        "  setup_s             {setup:>14.4} s      (median of {} set-ups: {})",
        setups.len(),
        setups.join(", ")
    );
    EndToEnd {
        json: vec![
            metric("throughput_ops_s", "1/s", throughput),
            metric("latency_p50_us", "us", p50),
            metric("cpu_us_per_op", "us", cpu),
            metric("peak_rss_mib", "MiB", rss),
            metric("setup_s", "s", setup),
        ],
        client_p50_us: p50,
    }
}

/// Counts for the per-layer table: from the server's `/metrics` over the
/// timed window for serve workloads, from `rat`'s stderr stats lines for
/// the CLI. Layers a workload does not run count 0.
fn layer_counts(timed: &Timed) -> Vec<Metric> {
    let ok = timed.ok() as f64;
    // `delta(counter)` over the window and `gauge(name)` at its end, named
    // as `/metrics` names them.
    let c = timed.cli_counts;
    let cli = |name: &str| match name {
        "pipeline_engine_jobs" => c.engine_jobs as f64,
        "cache_hits" => c.sim_hits as f64,
        "cache_misses" => c.sim_misses as f64,
        // Each `rat` process starts with an empty simulator cache and
        // inserts one entry per miss.
        "cache_entries" => ratio(c.sim_misses as f64, ok),
        _ => 0.0,
    };
    let delta = |name: &str| match &timed.scrapes {
        Some((b, a)) => Scrape::delta(b, a, name),
        None => cli(name),
    };
    let gauge = |name: &str| match &timed.scrapes {
        Some((_, a)) => a.get(name),
        None => cli(name),
    };
    let hit_ratio = |hits: &str, misses: &str| ratio(delta(hits), delta(hits) + delta(misses));
    let mut m = vec![
        metric(
            "respcache.hit_ratio",
            "ratio",
            hit_ratio(
                "pipeline_cache_response_hits",
                "pipeline_cache_response_misses",
            ),
        ),
        metric(
            "respcache.entries",
            "count",
            gauge("response_cache_entries"),
        ),
        metric("respcache.bytes", "B", gauge("response_cache_bytes")),
        metric(
            "coalesce.requests_per_batch",
            "count",
            ratio(
                delta("pipeline_coalesce_requests"),
                delta("pipeline_coalesce_batches"),
            ),
        ),
        metric("simcache.entries", "count", gauge("cache_entries")),
        metric(
            "simcache.hit_ratio",
            "ratio",
            hit_ratio("cache_hits", "cache_misses"),
        ),
    ];
    for (name, counter) in WORK_COUNTS {
        m.push(metric(
            format!("work.{name}_per_op"),
            "count/op",
            ratio(delta(counter), ok),
        ));
    }
    m
}

/// Work counters per operation, as `(metric stem, /metrics counter)`.
const WORK_COUNTS: [(&str, &str); 7] = [
    ("sim_runs", "pipeline_sim_runs"),
    ("sim_ff_periods_skipped", "pipeline_sim_ff_periods_skipped"),
    ("engine_jobs", "pipeline_engine_jobs"),
    ("batch_points", "pipeline_batch_points"),
    ("mc_samples", "pipeline_mc_samples"),
    ("stage_hits", "pipeline_stage_hits"),
    ("stage_misses", "pipeline_stage_misses"),
];

fn per_layer(
    workload: Workload,
    timed: &Timed,
    l: &LayerRun,
    client_p50_us: f64,
    span_cost: f64,
    out: &mut String,
) -> Vec<Metric> {
    let hot = |spans: &[&str]| l.p50_us(spans, HOT_RIDS);
    let fresh = |spans: &[&str]| l.p50_us(spans, FRESH_RIDS);
    let cli = |spans: &[&str]| l.p50_us(spans, CLI_RIDS);
    let mut m = vec![
        metric("http.read_request_us", "us", hot(&["http.read_request"])),
        metric("http.write_json_us", "us", hot(&["http.write_json"])),
        metric("keys.raw_key_ns", "ns", hot(&["keys.raw_key"]) * 1e3),
        metric(
            "keys.request_key_ns",
            "ns",
            fresh(&["keys.request_key"]) * 1e3,
        ),
        metric(
            "respcache.lookup_raw_ns",
            "ns",
            hot(&["respcache.lookup_raw"]) * 1e3,
        ),
        metric("respcache.insert_us", "us", fresh(&layers::INSERT_SPANS)),
        metric("api.parse_us", "us", fresh(&["api.parse"])),
        metric("coalesce.solve_us", "us", fresh(&["coalesce.solve"])),
    ];
    for mode in rat_serve::api::MODES {
        m.push(metric(
            format!("api.handle_us.{mode}"),
            "us",
            fresh(&[layers::handle_span(mode)]),
        ));
    }
    m.push(metric("api.to_json_us", "us", fresh(&["api.to_json"])));
    m.extend(layer_counts(timed));
    let (predicted, path_rows): (f64, Vec<(String, f64)>) = match workload {
        Workload::ServeHot => (
            l.predicted_us(&HOT_PATH, HOT_RIDS),
            HOT_PATH
                .iter()
                .map(|(n, s)| (n.to_string(), hot(s)))
                .collect(),
        ),
        Workload::ServeFresh => (
            l.predicted_us(&FRESH_PATH, FRESH_RIDS),
            FRESH_PATH
                .iter()
                .map(|(n, s)| (n.to_string(), fresh(s)))
                .collect(),
        ),
        Workload::CliReproduce => {
            let mut rows = vec![("cli.exec_floor".to_string(), cli(&["cli.exec_floor"]))];
            rows.extend(
                layers::ARTIFACTS
                    .iter()
                    .map(|(_, s)| (s.to_string(), cli(&[s]))),
            );
            (l.predicted_cli_us(), rows)
        }
    };
    m.push(metric("predicted.latency_p50_us", "us", predicted));
    m.push(metric(
        "transport.unattributed_us",
        "us",
        client_p50_us - predicted,
    ));
    m.push(metric(
        "apps.md_paper_scale_ms",
        "ms",
        cli(&["apps.md_paper_scale"]) / 1e3,
    ));
    for (id, span) in layers::ARTIFACTS {
        m.push(metric(
            format!("bench.artifact_ms.{id}"),
            "ms",
            cli(&[span]) / 1e3,
        ));
    }
    m.push(metric("cli.exec_floor_us", "us", cli(&["cli.exec_floor"])));
    m.push(metric("trace.span_cost_ns", "ns", span_cost));

    let _ = writeln!(
        out,
        "per-layer, {} (traced in-process replay, median self time per request):",
        workload.name()
    );
    for x in &m {
        let _ = writeln!(out, "  {:<36} {:>16.4} {}", x.name, x.value, x.unit);
    }

    // Laid out like the paper's predicted-vs-actual tables.
    let _ = writeln!(
        out,
        "predicted vs measured, {} (per operation, us):",
        workload.name()
    );
    for (name, v) in &path_rows {
        let _ = writeln!(out, "  {name:<36} {v:>16.3}");
    }
    let _ = writeln!(
        out,
        "  {:<36} {predicted:>16.3}",
        "predicted (sum of layer p50 self)"
    );
    let _ = writeln!(
        out,
        "  {:<36} {client_p50_us:>16.3}",
        "measured, client p50"
    );
    if let Some((b, a)) = &timed.scrapes {
        let q =
            |q| Scrape::delta_quantile_us(b, a, q).map_or("n/a".to_string(), |v| format!("{v:.0}"));
        let _ = writeln!(
            out,
            "  {:<36} {:>16}",
            "measured, server p50 (pow2 bucket)",
            q(0.5)
        );
        let _ = writeln!(
            out,
            "  {:<36} {:>16}",
            "measured, server p99 (pow2 bucket)",
            q(0.99)
        );
    }
    let _ = writeln!(
        out,
        "  {:<36} {:>16.3}",
        "unattributed (client p50 - predicted)",
        client_p50_us - predicted
    );
    let _ = writeln!(
        out,
        "  {:<36} {:>15.1}%",
        "prediction error",
        100.0 * ratio(predicted - client_p50_us, client_p50_us)
    );
    let _ = writeln!(
        out,
        "  {:<36} {span_cost:>16.1}",
        "one recorded span costs (ns)"
    );
    if workload == Workload::ServeFresh {
        route_cpu_table(&l.fresh_cpu, out);
    }
    m
}

/// Each fresh route's share of the requests beside its share of the CPU,
/// from the in-process replay.
fn route_cpu_table(routes: &[layers::RouteCpu], out: &mut String) {
    let requests: u64 = routes.iter().map(|r| r.requests).sum();
    let cpu: f64 = routes.iter().map(|r| r.cpu_us).sum();
    let _ = writeln!(
        out,
        "fresh route CPU (in-process replay of the first {requests} requests):"
    );
    let _ = writeln!(
        out,
        "  {:<14} {:>12} {:>16} {:>12}",
        "route", "requests", "CPU us/request", "CPU share"
    );
    for r in routes {
        let _ = writeln!(
            out,
            "  {:<14} {:>11.1}% {:>16.1} {:>11.1}%",
            r.mode,
            100.0 * ratio(r.requests as f64, requests as f64),
            ratio(r.cpu_us, r.requests as f64),
            100.0 * ratio(r.cpu_us, cpu)
        );
    }
}

fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("ratperf-trace-{}-{seed}.json", workload.name()))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err("run from the root of a rat checkout (crates/cli/Cargo.toml not found)".into());
    }
    let chosen: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::from_name(&args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?]
    };
    let rat = procs::build_rat(&root)?;
    let prefix = |w: Workload, name: &str| {
        if chosen.len() > 1 {
            format!("{}.{name}", w.name())
        } else {
            name.to_string()
        }
    };

    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for &w in &chosen {
        let timed = match w {
            Workload::CliReproduce => workloads::run_cli(&rat, args.seconds, GOLDEN)?,
            _ => workloads::run_serve(w, &rat, args.seed, args.seconds, nproc())?,
        };
        let mut report = String::new();
        let e2e = end_to_end(w, &timed, &mut report);
        report.push_str(&provenance(&root, &rat, &args, w, &timed));
        for p in &timed.problems {
            let _ = writeln!(report, "FAILED: {p}");
        }
        correct &= timed.failed == 0 && timed.problems.is_empty() && timed.ok() > 0;
        attempted += timed.attempted;
        failed += timed.failed;
        let run_metrics = if args.trace {
            let l = layers::run(args.seed, &rat, GOLDEN)?;
            let path = trace_path(w, args.seed);
            std::fs::write(&path, l.trace.profile.to_chrome_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            let span_cost = trace::span_cost_ns(SPAN_COST_SAMPLES);
            let m = per_layer(w, &timed, &l, e2e.client_p50_us, span_cost, &mut report);
            let _ = writeln!(
                report,
                "trace: {} spans in {}",
                l.trace.len(),
                path.display()
            );
            for f in l.failures.iter().take(8) {
                let _ = writeln!(report, "FAILED (in-process replay): {f}");
            }
            if !l.artifacts_match_golden {
                let _ = writeln!(
                    report,
                    "FAILED: in-process artifacts differ from the golden reproduce output"
                );
            }
            correct &= l.failures.is_empty() && l.artifacts_match_golden;
            m
        } else {
            e2e.json
        };
        print!("{report}");
        metrics.extend(run_metrics.into_iter().map(|m| Metric {
            name: prefix(w, &m.name),
            ..m
        }));
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ratperf: {e}");
            ExitCode::FAILURE
        }
    }
}
