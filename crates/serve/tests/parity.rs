//! The differential CLI↔serve parity suite — the correctness contract of
//! `rat serve`.
//!
//! For every analysis mode, the JSON body a **warm** server returns must be
//! byte-identical to what the **cold** path computes for the same inputs:
//! the in-process scalar pipeline (the same `rat_serve::api` renderers the
//! CLI calls). Parity is asserted at 1, 2, and 8 server workers, on
//! cache-cold and cache-warm requests, and for the seeded Monte-Carlo path
//! (same seed → same quantiles through the server). The comparison against
//! the spawned `rat` binary lives with the binary, in
//! `crates/cli/tests/serve_parity.rs`.

mod common;

use common::{get, metric_value, post, report_of};
use proptest::prelude::*;
use rat_core::engine::{Engine, EngineConfig};
use rat_core::params::{
    Buffering, CommParams, CompParams, DatasetParams, RatInput, SoftwareParams,
};
use rat_core::quantity::{Freq, Seconds, Throughput};
use rat_core::sweep::SweepParam;
use rat_core::uncertainty::ParamRange;
use rat_serve::api::{self, escape_json, OptimizeSpec};
use rat_serve::{ServeConfig, Server, ServerHandle};

/// The worker counts the acceptance criteria pin.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn start(workers: usize) -> ServerHandle {
    Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

/// A reference engine configured exactly like a server worker's.
fn reference_engine() -> Engine {
    Engine::new(EngineConfig::default().with_jobs(1))
}

fn pdf1d() -> RatInput {
    rat_apps::pdf::pdf1d::rat_input(150.0e6)
}

fn ws_toml(input: &RatInput) -> String {
    toml::to_string(input).expect("worksheet serializes")
}

/// The optimize request this suite pins: tiny but non-trivial — enough
/// generations for the sampler to adapt, small enough to stay fast.
fn optimize_spec() -> OptimizeSpec {
    OptimizeSpec {
        seed: Some(7),
        generations: Some(4),
        population: Some(48),
        ..OptimizeSpec::default()
    }
}

/// Request bodies for the six analysis modes on `input`, paired with the
/// in-process reference report each must match byte-for-byte.
fn mode_cases(input: &RatInput) -> Vec<(&'static str, String, String)> {
    let engine = reference_engine();
    let ws = escape_json(&ws_toml(input));
    let ranges = [ParamRange::new(SweepParam::Fclock, 75.0e6, 150.0e6)];
    vec![
        (
            "/v1/solve",
            format!("{{\"worksheet_toml\": \"{ws}\", \"target\": 8.0}}"),
            api::solve_report(input, 8.0),
        ),
        (
            "/v1/sweep",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"param\": \"fclock\", \
                 \"values\": [75e6, 100e6, 150e6]}}"
            ),
            api::sweep_report(
                &engine,
                input,
                SweepParam::Fclock,
                &[75.0e6, 100.0e6, 150.0e6],
            )
            .expect("sweep reference"),
        ),
        (
            "/v1/uncertainty",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \
                 \"ranges\": [{{\"param\": \"fclock\", \"lo\": 75e6, \"hi\": 150e6}}]}}"
            ),
            api::uncertainty_report(
                &engine,
                input,
                &ranges,
                api::DEFAULT_MC_SAMPLES,
                engine.config().root_seed,
            )
            .expect("uncertainty reference"),
        ),
        (
            "/v1/explore",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"min_speedup\": 5.0, \
                 \"fclocks\": [100e6, 150e6]}}"
            ),
            api::explore_report(input, 5.0, Some(vec![100.0e6, 150.0e6]), None, None)
                .expect("explore reference"),
        ),
        (
            "/v1/sensitivity",
            format!("{{\"worksheet_toml\": \"{ws}\"}}"),
            api::sensitivity_report(&engine, input).expect("sensitivity reference"),
        ),
        (
            "/v1/optimize",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"seed\": 7, \
                 \"generations\": 4, \"population\": 48}}"
            ),
            api::optimize_report(&engine, input, &optimize_spec()).expect("optimize reference"),
        ),
    ]
}

#[test]
fn six_modes_byte_identical_at_1_2_8_workers_cold_and_warm() {
    let input = pdf1d();
    let cases = mode_cases(&input);
    for workers in WORKER_COUNTS {
        let handle = start(workers);
        let addr = handle.addr();
        for (path, body, reference) in &cases {
            // Cache-cold (first request of this mode on this server) ...
            let (status, cold) = post(addr, path, body);
            assert_eq!(status, 200, "{path} at {workers} workers: {cold}");
            assert_eq!(
                report_of(&cold),
                *reference,
                "{path} cold parity at {workers} workers"
            );
            // ... and cache-warm (every structure already resident) must be
            // byte-identical to each other and to the reference.
            let (status, warm) = post(addr, path, body);
            assert_eq!(status, 200);
            assert_eq!(
                cold, warm,
                "{path} warm response drifted at {workers} workers"
            );
        }
        handle.shutdown();
    }
}

/// An alpha at its bound of 1.0 is a legal worksheet: sensitivity answers
/// 200 (the alpha's up-probe falls back to a backward difference) with the
/// same report the in-process renderer produces.
#[test]
fn sensitivity_answers_200_with_an_alpha_at_its_bound() {
    let handle = start(2);
    let addr = handle.addr();
    for which in ["alpha_write", "alpha_read"] {
        let mut input = pdf1d();
        match which {
            "alpha_write" => input.comm.alpha_write = 1.0,
            _ => input.comm.alpha_read = 1.0,
        }
        let body = format!(
            "{{\"worksheet_toml\": \"{}\"}}",
            escape_json(&ws_toml(&input))
        );
        let (status, resp) = post(addr, "/v1/sensitivity", &body);
        assert_eq!(status, 200, "{which} = 1.0: {resp}");
        let reference =
            api::sensitivity_report(&reference_engine(), &input).expect("sensitivity reference");
        assert_eq!(report_of(&resp), reference, "{which} = 1.0");
    }
    handle.shutdown();
}

#[test]
fn seeded_mc_is_deterministic_through_the_server() {
    let input = pdf1d();
    let ws = escape_json(&ws_toml(&input));
    let body = format!(
        "{{\"worksheet_toml\": \"{ws}\", \"samples\": 2000, \"seed\": 42, \
         \"ranges\": [{{\"param\": \"alpha\", \"lo\": 0.5, \"hi\": 1.0}}]}}"
    );
    // Two different servers, different worker counts: the seed alone pins
    // the quantiles.
    let h1 = start(1);
    let (s1, r1) = post(h1.addr(), "/v1/uncertainty", &body);
    h1.shutdown();
    let h8 = start(8);
    let (s8, r8) = post(h8.addr(), "/v1/uncertainty", &body);
    let (s8b, r8b) = post(h8.addr(), "/v1/uncertainty", &body);
    h8.shutdown();
    assert_eq!((s1, s8, s8b), (200, 200, 200));
    assert_eq!(r1, r8, "seeded MC differs across server worker counts");
    assert_eq!(r8, r8b, "seeded MC differs across repeated requests");

    // And matches the in-process pipeline with the same seed.
    let engine = reference_engine();
    let ranges = [ParamRange::new(SweepParam::AlphaBoth, 0.5, 1.0)];
    let reference = api::uncertainty_report(&engine, &input, &ranges, 2000, 42).unwrap();
    assert_eq!(report_of(&r1), reference);
}

#[test]
fn simulate_parity_cold_vs_warm_with_cache_hits() {
    // /v1/simulate is the one endpoint that runs the cycle simulator; the
    // first request at a clock point renders fresh, the identical repeat is
    // served straight from the response cache — and the body must not
    // change by a byte either way.
    let handle = start(2);
    let addr = handle.addr();
    let body = "{\"app\": \"sort\", \"mhz\": 147.0}";
    let (_, metrics0) = get(addr, "/metrics");
    let hits0 = metric_value(&metrics0, "pipeline_cache_response_hits").unwrap();
    let (s1, cold) = post(addr, "/v1/simulate", body);
    let (s2, warm) = post(addr, "/v1/simulate", body);
    assert_eq!((s1, s2), (200, 200), "{cold}");
    assert_eq!(cold, warm, "cached simulation drifted");
    let (_, metrics1) = get(addr, "/metrics");
    let hits1 = metric_value(&metrics1, "pipeline_cache_response_hits").unwrap();
    assert!(
        hits1 > hits0,
        "warm request did not hit the response cache: {hits0} -> {hits1}"
    );
    // The report matches the in-process cached path.
    assert_eq!(
        report_of(&cold),
        api::simulate_report("sort", 147.0, Some(fpga_sim::SimCache::global())).unwrap()
    );
    handle.shutdown();
}

#[test]
fn shutdown_drains_single_flight_waiters_with_full_responses() {
    // A herd of identical optimize requests: one leader computes, the rest
    // block on the single-flight slot. Shutting down mid-herd must still
    // hand every waiter the complete rendered body — no torn responses, no
    // resets — because drain waits for in-flight requests.
    let handle = start(8);
    let addr = handle.addr();
    let ws = escape_json(&ws_toml(&pdf1d()));
    let body = format!(
        "{{\"worksheet_toml\": \"{ws}\", \"seed\": 11, \
         \"generations\": 6, \"population\": 64}}"
    );
    let n = 6;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(n));
    let threads: Vec<_> = (0..n)
        .map(|_| {
            let body = body.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                post(addr, "/v1/optimize", &body)
            })
        })
        .collect();
    // Let the herd reach the workers (8 workers ≥ 6 requests, so all are
    // in flight at once), then pull the plug while they are computing.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let summary = handle.shutdown();
    let mut bodies = Vec::new();
    for t in threads {
        let (status, resp) = t.join().expect("waiter thread");
        assert_eq!(status, 200, "waiter got a torn response: {resp}");
        bodies.push(resp);
    }
    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0], "single-flight waiters diverged");
    }
    let engine = reference_engine();
    let reference = api::optimize_report(
        &engine,
        &pdf1d(),
        &OptimizeSpec {
            seed: Some(11),
            generations: Some(6),
            population: Some(64),
            ..OptimizeSpec::default()
        },
    )
    .unwrap();
    assert_eq!(report_of(&bodies[0]), reference);
    assert!(summary.ok >= n as u64, "drain lost requests: {summary:?}");
}

#[test]
fn concurrent_solves_match_their_solo_bodies_at_1_2_8_workers() {
    // Concurrent `/v1/solve` bursts with the response cache off, so every
    // request computes. The case matrix mixes duplicate and distinct
    // worksheets and targets, including an infeasible target (1e9) and a
    // rejected one (-2.0), and both strict flavors (so strict 422s too).
    let start_uncached = |workers| {
        Server::start(ServeConfig {
            workers,
            response_cache_bytes: 0,
            ..ServeConfig::default()
        })
        .expect("server starts")
    };
    let bodies: Vec<String> = (0..12)
        .map(|i| {
            let mut input = pdf1d();
            if i % 2 == 0 {
                input.comp.throughput_proc += 1.0;
            }
            let target = match i % 4 {
                0 => 8.0,
                1 => 1e9,
                2 => -2.0,
                _ => 2.5,
            };
            let ws = escape_json(&ws_toml(&input));
            let strict = i % 3 == 0;
            format!("{{\"worksheet_toml\": \"{ws}\", \"target\": {target}, \"strict\": {strict}}}")
        })
        .collect();

    // Solo references from a quiet server, one request at a time.
    let reference = start_uncached(1);
    let solo: Vec<(u16, String)> = bodies
        .iter()
        .map(|body| post(reference.addr(), "/v1/solve", body))
        .collect();
    reference.shutdown();

    for workers in WORKER_COUNTS {
        let handle = start_uncached(workers);
        let addr = handle.addr();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(bodies.len()));
        let threads: Vec<_> = bodies
            .iter()
            .map(|body| {
                let body = body.clone();
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    post(addr, "/v1/solve", &body)
                })
            })
            .collect();
        for (i, t) in threads.into_iter().enumerate() {
            let got = t.join().expect("solve thread");
            assert_eq!(
                got, solo[i],
                "case {i} diverged from its solo body at {workers} workers"
            );
        }
        handle.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Property tests: random worksheets through the server vs the in-process
// scalar pipeline, bit for bit. Case counts are modest because every case
// boots requests against a live server; the deterministic tests above cover
// the worker-count matrix densely.
// ---------------------------------------------------------------------------

/// POST `body` twice and assert the cached repeat is byte-identical to the
/// cold render before returning the cold response. Every route under the
/// proptest goes through this, so cache parity is pinned across the whole
/// random-worksheet envelope, not just the handful of deterministic cases.
fn post_cold_and_cached(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    let (status, cold) = post(addr, path, body);
    let (status_cached, cached) = post(addr, path, body);
    assert_eq!(
        (status, &cold),
        (status_cached, &cached),
        "cached response drifted from the cold render for {path}"
    );
    (status, cold)
}

/// Strategy: a valid worksheet input across wide parameter ranges (the same
/// envelope the batch-differential suite uses).
fn worksheet() -> impl Strategy<Value = RatInput> {
    (
        1u64..100_000,  // elements_in
        0u64..100_000,  // elements_out
        1u64..64,       // bytes per element
        1.0e8..1.0e10,  // ideal bandwidth
        0.01f64..1.0,   // alpha_write
        0.01f64..1.0,   // alpha_read
        1.0f64..1.0e6,  // ops per element
        0.1f64..1000.0, // throughput_proc
        1.0e7..1.0e9,   // fclock
        1.0e-3..1.0e4,  // t_soft
        1u64..10_000,   // iterations
        prop_oneof![Just(Buffering::Single), Just(Buffering::Double)],
    )
        .prop_map(
            |(ein, eout, bpe, bw, aw, ar, ops, tp, f, tsoft, iters, buffering)| RatInput {
                name: "prop".into(),
                dataset: DatasetParams {
                    elements_in: ein,
                    elements_out: eout,
                    bytes_per_element: bpe,
                },
                comm: CommParams {
                    ideal_bandwidth: Throughput::from_bytes_per_sec(bw),
                    alpha_write: aw,
                    alpha_read: ar,
                },
                comp: CompParams {
                    ops_per_element: ops,
                    throughput_proc: tp,
                    fclock: Freq::from_hz(f),
                },
                software: SoftwareParams {
                    t_soft: Seconds::new(tsoft),
                    iterations: iters,
                },
                buffering,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every mode's server report equals the in-process report for random
    /// worksheets, at a randomly drawn worker count.
    #[test]
    fn random_worksheets_round_trip_bit_for_bit(
        input in worksheet(),
        target in 1.0f64..100.0,
        mc_seed in 0u64..1_000_000,
        workers in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
    ) {
        let engine = reference_engine();
        let ws = escape_json(&ws_toml(&input));
        let handle = start(workers);
        let addr = handle.addr();

        let (status, resp) = post_cold_and_cached(
            addr,
            "/v1/solve",
            &format!("{{\"worksheet_toml\": \"{ws}\", \"target\": {target}}}"),
        );
        prop_assert_eq!(status, 200, "{}", resp);
        prop_assert_eq!(report_of(&resp), api::solve_report(&input, target));

        let (status, resp) = post_cold_and_cached(
            addr,
            "/v1/sweep",
            &format!(
                "{{\"worksheet_toml\": \"{ws}\", \"param\": \"throughput-proc\", \
                 \"values\": [0.5, 5.0, 50.0]}}"
            ),
        );
        prop_assert_eq!(status, 200, "{}", resp);
        prop_assert_eq!(
            report_of(&resp),
            api::sweep_report(
                &engine,
                &input,
                SweepParam::ThroughputProc,
                &[0.5, 5.0, 50.0]
            )
            .unwrap()
        );

        let (status, resp) = post_cold_and_cached(
            addr,
            "/v1/sensitivity",
            &format!("{{\"worksheet_toml\": \"{ws}\"}}"),
        );
        prop_assert_eq!(status, 200, "{}", resp);
        prop_assert_eq!(
            report_of(&resp),
            api::sensitivity_report(&engine, &input).unwrap()
        );

        let (status, resp) = post_cold_and_cached(
            addr,
            "/v1/uncertainty",
            &format!(
                "{{\"worksheet_toml\": \"{ws}\", \"samples\": 64, \"seed\": {mc_seed}, \
                 \"ranges\": [{{\"param\": \"fclock\", \"lo\": 1e7, \"hi\": 1e9}}]}}"
            ),
        );
        prop_assert_eq!(status, 200, "{}", resp);
        let ranges = [ParamRange::new(SweepParam::Fclock, 1.0e7, 1.0e9)];
        prop_assert_eq!(
            report_of(&resp),
            api::uncertainty_report(&engine, &input, &ranges, 64, mc_seed).unwrap()
        );

        let (status, resp) = post_cold_and_cached(
            addr,
            "/v1/explore",
            &format!("{{\"worksheet_toml\": \"{ws}\", \"min_speedup\": {target}}}"),
        );
        prop_assert_eq!(status, 200, "{}", resp);
        prop_assert_eq!(
            report_of(&resp),
            api::explore_report(&input, target, None, None, None).unwrap()
        );

        handle.shutdown();
    }
}
