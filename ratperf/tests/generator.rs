//! The request generator: determinism, validity and distinctness.

use std::collections::HashSet;

use rat_core::engine::{Engine, EngineConfig};
use rat_serve::{api, keys};
use ratperf::gen::{self, FreshStream, Request};

/// Enough of the fresh stream to cover every schedule slot many times.
const N: u64 = 3000;

/// Count of each mode in `reqs`, in `api::MODES` order.
fn mode_counts<'a>(reqs: impl IntoIterator<Item = &'a Request>) -> Vec<(&'static str, usize)> {
    let mut counts: Vec<(&'static str, usize)> = api::MODES.iter().map(|&m| (m, 0)).collect();
    for r in reqs {
        if let Some(c) = counts.iter_mut().find(|(m, _)| *m == r.mode) {
            c.1 += 1;
        }
    }
    counts
}

fn fresh(seed: u64, n: u64) -> Vec<Request> {
    let s = FreshStream::new(seed);
    (0..n).map(|i| s.request(i)).collect()
}

#[test]
fn same_seed_gives_a_byte_identical_stream() {
    assert_eq!(gen::hot_set(7), gen::hot_set(7));
    assert_eq!(fresh(7, N), fresh(7, N));
}

#[test]
fn a_different_seed_gives_a_different_stream() {
    assert_ne!(gen::hot_set(7), gen::hot_set(8));
    let (a, b) = (fresh(7, N), fresh(8, N));
    assert!(a.iter().zip(&b).all(|(x, y)| x.body != y.body));
}

#[test]
fn hot_set_covers_every_route() {
    let hot = gen::hot_set(1);
    assert_eq!(hot.len(), 21);
    for (mode, n) in mode_counts(&hot) {
        assert!(n >= 2, "{mode} appears {n} times");
    }
}

#[test]
fn fresh_stream_follows_the_recorded_shares() {
    let counts = mode_counts(&fresh(3, 1000));
    for (mode, share) in gen::FRESH_SHARES {
        let n = counts.iter().find(|(m, _)| *m == mode).map_or(0, |c| c.1);
        assert_eq!(n, share * 10, "{mode}");
    }
}

#[test]
fn every_generated_worksheet_parses() {
    for req in gen::hot_set(5).iter().chain(&fresh(5, N)) {
        if let Some(ws) = &req.worksheet {
            if let Err(e) = api::parse_worksheet(ws) {
                panic!("{} worksheet rejected: {}\n{ws}", req.mode, e.message());
            }
        }
    }
}

#[test]
fn every_generated_request_succeeds_in_process() {
    let engine = Engine::new(EngineConfig::default());
    for seed in [1, 2] {
        for req in gen::hot_set(seed).iter().chain(&fresh(seed, 2000)) {
            let parsed = api::parse_mode_request(req.mode, &req.body).unwrap_or_else(|e| {
                panic!("{} does not parse: {}\n{}", req.mode, e.message(), req.body)
            });
            if let Err(e) = api::handle(&engine, &parsed, None) {
                panic!(
                    "{} fails: {} {:?}\n{}",
                    req.mode,
                    e.message(),
                    e.causes(),
                    req.body
                );
            }
        }
    }
}

#[test]
fn fresh_bodies_are_distinct_at_both_key_tiers() {
    let mut raw = HashSet::new();
    let mut canonical = HashSet::new();
    for req in fresh(11, N) {
        assert!(
            raw.insert(keys::raw_key(&req.path(), &req.body)),
            "raw key repeats"
        );
        let parsed = api::parse_mode_request(req.mode, &req.body).expect("parses");
        assert!(
            canonical.insert(keys::request_key(&parsed, 2007, 0)),
            "canonical key repeats"
        );
    }
}
