//! Content-addressed cache of fully rendered response bodies, with
//! single-flight deduplication.
//!
//! Storage is sharded 16 ways like the simulation cache, so concurrent
//! workers rarely contend on one lock. Each shard maps a 128-bit request
//! digest (see [`crate::keys`]) to either a ready body or a *flight*: a
//! marker that some worker is already computing this exact response.
//! Arrivals that find a flight block on its condvar instead of recomputing —
//! under a thundering herd of identical requests, exactly one computation
//! runs and every waiter gets the leader's bytes, which are byte-identical
//! to a fresh render because they *are* the leader's fresh render.
//!
//! A second, cheaper tier keys the byte-exact `(route, body)` pair so a
//! repeated identical request skips JSON and TOML parsing entirely; it is an
//! alias onto the canonical entry's body, filled in after the canonical key
//! is known. It has its own shards and is charged the same byte budget
//! again.
//!
//! Eviction is LRU by a global access tick under a per-shard byte budget.
//! Every shard of both tiers keeps an index from stamp to key beside its
//! map, and its invariant is: **the index holds exactly the shard's Ready
//! entries, one stamp each, equal to the stamp in the map.** A hit moves
//! its entry to a fresh stamp, a fill adds one, and eviction pops the
//! oldest, so each touch and each eviction costs O(log n) in the shard's
//! entry count. Stamps come from one global counter, so they are unique and
//! the order is exact LRU.
//!
//! Flights are never in the index, so they are never evicted — a leader
//! must always find its own marker to complete. If a leader fails (error
//! response) or panics, its guard's `Drop` clears the flight and wakes all
//! waiters to retry, so a poisoned request cannot wedge the cache. No code
//! that can unwind runs between a shard's map, index and byte-count
//! updates, so the locks recover a poisoned guard with the invariant
//! intact; eviction stops when the index is empty in any case.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use rat_core::telemetry::{self, Metric};

const SHARD_COUNT: usize = 16;

/// One in-flight computation; waiters sleep on `cv` until the leader
/// completes (body published) or fails (retry signal).
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    Pending,
    Done(Arc<String>),
    Failed,
}

enum Slot {
    Ready {
        body: Arc<String>,
        stamp: u64,
    },
    /// Canonical tier only: the raw tier stores settled bodies.
    Pending(Arc<Flight>),
}

#[derive(Default)]
struct Shard {
    map: HashMap<u128, Slot>,
    /// The Ready entries by last-touch stamp, oldest first.
    lru: BTreeMap<u64, u128>,
    /// Bytes held by Ready bodies in this shard.
    bytes: usize,
}

impl Shard {
    /// A Ready hit, moved to the `fresh` stamp; `None` for a flight or a
    /// miss.
    fn touch(&mut self, key: u128, fresh: u64) -> Option<Arc<String>> {
        let Some(Slot::Ready { body, stamp }) = self.map.get_mut(&key) else {
            return None;
        };
        self.lru.remove(stamp);
        *stamp = fresh;
        self.lru.insert(fresh, key);
        Some(Arc::clone(body))
    }

    /// Store a Ready body that fits `budget` on its own under a key that
    /// holds none (a flight there is replaced), then evict the least
    /// recently used entries until the shard fits again. The new entry is
    /// the newest, so it survives.
    fn fill(&mut self, key: u128, body: Arc<String>, stamp: u64, budget: usize) {
        self.bytes += body.len();
        self.map.insert(key, Slot::Ready { body, stamp });
        self.lru.insert(stamp, key);
        while self.bytes > budget {
            let Some((_, victim)) = self.lru.pop_first() else {
                break;
            };
            if let Some(Slot::Ready { body, .. }) = self.map.remove(&victim) {
                self.bytes -= body.len();
            }
            #[cfg(test)]
            tests::note_eviction(victim);
        }
    }
}

/// What [`ResponseCache::begin`] resolved to.
pub enum Lookup {
    /// A ready body — serve it as-is.
    Hit(Arc<String>),
    /// This caller is the leader: compute the response, then call
    /// [`FlightGuard::complete`] (or drop the guard on failure).
    Miss(FlightGuard),
}

/// Leadership token for one cache fill. Dropping it without completing
/// marks the flight failed and wakes waiters to retry.
pub struct FlightGuard {
    cache: Arc<ResponseCache>,
    key: u128,
    flight: Arc<Flight>,
    completed: bool,
}

impl FlightGuard {
    /// Publish the rendered body: waiters wake with it, and it becomes a
    /// Ready entry (unless it alone exceeds the shard budget, in which case
    /// waiters still get it but nothing is stored).
    pub fn complete(mut self, body: Arc<String>) {
        self.completed = true;
        {
            let mut st = self
                .flight
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *st = FlightState::Done(Arc::clone(&body));
        }
        self.flight.cv.notify_all();

        let shard = &self.cache.shards[shard_of(self.key)];
        let mut sh = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(Slot::Pending(_)) = sh.map.get(&self.key) {
            let budget = self.cache.shard_budget;
            if body.len() <= budget {
                sh.fill(self.key, body, self.cache.tick(), budget);
            } else {
                sh.map.remove(&self.key);
            }
        }
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // Leader failed: clear the marker and signal retry.
        {
            let shard = &self.cache.shards[shard_of(self.key)];
            let mut sh = shard.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(Slot::Pending(_)) = sh.map.get(&self.key) {
                sh.map.remove(&self.key);
            }
        }
        let mut st = self
            .flight
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *st = FlightState::Failed;
        drop(st);
        self.flight.cv.notify_all();
    }
}

fn shard_of(key: u128) -> usize {
    // High bits: the FNV mixing concentrates entropy there.
    (key >> 124) as usize % SHARD_COUNT
}

/// Point-in-time occupancy, for `/metrics` rendering and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseCacheStats {
    /// Ready entries across both tiers.
    pub entries: usize,
    /// Bytes held by ready bodies across both tiers.
    pub bytes: usize,
}

/// The serving layer's rendered-response cache. One per server.
pub struct ResponseCache {
    shards: [Mutex<Shard>; SHARD_COUNT],
    raw_shards: [Mutex<Shard>; SHARD_COUNT],
    shard_budget: usize,
    clock: AtomicU64,
}

impl ResponseCache {
    /// A cache splitting `total_budget_bytes` evenly across 16 shards (the
    /// canonical tier; the raw alias tier gets the same again — aliases are
    /// `Arc` clones, so the true overhead is key + pointer, not body bytes).
    pub fn new(total_budget_bytes: usize) -> Arc<Self> {
        Arc::new(ResponseCache {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            raw_shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            shard_budget: (total_budget_bytes / SHARD_COUNT).max(1),
            clock: AtomicU64::new(0),
        })
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Byte-exact fast tier: a hit skips request parsing entirely.
    pub fn lookup_raw(&self, raw_key: u128) -> Option<Arc<String>> {
        let mut sh = self.raw_shards[shard_of(raw_key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let hit = sh.touch(raw_key, self.tick());
        if hit.is_some() {
            telemetry::add(Metric::ResponseCacheHits, 1);
        }
        hit
    }

    /// Alias the byte-exact request onto a body the canonical tier settled.
    /// An existing alias keeps its body and only counts as a touch.
    pub fn alias_raw(&self, raw_key: u128, body: &Arc<String>) {
        if body.len() > self.shard_budget {
            return;
        }
        let mut sh = self.raw_shards[shard_of(raw_key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let stamp = self.tick();
        if sh.touch(raw_key, stamp).is_none() {
            sh.fill(raw_key, Arc::clone(body), stamp, self.shard_budget);
        }
    }

    /// Resolve a canonical key: a ready hit, a wait on someone else's
    /// flight (counted, then resolved to their body), or leadership of a
    /// new flight.
    pub fn begin(self: &Arc<Self>, key: u128) -> Lookup {
        loop {
            let flight = {
                let mut sh = self.shards[shard_of(key)]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if let Some(body) = sh.touch(key, self.tick()) {
                    telemetry::add(Metric::ResponseCacheHits, 1);
                    return Lookup::Hit(body);
                }
                if let Some(Slot::Pending(flight)) = sh.map.get(&key) {
                    Arc::clone(flight)
                } else {
                    let flight = Arc::new(Flight {
                        state: Mutex::new(FlightState::Pending),
                        cv: Condvar::new(),
                    });
                    sh.map.insert(key, Slot::Pending(Arc::clone(&flight)));
                    telemetry::add(Metric::ResponseCacheMisses, 1);
                    return Lookup::Miss(FlightGuard {
                        cache: Arc::clone(self),
                        key,
                        flight,
                        completed: false,
                    });
                }
            };

            // Wait outside the shard lock: flights block only their own key.
            telemetry::add(Metric::ResponseCacheInflightWaits, 1);
            let mut st = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                match &*st {
                    FlightState::Pending => {
                        st = flight.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                    FlightState::Done(body) => {
                        telemetry::add(Metric::ResponseCacheHits, 1);
                        return Lookup::Hit(Arc::clone(body));
                    }
                    FlightState::Failed => break, // retry; may become leader
                }
            }
        }
    }

    /// Occupancy across both tiers, read off each shard's index in
    /// O(shards).
    pub fn stats(&self) -> ResponseCacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for sh in self.shards.iter().chain(&self.raw_shards) {
            let sh = sh.lock().unwrap_or_else(PoisonError::into_inner);
            entries += sh.lru.len();
            bytes += sh.bytes;
        }
        ResponseCacheStats { entries, bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::Barrier;

    thread_local! {
        /// Evicted keys in eviction order, per thread so parallel tests
        /// never see each other's.
        static EVICTED: RefCell<Vec<u128>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn note_eviction(key: u128) {
        EVICTED.with(|e| e.borrow_mut().push(key));
    }

    fn take_evictions() -> Vec<u128> {
        EVICTED.with(|e| std::mem::take(&mut *e.borrow_mut()))
    }

    /// Ready entries in both tiers, counted slot by slot.
    fn recount(cache: &ResponseCache) -> usize {
        cache
            .shards
            .iter()
            .chain(&cache.raw_shards)
            .map(|sh| {
                let sh = sh.lock().unwrap_or_else(PoisonError::into_inner);
                sh.map
                    .values()
                    .filter(|s| matches!(s, Slot::Ready { .. }))
                    .count()
            })
            .sum()
    }

    #[test]
    fn poisoned_shards_and_flights_keep_serving() {
        let cache = ResponseCache::new(1 << 20);
        let key = 5u128 << 124;
        let Lookup::Miss(guard) = cache.begin(key) else {
            panic!("first lookup must lead");
        };
        let flight = Arc::clone(&guard.flight);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _shard = cache.shards[shard_of(key)].lock();
                let _raw = cache.raw_shards[shard_of(key)].lock();
                let _flight = flight.state.lock();
                panic!("poison a shard, its raw twin and an in-flight fill");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.shards[shard_of(key)].is_poisoned() && flight.state.is_poisoned());
        guard.complete(body("ok"));
        match cache.begin(key) {
            Lookup::Hit(b) => assert_eq!(b.as_str(), "ok"),
            Lookup::Miss(_) => panic!("completed fill must hit"),
        }
        cache.alias_raw(key, &body("ok"));
        assert_eq!(
            cache.lookup_raw(key).as_deref().map(String::as_str),
            Some("ok")
        );
        assert_eq!(cache.stats().entries, 2);

        // Fill the poisoned shard and its raw twin to four times the budget.
        let filler = body(&"f".repeat(cache.shard_budget / 16));
        for i in 1..=64u128 {
            match cache.begin(key | i) {
                Lookup::Miss(g) => g.complete(Arc::clone(&filler)),
                Lookup::Hit(_) => panic!("fresh key cannot hit"),
            }
            cache.alias_raw(key | i, &filler);
        }
        for tier in [&cache.shards, &cache.raw_shards] {
            let sh = tier[shard_of(key)]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            assert!(sh.bytes <= cache.shard_budget, "{} bytes", sh.bytes);
            assert_eq!(sh.lru.len(), 16, "one budget's worth survives");
        }
        assert_eq!(cache.stats().entries, recount(&cache));
    }

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn miss_then_hit_round_trips_the_exact_bytes() {
        let cache = ResponseCache::new(1 << 20);
        match cache.begin(7) {
            Lookup::Miss(guard) => guard.complete(body("the rendered response")),
            Lookup::Hit(_) => panic!("empty cache cannot hit"),
        }
        match cache.begin(7) {
            Lookup::Hit(b) => assert_eq!(*b, "the rendered response"),
            Lookup::Miss(_) => panic!("completed entry must hit"),
        }
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn single_flight_runs_one_leader_for_a_herd() {
        let cache = ResponseCache::new(1 << 20);
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        let leaders = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    barrier.wait();
                    match cache.begin(99) {
                        Lookup::Miss(guard) => {
                            leaders.fetch_add(1, Ordering::Relaxed);
                            // Give waiters time to pile onto the flight.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            guard.complete(body("only once"));
                            "only once".to_string()
                        }
                        Lookup::Hit(b) => (*b).clone(),
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), "only once");
        }
        assert_eq!(leaders.load(Ordering::Relaxed), 1, "exactly one leader");
    }

    #[test]
    fn failed_leader_wakes_waiters_into_retry() {
        let cache = ResponseCache::new(1 << 20);
        let guard = match cache.begin(5) {
            Lookup::Miss(g) => g,
            Lookup::Hit(_) => unreachable!(),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.begin(5) {
                // After the leader's failure the waiter retries and becomes
                // the new leader.
                Lookup::Miss(g) => {
                    g.complete(body("second try"));
                    true
                }
                Lookup::Hit(_) => false,
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(guard); // leader fails without completing
        assert!(waiter.join().unwrap(), "waiter should retry as leader");
        match cache.begin(5) {
            Lookup::Hit(b) => assert_eq!(*b, "second try"),
            Lookup::Miss(_) => panic!("retry should have filled the entry"),
        }
    }

    #[test]
    fn lru_evicts_oldest_ready_entries_under_byte_pressure() {
        // Budget of 64 bytes per shard; three 30-byte bodies on one shard
        // (small keys all land on shard 0) must evict the least recently
        // used.
        let cache = ResponseCache::new(64 * SHARD_COUNT);
        for i in 0..2u128 {
            match cache.begin(i) {
                Lookup::Miss(g) => g.complete(body(&"x".repeat(30))),
                Lookup::Hit(_) => panic!(),
            }
        }
        // Touch key 0 so key 1 is the LRU victim.
        assert!(matches!(cache.begin(0), Lookup::Hit(_)));
        match cache.begin(2) {
            Lookup::Miss(g) => g.complete(body(&"x".repeat(30))),
            Lookup::Hit(_) => panic!(),
        }
        assert!(
            matches!(cache.begin(0), Lookup::Hit(_)),
            "recently touched entry survives"
        );
        assert!(
            matches!(cache.begin(1), Lookup::Miss(_)),
            "LRU entry was evicted"
        );
    }

    #[test]
    fn raw_tier_aliases_without_double_charging_entries() {
        let cache = ResponseCache::new(1 << 20);
        assert!(cache.lookup_raw(11).is_none());
        let b = body("aliased");
        cache.alias_raw(11, &b);
        assert_eq!(*cache.lookup_raw(11).unwrap(), "aliased");
    }

    #[test]
    fn oversized_bodies_are_served_but_not_stored() {
        let cache = ResponseCache::new(16); // 1 byte per shard
        match cache.begin(3) {
            Lookup::Miss(g) => g.complete(body("way too big for the budget")),
            Lookup::Hit(_) => panic!(),
        }
        assert!(matches!(cache.begin(3), Lookup::Miss(_)));
        assert_eq!(cache.stats().bytes, 0);
    }

    type Stamped = (Arc<String>, u64);

    /// The cache as it was before the stamp index, on one thread: each
    /// victim is found by a `min_by_key` scan over its whole shard.
    struct ScanModel {
        /// Per shard: key → body and stamp (`None` for a flight), and bytes.
        shards: Vec<(HashMap<u128, Option<Stamped>>, usize)>,
        raw_shards: Vec<(HashMap<u128, Stamped>, usize)>,
        budget: usize,
        clock: u64,
    }

    impl ScanModel {
        fn new(total_budget_bytes: usize) -> Self {
            ScanModel {
                shards: (0..SHARD_COUNT).map(|_| Default::default()).collect(),
                raw_shards: (0..SHARD_COUNT).map(|_| Default::default()).collect(),
                budget: (total_budget_bytes / SHARD_COUNT).max(1),
                clock: 0,
            }
        }

        fn tick(&mut self) -> u64 {
            self.clock += 1;
            self.clock
        }

        /// A hit's body, or `None` after installing a flight (`None` slot).
        fn begin(&mut self, key: u128) -> Option<Arc<String>> {
            let stamp = self.tick();
            let (map, _) = &mut self.shards[shard_of(key)];
            match map.get_mut(&key) {
                Some(Some((body, s))) => {
                    *s = stamp;
                    Some(Arc::clone(body))
                }
                Some(None) => panic!("the stream never begins a key it holds"),
                None => {
                    map.insert(key, None);
                    None
                }
            }
        }

        /// Settle a flight; returns the evicted keys in order.
        fn complete(&mut self, key: u128, body: Arc<String>) -> Vec<u128> {
            let (stamp, budget) = (self.tick(), self.budget);
            let (map, bytes) = &mut self.shards[shard_of(key)];
            map.remove(&key);
            let mut evicted = Vec::new();
            if body.len() <= budget {
                *bytes += body.len();
                map.insert(key, Some((body, stamp)));
                while *bytes > budget {
                    let victim = map
                        .iter()
                        .filter_map(|(k, slot)| slot.as_ref().map(|(_, s)| (*k, *s)))
                        .min_by_key(|&(_, s)| s)
                        .map(|(k, _)| k);
                    let Some(k) = victim else { break };
                    if let Some(Some((body, _))) = map.remove(&k) {
                        *bytes -= body.len();
                    }
                    evicted.push(k);
                }
            }
            evicted
        }

        fn fail(&mut self, key: u128) {
            self.shards[shard_of(key)].0.remove(&key);
        }

        fn lookup_raw(&mut self, key: u128) -> Option<Arc<String>> {
            let stamp = self.tick();
            let (body, s) = self.raw_shards[shard_of(key)].0.get_mut(&key)?;
            *s = stamp;
            Some(Arc::clone(body))
        }

        fn alias_raw(&mut self, key: u128, body: &Arc<String>) -> Vec<u128> {
            let mut evicted = Vec::new();
            if body.len() > self.budget {
                return evicted;
            }
            let (stamp, budget) = (self.tick(), self.budget);
            let (map, bytes) = &mut self.raw_shards[shard_of(key)];
            match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().1 = stamp,
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((Arc::clone(body), stamp));
                    *bytes += body.len();
                }
            }
            while *bytes > budget {
                let victim = map.iter().min_by_key(|(_, (_, s))| *s).map(|(k, _)| *k);
                let Some(k) = victim else { break };
                if let Some((body, _)) = map.remove(&k) {
                    *bytes -= body.len();
                }
                evicted.push(k);
            }
            evicted
        }

        fn stats(&self) -> ResponseCacheStats {
            let ready = self
                .shards
                .iter()
                .map(|(map, _)| map.values().filter(|s| s.is_some()).count());
            let raw = self.raw_shards.iter().map(|(map, _)| map.len());
            let bytes = self.shards.iter().map(|(_, b)| b);
            let raw_bytes = self.raw_shards.iter().map(|(_, b)| b);
            ResponseCacheStats {
                entries: ready.chain(raw).sum(),
                bytes: bytes.chain(raw_bytes).sum(),
            }
        }
    }

    /// SplitMix64: a seeded stream with no dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Replay `ops` seeded operations through the indexed cache and the
    /// scan model, requiring the same answers, victims and stats after
    /// each one.
    fn replay(seed: u64, ops: usize) {
        const SHARD_BUDGET: usize = 2048;
        let cache = ResponseCache::new(SHARD_BUDGET * SHARD_COUNT);
        let mut model = ScanModel::new(SHARD_BUDGET * SHARD_COUNT);
        let mut rng = seed;
        let mut held: Vec<(u128, FlightGuard)> = Vec::new();
        let (mut hits, mut evictions) = (0usize, 0usize);
        for step in 0..ops {
            // Half the keys collide on shard 5; the rest spread over all 16.
            let r = next(&mut rng);
            let shard = if r & 1 == 0 { 5 } else { (r >> 1) % 16 };
            let key = u128::from(shard) << 124 | u128::from((r >> 8) % 24);
            // Mostly small bodies, some near the budget, a few over it.
            let len = match (r >> 16) % 100 {
                0..=89 => 16 + (r >> 24) as usize % 385,
                90..=96 => 400 + (r >> 24) as usize % (SHARD_BUDGET - 399),
                _ => SHARD_BUDGET + 1 + (r >> 24) as usize % SHARD_BUDGET,
            };
            let mut text = format!("{step}:");
            text.extend(std::iter::repeat_n('x', len - text.len()));
            let fresh = Arc::new(text);

            let mut expect = Vec::new();
            let held_at = held.iter().position(|(k, _)| *k == key);
            let settle = match (r >> 40) % 100 {
                0..=39 if held_at.is_none() => {
                    let got = model.begin(key);
                    match (cache.begin(key), got) {
                        (Lookup::Hit(b), Some(m)) => {
                            assert_eq!(b, m, "step {step}: begin body");
                            hits += 1;
                            None
                        }
                        (Lookup::Miss(g), None) => Some(g),
                        _ => panic!("step {step}: begin {key:#x} hit/miss differs"),
                    }
                }
                0..=39 => Some(held.swap_remove(held_at.unwrap()).1),
                40..=64 => {
                    let got = cache.lookup_raw(key);
                    hits += usize::from(got.is_some());
                    assert_eq!(got, model.lookup_raw(key), "step {step}: lookup_raw");
                    None
                }
                65..=89 => {
                    cache.alias_raw(key, &fresh);
                    expect = model.alias_raw(key, &fresh);
                    None
                }
                _ if held.is_empty() => None,
                _ => Some(held.swap_remove((r >> 48) as usize % held.len()).1),
            };
            // A flight is completed, failed, or held pending across later
            // evictions in its shard.
            if let Some(guard) = settle {
                let k = guard.key;
                match (r >> 56) % 10 {
                    0..=5 => {
                        guard.complete(Arc::clone(&fresh));
                        expect = model.complete(k, fresh);
                    }
                    6..=7 => {
                        drop(guard);
                        model.fail(k);
                    }
                    _ if held.len() < 4 => held.push((k, guard)),
                    _ => {
                        drop(guard);
                        model.fail(k);
                    }
                }
            }
            evictions += expect.len();
            assert_eq!(take_evictions(), expect, "step {step}: victims");
            assert_eq!(cache.stats(), model.stats(), "step {step}: stats");
        }
        for (k, guard) in held {
            drop(guard);
            model.fail(k);
        }
        assert_eq!(cache.stats(), model.stats());
        assert!(
            hits > ops / 10 && evictions > ops / 10,
            "{hits} hits, {evictions} evictions"
        );
    }

    #[test]
    fn stamp_index_evicts_exactly_like_the_scan() {
        for seed in [1, 2, 3, 0x5EED] {
            replay(seed, 25_000);
        }
    }
}
