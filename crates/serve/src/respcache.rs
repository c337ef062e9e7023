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
//! is known.
//!
//! Eviction is LRU by a global access tick under a per-shard byte budget.
//! Flights are never evicted — a leader must always find its own marker to
//! complete. If a leader fails (error response) or panics, its guard's
//! `Drop` clears the flight and wakes all waiters to retry, so a poisoned
//! request cannot wedge the cache. A panic while a shard or flight lock is
//! held leaves at worst a byte count off by one body (eviction still stops
//! when nothing is evictable), so the locks recover a poisoned guard.

use std::collections::HashMap;
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
    Ready { body: Arc<String>, stamp: u64 },
    Pending(Arc<Flight>),
}

#[derive(Default)]
struct Shard {
    map: HashMap<u128, Slot>,
    /// Bytes held by Ready bodies in this shard.
    bytes: usize,
}

#[derive(Default)]
struct RawShard {
    map: HashMap<u128, (Arc<String>, u64)>,
    bytes: usize,
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
            sh.map.remove(&self.key);
            if body.len() <= self.cache.shard_budget {
                sh.bytes += body.len();
                sh.map.insert(
                    self.key,
                    Slot::Ready {
                        body,
                        stamp: self.cache.tick(),
                    },
                );
                let budget = self.cache.shard_budget;
                evict_over_budget(&mut sh, budget);
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

fn evict_over_budget(sh: &mut Shard, budget: usize) {
    while sh.bytes > budget {
        let victim = sh
            .map
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Ready { stamp, .. } => Some((*k, *stamp)),
                Slot::Pending(_) => None,
            })
            .min_by_key(|&(_, stamp)| stamp)
            .map(|(k, _)| k);
        match victim {
            Some(k) => {
                if let Some(Slot::Ready { body, .. }) = sh.map.remove(&k) {
                    sh.bytes -= body.len();
                }
            }
            None => break, // only flights left; nothing evictable
        }
    }
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
    raw_shards: [Mutex<RawShard>; SHARD_COUNT],
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
            raw_shards: std::array::from_fn(|_| Mutex::new(RawShard::default())),
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
        let stamp = self.tick();
        let hit = sh.map.get_mut(&raw_key).map(|(body, s)| {
            *s = stamp;
            Arc::clone(body)
        });
        if hit.is_some() {
            telemetry::add(Metric::ResponseCacheHits, 1);
        }
        hit
    }

    /// Alias the byte-exact request onto a body the canonical tier settled.
    pub fn alias_raw(&self, raw_key: u128, body: &Arc<String>) {
        if body.len() > self.shard_budget {
            return;
        }
        let mut sh = self.raw_shards[shard_of(raw_key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let stamp = self.tick();
        match sh.map.entry(raw_key) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().1 = stamp,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((Arc::clone(body), stamp));
                sh.bytes += body.len();
            }
        }
        while sh.bytes > self.shard_budget {
            let victim = sh.map.iter().min_by_key(|(_, (_, s))| *s).map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some((body, _)) = sh.map.remove(&k) {
                        sh.bytes -= body.len();
                    }
                }
                None => break,
            }
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
                match sh.map.get_mut(&key) {
                    Some(Slot::Ready { body, stamp }) => {
                        *stamp = self.tick();
                        let body = Arc::clone(body);
                        telemetry::add(Metric::ResponseCacheHits, 1);
                        return Lookup::Hit(body);
                    }
                    Some(Slot::Pending(flight)) => Arc::clone(flight),
                    None => {
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

    /// Occupancy across both tiers.
    pub fn stats(&self) -> ResponseCacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for sh in &self.shards {
            let sh = sh.lock().unwrap_or_else(PoisonError::into_inner);
            entries += sh
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count();
            bytes += sh.bytes;
        }
        for sh in &self.raw_shards {
            let sh = sh.lock().unwrap_or_else(PoisonError::into_inner);
            entries += sh.map.len();
            bytes += sh.bytes;
        }
        ResponseCacheStats { entries, bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

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
}
