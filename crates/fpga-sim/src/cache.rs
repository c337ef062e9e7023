//! Memoization of platform executions.
//!
//! The analysis engine re-simulates the same `(platform, kernel, workload,
//! clock)` point constantly: a sweep and a sensitivity probe share their
//! baseline, a Monte-Carlo draw can repeat a degenerate range, and
//! `reproduce all` renders several tables off one case-study design. A
//! [`SimCache`] keyed by [`crate::digest::run_key`] makes each distinct run
//! cost one simulation.
//!
//! The cached value is a [`SimSummary`] — the scalar measurements every
//! analysis consumes — not a full [`Measurement`]: the execution
//! [`crate::trace::Trace`] is per-event and only wanted when a caller
//! explicitly asks to see a schedule, which goes through
//! [`crate::platform::Platform::execute`] uncached.
//!
//! The store is sharded [`SHARD_COUNT`] ways: a key selects its shard from
//! the low bits of the 128-bit run key (a 128-bit FNV-1a digest, see
//! [`crate::digest`]), and each shard has its own `RwLock`. Concurrent
//! lookups of distinct keys proceed without serializing on one global mutex,
//! and the [`CacheStats::shard_contention`] counter records how often a
//! try-lock still collided.
//!
//! The cache lives in memory only, so tests stay hermetic and a simulator
//! change can never be masked by stale results on disk.

use crate::platform::Measurement;
use crate::time::SimTime;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

/// The scalar results of one platform execution — [`Measurement`] minus the
/// per-event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSummary {
    /// End-to-end execution time (makespan), the paper's measured `t_RC`.
    pub total: SimTime,
    /// Blocking channel occupancy (the paper's "actual" `t_comm`).
    pub comm_busy: SimTime,
    /// Channel occupancy of streamed (compute-overlapped) outputs.
    pub streamed_comm: SimTime,
    /// FPGA kernel occupancy (the paper's "actual" `t_comp`).
    pub compute_busy: SimTime,
    /// Host overhead not attributed to comm or comp.
    pub host_overhead: SimTime,
    /// Iterations executed.
    pub iterations: u64,
}

impl SimSummary {
    /// Mean blocking communication time per iteration.
    pub fn comm_per_iter(&self) -> SimTime {
        SimTime::from_ps(self.comm_busy.as_ps() / self.iterations)
    }

    /// Mean computation time per iteration.
    pub fn comp_per_iter(&self) -> SimTime {
        SimTime::from_ps(self.compute_busy.as_ps() / self.iterations)
    }

    /// Fraction of the makespan the channel was (blockingly) busy.
    pub fn channel_utilization(&self) -> f64 {
        self.comm_busy.as_secs_f64() / self.total.as_secs_f64()
    }

    /// Fraction of the makespan the compute fabric was busy.
    pub fn compute_utilization(&self) -> f64 {
        self.compute_busy.as_secs_f64() / self.total.as_secs_f64()
    }
}

impl From<&Measurement> for SimSummary {
    fn from(m: &Measurement) -> Self {
        SimSummary {
            total: m.total,
            comm_busy: m.comm_busy,
            streamed_comm: m.streamed_comm,
            compute_busy: m.compute_busy,
            host_overhead: m.host_overhead,
            iterations: m.iterations,
        }
    }
}

/// Cache hit/miss counters at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a simulation.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Times a shard try-lock collided with a concurrent holder and had to
    /// fall back to a blocking acquire.
    pub shard_contention: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Number of independently locked shards in a [`SimCache`]. Sixteen is wide
/// enough that even an 8-worker engine rarely collides on a shard (the
/// birthday bound at 8 simultaneous lookups over 16 shards is ~87% of *some*
/// collision, but each is transient), while keeping the per-cache footprint
/// at 16 empty `HashMap`s. Must be a power of two so the shard index is a
/// mask of the key's low bits.
pub const SHARD_COUNT: usize = 16;

/// The shard a key belongs to: low bits of the 128-bit digest, which are
/// uniformly distributed by construction.
fn shard_of(key: u128) -> usize {
    (key as usize) & (SHARD_COUNT - 1)
}

/// A concurrent, content-addressed store of simulation results, sharded
/// [`SHARD_COUNT`] ways.
///
/// Each critical section is one map insert, read or clear, so the data
/// stays valid if a holder panics: every lock recovers a poisoned guard.
pub struct SimCache {
    shards: [RwLock<HashMap<u128, SimSummary>>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
    shard_contention: AtomicU64,
    enabled: AtomicBool,
}

impl SimCache {
    /// An empty, enabled, in-memory cache.
    pub fn new() -> Self {
        SimCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shard_contention: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// The process-wide cache.
    pub fn global() -> &'static SimCache {
        static GLOBAL: OnceLock<SimCache> = OnceLock::new();
        GLOBAL.get_or_init(SimCache::new)
    }

    /// Turn lookups and inserts on or off. Disabling does not drop stored
    /// entries; re-enabling sees them again.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the cache currently answers lookups.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Read-lock a key's shard, counting a contended try-lock.
    fn read_shard(&self, key: u128) -> std::sync::RwLockReadGuard<'_, HashMap<u128, SimSummary>> {
        let shard = &self.shards[shard_of(key)];
        match shard.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.shard_contention.fetch_add(1, Ordering::Relaxed);
                shard.read().unwrap_or_else(PoisonError::into_inner)
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    /// Write-lock a key's shard, counting a contended try-lock.
    fn write_shard(&self, key: u128) -> std::sync::RwLockWriteGuard<'_, HashMap<u128, SimSummary>> {
        let shard = &self.shards[shard_of(key)];
        match shard.try_write() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.shard_contention.fetch_add(1, Ordering::Relaxed);
                shard.write().unwrap_or_else(PoisonError::into_inner)
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    /// Look up a run key, counting the outcome. Disabled caches miss silently
    /// without counting.
    pub fn lookup(&self, key: u128) -> Option<SimSummary> {
        if !self.is_enabled() {
            return None;
        }
        let found = self.read_shard(key).get(&key).copied();
        match found {
            Some(s) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(s)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a result. No-op when disabled.
    pub fn insert(&self, key: u128, summary: SimSummary) {
        if !self.is_enabled() {
            return;
        }
        self.write_shard(key).insert(key, summary);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            shard_contention: self.shard_contention.load(Ordering::Relaxed),
        }
    }

    /// Zero the hit/miss/contention counters (entries are kept). Lets a
    /// caller measure one analysis pass in isolation.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.shard_contention.store(0, Ordering::Relaxed);
    }

    /// Drop all stored entries and zero the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
        self.reset_stats();
    }
}

impl Default for SimCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::digest::run_key;
    use crate::kernel::TabulatedKernel;
    use crate::platform::{AppRun, Platform};
    use rat_core::quantity::Freq;

    const F150: Freq = Freq::from_hz(150.0e6);

    fn sample_run() -> AppRun {
        AppRun::builder()
            .iterations(8)
            .elements_per_iter(512)
            .input_bytes_per_iter(2048)
            .output_bytes_per_iter(1024)
            .build()
    }

    fn sample_summary(ps: u64) -> SimSummary {
        SimSummary {
            total: SimTime::from_ps(ps),
            comm_busy: SimTime::from_ps(ps / 2),
            streamed_comm: SimTime::ZERO,
            compute_busy: SimTime::from_ps(ps / 3),
            host_overhead: SimTime::ZERO,
            iterations: 4,
        }
    }

    #[test]
    fn poisoned_locks_do_not_fail_later_lookups() {
        let cache = SimCache::new();
        let key = 3u128 << 120;
        cache.insert(key, sample_summary(10));
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _shard = cache.shards[shard_of(key)].write();
                panic!("poison a shard");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.shards[shard_of(key)].is_poisoned());
        assert_eq!(cache.lookup(key), Some(sample_summary(10)));
        cache.insert(key + 1, sample_summary(20));
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        assert_eq!(cache.lookup(key), None);
    }

    #[test]
    fn identical_specs_share_a_key_and_hit() {
        let cache = SimCache::new();
        let kernel = TabulatedKernel::uniform("k", 100, 8);
        let a = run_key(&catalog::nallatech_h101(), &kernel, &sample_run(), F150);
        let b = run_key(&catalog::nallatech_h101(), &kernel, &sample_run(), F150);
        assert_eq!(a, b);

        assert_eq!(cache.lookup(a), None);
        cache.insert(a, sample_summary(1000));
        assert_eq!(cache.lookup(b), Some(sample_summary(1000)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn one_calibration_constant_separates_keys() {
        // Satellite requirement: PCI-X setup latency +1 ns must produce a
        // different key — a stale result for a perturbed platform would
        // silently corrupt every downstream analysis.
        let cache = SimCache::new();
        let kernel = TabulatedKernel::uniform("k", 100, 8);
        let base = catalog::nallatech_h101();
        let mut bumped = catalog::nallatech_h101();
        bumped.interconnect.setup_write += SimTime::from_ns(1);

        let kb = run_key(&base, &kernel, &sample_run(), F150);
        let kp = run_key(&bumped, &kernel, &sample_run(), F150);
        assert_ne!(kb, kp);

        cache.insert(kb, sample_summary(1000));
        assert_eq!(cache.lookup(kp), None, "perturbed platform must miss");
        assert_eq!(cache.lookup(kb), Some(sample_summary(1000)));
    }

    #[test]
    fn disabled_cache_neither_hits_nor_counts() {
        let cache = SimCache::new();
        cache.insert(1, sample_summary(10));
        cache.set_enabled(false);
        assert_eq!(cache.lookup(1), None);
        cache.insert(2, sample_summary(20));
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        // Entries survive a disable/enable cycle.
        cache.set_enabled(true);
        assert_eq!(cache.lookup(1), Some(sample_summary(10)));
        assert_eq!(cache.lookup(2), None);
    }

    #[test]
    fn cached_summary_matches_direct_execution() {
        let platform = Platform::new(catalog::nallatech_h101());
        let kernel = TabulatedKernel::uniform("k", 20_000, 8);
        let run = sample_run();
        let cache = SimCache::new();

        let cold = platform
            .execute_summary(&kernel, &run, F150, Some(&cache))
            .unwrap();
        let warm = platform
            .execute_summary(&kernel, &run, F150, Some(&cache))
            .unwrap();
        let direct = SimSummary::from(&platform.execute(&kernel, &run, F150).unwrap());
        assert_eq!(cold, direct);
        assert_eq!(warm, direct);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn keys_spread_across_shards_and_uncontended_locks_count_nothing() {
        let cache = SimCache::new();
        for k in 0..(SHARD_COUNT as u128 * 4) {
            cache.insert(k, sample_summary(1 + k as u64));
            assert_eq!(cache.lookup(k), Some(sample_summary(1 + k as u64)));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, SHARD_COUNT as u64 * 4);
        assert_eq!(stats.shard_contention, 0, "single-thread never contends");
        // Consecutive digests land in consecutive shards (low-bit mask), so
        // every shard holds exactly 4 of the 64 keys.
        for s in 0..SHARD_COUNT {
            let held = (0..SHARD_COUNT as u128 * 4)
                .filter(|k| super::shard_of(*k) == s)
                .count();
            assert_eq!(held, 4);
        }
    }

    #[test]
    fn sharded_cache_survives_concurrent_hammering() {
        let cache = std::sync::Arc::new(SimCache::new());
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let key = u128::from(t * 1000 + i);
                        cache.insert(key, sample_summary(i + 1));
                        assert_eq!(cache.lookup(key), Some(sample_summary(i + 1)));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cache.stats().entries, 8 * 200);
        assert_eq!(cache.stats().hits, 8 * 200);
    }

    #[test]
    fn summary_helpers_match_measurement_semantics() {
        let s = SimSummary {
            total: SimTime::from_ns(450),
            comm_busy: SimTime::from_ns(150),
            streamed_comm: SimTime::ZERO,
            compute_busy: SimTime::from_ns(300),
            host_overhead: SimTime::ZERO,
            iterations: 3,
        };
        assert_eq!(s.comm_per_iter(), SimTime::from_ns(50));
        assert_eq!(s.comp_per_iter(), SimTime::from_ns(100));
        assert!((s.channel_utilization() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.compute_utilization() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_and_reset() {
        let cache = SimCache::new();
        cache.insert(1, sample_summary(10));
        cache.lookup(1);
        cache.lookup(2);
        cache.reset_stats();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 1));
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }
}
