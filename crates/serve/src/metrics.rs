//! Server-side observability: request counters, a fixed-bucket latency
//! histogram, and the plaintext `GET /metrics` rendering.
//!
//! The pipeline's own counters (engine jobs, simulator events, cache hits)
//! are the always-on atomics of `rat_core::telemetry`'s global collector.
//! The server never enables span recording and never drains the collector:
//! `/metrics` reads each counter in place with [`Telemetry::metric`], so the
//! `pipeline_*` lines are monotonic over the process lifetime and cost one
//! atomic load each to render.
//!
//! [`Telemetry::metric`]: rat_core::telemetry::Telemetry::metric

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fpga_sim::CacheStats;
use rat_core::telemetry::{self, Metric};

/// The status codes the server can emit, in rendering order.
pub const STATUSES: [u16; 10] = [200, 400, 404, 405, 408, 413, 422, 500, 503, 507];

/// Latency histogram with log-linear microsecond buckets. Values below
/// 8 µs get one bucket each; above that, every power-of-two range
/// `[2^k, 2^(k+1))` splits into four equal sub-buckets, so no bucket is
/// wider than 25% of its lower bound and a 36 µs p50 reads differently
/// from a 25 µs one. Every bucket has an integer exclusive upper bound,
/// rendered as its `le`; the last bucket (from 7·2^30 µs, about 2 hours)
/// is open-ended. All state is atomics, so recording takes no lock and a
/// panicking request cannot poison it.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; Histogram::BUCKETS],
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    /// Bucket count: 8 exact buckets, then four per power of two.
    pub const BUCKETS: usize = 128;

    /// log2 of the sub-buckets per power of two.
    const SUB_BITS: u32 = 2;
    const SUB: usize = 1 << Histogram::SUB_BITS;

    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; Histogram::BUCKETS],
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_index(us: u64) -> usize {
        if us < Self::SUB as u64 {
            return us as usize;
        }
        // `us >> shift` keeps the top three bits: 4..=7, the sub-bucket
        // plus the group's leading one.
        let shift = 63 - us.leading_zeros() - Self::SUB_BITS;
        (shift as usize * Self::SUB + (us >> shift) as usize).min(Self::BUCKETS - 1)
    }

    /// The smallest value bucket `i` counts.
    fn lower_bound(i: usize) -> u64 {
        if i < Self::SUB {
            return i as u64;
        }
        let (group, sub) = (i / Self::SUB, i % Self::SUB);
        ((Self::SUB + sub) as u64) << (group - 1)
    }

    /// Record one request latency.
    pub fn record(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// One load of every bucket, so a rendering is self-consistent while
    /// other threads record.
    fn counts(&self) -> [u64; Histogram::BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total recorded requests.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Estimate quantile `q` in microseconds, `None` while empty: the
    /// largest value of the bucket holding that rank (the recorded maximum
    /// for the open-ended last bucket), so within 25% of the true value.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        Self::quantile_of(&self.counts(), self.max_us.load(Ordering::Relaxed), q)
    }

    fn quantile_of(counts: &[u64; Histogram::BUCKETS], max_us: u64, q: f64) -> Option<u64> {
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if i + 1 >= Self::BUCKETS {
                    max_us
                } else {
                    Self::lower_bound(i + 1) - 1
                });
            }
        }
        Some(max_us)
    }

    /// Render as `latency_us_bucket{le="..."} n` lines (cumulative, empty
    /// buckets skipped) plus count/sum/max and the p50/p99/p999 estimates.
    pub fn render(&self, out: &mut String) {
        let counts = self.counts();
        let max_us = self.max_us.load(Ordering::Relaxed);
        let mut cumulative = 0u64;
        for (i, n) in counts.iter().enumerate() {
            cumulative += n;
            if *n == 0 {
                continue;
            }
            let le = if i + 1 >= Self::BUCKETS {
                "+Inf".to_string()
            } else {
                Self::lower_bound(i + 1).to_string()
            };
            out.push_str(&format!("latency_us_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("latency_us_count {cumulative}\n"));
        out.push_str(&format!(
            "latency_us_sum {}\n",
            self.sum_us.load(Ordering::Relaxed)
        ));
        out.push_str(&format!("latency_us_max {max_us}\n"));
        for (label, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
            if let Some(v) = Self::quantile_of(&counts, max_us, q) {
                out.push_str(&format!("latency_us_{label} {v}\n"));
            }
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Cumulative server metrics shared by every worker.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections rejected with 503 because the queue was full.
    pub rejected_busy: AtomicU64,
    /// Requests whose handler panicked (each answered 500).
    pub panics: AtomicU64,
    /// Responses by status code, indexed like [`STATUSES`].
    status_counts: [AtomicU64; STATUSES.len()],
    /// Latency histogram over all served requests.
    latency: Histogram,
}

impl ServerMetrics {
    /// A zeroed collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one response with `status`, taking `latency` from queue-entry
    /// to response-written.
    pub fn observe(&self, status: u16, latency: Duration) {
        if let Some(i) = STATUSES.iter().position(|s| *s == status) {
            self.status_counts[i].fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency);
    }

    /// Total responses with `status` so far.
    pub fn status_count(&self, status: u16) -> u64 {
        STATUSES
            .iter()
            .position(|s| *s == status)
            .map(|i| self.status_counts[i].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Render the plaintext `/metrics` body: serve-layer counters, the
    /// latency histogram, the global pipeline counters, the live
    /// simulator-cache statistics, and (when the response cache is on) the
    /// rendered-response cache occupancy.
    pub fn render(
        &self,
        cache: &CacheStats,
        queue_depth: usize,
        queue_high_water: usize,
        workers: usize,
        responses: Option<crate::respcache::ResponseCacheStats>,
    ) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("serve_workers {workers}\n"));
        out.push_str(&format!("serve_queue_depth {queue_depth}\n"));
        out.push_str(&format!(
            "serve_queue_depth_high_water {queue_high_water}\n"
        ));
        out.push_str(&format!(
            "serve_accepted_total {}\n",
            self.accepted.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "serve_rejected_busy_total {}\n",
            self.rejected_busy.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "serve_panics_total {}\n",
            self.panics.load(Ordering::Relaxed)
        ));
        for (i, s) in STATUSES.iter().enumerate() {
            let n = self.status_counts[i].load(Ordering::Relaxed);
            if n > 0 {
                out.push_str(&format!("serve_responses_total{{status=\"{s}\"}} {n}\n"));
            }
        }
        self.latency.render(&mut out);
        for m in Metric::ALL {
            out.push_str(&format!(
                "pipeline_{} {}\n",
                m.name().replace('.', "_"),
                telemetry::global().metric(m)
            ));
        }
        out.push_str(&format!("cache_hits {}\n", cache.hits));
        out.push_str(&format!("cache_misses {}\n", cache.misses));
        out.push_str(&format!("cache_entries {}\n", cache.entries));
        out.push_str(&format!(
            "cache_shard_contention {}\n",
            cache.shard_contention
        ));
        if let Some(r) = responses {
            out.push_str(&format!("response_cache_entries {}\n", r.entries));
            out.push_str(&format!("response_cache_bytes {}\n", r.bytes));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_request_does_not_fail_later_observations() {
        let metrics = ServerMetrics::new();
        std::thread::scope(|s| {
            let panicker = s.spawn(|| {
                metrics.observe(500, Duration::from_micros(9));
                panic!("a request thread dies after recording");
            });
            assert!(panicker.join().is_err());
        });
        metrics.observe(200, Duration::from_micros(5));
        assert_eq!(metrics.latency.count(), 2);
        let body = metrics.render(&CacheStats::default(), 0, 0, 1, None);
        assert!(
            body.contains("serve_responses_total{status=\"200\"} 1"),
            "{body}"
        );
    }

    #[test]
    fn buckets_are_log_linear_and_at_most_a_quarter_wide() {
        for us in 0..8 {
            assert_eq!(Histogram::bucket_index(us), us as usize, "exact below 8 µs");
        }
        assert_eq!(Histogram::bucket_index(8), 8);
        assert_eq!(Histogram::bucket_index(9), 8);
        assert_eq!(Histogram::bucket_index(10), 9);
        assert_eq!(Histogram::bucket_index(u64::MAX), Histogram::BUCKETS - 1);
        // Bounds ascend, every value lands in the bucket its bounds name,
        // and no closed bucket is wider than 25% of its lower bound.
        for i in 0..Histogram::BUCKETS - 1 {
            let (lo, hi) = (Histogram::lower_bound(i), Histogram::lower_bound(i + 1));
            assert!(lo < hi, "bucket {i}: [{lo}, {hi})");
            assert!(4 * (hi - lo) <= lo.max(4), "bucket {i}: [{lo}, {hi})");
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi - 1), i);
        }
        let last = Histogram::lower_bound(Histogram::BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(last), Histogram::BUCKETS - 1);
    }

    #[test]
    fn a_change_well_under_2x_moves_the_p50() {
        let p50 = |us: u64| {
            let h = Histogram::new();
            for _ in 0..1_000 {
                h.record(Duration::from_micros(us));
            }
            h.quantile_us(0.5).unwrap()
        };
        let (before, after) = (p50(36), p50(25));
        assert_ne!(before, after, "36 µs and 25 µs must not share a bucket");
        // 25% apart inside one octave, where power-of-two buckets read
        // both as 63.
        assert_ne!(p50(36), p50(45), "36 µs and 45 µs must not share a bucket");
        assert!((36..=45).contains(&before), "36 µs p50 read as {before}");
        assert!((25..=31).contains(&after), "25 µs p50 read as {after}");
    }

    #[test]
    fn quantiles_track_recorded_latencies() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), None);
        for _ in 0..99 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(50));
        let p50 = h.quantile_us(0.50).unwrap();
        let p999 = h.quantile_us(0.999).unwrap();
        assert_eq!(p50, 11, "p50 estimate should be the 10 µs bucket's top");
        assert!(
            p999 >= 32_768,
            "p999 estimate {p999} should see the 50 ms outlier"
        );
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn render_includes_counters_and_cache_stats() {
        let m = ServerMetrics::new();
        m.accepted.fetch_add(3, Ordering::Relaxed);
        m.observe(200, Duration::from_micros(100));
        m.observe(422, Duration::from_micros(200));
        let stats = CacheStats {
            hits: 7,
            misses: 2,
            entries: 2,
            shard_contention: 1,
        };
        let text = m.render(
            &stats,
            4,
            9,
            2,
            Some(crate::respcache::ResponseCacheStats {
                entries: 3,
                bytes: 1234,
            }),
        );
        assert!(text.contains("serve_workers 2"), "{text}");
        assert!(text.contains("serve_queue_depth 4"), "{text}");
        assert!(text.contains("serve_queue_depth_high_water 9"), "{text}");
        assert!(text.contains("serve_accepted_total 3"), "{text}");
        assert!(
            text.contains("serve_responses_total{status=\"200\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("serve_responses_total{status=\"422\"} 1"),
            "{text}"
        );
        assert!(text.contains("latency_us_count 2"), "{text}");
        // 100 µs lands in [96, 112), 200 µs in [192, 224): exclusive integer bounds.
        assert!(text.contains("latency_us_bucket{le=\"112\"} 1\n"), "{text}");
        assert!(text.contains("latency_us_bucket{le=\"224\"} 2\n"), "{text}");
        assert!(text.contains("cache_hits 7"), "{text}");
        assert!(text.contains("cache_shard_contention 1"), "{text}");
        // Every pipeline counter is part of the schema even when idle:
        // dashboards scrape them unconditionally, by these names in this
        // order. The values are the global collector's, which other tests
        // in this binary also bump.
        let pipeline: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("pipeline_")?.split_once(' '))
            .map(|(name, _)| name)
            .collect();
        assert_eq!(
            pipeline,
            [
                "engine_jobs",
                "engine_batches",
                "sim_runs",
                "sim_events",
                "sim_ff_jumps",
                "sim_ff_periods_skipped",
                "sim_queue_high_water",
                "mc_samples",
                "batch_points",
                "cache_hits",
                "cache_misses",
                "cache_shard_contention",
                "optimize_generations",
                "optimize_evals",
                "optimize_front_size",
                "cache_response_hits",
                "cache_response_misses",
                "cache_response_inflight_waits",
            ],
            "{text}"
        );
        assert!(text.contains("serve_panics_total 0"), "{text}");
        assert!(text.contains("response_cache_entries 3"), "{text}");
        assert!(text.contains("response_cache_bytes 1234"), "{text}");
    }
}
