//! Zero-dependency observability: wall-clock spans, typed metrics, exporters.
//!
//! The RAT pipeline explains where *predicted* time goes; this module explains
//! where *host* time goes while computing those predictions. It provides:
//!
//! - **Hierarchical wall-clock spans** ([`Telemetry::span`]): RAII guards that
//!   record `(name, path, thread, start, end)` with monotonic timestamps taken
//!   against a per-collector epoch. Nesting is tracked per thread via a span
//!   stack; a parent's logical context can be carried onto worker threads with
//!   [`Telemetry::scoped_prefix`] (the engine does this, so `engine.job` spans
//!   nest under the analysis phase that spawned them).
//! - **Typed counters and gauges** ([`Metric`]): a closed enum — simulator
//!   events processed, fast-forward periods skipped, cache hits/misses,
//!   Monte-Carlo samples, queue high-water marks — backed by one atomic each,
//!   so recording never allocates and never locks.
//! - **Two exporters**: a human-readable tree summary
//!   ([`Profile::render_tree`], deterministic in content ordering so snapshot
//!   tests are stable modulo timestamps) and Chrome `trace_event` JSON
//!   ([`Profile::to_chrome_json`], loadable in `chrome://tracing` or Perfetto).
//!
//! ## Cost model
//!
//! Collection is **off by default** and effectively free when disabled: every
//! recording entry point starts with one relaxed atomic load and returns
//! before touching thread-local state — the same shape as the simulator's
//! `TraceSink` no-op sink (DESIGN.md §11), except the decision is a runtime
//! branch rather than a monomorphized constant because the CLI flips it per
//! invocation. Hot inner loops (the simulator's event loop, the Monte-Carlo
//! sample loop) capture the enabled flag **once per run** into a local and
//! never re-check it per event.
//!
//! When enabled, each thread records into its own buffer (`ThreadBuf`,
//! registered on first use); buffers are only merged — and sorted into a
//! deterministic order — at [`Telemetry::drain`]. The per-thread buffer is
//! behind a `Mutex` solely so `drain` can read it from another thread; the
//! owning thread's accesses are uncontended.
//!
//! Tests that need isolation construct their own [`Telemetry`] instance; the
//! instrumented library code records against [`global`], which the CLI enables
//! for `--metrics` / `--profile <path.json>`.

pub mod chrome;
pub mod json;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A typed argument attached to a span (job index, kind, size, ...).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer argument (indexes, counts).
    U64(u64),
    /// A floating-point argument (rates, factors).
    F64(f64),
    /// A string argument (kinds, names).
    Str(String),
}

/// One completed span, recorded at exit.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The span's own name (the last path segment).
    pub name: &'static str,
    /// Full slash-joined ancestry including `name`, e.g.
    /// `rat.run/sweep/engine.batch/engine.job`.
    pub path: String,
    /// Nesting depth on the recording thread (prefix segments included).
    pub depth: u32,
    /// Collector-assigned thread id (1-based, in thread-first-use order).
    pub tid: u64,
    /// Per-thread completion sequence number (drain sorts by `(tid, seq)`).
    pub seq: u64,
    /// Start, in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the collector's epoch.
    pub end_ns: u64,
    /// Typed arguments attached at enter.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The closed set of typed metrics. Counters accumulate via
/// [`Telemetry::add`]; gauges track a maximum via [`Telemetry::gauge_max`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Engine jobs executed.
    EngineJobs,
    /// Engine batches executed.
    EngineBatches,
    /// Simulator runs executed (cache hits do not run the simulator).
    SimRuns,
    /// Discrete events popped by the simulator's event loop.
    SimEvents,
    /// Steady-state jumps taken by the fast-forward detector.
    FfJumps,
    /// Whole periods skipped arithmetically by fast-forward.
    FfPeriodsSkipped,
    /// High-water mark of the simulator's pending-event queue (gauge).
    QueueHighWater,
    /// Monte-Carlo samples evaluated.
    McSamples,
    /// Design points evaluated through the batched SoA kernels
    /// (`solve::batch`).
    BatchPoints,
    /// Simulator-cache hits (bridged from [`CacheStats`] at drain).
    ///
    /// [`CacheStats`]: https://docs.rs/fpga-sim
    CacheHits,
    /// Simulator-cache misses (bridged at drain).
    CacheMisses,
    /// Times a simulator-cache shard lock was contended (bridged at drain).
    ShardContention,
    /// Guided-search generations run (`optimize`).
    OptimizeGenerations,
    /// Candidate design points evaluated by guided search.
    OptimizeEvals,
    /// Size of the final Pareto front reported by guided search.
    OptimizeFrontSize,
    /// Rendered-response cache hits (the serving layer's content-addressed
    /// cache; includes raw-body fast-path hits and single-flight waiters
    /// that received the leader's body).
    ResponseCacheHits,
    /// Rendered-response cache misses (each one is a leader computation).
    ResponseCacheMisses,
    /// Requests that blocked on another request's in-flight computation of
    /// the same response instead of recomputing it.
    ResponseCacheInflightWaits,
}

impl Metric {
    /// Every metric, in rendering order.
    pub const ALL: [Metric; 18] = [
        Metric::EngineJobs,
        Metric::EngineBatches,
        Metric::SimRuns,
        Metric::SimEvents,
        Metric::FfJumps,
        Metric::FfPeriodsSkipped,
        Metric::QueueHighWater,
        Metric::McSamples,
        Metric::BatchPoints,
        Metric::CacheHits,
        Metric::CacheMisses,
        Metric::ShardContention,
        Metric::OptimizeGenerations,
        Metric::OptimizeEvals,
        Metric::OptimizeFrontSize,
        Metric::ResponseCacheHits,
        Metric::ResponseCacheMisses,
        Metric::ResponseCacheInflightWaits,
    ];

    /// Stable dotted name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            Metric::EngineJobs => "engine.jobs",
            Metric::EngineBatches => "engine.batches",
            Metric::SimRuns => "sim.runs",
            Metric::SimEvents => "sim.events",
            Metric::FfJumps => "sim.ff_jumps",
            Metric::FfPeriodsSkipped => "sim.ff_periods_skipped",
            Metric::QueueHighWater => "sim.queue_high_water",
            Metric::McSamples => "mc.samples",
            Metric::BatchPoints => "batch.points",
            Metric::CacheHits => "cache.hits",
            Metric::CacheMisses => "cache.misses",
            Metric::ShardContention => "cache.shard_contention",
            Metric::OptimizeGenerations => "optimize.generations",
            Metric::OptimizeEvals => "optimize.evals",
            Metric::OptimizeFrontSize => "optimize.front_size",
            Metric::ResponseCacheHits => "cache.response.hits",
            Metric::ResponseCacheMisses => "cache.response.misses",
            Metric::ResponseCacheInflightWaits => "cache.response.inflight_waits",
        }
    }

    /// Whether this metric is a high-water gauge (merged by `max`, not sum).
    pub fn is_gauge(self) -> bool {
        matches!(self, Metric::QueueHighWater)
    }

    fn index(self) -> usize {
        Metric::ALL
            .iter()
            .position(|m| *m == self)
            .expect("metric present in ALL")
    }
}

/// Per-thread recording state: the live span stack, a logical path prefix
/// (set by the engine so worker-thread spans nest under their spawner), and
/// the completed-span buffer.
#[derive(Default)]
struct ThreadState {
    stack: Vec<&'static str>,
    prefix: String,
    spans: Vec<SpanRecord>,
    seq: u64,
}

/// One thread's buffer, shared between the owning thread (records) and
/// [`Telemetry::drain`] (merges).
struct ThreadBuf {
    tid: u64,
    state: Mutex<ThreadState>,
}

thread_local! {
    /// This thread's buffers, keyed by collector id. Almost always length 1
    /// (the global collector); tests with private collectors add entries.
    static LOCAL_BUFS: RefCell<Vec<(u64, Arc<ThreadBuf>)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(1);

/// A span/metric collector. Disabled on construction; recording calls are a
/// single relaxed atomic load while disabled.
pub struct Telemetry {
    id: u64,
    enabled: AtomicBool,
    epoch: Instant,
    registry: Mutex<Vec<Arc<ThreadBuf>>>,
    next_tid: AtomicU64,
    counters: [AtomicU64; Metric::ALL.len()],
}

impl Telemetry {
    /// A fresh, disabled collector with its own epoch and thread-id space.
    pub fn new() -> Self {
        Telemetry {
            id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            registry: Mutex::new(Vec::new()),
            next_tid: AtomicU64::new(1),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Start collecting.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop collecting. Already-open spans still record at exit.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether recording is currently on. Hot loops should read this once per
    /// run into a local rather than per event.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// This thread's buffer for this collector, creating and registering it
    /// on first use.
    fn buf(&self) -> Arc<ThreadBuf> {
        LOCAL_BUFS.with(|bufs| {
            let mut bufs = bufs.borrow_mut();
            if let Some((_, b)) = bufs.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(b);
            }
            let buf = Arc::new(ThreadBuf {
                tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
                state: Mutex::new(ThreadState::default()),
            });
            self.registry
                .lock()
                .expect("telemetry registry poisoned")
                .push(Arc::clone(&buf));
            bufs.push((self.id, Arc::clone(&buf)));
            buf
        })
    }

    /// Nanoseconds since this collector's epoch.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Enter a span. Returns a guard that records the span when dropped; a
    /// no-op (single atomic load) when disabled.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_args(name, Vec::new())
    }

    /// Enter a span carrying typed arguments.
    pub fn span_args(&self, name: &'static str, args: Vec<(&'static str, ArgValue)>) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard { inner: None };
        }
        let buf = self.buf();
        let (path, depth) = {
            let mut st = buf.state.lock().expect("telemetry thread buffer poisoned");
            let mut path = String::with_capacity(
                st.prefix.len() + st.stack.iter().map(|s| s.len() + 1).sum::<usize>() + name.len(),
            );
            path.push_str(&st.prefix);
            for seg in &st.stack {
                path.push_str(seg);
                path.push('/');
            }
            path.push_str(name);
            let depth =
                u32::try_from(st.prefix.matches('/').count() + st.stack.len()).unwrap_or(u32::MAX);
            st.stack.push(name);
            (path, depth)
        };
        SpanGuard {
            inner: Some(GuardInner {
                buf,
                epoch: self.epoch,
                name,
                path,
                depth,
                start_ns: self.now_ns(),
                args,
            }),
        }
    }

    /// The current thread's open-span path (`"a/b/"`-style prefix ending in
    /// `/`, or empty at top level). Used to re-root spans recorded on worker
    /// threads under the logical parent that spawned them.
    pub fn current_path_prefix(&self) -> String {
        if !self.is_enabled() {
            return String::new();
        }
        let buf = self.buf();
        let st = buf.state.lock().expect("telemetry thread buffer poisoned");
        let mut p = st.prefix.clone();
        for seg in &st.stack {
            p.push_str(seg);
            p.push('/');
        }
        p
    }

    /// Install `prefix` as this thread's logical ancestry until the returned
    /// guard drops (restoring the previous prefix). No-op when disabled.
    pub fn scoped_prefix(&self, prefix: &str) -> PrefixGuard {
        if !self.is_enabled() || prefix.is_empty() {
            return PrefixGuard { inner: None };
        }
        let buf = self.buf();
        let previous = {
            let mut st = buf.state.lock().expect("telemetry thread buffer poisoned");
            std::mem::replace(&mut st.prefix, prefix.to_string())
        };
        PrefixGuard {
            inner: Some((buf, previous)),
        }
    }

    /// Add `n` to a counter. One atomic load + one atomic add when enabled.
    pub fn add(&self, metric: Metric, n: u64) {
        if self.is_enabled() {
            self.counters[metric.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise a gauge to at least `v` (high-water semantics).
    pub fn gauge_max(&self, metric: Metric, v: u64) {
        if self.is_enabled() {
            self.counters[metric.index()].fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Merge every thread's buffer into one deterministic [`Profile`] and
    /// reset the collector (spans taken, counters zeroed). Span order is
    /// `(tid, seq)` — stable for a given execution regardless of drain timing.
    pub fn drain(&self) -> Profile {
        let mut spans = Vec::new();
        let mut open_spans = 0usize;
        for buf in self
            .registry
            .lock()
            .expect("telemetry registry poisoned")
            .iter()
        {
            let mut st = buf.state.lock().expect("telemetry thread buffer poisoned");
            open_spans += st.stack.len();
            spans.append(&mut st.spans);
        }
        spans.sort_by_key(|a| (a.tid, a.seq));
        let metrics = Metric::ALL
            .iter()
            .map(|m| (*m, self.counters[m.index()].swap(0, Ordering::Relaxed)))
            .collect();
        Profile {
            spans,
            metrics,
            open_spans,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("id", &self.id)
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

struct GuardInner {
    buf: Arc<ThreadBuf>,
    epoch: Instant,
    name: &'static str,
    path: String,
    depth: u32,
    start_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
}

/// RAII span guard: records the span into the owning thread's buffer when
/// dropped (including during unwinding, so every enter has a matching exit).
#[must_use = "a span guard records when dropped; binding it to _ ends the span immediately"]
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(g) = self.inner.take() else { return };
        let end_ns = u64::try_from(g.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut st = g
            .buf
            .state
            .lock()
            .expect("telemetry thread buffer poisoned");
        // Guards drop in LIFO order per thread, so the popped name is ours.
        st.stack.pop();
        st.seq += 1;
        let seq = st.seq;
        let tid = g.buf.tid;
        st.spans.push(SpanRecord {
            name: g.name,
            path: g.path,
            depth: g.depth,
            tid,
            seq,
            start_ns: g.start_ns,
            end_ns,
            args: g.args,
        });
    }
}

/// Guard restoring a thread's previous logical prefix on drop.
#[must_use = "binding a prefix guard to _ removes the prefix immediately"]
pub struct PrefixGuard {
    inner: Option<(Arc<ThreadBuf>, String)>,
}

impl Drop for PrefixGuard {
    fn drop(&mut self) {
        if let Some((buf, previous)) = self.inner.take() {
            buf.state
                .lock()
                .expect("telemetry thread buffer poisoned")
                .prefix = previous;
        }
    }
}

/// A drained snapshot: every completed span plus the metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Completed spans, sorted by `(tid, seq)`.
    pub spans: Vec<SpanRecord>,
    /// Every metric with its drained value (zeros included), in
    /// [`Metric::ALL`] order.
    pub metrics: Vec<(Metric, u64)>,
    /// Spans still open at drain time (0 when collection is balanced).
    pub open_spans: usize,
}

impl Profile {
    /// This profile's value for `metric`.
    pub fn metric(&self, metric: Metric) -> u64 {
        self.metrics
            .iter()
            .find(|(m, _)| *m == metric)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Monte-Carlo sampling rate, derived from [`Metric::McSamples`] and the
    /// total wall time of `uncertainty` spans. `None` when no MC ran.
    pub fn mc_samples_per_sec(&self) -> Option<f64> {
        let samples = self.metric(Metric::McSamples);
        if samples == 0 {
            return None;
        }
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == "uncertainty")
            .map(SpanRecord::duration_ns)
            .sum();
        if ns == 0 {
            return None;
        }
        Some(samples as f64 * 1e9 / ns as f64)
    }

    /// Render the human-readable tree summary: spans aggregated by path
    /// (count, total, self time), children indented under parents, metrics
    /// appended. Ordering is lexicographic by path — deterministic for a
    /// given execution, so snapshots are stable once durations are scrubbed
    /// (every volatile field is a `key=value` token).
    pub fn render_tree(&self) -> String {
        use std::collections::BTreeMap;
        let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = agg.entry(s.path.as_str()).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.duration_ns();
        }
        // Self time: a node's total minus its direct children's totals.
        let mut self_ns: BTreeMap<&str, u64> = agg.iter().map(|(p, (_, t))| (*p, *t)).collect();
        for (path, (_, total)) in &agg {
            if let Some((parent, _)) = path.rsplit_once('/') {
                if let Some(p) = self_ns.get_mut(parent) {
                    *p = p.saturating_sub(*total);
                }
            }
        }
        let mut out = String::from("wall-clock profile:\n");
        if agg.is_empty() {
            out.push_str("  (no spans recorded)\n");
        }
        for (path, (count, total)) in &agg {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let indent = "  ".repeat(depth + 1);
            let label = format!("{indent}{name}");
            out.push_str(&format!(
                "{label:<40} count={count} total={} self={}\n",
                fmt_ns(*total),
                fmt_ns(self_ns.get(path).copied().unwrap_or(0)),
            ));
        }
        out.push_str("metrics:\n");
        let mut any = false;
        for (m, v) in &self.metrics {
            if *v > 0 {
                any = true;
                out.push_str(&format!("  {:<30} {v}\n", m.name()));
            }
        }
        if let Some(rate) = self.mc_samples_per_sec() {
            any = true;
            out.push_str(&format!("  {:<30} rate={rate:.0}\n", "mc.samples_per_sec"));
        }
        if !any {
            out.push_str("  (no metrics recorded)\n");
        }
        out
    }

    /// Export as Chrome `trace_event` JSON (see [`chrome`]).
    pub fn to_chrome_json(&self) -> String {
        chrome::render_profile(self)
    }
}

/// Format a nanosecond duration with an adaptive unit (`ns`/`us`/`ms`/`s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The process-wide collector the instrumented library layers record against
/// and the CLI drains for `--metrics` / `--profile`.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

/// Whether the global collector is recording.
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Enter a span on the global collector.
pub fn span(name: &'static str) -> SpanGuard {
    global().span(name)
}

/// Enter a span with arguments on the global collector.
pub fn span_args(name: &'static str, args: Vec<(&'static str, ArgValue)>) -> SpanGuard {
    global().span_args(name, args)
}

/// Add to a counter on the global collector.
pub fn add(metric: Metric, n: u64) {
    global().add(metric, n);
}

/// Raise a gauge on the global collector.
pub fn gauge_max(metric: Metric, v: u64) {
    global().gauge_max(metric, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let t = Telemetry::new();
        {
            let _a = t.span("a");
            let _b = t.span("b");
        }
        t.add(Metric::EngineJobs, 5);
        t.gauge_max(Metric::QueueHighWater, 9);
        let p = t.drain();
        assert!(p.spans.is_empty());
        assert_eq!(p.metric(Metric::EngineJobs), 0);
        assert_eq!(p.open_spans, 0);
    }

    #[test]
    fn spans_nest_and_paths_compose() {
        let t = Telemetry::new();
        t.enable();
        {
            let _a = t.span("a");
            {
                let _b = t.span_args("b", vec![("job", ArgValue::U64(3))]);
            }
            let _c = t.span("c");
        }
        let p = t.drain();
        let paths: Vec<&str> = p.spans.iter().map(|s| s.path.as_str()).collect();
        // Exit order: b closes first, then c, then a.
        assert_eq!(paths, vec!["a/b", "a/c", "a"]);
        assert_eq!(p.spans[0].depth, 1);
        assert_eq!(p.spans[2].depth, 0);
        assert_eq!(p.spans[0].args, vec![("job", ArgValue::U64(3))]);
        assert_eq!(p.open_spans, 0);
        // Parent brackets child.
        assert!(p.spans[2].start_ns <= p.spans[0].start_ns);
        assert!(p.spans[2].end_ns >= p.spans[0].end_ns);
    }

    #[test]
    fn prefix_reroots_worker_spans() {
        let t = Telemetry::new();
        t.enable();
        let parent = {
            let _a = t.span("phase");
            t.current_path_prefix()
        };
        assert_eq!(parent, "phase/");
        {
            let _p = t.scoped_prefix(&parent);
            let _j = t.span("job");
        }
        // Prefix restored after the guard.
        assert_eq!(t.current_path_prefix(), "");
        let p = t.drain();
        let job = p.spans.iter().find(|s| s.name == "job").expect("job span");
        assert_eq!(job.path, "phase/job");
        assert_eq!(job.depth, 1);
    }

    #[test]
    fn counters_sum_and_gauges_max() {
        let t = Telemetry::new();
        t.enable();
        t.add(Metric::SimEvents, 10);
        t.add(Metric::SimEvents, 5);
        t.gauge_max(Metric::QueueHighWater, 4);
        t.gauge_max(Metric::QueueHighWater, 9);
        t.gauge_max(Metric::QueueHighWater, 2);
        let p = t.drain();
        assert_eq!(p.metric(Metric::SimEvents), 15);
        assert_eq!(p.metric(Metric::QueueHighWater), 9);
        // Drain resets.
        assert_eq!(t.drain().metric(Metric::SimEvents), 0);
        assert!(Metric::QueueHighWater.is_gauge());
        assert!(!Metric::SimEvents.is_gauge());
    }

    #[test]
    fn threads_merge_deterministically_at_drain() {
        let t = Arc::new(Telemetry::new());
        t.enable();
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let t2 = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for j in 0..i + 1 {
                    let _s = t2.span_args("w", vec![("j", ArgValue::U64(j))]);
                }
            }));
        }
        for h in handles {
            h.join().expect("worker thread");
        }
        let p = t.drain();
        assert_eq!(p.spans.len(), 1 + 2 + 3 + 4);
        assert_eq!(p.open_spans, 0);
        // Sorted by (tid, seq).
        let keys: Vec<(u64, u64)> = p.spans.iter().map(|s| (s.tid, s.seq)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn tree_summary_aggregates_and_orders() {
        let t = Telemetry::new();
        t.enable();
        for _ in 0..3 {
            let _a = t.span("outer");
            let _b = t.span("inner");
        }
        t.add(Metric::EngineJobs, 3);
        let p = t.drain();
        let tree = p.render_tree();
        let outer_line = tree
            .lines()
            .position(|l| l.contains("outer"))
            .expect("outer");
        let inner_line = tree
            .lines()
            .position(|l| l.trim_start().starts_with("inner"))
            .expect("inner");
        assert!(
            outer_line < inner_line,
            "parent renders before child:\n{tree}"
        );
        assert!(tree.contains("count=3"), "{tree}");
        assert!(tree.contains("engine.jobs"), "{tree}");
        assert!(tree.contains("total="), "{tree}");
        assert!(tree.contains("self="), "{tree}");
    }

    #[test]
    fn mc_rate_derives_from_samples_and_span_time() {
        let t = Telemetry::new();
        t.enable();
        {
            let _u = t.span("uncertainty");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        t.add(Metric::McSamples, 1000);
        let p = t.drain();
        let rate = p.mc_samples_per_sec().expect("rate");
        assert!(rate > 0.0 && rate.is_finite(), "rate {rate}");
        assert!(p.render_tree().contains("mc.samples_per_sec"));
    }

    #[test]
    fn metric_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_ns(7), "7ns");
        assert_eq!(fmt_ns(7_500), "7.5us");
        assert_eq!(fmt_ns(7_500_000), "7.500ms");
        assert_eq!(fmt_ns(7_500_000_000), "7.500s");
    }
}
