//! Span recording for the traced run, on a private
//! [`rat_core::telemetry::Telemetry`] collector, and the per-request
//! self-time fold over what it recorded.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use rat_core::telemetry::{ArgValue, Profile, SpanGuard, Telemetry};

/// Records spans tagged with a request id. Spans are kept in memory until
/// [`Tracer::finish`].
pub struct Tracer {
    telemetry: Telemetry,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        let telemetry = Telemetry::new();
        telemetry.enable();
        Tracer { telemetry }
    }

    /// A tracer that records nothing, for untraced passes.
    pub fn off() -> Self {
        Tracer {
            telemetry: Telemetry::new(),
        }
    }

    /// Open a span named `name` for request `rid`, nested in the innermost
    /// open span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, rid: u64) -> SpanGuard {
        self.telemetry
            .span_args(name, vec![("rid", ArgValue::U64(rid))])
    }

    /// Every span recorded so far, with self times.
    pub fn finish(&self) -> Trace {
        Trace::new(self.telemetry.drain())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// The recorded spans with each one's request id and self time.
pub struct Trace {
    /// The drained spans, exportable with [`Profile::to_chrome_json`].
    pub profile: Profile,
    rids: Vec<u64>,
    self_ns: Vec<u64>,
}

impl Trace {
    /// Self time of every span: its duration minus its children's. Spans of
    /// one thread nest, so in start order a span's parent is the latest
    /// earlier span one level shallower.
    fn new(profile: Profile) -> Self {
        let spans = &profile.spans;
        let rids = spans
            .iter()
            .map(|s| match s.args.iter().find(|(k, _)| *k == "rid") {
                Some((_, ArgValue::U64(rid))) => *rid,
                _ => u64::MAX,
            })
            .collect();
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].tid, spans[i].start_ns, spans[i].depth));
        let mut self_ns: Vec<u64> = spans.iter().map(|s| s.duration_ns()).collect();
        let mut open: Vec<usize> = Vec::new();
        for i in order {
            while open
                .last()
                .is_some_and(|&p| spans[p].tid != spans[i].tid || spans[p].depth >= spans[i].depth)
            {
                open.pop();
            }
            if let Some(&p) = open.last() {
                self_ns[p] = self_ns[p].saturating_sub(spans[i].duration_ns());
            }
            open.push(i);
        }
        Trace {
            profile,
            rids,
            self_ns,
        }
    }

    /// How many spans were recorded.
    pub fn len(&self) -> usize {
        self.profile.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.profile.spans.is_empty()
    }

    /// Per request in `rids`, the summed self time (ns) of spans named in
    /// `names`; requests without such a span are absent.
    pub fn per_request_self_ns(&self, names: &[&str], rids: Range<u64>) -> Vec<u64> {
        let mut by_rid: BTreeMap<u64, u64> = BTreeMap::new();
        for ((s, &rid), &t) in self.profile.spans.iter().zip(&self.rids).zip(&self.self_ns) {
            if rids.contains(&rid) && names.contains(&s.name) {
                *by_rid.entry(rid).or_default() += t;
            }
        }
        by_rid.into_values().collect()
    }
}

/// What one recorded span costs, in ns: the mean over `n` empty spans.
pub fn span_cost_ns(n: usize) -> f64 {
    let t = Tracer::new();
    let start = Instant::now();
    for i in 0..n {
        drop(t.span("trace.empty", i as u64));
    }
    let elapsed = start.elapsed();
    std::hint::black_box(t.finish().len());
    elapsed.as_nanos() as f64 / n as f64
}
