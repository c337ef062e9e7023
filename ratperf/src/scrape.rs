//! Parsing `rat serve`'s plaintext `GET /metrics` and differencing two
//! scrapes, so counts cover exactly the timed window.

use std::collections::BTreeMap;

/// One `/metrics` scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    values: BTreeMap<String, f64>,
    /// `(upper bound in µs, requests in that bucket)`, ascending.
    buckets: Vec<(f64, f64)>,
}

impl Scrape {
    /// Parse the `name value` lines of a `/metrics` body.
    pub fn parse(text: &str) -> Scrape {
        let mut values = BTreeMap::new();
        let mut cumulative = Vec::new();
        for line in text.lines() {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(v) = value.trim().parse::<f64>() else {
                continue;
            };
            if let Some(le) = name
                .strip_prefix("latency_us_bucket{le=\"")
                .and_then(|r| r.strip_suffix("\"}"))
            {
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(f64::INFINITY)
                };
                cumulative.push((le, v));
            } else {
                values.insert(name.to_string(), v);
            }
        }
        cumulative.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = 0.0;
        let buckets = cumulative
            .into_iter()
            .map(|(le, cum)| {
                let n = cum - prev;
                prev = cum;
                (le, n)
            })
            .collect();
        Scrape { values, buckets }
    }

    /// A counter or gauge; 0 when the server did not print it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `serve_responses_total{status="200"}`.
    pub fn ok_responses(&self) -> f64 {
        self.get("serve_responses_total{status=\"200\"}")
    }

    /// `after − before` for counter `name`.
    pub fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
        after.get(name) - before.get(name)
    }

    /// Quantile `q` of the server-side latencies recorded between two
    /// scrapes, in µs. The server's histogram has power-of-two buckets, so
    /// this is the bucket's upper bound minus one, as the server itself
    /// reports its quantiles.
    pub fn delta_quantile_us(before: &Scrape, after: &Scrape, q: f64) -> Option<f64> {
        let count_before = |le: f64| {
            before
                .buckets
                .iter()
                .find(|(b, _)| *b == le)
                .map_or(0.0, |(_, n)| *n)
        };
        let delta: Vec<(f64, f64)> = after
            .buckets
            .iter()
            .map(|&(le, n)| (le, n - count_before(le)))
            .collect();
        let total: f64 = delta.iter().map(|(_, n)| n).sum();
        if total <= 0.0 {
            return None;
        }
        let rank = (q * total).ceil().max(1.0);
        let mut seen = 0.0;
        for (le, n) in delta {
            seen += n;
            if seen >= rank {
                return Some(le - 1.0);
            }
        }
        None
    }
}
