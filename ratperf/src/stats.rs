//! Order statistics over samples.

/// Quantile `q` of `samples` by linear interpolation between closest ranks
/// (the "type 7" definition). Sorts in place; `None` when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// How many of `samples` lie strictly above `value`.
pub fn count_above(samples: &[f64], value: f64) -> usize {
    samples.iter().filter(|&&s| s > value).count()
}
