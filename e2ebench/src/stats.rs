//! The benchmark's arithmetic: nearest-rank quantiles, the reporting rule
//! for tail percentiles, and the capacity search over a fixed rate grid.

/// Tail percentiles the report may use, highest first, as
/// `(label, numerator, denominator)`.
const TAIL_LADDER: [(&str, u64, u64); 4] =
    [("p99.9", 999, 1000), ("p99", 99, 100), ("p90", 9, 10), ("p50", 1, 2)];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: u64 = 10;

/// The highest percentile on the ladder with at least [`TAIL_SUPPORT`]
/// samples beyond it, for `n` samples: `(label, q)`. `None` below 20
/// samples, where not even the median has ten samples above it.
pub fn tail_rank(n: u64) -> Option<(&'static str, f64)> {
    TAIL_LADDER
        .iter()
        .find(|(_, num, den)| n * (den - num) >= TAIL_SUPPORT * den)
        .map(|&(label, num, den)| (label, num as f64 / den as f64))
}

/// Nearest-rank quantile of ascending `sorted`: the value at rank
/// `ceil(q * n)`, clamped to `[1, n]`. `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// A timing reported as its median plus the highest supported tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: u64,
    /// Median (nearest rank).
    pub median: f64,
    /// `(label, value)` of the highest percentile with ten samples beyond
    /// it, if the sample supports one.
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// Summarize `samples` (any order; infinities allowed, they sort last).
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len() as u64;
        Summary {
            n,
            median: quantile(&s, 0.5),
            tail: tail_rank(n).map(|(label, q)| (label, quantile(&s, q))),
        }
    }
}

/// One point of a capacity sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Offered rate, requests per (virtual) second.
    pub rate: f64,
    /// Latency at the limit percentile, µs.
    pub p99_us: f64,
    /// Failed over attempted.
    pub failed_frac: f64,
}

/// The highest offered rate that meets both limits, scanning the grid in
/// ascending rate order and stopping at the first point that misses
/// either: a rate above a failing point never counts, so a noisy pass
/// past the knee cannot inflate the figure. `None` if the lowest rate
/// already fails.
pub fn capacity(points: &[RatePoint], p99_limit_us: f64, max_failed_frac: f64) -> Option<f64> {
    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    sorted
        .iter()
        .take_while(|p| p.p99_us < p99_limit_us && p.failed_frac <= max_failed_frac)
        .last()
        .map(|p| p.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_rank(19), None);
        assert_eq!(tail_rank(20).map(|t| t.0), Some("p50"));
        assert_eq!(tail_rank(99).map(|t| t.0), Some("p50"));
        assert_eq!(tail_rank(100).map(|t| t.0), Some("p90"));
        assert_eq!(tail_rank(999).map(|t| t.0), Some("p90"));
        assert_eq!(tail_rank(1000).map(|t| t.0), Some("p99"));
        assert_eq!(tail_rank(9999).map(|t| t.0), Some("p99"));
        assert_eq!(tail_rank(10_000).map(|t| t.0), Some("p99.9"));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_reports_the_supported_tail_and_counts_failures_as_misses() {
        // 1000 samples: the p99 has exactly ten samples beyond it. Ten of
        // them are failures (infinite latency), so the p99 is the last
        // finite sample and anything higher would read as a miss.
        let mut v: Vec<f64> = (1..=990).map(f64::from).collect();
        v.extend([f64::INFINITY; 10]);
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.0);
        assert_eq!(s.tail, Some(("p99", 990.0)));
        let small = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((small.median, small.tail), (2.0, None));
    }

    #[test]
    fn capacity_is_the_last_passing_rate_before_the_first_miss() {
        let p = |rate: f64, p99_us: f64, failed_frac: f64| RatePoint { rate, p99_us, failed_frac };
        // Unsorted input; 400 passes again after 300 missed on failures,
        // but the scan stops at the first miss.
        let pts = [
            p(300.0, 3_000.0, 0.02),
            p(100.0, 1_000.0, 0.0),
            p(400.0, 2_000.0, 0.0),
            p(200.0, 4_000.0, 0.01),
        ];
        assert_eq!(capacity(&pts, 5_000.0, 0.01), Some(200.0));
        // The latency limit is strict: a p99 at the limit misses.
        assert_eq!(capacity(&pts, 4_000.0, 0.01), Some(100.0));
        assert_eq!(capacity(&pts, 500.0, 0.01), None);
        assert_eq!(capacity(&[], 500.0, 0.01), None);
    }
}
