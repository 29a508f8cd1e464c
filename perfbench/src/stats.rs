//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! geometric means, schedule-relative latency, the backlog rule and the
//! `max_rate_qps` pick. Everything here is pure and unit-tested.

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for even counts). `NaN` for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 0-based nearest-rank index of percentile `p` (in `(0, 1)`) among `n`
/// samples: the smallest rank with at least `p·n` samples at or below it.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Whether `n` samples support percentile `p`: at least [`MIN_BEYOND`]
/// samples must lie beyond its rank.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - (rank(n, p) + 1) >= MIN_BEYOND
}

/// Nearest-rank percentile `p` of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples would lie beyond it (see [`supports`]).
pub fn tail(xs: &[f64], p: f64) -> Option<f64> {
    supports(xs.len(), p).then(|| sorted(xs)[rank(xs.len(), p)])
}

/// Nearest-rank percentile without the sample rule — for per-layer
/// figures such as the generator's lateness, which are diagnostics.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    sorted(xs)[rank(xs.len(), p)]
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geomean needs positive values: {xs:?}"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Timing of one open-loop request, as offsets (seconds) from the start
/// of its rate phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// When the Poisson schedule said to send it.
    pub scheduled: f64,
    /// When it was actually written to a connection.
    pub sent: f64,
    /// When its response had been read.
    pub done: f64,
}

impl Timing {
    /// Latency as the user of an open system sees it: from the
    /// scheduled arrival, so a stall that delays later sends counts
    /// against every request it delays.
    pub fn latency(&self) -> f64 {
        self.done - self.scheduled
    }

    /// How late the generator sent it (never negative: a sender that
    /// wakes early still sends at its schedule).
    pub fn lateness(&self) -> f64 {
        (self.sent - self.scheduled).max(0.0)
    }
}

/// The backlog rule: a rate phase has a growing backlog when the median
/// lateness of the last quarter of its sends (in schedule order) exceeds
/// that of the first quarter by more than `limit` (same unit as the
/// lateness values). A stable open system has stationary lateness; an
/// overloaded one falls further behind with every request.
pub fn backlog_grows(lateness_in_schedule_order: &[f64], limit: f64) -> bool {
    let n = lateness_in_schedule_order.len();
    if n < 4 {
        return false;
    }
    let q = n / 4;
    let first = median(&lateness_in_schedule_order[..q]);
    let last = median(&lateness_in_schedule_order[n - q..]);
    last - first > limit
}

/// One offered rate of an open-loop run, as the `max_rate_qps` rule
/// sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RatePoint {
    pub offered: f64,
    /// p99 latency (ms); `None` when the sample does not support it.
    pub p99_ms: Option<f64>,
    pub backlog_grows: bool,
    pub failed: usize,
}

/// The highest offered rate whose p99 meets `limit_ms`, with a
/// supported sample, no growing backlog and no failed request. `None`
/// when no rate qualifies.
pub fn max_rate(points: &[RatePoint], limit_ms: f64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.p99_ms.is_some_and(|v| v <= limit_ms) && !p.backlog_grows && p.failed == 0)
        .map(|p| p.offered)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n shuffled deterministically, so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 (1-based), 10 beyond — supported.
        assert!(supports(1000, 0.99));
        assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990, only 9 beyond — refused.
        assert!(!supports(999, 0.99));
        assert_eq!(tail(&ramp(999), 0.99), None);
        // p90 needs 100.
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        assert_eq!(tail(&ramp(100), 0.90), Some(90.0));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn median_is_a_supported_percentile_from_twenty_samples() {
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert_eq!(percentile(&ramp(20), 0.5), 10.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn latency_counts_from_the_schedule_not_the_send() {
        let t = Timing {
            scheduled: 1.000,
            sent: 1.040,
            done: 1.050,
        };
        assert!(
            (t.latency() - 0.050).abs() < 1e-12,
            "includes the 40 ms send delay"
        );
        assert!((t.lateness() - 0.040).abs() < 1e-12);
        let early = Timing {
            scheduled: 2.0,
            sent: 1.999,
            done: 2.001,
        };
        assert_eq!(early.lateness(), 0.0, "lateness is never negative");
    }

    #[test]
    fn backlog_rule_flags_only_growth() {
        // Stationary lateness, even if large: no growth.
        let flat = vec![5.0; 100];
        assert!(!backlog_grows(&flat, 1.0));
        // Linear growth of 0.1 per request over 100 requests: the last
        // quarter sits ~7.5 above the first.
        let growing: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        assert!(backlog_grows(&growing, 1.0));
        assert!(!backlog_grows(&growing, 10.0));
        // Too short to judge.
        assert!(!backlog_grows(&[0.0, 100.0, 200.0], 1.0));
    }

    #[test]
    fn max_rate_picks_the_highest_passing_rate() {
        let p = |offered, p99, backlog, failed| RatePoint {
            offered,
            p99_ms: p99,
            backlog_grows: backlog,
            failed,
        };
        let curve = [
            p(250.0, Some(5.0), false, 0),
            p(500.0, Some(9.0), false, 0),
            p(850.0, Some(80.0), false, 0),
        ];
        assert_eq!(max_rate(&curve, 50.0), Some(500.0));
        assert_eq!(max_rate(&curve, 100.0), Some(850.0));
        // A growing backlog or a failure disqualifies a rate even when
        // its p99 meets the limit.
        let curve = [p(250.0, Some(5.0), false, 0), p(500.0, Some(9.0), true, 0)];
        assert_eq!(max_rate(&curve, 50.0), Some(250.0));
        let curve = [p(250.0, Some(5.0), false, 0), p(500.0, Some(9.0), false, 1)];
        assert_eq!(max_rate(&curve, 50.0), Some(250.0));
        // An unsupported p99 never qualifies.
        assert_eq!(max_rate(&[p(250.0, None, false, 0)], 50.0), None);
    }
}
