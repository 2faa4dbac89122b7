//! The benchmark's own arithmetic: percentiles, self time, and the
//! overlap classification behind `server.door_stall_*`. Kept free of I/O
//! so every rule is unit-tested.

use std::collections::BTreeMap;

/// Samples a reported percentile must leave above it: a tail figure
/// resting on fewer observations is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond the chosen rank — e.g. a
/// p99 needs at least 1,000 samples and a p50 at least 20.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median (mean of the middle two for an even count); 0 for an empty
/// slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty slice (a layer the workload never
/// entered spent no time there).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self time per request: a layer's span minus its child layer's span
/// for the same request id. The traced run measures each depth in its
/// own replay of the same operation sequence, so the child of request
/// `i` at the wire is request `i` at the service, and so on down. A
/// request with no child span keeps its whole duration.
pub fn self_times(parent_us: &BTreeMap<usize, f64>, child_us: &BTreeMap<usize, f64>) -> Vec<f64> {
    parent_us
        .iter()
        .map(|(req, p)| p - child_us.get(req).copied().unwrap_or(0.0))
        .collect()
}

/// A half-open time interval in microseconds since the phase started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start, inclusive.
    pub start: f64,
    /// End, exclusive.
    pub end: f64,
}

impl Interval {
    fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Splits read latencies into those whose window overlapped at least one
/// writer interval (an apply, reveal, policy tick or checkpoint holding
/// or waiting for the service door) and those that overlapped none.
/// Returns `(overlapped, clean)` latencies.
pub fn classify_overlap(reads: &[(Interval, f64)], writers: &[Interval]) -> (Vec<f64>, Vec<f64>) {
    let mut sorted = writers.to_vec();
    sorted.sort_by(|a, b| a.start.total_cmp(&b.start));
    // Writers run on one generator thread, so they never overlap one
    // another; the longest writer still bounds how far back to look.
    let longest = sorted.iter().map(|w| w.end - w.start).fold(0.0, f64::max);
    let mut overlapped = Vec::new();
    let mut clean = Vec::new();
    for (window, latency) in reads {
        // Writers starting at or after the read ends cannot overlap it.
        let upper = sorted.partition_point(|w| w.start < window.end);
        let hit = sorted[..upper]
            .iter()
            .rev()
            .take_while(|w| w.start + longest > window.start)
            .any(|w| w.overlaps(window));
        if hit {
            overlapped.push(*latency);
        } else {
            clean.push(*latency);
        }
    }
    (overlapped, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let xs = ramp(1000);
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 95.0), Some(950.0));
        // Order of input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 99.0), Some(990.0));
        // Non-integral ranks round up: 0.5 * 21 = 10.5 -> rank 11.
        assert_eq!(percentile(&ramp(21), 50.0), Some(11.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1,000 samples leaves exactly ten above rank 990.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // One sample fewer and only nine remain beyond rank 990.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // p50 needs 20 samples; 19 leave only nine beyond rank 10.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        // The maximum is never a supported percentile.
        assert_eq!(percentile(&ramp(100_000), 100.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn self_time_subtracts_the_child_of_the_same_request() {
        let wire: BTreeMap<usize, f64> = [(0, 100.0), (1, 250.0), (2, 40.0)].into();
        let service: BTreeMap<usize, f64> = [(0, 70.0), (1, 200.0)].into();
        // Request 2 has no service span (e.g. an in-process tick): all
        // of its time is the wire layer's own.
        assert_eq!(self_times(&wire, &service), vec![30.0, 50.0, 40.0]);
        // A child slower than its parent (timer noise) stays negative
        // rather than being clamped, so means are unbiased.
        let slow: BTreeMap<usize, f64> = [(0, 110.0)].into();
        assert_eq!(self_times(&[(0, 100.0)].into(), &slow), vec![-10.0]);
        assert_eq!(mean(&self_times(&wire, &service)), 40.0);
    }

    #[test]
    fn reads_are_split_by_writer_overlap() {
        let iv = |start: f64, end: f64| Interval { start, end };
        let writers = [iv(100.0, 200.0), iv(500.0, 520.0)];
        let reads = [
            (iv(0.0, 50.0), 1.0),    // before any writer
            (iv(90.0, 110.0), 2.0),  // straddles the first writer's start
            (iv(150.0, 160.0), 3.0), // inside the first writer
            (iv(200.0, 300.0), 4.0), // starts exactly when it ends: clean
            (iv(510.0, 900.0), 5.0), // overlaps the second writer's tail
            (iv(300.0, 500.0), 6.0), // ends exactly when the second starts
        ];
        let (overlapped, clean) = classify_overlap(&reads, &writers);
        assert_eq!(overlapped, vec![2.0, 3.0, 5.0]);
        assert_eq!(clean, vec![1.0, 4.0, 6.0]);
        // No writers: every read is clean.
        let (o, c) = classify_overlap(&reads, &[]);
        assert!(o.is_empty());
        assert_eq!(c.len(), reads.len());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_and_mean_of_nothing_are_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
    }
}
