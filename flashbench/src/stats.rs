//! Order statistics and run tallies used by every workload.

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `xs`; `0.0` when empty.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `xs` (nearest rank); `0.0` when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `p`-quantile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether a timing percentile `p` over `n` samples is reportable: a tail
/// percentile must have at least ten samples beyond it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counts runs attempted and failed. A run fails when it did not finish
/// within its budget or when its oracle rejected it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, finished: bool, passed: bool) {
        self.attempted += 1;
        if !(finished && passed) {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed runs over attempted runs; `0.0` when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// `VmHWM` of this process (peak resident set) in MiB, from
/// `/proc/self/status`; `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[]), 0.0);
        // Order of the input does not matter.
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 over 100 samples leaves exactly 10 beyond it.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        // The median of 20 samples has 10 beyond it; of 19, only 9.
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
        // p99 needs a thousand samples.
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn unfinished_runs_count_as_failures() {
        let mut t = Tally::default();
        t.record(true, true);
        t.record(false, true); // ran out of budget: failed even with no violation
        t.record(true, false); // oracle rejected it
        t.record(true, true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.failed_frac(), 0.5);
        let mut u = Tally::default();
        assert_eq!(u.failed_frac(), 0.0);
        u.merge(t);
        assert_eq!(u.attempted, 4);
    }
}
