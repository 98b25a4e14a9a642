//! Order statistics over latency samples.
//!
//! A tail percentile is only worth reporting when enough samples lie beyond
//! it: the benchmark reports the highest percentile of a fixed ladder that
//! has at least [`MIN_BEYOND`] samples above it, always together with the
//! sample count, so that "p99 from 16 requests" cannot happen.

use ttw_netsim::rng::SplitMix64;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder, highest first.
pub const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The value at percentile `p` (0–100) of ascending-sorted `sorted`, by the
/// nearest-rank rule: the smallest sample with at least `p`% of the samples
/// at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `len > 0` samples. The
/// small guard keeps float round-off (99.9 · 1000 / 100) from bumping an
/// exact rank up by one.
fn rank(len: usize, p: f64) -> usize {
    let exact = p * len as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, len)
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn beyond(len: usize, p: f64) -> usize {
    if len == 0 {
        return 0;
    }
    len - rank(len, p)
}

/// A tail percentile with its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile this is (e.g. 99.0).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The highest ladder percentile that has at least [`MIN_BEYOND`] samples
/// beyond it. Falls back to the median when even p50 does not qualify;
/// `None` only for an empty slice.
pub fn highest_supported(sorted: &[f64]) -> Option<Tail> {
    let median = percentile(sorted, 50.0)?;
    let chosen = LADDER
        .iter()
        .copied()
        .find(|&p| beyond(sorted.len(), p) >= MIN_BEYOND);
    Some(match chosen {
        Some(p) => Tail {
            percentile: p,
            value: percentile(sorted, p)?,
            samples: sorted.len(),
        },
        None => Tail {
            percentile: 50.0,
            value: median,
            samples: sorted.len(),
        },
    })
}

/// Sorts a sample vector in place (total order, NaN last) and returns it.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

/// Median of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Latencies kept per timed window; past this, a uniform sample.
pub const RESERVOIR: usize = 1 << 16;

/// What a timed window records about its operations, in memory that does
/// not grow with the number of operations — so that a faster program does
/// not read as a bigger one in `peak_rss_mb`: a uniform sample of at most
/// [`RESERVOIR`] latencies (all of them below that), the operation count,
/// and the work completed in each one-second window.
pub struct Samples {
    latencies: Vec<f64>,
    count: u64,
    windows: Vec<f64>,
    rng: SplitMix64,
}

impl Default for Samples {
    fn default() -> Self {
        Samples {
            latencies: Vec::new(),
            count: 0,
            windows: Vec::new(),
            rng: SplitMix64::new(0x5eed),
        }
    }
}

impl Samples {
    /// Records one operation: its latency, when it completed (seconds since
    /// the window opened) and the work it did.
    pub fn record(&mut self, micros: f64, done_at_s: f64, work: f64) {
        self.count += 1;
        if self.latencies.len() < RESERVOIR {
            self.latencies.push(micros);
        } else {
            // Reservoir sampling: keep each of `count` values with equal
            // probability.
            let slot = self.rng.next_u64() % self.count;
            if let Some(kept) = self.latencies.get_mut(slot as usize) {
                *kept = micros;
            }
        }
        let window = done_at_s.max(0.0) as usize;
        if self.windows.len() <= window {
            self.windows.resize(window + 1, 0.0);
        }
        self.windows[window] += work;
    }

    /// Adds another window's records (exact while both hold all their
    /// latencies).
    pub fn merge(&mut self, other: Samples) {
        self.count += other.count;
        let room = RESERVOIR.saturating_sub(self.latencies.len());
        self.latencies
            .extend(other.latencies.into_iter().take(room));
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), 0.0);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            *mine += theirs;
        }
    }

    /// Operations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The kept latencies, in recording order.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Work per second, as the median over the full one-second windows of a
    /// run of `elapsed` seconds. The median ignores a burst of interference
    /// that stalls a minority of the windows. Runs shorter than three
    /// windows fall back to the overall rate.
    pub fn rate(&self, elapsed: f64) -> f64 {
        let full = (elapsed.floor() as usize).min(self.windows.len());
        if full < 3 {
            return self.windows.iter().sum::<f64>() / elapsed.max(1e-9);
        }
        median(&self.windows[..full]).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(beyond(10, 50.0), 5);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let tail = highest_supported(&ramp(999)).unwrap();
        assert_eq!(tail.percentile, 90.0);
        let tail = highest_supported(&ramp(1000)).unwrap();
        assert_eq!(tail.percentile, 99.0);
        assert_eq!(tail.value, 990.0);
        assert_eq!(tail.samples, 1000);
    }

    #[test]
    fn the_ladder_tops_out_at_p99_99() {
        let s = ramp(200_000);
        assert_eq!(highest_supported(&s).unwrap().percentile, 99.99);
        assert_eq!(highest_supported(&ramp(10_009)).unwrap().percentile, 99.9);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        let tail = highest_supported(&ramp(16)).unwrap();
        assert_eq!(tail.percentile, 50.0);
        assert_eq!(tail.value, 8.0);
        assert_eq!(tail.samples, 16);
        assert!(highest_supported(&[]).is_none());
    }

    #[test]
    fn rate_ignores_a_stalled_window() {
        // 10 operations per second for 5 s, except nothing in second 2.
        let mut samples = Samples::default();
        for i in (0..50).filter(|i| !(20..30).contains(i)) {
            samples.record(1.0, i as f64 / 10.0, 1.0);
        }
        assert_eq!(samples.rate(5.0), 10.0);
        // The partial last window is not counted.
        samples.record(1.0, 5.2, 1.0);
        assert_eq!(samples.rate(5.5), 10.0);
        // Too short for windows: the overall rate.
        let mut short = Samples::default();
        short.record(1.0, 0.5, 3.0);
        assert_eq!(short.rate(2.0), 1.5);
    }

    #[test]
    fn samples_keep_bounded_memory_and_an_unbiased_median() {
        let mut samples = Samples::default();
        let n = 3 * RESERVOIR as u64;
        for i in 0..n {
            samples.record(i as f64, 0.0, 1.0);
        }
        assert_eq!(samples.count(), n);
        assert_eq!(samples.latencies().len(), RESERVOIR);
        let m = median(samples.latencies()).unwrap();
        let exact = n as f64 / 2.0;
        assert!((m - exact).abs() < 0.02 * exact, "median {m} vs {exact}");
    }

    #[test]
    fn merged_samples_add_counts_and_windows() {
        let mut a = Samples::default();
        let mut b = Samples::default();
        a.record(5.0, 0.1, 1.0);
        b.record(7.0, 2.5, 2.0);
        a.merge(b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.latencies(), &[5.0, 7.0]);
        assert_eq!(a.rate(3.0), 1.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }
}
