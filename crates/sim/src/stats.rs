//! Small statistics helpers used throughout the simulator.

use crate::time::Dur;

/// An accumulator of durations: sum, count, min, max.
///
/// Used for latency-stage statistics in the NI performance monitor.
///
/// # Example
///
/// ```
/// use genima_sim::{Accum, Dur};
/// let mut a = Accum::default();
/// a.record(Dur::from_us(2));
/// a.record(Dur::from_us(4));
/// assert_eq!(a.mean(), Dur::from_us(3));
/// assert_eq!(a.max(), Dur::from_us(4));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accum {
    sum: Dur,
    count: u64,
    min: Option<Dur>,
    max: Dur,
}

impl Accum {
    /// Creates an empty accumulator.
    pub fn new() -> Accum {
        Accum::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: Dur) {
        self.sum += d;
        self.count += 1;
        self.min = Some(self.min.map_or(d, |m| m.min(d)));
        self.max = self.max.max(d);
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Accum) {
        self.sum += other.sum;
        self.count += other.count;
        if let Some(om) = other.min {
            self.min = Some(self.min.map_or(om, |m| m.min(om)));
        }
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> Dur {
        self.sum
    }

    /// Mean sample, or [`Dur::ZERO`] when empty.
    pub fn mean(&self) -> Dur {
        if self.count == 0 {
            Dur::ZERO
        } else {
            self.sum / self.count
        }
    }

    /// Smallest sample, or [`Dur::ZERO`] when empty.
    pub fn min(&self) -> Dur {
        self.min.unwrap_or(Dur::ZERO)
    }

    /// Largest sample, or [`Dur::ZERO`] when empty.
    pub fn max(&self) -> Dur {
        self.max
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// A power-of-two bucketed histogram of durations in nanoseconds.
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))` nanoseconds, with
/// bucket 0 also holding zero-length samples.
///
/// # Example
///
/// ```
/// use genima_sim::{Dur, Histogram};
/// let mut h = Histogram::new();
/// h.record(Dur::from_ns(5));
/// h.record(Dur::from_ns(6));
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.bucket_for(Dur::from_ns(5)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
        }
    }

    /// Index of the bucket a sample falls into.
    pub fn bucket_for(&self, d: Dur) -> usize {
        let ns = d.as_ns();
        if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: Dur) {
        self.buckets[self.bucket_for(d)] += 1;
        self.count += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Raw bucket counts; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Approximate p-th percentile (0.0–1.0) as the upper bound of the
    /// bucket containing that rank, or `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<Dur> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(Dur::from_ns(1u64 << (i + 1).min(63)));
            }
        }
        Some(Dur::from_ns(u64::MAX))
    }

    /// Median (50th-percentile) sample, or [`Dur::ZERO`] when empty.
    ///
    /// Like [`Histogram::percentile`], the value is the upper bound of
    /// the power-of-two bucket containing the rank, so it is an
    /// at-most-2x overestimate of the true order statistic.
    pub fn p50(&self) -> Dur {
        self.percentile(0.50).unwrap_or(Dur::ZERO)
    }

    /// 95th-percentile sample, or [`Dur::ZERO`] when empty.
    pub fn p95(&self) -> Dur {
        self.percentile(0.95).unwrap_or(Dur::ZERO)
    }

    /// 99th-percentile sample, or [`Dur::ZERO`] when empty.
    pub fn p99(&self) -> Dur {
        self.percentile(0.99).unwrap_or(Dur::ZERO)
    }

    /// 99.9th-percentile sample, or [`Dur::ZERO`] when empty. The
    /// extra decade matters for open-loop serving tails, where p99
    /// can stay flat while the extreme tail collapses.
    pub fn p999(&self) -> Dur {
        self.percentile(0.999).unwrap_or(Dur::ZERO)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, ob) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += ob;
        }
        self.count += other.count;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_tracks_min_max_mean() {
        let mut a = Accum::new();
        assert!(a.is_empty());
        assert_eq!(a.mean(), Dur::ZERO);
        a.record(Dur::from_ns(10));
        a.record(Dur::from_ns(30));
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), Dur::from_ns(40));
        assert_eq!(a.mean(), Dur::from_ns(20));
        assert_eq!(a.min(), Dur::from_ns(10));
        assert_eq!(a.max(), Dur::from_ns(30));
    }

    #[test]
    fn accum_merge() {
        let mut a = Accum::new();
        a.record(Dur::from_ns(5));
        let mut b = Accum::new();
        b.record(Dur::from_ns(1));
        b.record(Dur::from_ns(9));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Dur::from_ns(1));
        assert_eq!(a.max(), Dur::from_ns(9));
        assert_eq!(a.sum(), Dur::from_ns(15));
    }

    #[test]
    fn histogram_buckets() {
        let h = Histogram::new();
        assert_eq!(h.bucket_for(Dur::ZERO), 0);
        assert_eq!(h.bucket_for(Dur::from_ns(1)), 0);
        assert_eq!(h.bucket_for(Dur::from_ns(2)), 1);
        assert_eq!(h.bucket_for(Dur::from_ns(1024)), 10);
        assert_eq!(h.bucket_for(Dur::from_ns(1025)), 10);
    }

    #[test]
    fn histogram_tail_accessors() {
        let h = Histogram::new();
        assert_eq!(h.p50(), Dur::ZERO);
        assert_eq!(h.p99(), Dur::ZERO);
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(Dur::from_ns(100)); // bucket [64, 128)
        }
        for _ in 0..10 {
            h.record(Dur::from_us(100)); // a long retry-induced tail
        }
        assert!(h.p50() <= Dur::from_ns(128));
        assert!(h.p95() >= Dur::from_us(64));
        assert!(h.p99() >= h.p95());
        assert!(h.p95() >= h.p50());
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(Dur::from_ns(4));
        let mut b = Histogram::new();
        b.record(Dur::from_ns(4));
        b.record(Dur::from_ns(1 << 20));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[2], 2);
    }

    #[test]
    fn histogram_merge_equals_pooled() {
        // Merging per-shard histograms must be indistinguishable from
        // recording every sample into one pooled histogram: identical
        // buckets, count, and every percentile accessor.
        let samples: Vec<Dur> = (0..500u64)
            .map(|i| Dur::from_ns((i * i * 2654435761) % (1 << 22)))
            .collect();
        let mut pooled = Histogram::new();
        let mut shards = [Histogram::new(), Histogram::new(), Histogram::new()];
        for (i, &s) in samples.iter().enumerate() {
            pooled.record(s);
            shards[i % 3].record(s);
        }
        let mut merged = Histogram::new();
        for sh in &shards {
            merged.merge(sh);
        }
        assert_eq!(merged, pooled);
        assert_eq!(merged.count(), pooled.count());
        assert_eq!(merged.buckets(), pooled.buckets());
        for p in [0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(merged.percentile(p), pooled.percentile(p));
        }
        assert_eq!(merged.p50(), pooled.p50());
        assert_eq!(merged.p95(), pooled.p95());
        assert_eq!(merged.p99(), pooled.p99());
        assert_eq!(merged.p999(), pooled.p999());
    }

    #[test]
    fn histogram_p999_resolves_extreme_tail() {
        // 2 samples in 1000 out in the millisecond range: p99 stays in
        // the body, p999 must land in the tail bucket.
        let mut h = Histogram::new();
        for _ in 0..998 {
            h.record(Dur::from_ns(200));
        }
        h.record(Dur::from_ms(4));
        h.record(Dur::from_ms(4));
        assert!(h.p99() <= Dur::from_ns(512));
        assert!(h.p999() >= Dur::from_ms(4));
        assert_eq!(Histogram::new().p999(), Dur::ZERO);
    }

    #[test]
    fn histogram_percentile() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.5), None);
        for _ in 0..99 {
            h.record(Dur::from_ns(4));
        }
        h.record(Dur::from_ns(1 << 20));
        let p50 = h.percentile(0.5).unwrap();
        assert!(p50 <= Dur::from_ns(8));
        let p100 = h.percentile(1.0).unwrap();
        assert!(p100 >= Dur::from_ns(1 << 20));
        assert_eq!(h.count(), 100);
        assert_eq!(h.buckets()[2], 99);
    }
}
