//! The harness's own arithmetic: medians, quartiles, percentile
//! interpolation, knee selection and estimated layer shares.

use genima_sim::Histogram;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller holds at least one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the builder's contract bounds. Zero
/// for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-quantile of a power-of-two histogram in nanoseconds,
/// interpolated geometrically inside the bucket that holds the rank.
///
/// `Histogram::percentile` returns the bucket's upper bound, which
/// either repeats exactly or jumps by 2x between seeds; interpolating
/// over the same bucket counts gives a value that moves smoothly with
/// them. The estimate stays inside the bucket, so it is never further
/// from the true order statistic than the bucket bound is.
pub fn interp_percentile_ns(hist: &Histogram, p: f64) -> f64 {
    let total = hist.count();
    if total == 0 {
        return 0.0;
    }
    let rank = (total as f64 * p.clamp(0.0, 1.0)).max(1.0);
    let mut seen = 0.0;
    for (i, &b) in hist.buckets().iter().enumerate() {
        let b = b as f64;
        if b > 0.0 && seen + b >= rank {
            let frac = (rank - seen) / b;
            return 2f64.powf(i as f64 + frac);
        }
        seen += b;
    }
    2f64.powi(64)
}

/// One point of a latency-versus-load curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadPoint {
    /// Offered rate, thousand operations per simulated second.
    pub kops: f64,
    /// Bucket-bound p99 from due time, nanoseconds.
    pub p99_ns: f64,
    /// Simulated finish time over the last request's due time.
    pub finish_over_last_due: f64,
}

/// Fixed latency limit of the load sweep: p99 from due time at most
/// 2^21 ns, a bucket bound of the histogram as it stands.
pub const KNEE_P99_LIMIT_NS: f64 = (1u64 << 21) as f64;
/// A run that ends later than this multiple of its last request's due
/// time is building a backlog.
pub const KNEE_FINISH_LIMIT: f64 = 1.05;

/// Highest rate of `curve` (ascending by rate) up to which every point
/// meets the latency limit without a growing backlog; 0 when even the
/// lowest rate misses it.
pub fn knee_kops(curve: &[LoadPoint]) -> f64 {
    curve
        .iter()
        .take_while(|pt| {
            pt.p99_ns <= KNEE_P99_LIMIT_NS && pt.finish_over_last_due <= KNEE_FINISH_LIMIT
        })
        .last()
        .map_or(0.0, |pt| pt.kops)
}

/// Share of `wall_ns` that `count` calls of `ns_per_call` would explain.
pub fn est_share(count: u64, ns_per_call: f64, wall_ns: f64) -> f64 {
    if wall_ns <= 0.0 {
        0.0
    } else {
        count as f64 * ns_per_call / wall_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genima_sim::Dur;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn interpolation_stays_inside_the_rank_bucket() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(Dur::from_ns(100)); // bucket 6: [64, 128)
        }
        for _ in 0..10 {
            h.record(Dur::from_ns(5_000)); // bucket 12: [4096, 8192)
        }
        let p50 = interp_percentile_ns(&h, 0.50);
        assert!((64.0..128.0).contains(&p50), "{p50}");
        let p99 = interp_percentile_ns(&h, 0.99);
        assert!((4096.0..=8192.0).contains(&p99), "{p99}");
        assert!(p99 <= h.p99().as_ns() as f64);
        assert_eq!(interp_percentile_ns(&Histogram::new(), 0.99), 0.0);
        // More mass below the rank pulls the estimate down, smoothly.
        let mut g = h.clone();
        g.record(Dur::from_ns(100));
        assert!(interp_percentile_ns(&g, 0.99) < p99);
    }

    fn pt(kops: f64, p99_ns: f64, fin: f64) -> LoadPoint {
        LoadPoint {
            kops,
            p99_ns,
            finish_over_last_due: fin,
        }
    }

    #[test]
    fn knee_is_the_last_rate_before_the_first_miss() {
        let curve = [
            pt(5.0, 262_144.0, 1.00),
            pt(10.0, 524_288.0, 1.00),
            pt(20.0, KNEE_P99_LIMIT_NS, 1.01),
            pt(30.0, 4_194_304.0, 1.00), // misses the latency limit
            pt(40.0, 524_288.0, 1.00),   // a lucky point past the knee
        ];
        assert_eq!(knee_kops(&curve), 20.0);
        // A growing backlog disqualifies a point whatever its p99.
        let backlog = [pt(5.0, 1_000.0, 1.0), pt(10.0, 1_000.0, 1.2)];
        assert_eq!(knee_kops(&backlog), 5.0);
        assert_eq!(knee_kops(&[pt(5.0, 1e9, 1.0)]), 0.0);
        assert_eq!(knee_kops(&[]), 0.0);
    }

    #[test]
    fn est_share_is_count_times_cost_over_wall() {
        assert!((est_share(1_000_000, 50.0, 1e9) - 0.05).abs() < 1e-12);
        assert_eq!(est_share(10, 5.0, 0.0), 0.0);
    }
}
