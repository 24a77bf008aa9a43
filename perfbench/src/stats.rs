//! The benchmark's own arithmetic: percentiles, the tail-percentile rule,
//! and medians over repeated passes.

/// Percentiles the tail rule chooses from, lowest first.
const TAIL_LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Samples a percentile `q` leaves above it out of `n` (nearest rank).
fn above(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest rank of percentile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail rule: the highest percentile of the ladder, capped at `want`,
/// that still has at least ten samples above it. Falls back to the median
/// (the ladder's floor) when even that has fewer than ten above.
pub fn tail_q(n: usize, want: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| q <= want && n > 0 && above(n, q) >= 10)
        .unwrap_or(0.5)
}

/// Nearest-rank percentile of unsorted samples (`NaN` when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// Median of unsorted samples (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time of one pass as the sum, over round indices `0..upto`, of each
/// round's median time across `passes` (one per-round time profile per
/// pass). Passes replay one seed, so round `r` does the same work in
/// each; a burst of load from elsewhere that slows a round in fewer than
/// half the passes leaves its median alone, where it would move the
/// median of whole-pass totals whenever it straddles passes. `NaN` when
/// there are no passes or a profile is shorter than `upto`.
pub fn median_profile(passes: &[&[f64]], upto: usize) -> f64 {
    if passes.is_empty() || passes.iter().any(|p| p.len() < upto) {
        return f64::NAN;
    }
    (0..upto)
        .map(|r| median(&passes.iter().map(|p| p[r]).collect::<Vec<_>>()))
        .sum()
}

/// Percentile of whole-number samples (round counts), read off the
/// empirical distribution with each value spread evenly over
/// `[v − ½, v + ½)` — the mid-distribution quantile. Unlike nearest rank
/// it moves smoothly when a tie block's share shifts, so seeds whose
/// latency histograms differ by a few samples give nearby values instead
/// of jumping a whole round. Returns `NaN` when empty.
pub fn count_percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len() as f64;
    let mut i = 0;
    while i < v.len() {
        let value = v[i];
        let j = v.partition_point(|&x| x <= value);
        let below = i as f64 / n;
        let upto = j as f64 / n;
        if q < upto || j == v.len() {
            let frac = ((q - below) / (upto - below)).clamp(0.0, 1.0);
            return value as f64 - 0.5 + frac;
        }
        i = j;
    }
    unreachable!("the loop returns at the last tie block")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_above() {
        // p99 of 1000 samples leaves exactly 10 above it.
        assert_eq!(tail_q(1000, 0.99), 0.99);
        // 999 samples leave only 9 above p99: fall back to p90.
        assert_eq!(tail_q(999, 0.99), 0.9);
        assert_eq!(tail_q(100, 0.99), 0.9);
        // 99 samples leave 9 above p90 and 49 above p50.
        assert_eq!(tail_q(99, 0.99), 0.5);
        assert_eq!(tail_q(5, 0.99), 0.5);
        assert_eq!(tail_q(0, 0.99), 0.5);
        // The cap is honoured even when a higher rung qualifies.
        assert_eq!(tail_q(1_000_000, 0.99), 0.99);
        assert_eq!(tail_q(1_000_000, 0.999), 0.999);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_profile_sums_per_round_medians() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 9.0, 3.0];
        let c = [5.0, 2.0, 3.0];
        // Round medians 1, 2, 3: each pass's one slow round is ignored,
        // though every pass total (6, 13, 10) is off.
        assert_eq!(median_profile(&[&a, &b, &c], 3), 6.0);
        assert_eq!(median_profile(&[&a, &b, &c], 2), 3.0);
        assert_eq!(median_profile(&[&b], 3), 13.0);
        assert!(median_profile(&[&a, &b[..2]], 3).is_nan());
        assert!(median_profile(&[], 3).is_nan());
    }

    #[test]
    fn count_percentile_interpolates_inside_tie_blocks() {
        // All equal: the value's unit interval, read at q.
        assert_eq!(count_percentile(&[5, 5, 5, 5], 0.5), 5.0);
        // Half 3s, half 4s: the median sits on the boundary.
        assert_eq!(count_percentile(&[3, 3, 4, 4], 0.5), 3.5);
        // Shifting one sample moves the median by a fraction of a round.
        let a = count_percentile(&[3, 3, 3, 4, 4, 4, 4, 4, 4, 4], 0.5);
        let b = count_percentile(&[3, 3, 3, 3, 4, 4, 4, 4, 4, 4], 0.5);
        assert!((a - 3.5 - 2.0 / 7.0).abs() < 1e-12, "{a}");
        assert!((b - 3.5 - 1.0 / 6.0).abs() < 1e-12, "{b}");
        // Monotone in q, bounded by the sample range ± ½.
        let s = [1, 2, 2, 3, 9];
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let v = count_percentile(&s, i as f64 / 100.0);
            assert!(v >= last && (0.5..=9.5).contains(&v));
            last = v;
        }
        assert!(count_percentile(&[], 0.5).is_nan());
    }
}
