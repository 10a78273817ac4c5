//! Order statistics over raw per-op samples.
//!
//! Percentiles are computed from the sorted samples themselves (nearest
//! rank), never from a bucketed histogram: the service's log2 histogram
//! reports bucket upper bounds and overstates by up to 2x.
//!
//! The tail is also summarized by its mean, the mean of the samples at or
//! above p99. On a shared host the same op runs fast or about 1.5x slower
//! depending on what the neighbours do, so each heavy op kind's samples
//! form two clusters. The nearest-rank p99 picks one sample, and when the
//! rank falls between the clusters of the heaviest op kind it jumps from
//! one to the other as the share of fast samples drifts across runs
//! (`explore_cold`: 40 against 60 ms). The tail mean moves smoothly with
//! that share.

/// Latency summary of one timed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub p99: f64,
    /// Mean of the samples at or above p99 (the p99 sample and all that
    /// sort after it).
    pub tail_mean: f64,
    /// Samples strictly above the p99 value.
    pub beyond_p99: usize,
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least `p` percent of all samples are less than or equal
/// to it. `p` is in `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted, p) - 1]
}

/// The 1-based nearest rank of percentile `p` in `sorted`.
fn rank(sorted: &[f64], p: f64) -> usize {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    rank.clamp(1, sorted.len())
}

/// Median of an unsorted slice (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Summarize raw latency samples.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let p99 = percentile(&v, 99.0);
    let tail = &v[rank(&v, 99.0) - 1..];
    Summary {
        samples: v.len(),
        p50: percentile(&v, 50.0),
        p99,
        tail_mean: tail.iter().sum::<f64>() / tail.len() as f64,
        beyond_p99: v.iter().filter(|&&x| x > p99).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_checked_samples() {
        // 1..=100: the p-th percentile is exactly p.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&hundred, 0.5), 1.0);
        // Five samples: p50 is the third, p99 the fifth (ceil(4.95) = 5).
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&five, 50.0), 30.0);
        assert_eq!(percentile(&five, 99.0), 50.0);
        assert_eq!(percentile(&five, 20.0), 10.0);
        assert_eq!(percentile(&five, 21.0), 20.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn summary_counts_the_tail_beyond_p99() {
        // 1000 samples 1..=1000 in scrambled order: p99 = 990, the ten
        // samples 991..=1000 lie beyond it, and 990..=1000 average 995.
        let samples: Vec<f64> = (0..1000u32)
            .map(|i| f64::from((i * 7919) % 1000 + 1))
            .collect();
        let s = summarize(&samples);
        assert_eq!(s.samples, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.tail_mean, 995.0);
        assert_eq!(s.beyond_p99, 10);
    }

    #[test]
    fn tail_mean_moves_smoothly_where_p99_jumps() {
        // 990 light samples and 20 samples of one heavy op, each fast (40)
        // or slow (60). p99 (rank 1000 of 1010) is the heavy op's 10th
        // smallest sample: it jumps from 60 to 40 when a tenth fast sample
        // appears, while the tail mean moves by one sample's share.
        let run = |fast: usize| {
            let mut v = vec![1.0; 990];
            v.extend((0..20).map(|i| if i < fast { 40.0 } else { 60.0 }));
            summarize(&v)
        };
        assert_eq!(run(9).p99, 60.0);
        assert_eq!(run(10).p99, 40.0);
        // The 11 samples at or above p99.
        assert_eq!(run(9).tail_mean, 60.0);
        assert_eq!(run(10).tail_mean, (40.0 + 10.0 * 60.0) / 11.0);
        assert_eq!(run(11).tail_mean, (2.0 * 40.0 + 9.0 * 60.0) / 11.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
