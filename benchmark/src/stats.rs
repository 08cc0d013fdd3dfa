//! The one statistics module: nearest-rank percentiles, the rule for
//! which tail percentile a sample supports, segment-median throughput,
//! and span self-time. Every number kbench prints goes through here, so
//! that later issues folding the nine `*_report` binaries have a single
//! implementation to reuse.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `p` percent of the sample at or below it.
/// `p` is in `(0, 100]`; an empty sample has no percentile.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples that must lie beyond a tail percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// [`percentile`], but only when at least [`TAIL_SUPPORT`] samples lie
/// strictly beyond the chosen rank — a p99 of 200 samples is two
/// observations, not a percentile.
pub fn supported_percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    (sorted.len().saturating_sub(rank) >= TAIL_SUPPORT)
        .then(|| percentile(sorted, p))
        .flatten()
}

/// Median of a sample (nearest-rank p50); sorts a copy.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Throughput of a measured phase as the median over equal segments.
pub struct SegmentThroughput {
    /// Completions per second in each segment, in time order.
    pub per_segment: Vec<f64>,
    /// Median of `per_segment`.
    pub median: f64,
    /// `(max - min) / median` in percent: the noise indicator.
    pub spread_pct: f64,
}

/// Split `[0, phase_ns)` into `segments` equal spans, count the
/// completion offsets (ns since phase start) falling in each, and take
/// the median rate. A single burst's wall-clock rate swings with noisy
/// neighbours; the median of five segments does not.
pub fn segment_throughput(
    completions_ns: &[u64],
    phase_ns: u64,
    segments: usize,
) -> Option<SegmentThroughput> {
    if segments == 0 || phase_ns == 0 || completions_ns.is_empty() {
        return None;
    }
    let mut counts = vec![0u64; segments];
    for &at in completions_ns {
        let idx = (at as u128 * segments as u128 / phase_ns as u128) as usize;
        counts[idx.min(segments - 1)] += 1;
    }
    let segment_s = phase_ns as f64 / 1e9 / segments as f64;
    let per_segment: Vec<f64> = counts.iter().map(|&c| c as f64 / segment_s).collect();
    let median = median(&per_segment)?;
    let max = per_segment.iter().copied().fold(f64::MIN, f64::max);
    let min = per_segment.iter().copied().fold(f64::MAX, f64::min);
    Some(SegmentThroughput {
        spread_pct: if median > 0.0 {
            (max - min) / median * 100.0
        } else {
            0.0
        },
        per_segment,
        median,
    })
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other and may stick
/// out of the parent; covered time is the length of the union of the
/// child intervals clipped to the parent.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    if end <= start {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 95.0), Some(95));
        assert_eq!(percentile(&s, 99.0), Some(99));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&s, 0.1), Some(1));
        // Nearest rank never interpolates: p50 of 4 values is the 2nd.
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), Some(20));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        assert_eq!(percentile(&s, 0.0), None);
        assert_eq!(percentile(&s, 101.0), None);
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        let s200: Vec<u64> = (1..=200).collect();
        // p95 of 200: rank 190, 10 beyond -> reported; p99: rank 198, 2 beyond.
        assert_eq!(supported_percentile(&s200, 95.0), Some(190));
        assert_eq!(supported_percentile(&s200, 99.0), None);
        let s1000: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_percentile(&s1000, 99.0), Some(990));
        let s199: Vec<u64> = (1..=199).collect();
        assert_eq!(
            supported_percentile(&s199, 95.0),
            None,
            "rank 190, 9 beyond"
        );
        assert_eq!(supported_percentile::<u64>(&[], 95.0), None);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn segment_median_ignores_one_stalled_segment() {
        // 5 s phase; 1000/s everywhere except a stalled third segment.
        let mut at = Vec::new();
        for seg in 0..5u64 {
            let n = if seg == 2 { 100 } else { 1000 };
            for i in 0..n {
                at.push(seg * 1_000_000_000 + i * (1_000_000_000 / n));
            }
        }
        let t = segment_throughput(&at, 5_000_000_000, 5).unwrap();
        assert_eq!(t.per_segment, vec![1000.0, 1000.0, 100.0, 1000.0, 1000.0]);
        assert_eq!(t.median, 1000.0);
        assert!((t.spread_pct - 90.0).abs() < 1e-9);
        // The whole-phase rate would have read 820/s.
        assert_eq!(at.len(), 4100);
    }

    #[test]
    fn segment_edges_and_degenerate_input() {
        // A completion exactly at the phase end lands in the last segment.
        let t = segment_throughput(&[0, 999, 1000], 1000, 2).unwrap();
        assert_eq!(t.per_segment, vec![1.0 / 5e-7, 2.0 / 5e-7]);
        assert!(segment_throughput(&[], 1000, 5).is_none());
        assert!(segment_throughput(&[1], 0, 5).is_none());
        assert!(segment_throughput(&[1], 10, 0).is_none());
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // Parent 0..100; children 10..30 and 20..50 overlap (cover 40),
        // 60..70 is disjoint (10): self = 100 - 50.
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (20, 50), (60, 70)]), 50);
        // A child contained in another adds nothing.
        assert_eq!(self_time_ns((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children sticking out are clipped to the parent.
        assert_eq!(self_time_ns((50, 100), &[(0, 60), (90, 200)]), 30);
        // No children, empty and inverted parents.
        assert_eq!(self_time_ns((5, 25), &[]), 20);
        assert_eq!(self_time_ns((5, 5), &[(0, 10)]), 0);
        assert_eq!(self_time_ns((9, 5), &[]), 0);
        // Fully covered.
        assert_eq!(self_time_ns((10, 20), &[(0, 15), (15, 30)]), 0);
    }
}
