//! Exact order statistics over per-op nanosecond samples.
//!
//! End-to-end percentiles come from every sample, never from a bucketed
//! histogram, so a percentile moves by the size of a real change and not
//! in power-of-two steps.

/// Nearest-rank percentile of `sorted` (ascending), `q` in `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank percentile `q`.
pub fn beyond(sorted: &[u64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.len() - sorted.partition_point(|&v| v <= p)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_tail_counts() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(beyond(&v, 0.99), 10);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
