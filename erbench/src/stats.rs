//! Order statistics over timing samples.

/// Percentiles a tail can be reported at, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in a sorted sample of length `n`
/// (`n > 0`): the smallest rank whose cumulative share reaches `p`. The
/// tolerance keeps binary rounding of `p / 100` from adding a rank.
fn rank(p: f64, n: usize) -> usize {
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(p, n)
}

/// Nearest-rank percentile `p` of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len())]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The tail the rule allows for `n` samples: the highest percentile of
/// p99.9, p99, p90 and p50 with at least [`MIN_BEYOND`] samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// A summarised timing sample: median and rule-chosen tail.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
}

/// Summarise `values`; `None` when too few samples for any tail.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(v.len())?;
    Some(Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        tail_p,
        tail: percentile(&v, tail_p),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn chosen_tail_has_ten_beyond_and_next_does_not() {
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(p, n) >= MIN_BEYOND, "n={n} p={p}");
            if let Some(&higher) = TAIL_PERCENTILES.iter().rev().find(|&&q| q > p) {
                assert!(
                    beyond(higher, n) < MIN_BEYOND,
                    "n={n} p={p} higher={higher}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_values() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(beyond(99.0, 1000), 10);
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.p50, s.tail_p, s.tail), (1000, 500.0, 99.0, 990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(summarize(&v[..19]).is_none());
    }
}
