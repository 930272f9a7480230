//! Order statistics over timing samples.

/// The nearest-rank quantile of `samples` (`q` in `[0, 1]`); 0 when there
/// are none, which is how a metric of a layer the workload does not
/// exercise reads.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest-percentile sample that still has at least `beyond` samples
/// above it, with that percentile. Returns `None` when there are not
/// enough samples for any such percentile.
pub fn tail(samples: &[f64], beyond: usize) -> Option<Tail> {
    if samples.len() <= beyond {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = sorted.len() - beyond;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / sorted.len() as f64,
        samples: sorted.len(),
    })
}

/// A tail order statistic: the sample at `percentile` of `samples`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_the_requested_samples_beyond_it() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let tail = tail(&samples, 10).expect("40 samples suffice");
        assert_eq!(tail.value, 30.0);
        assert_eq!(tail.percentile, 75.0);
        assert_eq!(samples.iter().filter(|&&s| s > tail.value).count(), 10);
        assert!(super::tail(&samples[..10], 10).is_none());
    }

    #[test]
    fn median_is_the_nearest_rank_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
