//! Order statistics over timing samples.

/// The median of `samples` (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a benchmark
/// bug, not a measurement.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percent, value)`; `None` with ten samples or fewer. A tail read
/// off fewer than ten samples is an anecdote, so it is not reported.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    if samples.len() <= BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len() - BEYOND; // samples at or below the reported value
    Some((100.0 * rank as f64 / v.len() as f64, v[rank - 1]))
}

/// min / median / max and the count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        Summary {
            n: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(samples),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle_of_odd_and_averages_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 48 samples (the serve workload's nominal job count): the 38th
        // smallest is the p79 value and ten samples lie beyond it.
        let v: Vec<f64> = (1..=48).rev().map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(value, 38.0);
        assert!((pct - 100.0 * 38.0 / 48.0).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // 11 samples: only the minimum qualifies.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().1, 1.0);
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!(s, Summary { n: 3, min: 2.0, median: 4.0, max: 9.0 });
    }
}
