//! Order statistics for host timings.

/// Percentiles the tail ladder may report, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median, quartiles and sample count of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// The `p`-th percentile (0..=100) of `sorted`, interpolating linearly
/// between closest ranks. `sorted` must be non-empty and ascending.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a sample ascending (NaN-free by construction: host timings).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median and quartiles of a non-empty sample.
pub fn dist(xs: &[f64]) -> Dist {
    let s = sorted(xs);
    Dist {
        median: percentile(&s, 50.0),
        q1: percentile(&s, 25.0),
        q3: percentile(&s, 75.0),
        n: s.len(),
    }
}

/// Samples ranked strictly above the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 25.0), 2.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert!((percentile(&[1.0, 2.0], 90.0) - 1.9).abs() < 1e-12);
    }

    #[test]
    fn dist_reports_sample_count_and_quartiles() {
        let d = dist(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(d.n, 5);
        assert_eq!((d.q1, d.median, d.q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }
}
