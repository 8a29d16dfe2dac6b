//! Small statistics toolbox: moments, percentiles, linear regression,
//! and error metrics.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance; 0 for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Coefficient of variation (σ/μ); 0 when the mean is 0.
pub fn cv(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        0.0
    } else {
        stddev(xs) / m
    }
}

/// Geometric mean of positive samples; 0 if any sample is non-positive
/// or the slice is empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Percentile by linear interpolation on a *sorted* slice; `p` in
/// [0, 100].
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Percentile of an unsorted slice (copies + sorts).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile_sorted(&v, p)
}

/// Ordinary least-squares line fit. Returns `(slope, intercept, r²)`;
/// degenerate inputs give a flat line with r² = 0.
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return (0.0, ys.first().copied().unwrap_or(0.0), 0.0);
    }
    let mx = mean(xs);
    let my = mean(ys);
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        return (0.0, my, 0.0);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (slope * x + intercept);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    let _ = n;
    (slope, intercept, r2)
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1.0 = perfectly fair,
/// 1/n = one of n takes everything; 1.0 for empty or all-zero inputs.
pub fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 == 0.0 {
        1.0
    } else {
        s * s / (xs.len() as f64 * s2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_var_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
        assert!((cv(&xs) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, -1.0]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn regression_recovers_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 2.0).collect();
        let (m, b, r2) = linear_regression(&xs, &ys);
        assert!((m - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regression_degenerate_x() {
        let (m, b, r2) = linear_regression(&[1.0, 1.0], &[5.0, 7.0]);
        assert_eq!(m, 0.0);
        assert!((b - 6.0).abs() < 1e-12);
        assert_eq!(r2, 0.0);
    }

    #[test]
    fn jain_spans_one_over_n_to_one() {
        assert!((jain(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Degenerate inputs count as fair.
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
    }
}
