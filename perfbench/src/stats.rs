//! Order statistics over host-time samples.

/// The `q`-th percentile (`0..=100`) of `values`, linearly
/// interpolated between closest ranks; `NaN` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The smallest of `values`; `NaN` when empty.
///
/// Host-time samples on a shared machine are slowed by neighbours'
/// load, which comes and goes in stretches of seconds to minutes. The
/// fastest sample of a run tracks the program's own cost; the median
/// tracks how busy the neighbours were.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert!(median(&[]).is_nan());
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert!(fastest(&[]).is_nan());
    }
}
