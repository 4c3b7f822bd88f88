//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by linear interpolation
/// between closest ranks. `sorted` must be ascending; empty input gives 0.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The `q`-quantile of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, q)
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert!((quantile(&mut v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn p99_of_many_samples_sits_near_the_top() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&mut v, 0.99);
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn ratio_handles_a_zero_whole() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
