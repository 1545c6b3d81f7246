//! Order statistics of the per-iteration samples.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The tail of `values`: the highest whole percentile that still has at
/// least `beyond` samples above it, by the nearest-rank rule. Returns
/// `(percentile, value, samples beyond)`. With `beyond` or fewer samples no
/// percentile qualifies, and the maximum is returned as p100 with none
/// beyond.
pub fn tail(values: &[f64], beyond: usize) -> (u32, f64, usize) {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return (100, f64::NAN, 0);
    }
    if n <= beyond {
        return (100, sorted[n - 1], 0);
    }
    // Nearest rank of percentile p is ceil(p·n/100); keep rank ≤ n − beyond.
    let percentile = (1..=100u32)
        .rev()
        .find(|&p| (p as usize * n).div_ceil(100) <= n - beyond)
        .unwrap_or(1);
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    (percentile, sorted[rank - 1], n - rank)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_the_requested_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values, 10), (90, 90.0, 10));
        let values: Vec<f64> = (1..=15).map(f64::from).collect();
        let (p, v, beyond) = tail(&values, 10);
        assert_eq!((v, beyond), (5.0, 10));
        assert!((26..=33).contains(&p), "p{p}");
        assert_eq!(tail(&[1.0, 2.0], 10), (100, 2.0, 0));
    }
}
