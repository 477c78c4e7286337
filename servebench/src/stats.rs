//! Order statistics over latency samples.

/// The median of `xs` (mean of the two middle values for even lengths);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail of a sample: the highest percentile that still has at least
/// `beyond` samples strictly above its rank. Returns `(value, percentile)`;
/// `None` when the sample has no more than `beyond` points.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(f64, f64)> {
    if xs.len() <= beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len() - 1 - beyond;
    // CAST: sample counts are far below 2^53.
    let pct = 100.0 * (rank + 1) as f64 / v.len() as f64;
    Some((v[rank], pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&xs, 10).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);
        assert!(tail(&xs[..10], 10).is_none());
    }
}
