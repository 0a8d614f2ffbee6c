//! Order statistics.

/// Quantile `q` in `[0, 1]` of `v` by linear interpolation between the
/// closest ranks; sorts `v` in place. `v` must not be empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `v`; sorts `v` in place.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Samples strictly above the value of quantile `q`: how many support a
/// tail percentile.
pub fn beyond(v: &mut [f64], q: f64) -> usize {
    let cut = quantile(v, q);
    v.iter().filter(|&&x| x > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        let mut w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&mut w, 0.99), 10);
    }
}
