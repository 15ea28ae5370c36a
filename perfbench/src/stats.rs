//! Order statistics for the benchmark's reports.

/// Sorted copy of `values` (total order, so NaN cannot panic the sort).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` by linear interpolation between closest ranks
/// (R's type 7, NumPy's default): position `q·(n−1)` in the sorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let v = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles by the "exclusive" rule of Python's
/// `statistics.quantiles(values, n=4)`, the rule the steadiness check uses
/// across runs; here it gives the spread of per-round figures inside one
/// run.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        // Sorted 10, 20, 30, 40, 50: q = 0.9 sits at position 3.6.
        let v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert!((quantile(&v, 0.9) - 46.0).abs() < 1e-12);
        assert!((quantile(&v, 0.25) - 20.0).abs() < 1e-12);
        // 1..=100: the 90th percentile is at position 89.1 -> 90.1.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&hundred, 0.9) - 90.1).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_rule() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
