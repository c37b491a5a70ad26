//! Order statistics, computed the way Python's
//! `statistics.quantiles(data, n, method="exclusive")` computes them, so the
//! spreads this benchmark reports match the ones a reader recomputes.

/// The `i`-th of the `n - 1` cut points that divide `values` into `n`
/// groups of equal probability (`i` in `1..n`). A single value is its own
/// quantile. Panics on an empty slice.
pub fn quantile(values: &[f64], i: usize, n: usize) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    assert!(0 < i && i < n, "cut point {i} of {n}");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return data[0];
    }
    let m = len + 1;
    let j = (i * m / n).clamp(1, len - 1);
    let delta = (i * m - j * n) as f64;
    (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 1, 2)
}

/// The distance between the first and third quartiles.
pub fn iqr(values: &[f64]) -> f64 {
    quantile(values, 3, 4) - quantile(values, 1, 4)
}

/// The arithmetic mean, or `None` for no values.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 1, 4), 2.75);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 3, 4), 8.25);
        assert_eq!(iqr(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=10)[8] == 3.6: with few values
        // the outer cut points extrapolate past the largest one.
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 9, 10), 3.6);
        assert_eq!(median(&[4.0]), 4.0);
    }
}
