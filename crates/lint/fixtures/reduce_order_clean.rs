//! Fixture: fan-out returning pure per-index values; the float reduction
//! happens in the caller, in index order.

pub fn ordered(xs: &[f64]) -> f64 {
    let partials = par_map_indexed(xs.len(), |i| xs[i] * 0.5);
    let mut total = 0.0;
    for p in partials {
        total += p;
    }
    total
}

pub fn joined(xs: &[f64]) -> f64 {
    let (head, tail) = par_exec::join(|| xs[0] * 0.5, || xs[1..].iter().sum::<f64>());
    head + tail
}
