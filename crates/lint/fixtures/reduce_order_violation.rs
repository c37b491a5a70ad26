//! Fixture: order-sensitive float accumulation reached through a par-exec
//! fan-out — directly in the closure and transitively through a callee.

pub fn direct(xs: &[f64]) -> f64 {
    let partials = par_map_dynamic(xs.len(), || 0.0f64, |scratch, i| {
        *scratch += xs[i];
        *scratch
    });
    let mut total = 0.0;
    for p in partials {
        total += p;
    }
    total
}

pub fn transitive(xs: &[f64]) -> Vec<f64> {
    par_map_dynamic(xs.len(), || 0.0f64, |scratch, i| {
        bump(scratch, xs[i]);
        *scratch
    })
}

fn bump(scratch: &mut f64, x: f64) {
    *scratch += x * 0.5;
}

pub fn joined(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    let (_, n) = par_exec::join(|| total += xs[0] * 0.5, || xs.len());
    total + n as f64
}
