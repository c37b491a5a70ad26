//! Fixture: scratch accumulation whose merge order is pinned downstream.

pub fn direct(xs: &[f64]) -> f64 {
    let partials = par_map_dynamic(xs.len(), || 0.0f64, |scratch, i| {
        *scratch += xs[i]; // phocus-lint: allow(reduce-order) — fixture: partials merged in index order below
        *scratch
    });
    let mut total = 0.0;
    for p in partials {
        total += p;
    }
    total
}

pub fn joined(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    let (_, n) = par_exec::join(
        || total += xs[0] * 0.5, // phocus-lint: allow(reduce-order) — fixture: `b` never reads `total`
        || xs.len(),
    );
    total + n as f64
}
