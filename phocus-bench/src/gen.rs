//! Seeded inputs. Generation is the benchmark's own work: it runs before any
//! timer starts and is excluded from every metric.

use par_datasets::{generate_fleet, FleetConfig, SubsetDef, Universe, Zipf};
use phocus::{RepresentationConfig, Sparsification};

/// The similarity threshold τ of the CLI's default representation.
pub const LSH_TAU: f64 = 0.6;

/// The representation every workload serves with: the CLI's defaults
/// (LSH at τ = 0.6, recall target 0.95, hashing seed 42).
pub fn representation() -> RepresentationConfig {
    RepresentationConfig {
        sparsification: Sparsification::Lsh {
            tau: LSH_TAU,
            target_recall: 0.95,
            seed: 42,
        },
        ..Default::default()
    }
}

/// `fraction` of the library's bytes, but never below the cost of its
/// required set `S₀`, so no generated tenant fails with
/// `RequiredSetOverBudget` and every failure the benchmark counts is real.
pub fn floored_budget(u: &Universe, fraction: f64) -> u64 {
    let required: u64 = u.required.iter().map(|&r| u.costs[r as usize]).sum();
    ((u.total_cost() as f64 * fraction) as u64)
        .max(required)
        .max(1)
}

/// Zipf exponent of fleet library sizes (the `generate_fleet` default).
const SIZE_ZIPF: f64 = 1.1;

/// A fleet's library-size law: `min · (r + 1)` photos, capped at `max`,
/// for a Zipf rank `r` — the law of [`generate_fleet`].
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    /// Number of tenants.
    pub tenants: usize,
    /// Smallest library.
    pub min_photos: usize,
    /// Largest library.
    pub max_photos: usize,
}

impl FleetShape {
    /// `tenants` libraries of `min_photos` to `max_photos` photos.
    pub fn new(tenants: usize, min_photos: usize, max_photos: usize) -> Self {
        FleetShape {
            tenants,
            min_photos,
            max_photos,
        }
    }
}

/// Library sizes at evenly spaced quantiles of the size law, ascending.
///
/// Drawing sizes at random would make the fleet's total work depend on the
/// seed: one extra 1500-photo library moves a 256-tenant fleet's time by
/// several percent. Fixed quantiles give every seed the same size profile,
/// and the seed varies only what the libraries hold.
pub fn stratified_sizes(shape: FleetShape) -> Vec<usize> {
    let ranks = (shape.max_photos / shape.min_photos).max(1);
    let zipf = Zipf::new(ranks, SIZE_ZIPF).expect("size law has ranks and a finite exponent");
    let mut sizes = Vec::with_capacity(shape.tenants);
    let (mut rank, mut below) = (0usize, 0.0f64);
    for i in 0..shape.tenants {
        let u = (i as f64 + 0.5) / shape.tenants as f64;
        while rank + 1 < ranks && below + zipf.pmf(rank) < u {
            below += zipf.pmf(rank);
            rank += 1;
        }
        sizes.push((shape.min_photos * (rank + 1)).min(shape.max_photos));
    }
    sizes
}

/// SplitMix64: decorrelates the seeds of several inputs drawn from one seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fleet's tenant libraries, smallest first, each one a
/// [`generate_fleet`] library of its stratified size. Tenant names are
/// unique and sort in tenant order.
pub fn fleet(seed: u64, shape: FleetShape) -> Vec<Universe> {
    stratified_sizes(shape)
        .into_iter()
        .enumerate()
        .map(|(t, photos)| {
            let mut one = generate_fleet(&FleetConfig {
                name: format!("s{seed}-{t:05}"),
                tenants: 1,
                min_photos: photos,
                max_photos: photos,
                seed: mix(seed, t as u64),
                ..Default::default()
            });
            one.pop().expect("a one-tenant fleet has one tenant")
        })
        .collect()
}

/// Many tenant libraries merged into one archive: photo names and query
/// labels are prefixed per tenant and no query crosses libraries, so the
/// photo–query graph has one component per library plus the singleton pool
/// — the regime the sharded and incremental solvers are built for.
pub fn merged_archive(name: &str, universes: &[Universe]) -> Universe {
    let mut out = Universe {
        name: name.into(),
        names: Vec::new(),
        costs: Vec::new(),
        embeddings: Vec::new(),
        exif: None,
        subsets: Vec::new(),
        required: Vec::new(),
    };
    for (t, u) in universes.iter().enumerate() {
        let off = u32::try_from(out.names.len()).expect("archive ids fit in u32");
        out.names
            .extend(u.names.iter().map(|n| format!("t{t:04}/{n}")));
        out.costs.extend_from_slice(&u.costs);
        out.embeddings.extend(u.embeddings.iter().cloned());
        for s in &u.subsets {
            out.subsets.push(SubsetDef {
                label: format!("t{t:04}/{}", s.label),
                weight: s.weight,
                members: s.members.iter().map(|&m| m + off).collect(),
                relevance: s.relevance.clone(),
            });
        }
        out.required.extend(u.required.iter().map(|&r| r + off));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_sizes_follow_the_size_law() {
        let shape = FleetShape::new(512, 24, 1500);
        let sizes = stratified_sizes(shape);
        assert_eq!(sizes.len(), 512);
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sizes[0], 24);
        assert!(*sizes.last().unwrap() > 24 * 10);
        assert!(sizes.iter().all(|&s| s <= 1500));
    }

    #[test]
    fn fleets_are_seeded_and_budgets_cover_the_required_set() {
        let shape = FleetShape::new(6, 12, 60);
        let a = fleet(3, shape);
        let b = fleet(3, shape);
        let c = fleet(4, shape);
        assert_eq!(a.len(), 6);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.costs, y.costs);
            assert_ne!(x.costs, z.costs);
            assert_eq!(x.num_photos(), z.num_photos());
            let required: u64 = x.required.iter().map(|&r| x.costs[r as usize]).sum();
            assert!(floored_budget(x, 0.0) >= required);
        }
        let names: Vec<&str> = a.iter().map(|u| u.name.as_str()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]));
        let archive = merged_archive("archive", &a);
        assert_eq!(
            archive.num_photos(),
            a.iter().map(Universe::num_photos).sum::<usize>()
        );
        assert!(archive.validate().is_ok());
    }
}
