//! # par-lsh — SimHash locality-sensitive hashing
//!
//! Implements the randomized sparsification front-end of Section 4.3: instead
//! of computing all `Θ(|q|²)` pairwise cosine similarities per context, hash
//! each embedding a constant number of times with random hyperplanes
//! (SimHash, Charikar 2002) and only verify pairs whose signatures collide in
//! at least one band. With parameters tuned by the [`planner`], this finds —
//! with probability arbitrarily close to 1 — almost all pairs of cosine
//! similarity at least `τ` in roughly linear time.
//!
//! * [`simhash`] — random-hyperplane signatures and Hamming/cosine estimates;
//! * [`tables`] — banded multi-table index producing candidate pairs;
//! * [`planner`] — chooses (rows per band, number of bands) to hit a target
//!   recall at threshold `τ`;
//! * [`similar_pairs`] — the end-to-end convenience pipeline: plan → hash →
//!   bucket → verify with exact cosine; [`similar_pairs_with_plan`] runs the
//!   same pipeline with a caller's plan and hasher.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod error;
pub mod planner;
pub mod simhash;
pub mod tables;

pub use error::LshError;
pub use planner::{plan, LshPlan};

pub use simhash::{cosine, Signature, SimHasher};
pub use tables::LshIndex;

/// Finds (almost) all pairs of vectors with cosine similarity at least `tau`.
///
/// Plans the band structure for the given `target_recall`, hashes all
/// vectors, collects banded candidate pairs, and verifies each candidate with
/// an exact cosine computation. Returns `(i, j, cosine)` triples with
/// `i < j` and `cosine ≥ tau`.
///
/// Runtime is `O(n · bits)` hashing plus candidate verification — near-linear
/// when the similarity graph is sparse, versus `Θ(n²)` for exhaustive
/// comparison.
///
/// Returns [`LshError`] if `tau` is not a cosine value in `[-1, 1]` or
/// `target_recall` is not in `(0, 1]`.
pub fn similar_pairs(
    vectors: &[impl AsRef<[f32]> + Sync],
    tau: f64,
    target_recall: f64,
    seed: u64,
) -> Result<Vec<(u32, u32, f64)>, LshError> {
    let plan = plan(tau, target_recall)?;
    let Some(first) = vectors.first() else {
        return Ok(Vec::new());
    };
    let hasher = SimHasher::new(first.as_ref().len(), plan.total_bits(), seed);
    Ok(similar_pairs_with_plan(vectors, tau, plan, &hasher))
}

/// [`similar_pairs`] with an explicit banding plan and a prebuilt hasher.
///
/// Use this when the planner's strict recall target would demand more
/// signature bits than the application wants to pay for — candidates are
/// verified exactly either way, so a cheaper plan only *misses* marginal
/// pairs, it never admits false ones — or when one set of hyperplanes serves
/// many vector sets. The hasher needs at least `plan.total_bits()` bits and
/// the vectors' dimensionality.
///
/// Sign → band → candidates → [`verify_candidates`]: candidate pairs arrive
/// in ascending `(i, j)` order and are filtered in that order, so the output
/// is identical at every thread count.
pub fn similar_pairs_with_plan(
    vectors: &[impl AsRef<[f32]> + Sync],
    tau: f64,
    plan: LshPlan,
    hasher: &SimHasher,
) -> Vec<(u32, u32, f64)> {
    if vectors.is_empty() {
        return Vec::new();
    }
    let signatures = hasher.sign_batch(vectors);
    let index = LshIndex::build(&signatures, plan.rows, plan.bands);
    let mut candidates: Vec<(u32, u32)> = Vec::new();
    index.for_candidate_pairs(|i, j| candidates.push((i, j)));
    verify_candidates(vectors, &candidates, tau)
}

/// Verifies candidate pairs with the exact cosine, keeping `(i, j, cosine)`
/// for each pair with `cosine ≥ tau`, in candidate order.
///
/// Every coordinate is widened to f64 and every vector's norm computed once,
/// so a pair pays only its dot product's multiply-adds. Each cosine is
/// bit-identical to [`cosine`] on its pair: the same f64 operations in the
/// same order. Pairs are verified in parallel and filtered serially, so the
/// output does not depend on the thread count.
pub fn verify_candidates(
    vectors: &[impl AsRef<[f32]> + Sync],
    candidates: &[(u32, u32)],
    tau: f64,
) -> Vec<(u32, u32, f64)> {
    let dim = vectors.first().map_or(0, |v| v.as_ref().len());
    assert!(
        vectors.iter().all(|v| v.as_ref().len() == dim),
        "vector dimensionality mismatch"
    );
    let wide: Vec<f64> = vectors
        .iter()
        .flat_map(|v| v.as_ref().iter().map(|&x| x as f64))
        .collect();
    let norms: Vec<f64> = vectors.iter().map(|v| simhash::norm(v.as_ref())).collect();
    let row = |i: u32| &wide[i as usize * dim..(i as usize + 1) * dim];
    let cosines = par_exec::par_map_slice(candidates, |&(i, j)| {
        let mut dot = 0.0f64;
        for (&x, &y) in row(i).iter().zip(row(j)) {
            dot += x * y;
        }
        simhash::cosine_from_parts(dot, norms[i as usize], norms[j as usize])
    });
    candidates
        .iter()
        .zip(cosines)
        .filter(|&(_, c)| c >= tau)
        .map(|(&(i, j), c)| (i, j, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(angle: f32) -> Vec<f32> {
        vec![angle.cos(), angle.sin(), 0.0, 0.0]
    }

    #[test]
    fn similar_pairs_finds_close_vectors() {
        // Three tight clusters on the unit circle.
        let mut vecs = Vec::new();
        for c in 0..3 {
            let base = c as f32 * 2.0;
            for k in 0..5 {
                vecs.push(unit(base + 0.02 * k as f32));
            }
        }
        let pairs = similar_pairs(&vecs, 0.95, 0.95, 42).unwrap();
        // All within-cluster pairs have cosine ≈ 1; expect ≥ 90% of the 30.
        let within = pairs.iter().filter(|&&(i, j, _)| i / 5 == j / 5).count();
        assert!(
            within >= 27,
            "found only {within} of 30 within-cluster pairs"
        );
        // No cross-cluster pair passes the τ=0.95 verification.
        assert!(pairs.iter().all(|&(i, j, _)| i / 5 == j / 5));
    }

    #[test]
    fn verify_matches_per_pair_cosine_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7E51F);
        for _ in 0..40 {
            let dim = rng.gen_range(1..40usize);
            let n = rng.gen_range(2..50usize);
            let vectors: Vec<Vec<f32>> = (0..n)
                .map(|i| {
                    (0..dim)
                        .map(|_| {
                            if i % 7 == 3 {
                                0.0
                            } else {
                                rng.gen::<f32>() - 0.4
                            }
                        })
                        .collect()
                })
                .collect();
            let mut candidates: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|i| (i + 1..n as u32).map(move |j| (i, j)))
                .filter(|_| rng.gen_range(0..3u32) > 0)
                .collect();
            candidates.truncate(rng.gen_range(0..=candidates.len()));
            for tau in [-1.0, 0.0, 0.3] {
                let expected: Vec<(u32, u32, f64)> = candidates
                    .iter()
                    .map(|&(i, j)| (i, j, cosine(&vectors[i as usize], &vectors[j as usize])))
                    .filter(|&(_, _, c)| c >= tau)
                    .collect();
                let got = verify_candidates(&vectors, &candidates, tau);
                assert_eq!(got.len(), expected.len());
                for (g, e) in got.iter().zip(&expected) {
                    assert_eq!((g.0, g.1, g.2.to_bits()), (e.0, e.1, e.2.to_bits()));
                }
            }
        }
    }

    #[test]
    fn one_hasher_serves_many_vector_sets() {
        // `similar_pairs` is `similar_pairs_with_plan` over a hasher drawn
        // from the seed; a shared prebuilt hasher gives the same pairs.
        let vecs: Vec<Vec<f32>> = (0..30).map(|k| unit(0.05 * k as f32)).collect();
        let plan = plan(0.9, 0.9).unwrap();
        let hasher = SimHasher::new(4, plan.total_bits(), 5);
        let direct = similar_pairs(&vecs, 0.9, 0.9, 5).unwrap();
        assert_eq!(similar_pairs_with_plan(&vecs, 0.9, plan, &hasher), direct);
        assert_eq!(
            similar_pairs_with_plan(&vecs[..10], 0.9, plan, &hasher).len(),
            direct.iter().filter(|p| p.1 < 10).count()
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let v: Vec<Vec<f32>> = Vec::new();
        assert!(similar_pairs(&v, 0.9, 0.9, 1).unwrap().is_empty());
    }

    #[test]
    fn verification_filters_false_positives() {
        // Orthogonal vectors can collide in a band but never pass cosine ≥ τ.
        let vecs = vec![
            vec![1.0f32, 0.0],
            vec![0.0, 1.0],
            vec![-1.0, 0.0],
            vec![0.0, -1.0],
        ];
        let pairs = similar_pairs(&vecs, 0.9, 0.99, 7).unwrap();
        assert!(pairs.is_empty());
    }
}
