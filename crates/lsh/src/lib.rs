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
//!   same pipeline with a caller's plan and hasher, and [`verified_pairs`]
//!   its last stage over a built index.

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
/// Sign → band → [`verified_pairs`]: pairs come out in ascending `(i, j)`
/// order, and no candidate list is built. Signing and banding use the
/// installed parallelism; the row walk is serial, so the output does not
/// depend on the thread count.
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
    verified_pairs(&index, vectors, tau)
}

/// Every candidate pair of `index` whose exact cosine over `vectors` (the
/// vectors `index` was built from) is at least `tau`, as `(i, j, cosine)` in
/// ascending `(i, j)` order.
///
/// Each item's candidate row is verified as the index enumerates it, so no
/// candidate list is built. Every cosine is bit-identical to [`cosine`] on
/// its pair.
pub fn verified_pairs(
    index: &LshIndex,
    vectors: &[impl AsRef<[f32]>],
    tau: f64,
) -> Vec<(u32, u32, f64)> {
    assert_eq!(index.len(), vectors.len(), "the index covers the vectors");
    let widened = Widened::new(vectors);
    let mut pairs = Vec::new();
    index.for_candidate_rows(|a, row| widened.verify_row(a, row, tau, &mut pairs));
    pairs
}

/// A vector set prepared for exact verification: every coordinate widened
/// to f64 and every vector's norm computed once, so a pair pays only its dot
/// product's multiply-adds.
struct Widened {
    dim: usize,
    /// The coordinates as f64, vector-major.
    wide: Vec<f64>,
    norms: Vec<f64>,
}

impl Widened {
    fn new(vectors: &[impl AsRef<[f32]>]) -> Widened {
        let dim = vectors.first().map_or(0, |v| v.as_ref().len());
        assert!(
            vectors.iter().all(|v| v.as_ref().len() == dim),
            "vector dimensionality mismatch"
        );
        Widened {
            dim,
            wide: vectors
                .iter()
                .flat_map(|v| v.as_ref().iter().map(|&x| x as f64))
                .collect(),
            norms: vectors.iter().map(|v| simhash::norm(v.as_ref())).collect(),
        }
    }

    fn row(&self, i: u32) -> &[f64] {
        &self.wide[i as usize * self.dim..(i as usize + 1) * self.dim]
    }

    /// Appends `(a, b, cosine)` for each partner `b` (in `partners` order)
    /// whose exact cosine with `a` is at least `tau`.
    ///
    /// Four partners share each pass over `a`'s row, with four independent
    /// accumulators, each summing its coordinates in order: every cosine is
    /// bit-identical to [`cosine`] on its pair, the same f64 operations in
    /// the same order.
    // phocus-lint: hot-kernel — verifies every candidate pair of every LSH context
    fn verify_row(&self, a: u32, partners: &[u32], tau: f64, out: &mut Vec<(u32, u32, f64)>) {
        let left = self.row(a);
        let na = self.norms[a as usize];
        let mut keep = |b: u32, dot: f64| {
            let c = simhash::cosine_from_parts(dot, na, self.norms[b as usize]);
            if c >= tau {
                out.push((a, b, c));
            }
        };
        let mut blocks = partners.chunks_exact(4);
        for block in &mut blocks {
            let [b0, b1, b2, b3] = [block[0], block[1], block[2], block[3]];
            let right = self
                .row(b0)
                .iter()
                .zip(self.row(b1))
                .zip(self.row(b2))
                .zip(self.row(b3));
            let mut dots = [0.0f64; 4];
            for (&x, (((&y0, &y1), &y2), &y3)) in left.iter().zip(right) {
                dots[0] += x * y0;
                dots[1] += x * y1;
                dots[2] += x * y2;
                dots[3] += x * y3;
            }
            for (b, dot) in [b0, b1, b2, b3].into_iter().zip(dots) {
                keep(b, dot);
            }
        }
        for &b in blocks.remainder() {
            keep(
                b,
                left.iter()
                    .zip(self.row(b))
                    .fold(0.0, |dot, (&x, &y)| dot + x * y),
            );
        }
    }
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

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The candidate-list verification the fused row walk replaced: every
    /// candidate's cosine from widened coordinates and hoisted norms, in
    /// parallel, filtered serially in candidate order.
    fn verify_candidates(
        vectors: &[Vec<f32>],
        candidates: &[(u32, u32)],
        tau: f64,
    ) -> Vec<(u32, u32, f64)> {
        let dim = vectors.first().map_or(0, |v| v.len());
        let wide: Vec<f64> = vectors.iter().flatten().map(|&x| x as f64).collect();
        let norms: Vec<f64> = vectors.iter().map(|v| simhash::norm(v)).collect();
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

    /// The pipeline before the fused walk: sign, band, collect every
    /// candidate pair, then verify the list.
    fn reference_similar_pairs(
        vectors: &[Vec<f32>],
        tau: f64,
        plan: LshPlan,
        hasher: &SimHasher,
    ) -> Vec<(u32, u32, f64)> {
        let index = LshIndex::build(&hasher.sign_batch(vectors), plan.rows, plan.bands);
        let mut candidates = Vec::new();
        index.for_candidate_pairs(|i, j| candidates.push((i, j)));
        verify_candidates(vectors, &candidates, tau)
    }

    /// Vectors with zero members, tiny and huge coordinates, and clusters
    /// that collide in many bands.
    fn random_vectors(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vec<f32>> {
        let protos: Vec<Vec<f32>> = (0..3)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>() - 0.4).collect())
            .collect();
        (0..n)
            .map(|i| {
                let proto = &protos[rng.gen_range(0..protos.len())];
                (0..dim)
                    .map(|d| match rng.gen_range(0..8u32) {
                        _ if i % 13 == 3 => 0.0,
                        0 => rng.gen::<f32>() * 1e-20,
                        1 => rng.gen::<f32>() * 1e15,
                        2 => rng.gen::<f32>() - 0.5,
                        _ => proto[d] + 0.05 * (rng.gen::<f32>() - 0.5),
                    })
                    .collect()
            })
            .collect()
    }

    fn bits(pairs: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
        pairs.iter().map(|&(i, j, c)| (i, j, c.to_bits())).collect()
    }

    #[test]
    fn verify_matches_per_pair_cosine_bit_for_bit() {
        // Rows of every length mod 4 through the four-wide verifier, against
        // the per-pair cosine and the candidate-list verification.
        let mut rng = StdRng::seed_from_u64(0x7E51F);
        for _ in 0..40 {
            let dim = rng.gen_range(1..40usize);
            let n = rng.gen_range(2..50usize);
            let vectors = random_vectors(&mut rng, n, dim);
            let widened = Widened::new(&vectors);
            let rows: Vec<Vec<u32>> = (0..n as u32)
                .map(|i| {
                    (i + 1..n as u32)
                        .filter(|_| rng.gen_range(0..3u32) > 0)
                        .collect()
                })
                .collect();
            let candidates: Vec<(u32, u32)> = (0u32..)
                .zip(&rows)
                .flat_map(|(i, row)| row.iter().map(move |&j| (i, j)))
                .collect();
            for tau in [-1.0, 0.0, 0.3] {
                let expected: Vec<(u32, u32, f64)> = candidates
                    .iter()
                    .map(|&(i, j)| (i, j, cosine(&vectors[i as usize], &vectors[j as usize])))
                    .filter(|&(_, _, c)| c >= tau)
                    .collect();
                let mut got = Vec::new();
                for (a, row) in (0u32..).zip(&rows) {
                    widened.verify_row(a, row, tau, &mut got);
                }
                assert_eq!(bits(&got), bits(&expected));
                assert_eq!(
                    bits(&verify_candidates(&vectors, &candidates, tau)),
                    bits(&expected)
                );
            }
        }
    }

    #[test]
    fn fused_row_walk_matches_the_candidate_list_pipeline_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xF05ED);
        for case in 0..120u64 {
            let dim = rng.gen_range(1..70usize);
            let n = rng.gen_range(0..300usize);
            let vectors = random_vectors(&mut rng, n, dim);
            // Narrow bands make long candidate rows (every remainder of 4).
            let plan = LshPlan {
                rows: rng.gen_range(1..10usize),
                bands: rng.gen_range(1..12usize),
            };
            let hasher = SimHasher::new(dim, plan.total_bits(), case);
            for tau in [-1.0, 0.0, 0.6, 0.95] {
                assert_eq!(
                    bits(&similar_pairs_with_plan(&vectors, tau, plan, &hasher)),
                    bits(&reference_similar_pairs(&vectors, tau, plan, &hasher)),
                    "case {case}: n {n}, dim {dim}, {plan:?}, tau {tau}"
                );
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
