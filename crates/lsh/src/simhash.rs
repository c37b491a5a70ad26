//! SimHash: random-hyperplane signatures (Charikar 2002).
//!
//! Each signature bit is the sign of the dot product with a random Gaussian
//! hyperplane. For two vectors at angle `θ`, each bit differs with
//! probability `θ/π`, so the Hamming distance estimates the angle and hence
//! the cosine similarity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A packed bit signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    pub(crate) bits: Vec<u64>,
    pub(crate) len: usize,
}

impl Signature {
    /// Number of bits in the signature.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the signature has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value of bit `i`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Hamming distance to another signature of the same length.
    pub fn hamming(&self, other: &Signature) -> u32 {
        debug_assert_eq!(self.len, other.len);
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Extracts bits `[start, start+count)` as a `u64` key (count ≤ 64),
    /// used by the banded index: bit `start + k` of the signature is bit `k`
    /// of the key. One word shift and mask, plus a second word when the band
    /// straddles a `u64` boundary.
    pub fn band_key(&self, start: usize, count: usize) -> u64 {
        debug_assert!(count <= 64 && start + count <= self.len);
        if count == 0 {
            return 0;
        }
        let (word, offset) = (start / 64, start % 64);
        let mut key = self.bits[word] >> offset;
        if offset + count > 64 {
            key |= self.bits[word + 1] << (64 - offset);
        }
        if count < 64 {
            key &= (1u64 << count) - 1;
        }
        key
    }
}

/// A set of random hyperplanes producing fixed-width signatures.
#[derive(Debug, Clone)]
pub struct SimHasher {
    /// The `bits × dim` hyperplane normals stored transposed, `dim × bits`:
    /// coefficient `d` of plane `b` sits at `d·bits + b`, so one input
    /// coordinate updates every plane's dot product from a contiguous row.
    planes: Vec<f32>,
    dim: usize,
    bits: usize,
}

impl SimHasher {
    /// Samples `bits` random Gaussian hyperplanes in `dim` dimensions.
    ///
    /// Plane `b` draws its `dim` coefficients consecutively, planes in order,
    /// whatever the storage layout, so a seed names the same hyperplanes.
    pub fn new(dim: usize, bits: usize, seed: u64) -> Self {
        assert!(dim > 0 && bits > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut planes = vec![0.0f32; bits * dim];
        for b in 0..bits {
            for d in 0..dim {
                planes[d * bits + b] = gaussian(&mut rng);
            }
        }
        SimHasher { planes, dim, bits }
    }

    /// Number of signature bits produced.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The normal of hyperplane `b` (`b < bits`), coefficient by dimension.
    pub fn plane(&self, b: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(b < self.bits, "plane {b} out of range");
        self.planes[b..].iter().step_by(self.bits).copied()
    }

    /// Signs a vector (must have the hasher's dimensionality).
    ///
    /// All bits accumulate at once over the transposed planes, the loop over
    /// planes innermost. Bit `b`'s dot product still adds `plane_b[d]·v[d]`
    /// for `d = 0, 1, …` in order, so it equals the plane-by-plane sum (up to
    /// the sign of an exact zero, which the `≥ 0` test ignores) and every
    /// sign bit is unchanged; the inner loop runs over independent
    /// accumulators and vectorizes.
    // phocus-lint: hot-kernel — signs every member of every LSH context
    pub fn sign(&self, v: &[f32]) -> Signature {
        assert_eq!(v.len(), self.dim, "vector dimensionality mismatch");
        // phocus-lint: allow(alloc-hot) — the one scratch buffer: a dot-product accumulator per plane
        let mut dots = vec![0.0f32; self.bits];
        for (row, &x) in self.planes.chunks_exact(self.bits).zip(v) {
            for (dot, &p) in dots.iter_mut().zip(row) {
                *dot += p * x;
            }
        }
        // phocus-lint: allow(alloc-hot) — the returned signature's words
        let mut bits = vec![0u64; self.bits.div_ceil(64)];
        for (word, chunk) in bits.iter_mut().zip(dots.chunks(64)) {
            for (k, &dot) in chunk.iter().enumerate() {
                *word |= u64::from(dot >= 0.0) << k;
            }
        }
        Signature {
            bits,
            len: self.bits,
        }
    }

    /// Signs a batch of vectors, fanning the independent per-vector work
    /// across worker threads (serial without the `parallel` feature).
    ///
    /// `out[i] == self.sign(vectors[i].as_ref())` exactly: signing reads
    /// only the shared hyperplanes, so the result is bit-identical to the
    /// serial loop regardless of thread count.
    pub fn sign_batch<V: AsRef<[f32]> + Sync>(&self, vectors: &[V]) -> Vec<Signature> {
        par_exec::par_map_slice(vectors, |v| self.sign(v.as_ref()))
    }

    /// Estimates cosine similarity from the Hamming distance of two
    /// signatures: `cos(π · h / bits)`.
    pub fn estimate_cosine(&self, a: &Signature, b: &Signature) -> f64 {
        let h = a.hamming(b) as f64;
        (std::f64::consts::PI * h / self.bits as f64).cos()
    }
}

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            return z as f32; // phocus-lint: allow(cast-bounds) — standard normal, |z| ≪ f32::MAX; precision-only
        }
    }
}

/// Exact cosine similarity of two vectors (0 for zero-norm inputs), in f64.
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
    }
    cosine_from_parts(dot, norm(a), norm(b))
}

/// The Euclidean norm of `v`, accumulated in f64 in coordinate order — the
/// per-vector half of [`cosine`].
pub(crate) fn norm(v: &[f32]) -> f64 {
    let mut sq = 0.0f64;
    for &x in v {
        sq += x as f64 * x as f64;
    }
    sq.sqrt()
}

/// The tail of [`cosine`]: the dot product over the two norms, 0 when either
/// norm is 0, clamped to `[-1, 1]`.
pub(crate) fn cosine_from_parts(dot: f64, norm_a: f64, norm_b: f64) -> f64 {
    if norm_a == 0.0 || norm_b == 0.0 {
        0.0
    } else {
        (dot / (norm_a * norm_b)).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_have_identical_signatures() {
        let h = SimHasher::new(8, 64, 1);
        let v = vec![0.3f32, -0.1, 0.8, 0.0, 0.5, -0.9, 0.2, 0.7];
        assert_eq!(h.sign(&v), h.sign(&v));
        assert_eq!(h.sign(&v).hamming(&h.sign(&v)), 0);
    }

    #[test]
    fn opposite_vectors_disagree_everywhere() {
        let h = SimHasher::new(4, 128, 2);
        let v = vec![1.0f32, 2.0, -1.0, 0.5];
        let neg: Vec<f32> = v.iter().map(|x| -x).collect();
        let d = h.sign(&v).hamming(&h.sign(&neg));
        // Every hyperplane separates v from −v (dot products flip sign);
        // ties at exactly 0 are measure-zero.
        assert!(d as usize >= 126, "distance {d}");
    }

    #[test]
    fn hamming_estimates_angle() {
        let h = SimHasher::new(2, 2048, 3);
        // 60° apart → cosine 0.5, expected Hamming ≈ bits/3.
        let a = vec![1.0f32, 0.0];
        let b = vec![0.5f32, 3.0f32.sqrt() / 2.0];
        let est = h.estimate_cosine(&h.sign(&a), &h.sign(&b));
        assert!((est - 0.5).abs() < 0.08, "estimate {est}");
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    /// The fused single-loop cosine the hoisted-norm form replaced.
    fn reference_cosine(a: &[f32], b: &[f32]) -> f64 {
        let mut dot = 0.0f64;
        let mut na = 0.0f64;
        let mut nb = 0.0f64;
        for (&x, &y) in a.iter().zip(b) {
            dot += x as f64 * y as f64;
            na += x as f64 * x as f64;
            nb += y as f64 * y as f64;
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
        }
    }

    #[test]
    fn hoisted_norm_cosine_matches_fused_reference() {
        let mut rng = StdRng::seed_from_u64(0xC05);
        for _ in 0..2000 {
            let dim = rng.gen_range(1..70usize);
            let mut draw = || -> Vec<f32> {
                (0..dim)
                    .map(|_| match rng.gen_range(0..6u32) {
                        0 => 0.0,
                        1 => 1e-20,
                        _ => rng.gen::<f32>() * 4.0 - 2.0,
                    })
                    .collect()
            };
            let (a, b) = (draw(), draw());
            for (x, y) in [(&a, &b), (&a, &a), (&b, &a)] {
                assert_eq!(cosine(x, y).to_bits(), reference_cosine(x, y).to_bits());
            }
            let zero = vec![0.0f32; dim];
            assert_eq!(
                cosine(&a, &zero).to_bits(),
                reference_cosine(&a, &zero).to_bits()
            );
        }
    }

    #[test]
    fn band_key_extracts_bits() {
        let h = SimHasher::new(8, 96, 4);
        let v = vec![0.1f32, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8];
        let s = h.sign(&v);
        // Reconstruct a key manually and compare.
        let start = 60;
        let count = 16;
        let key = s.band_key(start, count);
        for k in 0..count {
            assert_eq!(key >> k & 1 == 1, s.bit(start + k));
        }
    }

    /// The row-major signer the transposed kernel replaced: one plane at a
    /// time, its dot product summed over dimensions.
    fn reference_sign(h: &SimHasher, v: &[f32]) -> Signature {
        let mut bits = vec![0u64; h.bits().div_ceil(64)];
        for b in 0..h.bits() {
            let row: Vec<f32> = h.plane(b).collect();
            let dot: f32 = row.iter().zip(v).map(|(p, x)| p * x).sum();
            if dot >= 0.0 {
                bits[b / 64] |= 1 << (b % 64);
            }
        }
        Signature {
            bits,
            len: h.bits(),
        }
    }

    /// The bit-at-a-time band key the word-shift extraction replaced.
    fn reference_band_key(s: &Signature, start: usize, count: usize) -> u64 {
        let mut key = 0u64;
        for k in 0..count {
            if s.bit(start + k) {
                key |= 1 << k;
            }
        }
        key
    }

    #[test]
    fn transposed_sign_matches_row_major_reference() {
        let mut rng = StdRng::seed_from_u64(0x5167);
        for case in 0..200u64 {
            let dim = rng.gen_range(1..48usize);
            let bits = rng.gen_range(1..300usize);
            let h = SimHasher::new(dim, bits, case);
            for _ in 0..8 {
                // Zero coordinates (and the all-zero vector, whose every dot
                // product is an exact zero) exercise the `≥ 0` boundary.
                let v: Vec<f32> = (0..dim)
                    .map(|_| match rng.gen_range(0..5u32) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen::<f32>() - 0.5,
                    })
                    .collect();
                assert_eq!(h.sign(&v), reference_sign(&h, &v), "dim {dim} bits {bits}");
            }
            assert_eq!(h.sign(&vec![0.0; dim]), reference_sign(&h, &vec![0.0; dim]));
        }
    }

    #[test]
    fn band_key_matches_bitwise_reference_across_word_boundaries() {
        let mut rng = StdRng::seed_from_u64(0xB4D);
        for _ in 0..40 {
            let len = rng.gen_range(1..260usize);
            let words: Vec<u64> = (0..len.div_ceil(64)).map(|_| rng.gen::<u64>()).collect();
            let s = Signature { bits: words, len };
            for start in 0..len {
                for count in 0..=64.min(len - start) {
                    assert_eq!(
                        s.band_key(start, count),
                        reference_band_key(&s, start, count),
                        "len {len} start {start} count {count}"
                    );
                }
            }
        }
    }

    #[test]
    fn plane_reads_back_the_sampled_normals() {
        let h = SimHasher::new(5, 70, 11);
        let mut rng = StdRng::seed_from_u64(11);
        for b in 0..70 {
            let expected: Vec<f32> = (0..5).map(|_| gaussian(&mut rng)).collect();
            assert_eq!(h.plane(b).collect::<Vec<f32>>(), expected, "plane {b}");
        }
    }

    #[test]
    fn signatures_are_seed_deterministic() {
        let v = vec![0.4f32, 0.1, -0.3];
        let a = SimHasher::new(3, 32, 9).sign(&v);
        let b = SimHasher::new(3, 32, 9).sign(&v);
        let c = SimHasher::new(3, 32, 10).sign(&v);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seed should give a different signature");
    }
}
