//! Embedding vectors and the two embedders.
//!
//! [`FeatureEmbedder`] is the honest pipeline: extracted features (color +
//! gradient descriptors) are randomly projected to a compact L2-normalized
//! vector — the classical random-projection sketch of
//! a learned embedding.
//!
//! [`SpecEmbedder`] is the fast path used for 100K-photo scalability runs:
//! it produces the embedding in closed form from the [`ImageSpec`]
//! (category prototype + attribute directions + per-photo noise), skipping
//! pixel rendering. Both embedders yield the same similarity *geometry* —
//! high intra-category cosine, low cross-category cosine, smoothly degrading
//! with attribute distance — which is the only property PAR consumes. The
//! substitution is documented in DESIGN.md and validated by tests comparing
//! the two embedders' similarity orderings.

use crate::image::ImageSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An L2-normalized embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(pub Vec<f32>);

impl Embedding {
    /// Builds an embedding, normalizing to unit L2 norm (zero vectors are
    /// left as zeros).
    pub fn new(mut v: Vec<f32>) -> Self {
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-9 {
            for x in &mut v {
                *x /= norm;
            }
        }
        Embedding(v)
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Cosine similarity with another embedding (inputs are unit-norm, so
    /// this is just the dot product, clamped).
    pub fn cosine(&self, other: &Embedding) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        let dot: f32 = self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum();
        (dot as f64).clamp(-1.0, 1.0)
    }

    /// Raw components.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }
}

impl AsRef<[f32]> for Embedding {
    fn as_ref(&self) -> &[f32] {
        &self.0
    }
}

/// Random-projection embedder over extracted image features.
#[derive(Debug, Clone)]
pub struct FeatureEmbedder {
    /// `out_dim × in_dim` projection, row-major.
    projection: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl FeatureEmbedder {
    /// Creates an embedder projecting `in_dim`-dimensional features to
    /// `out_dim` dimensions (Gaussian random projection).
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (in_dim as f32).sqrt();
        let projection = (0..in_dim * out_dim)
            .map(|_| {
                // Box–Muller standard normal.
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32 * scale
            })
            .collect();
        FeatureEmbedder {
            projection,
            in_dim,
            out_dim,
        }
    }

    /// Embeds a raw feature vector.
    pub fn embed(&self, features: &[f32]) -> Embedding {
        assert_eq!(features.len(), self.in_dim, "feature dimensionality");
        let mut out = vec![0.0f32; self.out_dim];
        for (o, row) in out.iter_mut().zip(self.projection.chunks(self.in_dim)) {
            *o = row.iter().zip(features).map(|(p, f)| p * f).sum();
        }
        Embedding::new(out)
    }

    /// Input feature dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output embedding dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Closed-form embedder from image specs (the ResNet-50 simulator).
///
/// `e(spec) = normalize(prototype(category) + Σ attr_k · scale · dir_k +
/// noise(noise_seed) · noise_scale)`, with all directions drawn from a
/// seeded Gaussian. Cosine similarity is ≈1 for near-duplicate specs, decays
/// with attribute distance, and is ≈0 across categories.
#[derive(Debug, Clone)]
pub struct SpecEmbedder {
    dim: usize,
    seed: u64,
    /// Unit attribute directions, precomputed at construction.
    attr_dirs: Vec<Vec<f32>>,
    /// Strength of attribute variation relative to the category prototype.
    pub attr_scale: f32,
    /// Strength of per-photo noise.
    pub noise_scale: f32,
}

impl SpecEmbedder {
    /// Creates a spec embedder with the given dimensionality and seed.
    pub fn new(dim: usize, seed: u64) -> Self {
        let mut e = SpecEmbedder {
            dim,
            seed,
            attr_dirs: Vec::new(),
            attr_scale: 0.35,
            noise_scale: 0.15,
        };
        e.attr_dirs = (0..4)
            .map(|k| {
                let mut dir = e.gaussian_vec(0x2000_0000 + k as u64);
                let norm: f32 = dir.iter().map(|x| x * x).sum::<f32>().sqrt();
                for x in &mut dir {
                    *x /= norm.max(1e-9);
                }
                dir
            })
            .collect();
        e
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn gaussian_vec(&self, stream: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15));
        (0..self.dim)
            .map(|_| {
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
            })
            .collect()
    }

    /// The unit-norm category prototype vector.
    pub fn prototype(&self, category: u32) -> Vec<f32> {
        let mut v = self.gaussian_vec(0x1000_0000 + category as u64);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        for x in &mut v {
            *x /= norm.max(1e-9);
        }
        v
    }

    /// Embeds a spec in closed form.
    pub fn embed(&self, spec: &ImageSpec) -> Embedding {
        let proto = self.prototype(spec.category);
        self.embed_with_prototype(&proto, spec)
    }

    /// Embeds a spec using a cache of category prototypes — the fast path
    /// for generating very large datasets, where prototype recomputation
    /// would dominate.
    pub fn embed_cached(
        &self,
        spec: &ImageSpec,
        cache: &mut std::collections::HashMap<u32, Vec<f32>>,
    ) -> Embedding {
        let proto = cache
            .entry(spec.category)
            .or_insert_with(|| self.prototype(spec.category));
        let proto = proto.clone();
        self.embed_with_prototype(&proto, spec)
    }

    fn embed_with_prototype(&self, proto: &[f32], spec: &ImageSpec) -> Embedding {
        let mut v = proto.to_vec();
        // Attribute directions (shared across categories, like learned
        // factors of variation), centered at 0.5.
        for (dir, &a) in self.attr_dirs.iter().zip(&spec.attributes) {
            let coef = self.attr_scale * (a - 0.5);
            for (x, d) in v.iter_mut().zip(dir) {
                *x += coef * d;
            }
        }
        // Per-photo noise.
        let noise = self.gaussian_vec(0x3000_0000 ^ spec.noise_seed);
        let nnorm: f32 = noise.iter().map(|x| x * x).sum::<f32>().sqrt();
        for (x, n) in v.iter_mut().zip(&noise) {
            *x += self.noise_scale * n / nnorm.max(1e-9);
        }
        Embedding::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::full_features;
    use crate::image::Image;

    #[test]
    fn embeddings_are_unit_norm() {
        let e = Embedding::new(vec![3.0, 4.0]);
        let norm: f32 = e.0.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
        assert!((e.cosine(&e) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_stays_zero() {
        let e = Embedding::new(vec![0.0, 0.0]);
        assert_eq!(e.0, vec![0.0, 0.0]);
        assert_eq!(e.cosine(&e), 0.0);
    }

    #[test]
    fn spec_embedder_clusters_by_category() {
        let emb = SpecEmbedder::new(64, 7);
        let a1 = emb.embed(&ImageSpec::new(1, [0.5, 0.4, 0.6, 0.5], 10));
        let a2 = emb.embed(&ImageSpec::new(1, [0.52, 0.42, 0.58, 0.5], 11));
        let b = emb.embed(&ImageSpec::new(9, [0.5, 0.4, 0.6, 0.5], 12));
        let same = a1.cosine(&a2);
        let cross = a1.cosine(&b);
        assert!(same > 0.8, "same-category cosine {same}");
        assert!(cross < 0.5, "cross-category cosine {cross}");
        assert!(same > cross + 0.2);
    }

    #[test]
    fn spec_embedding_decays_with_attribute_distance() {
        let emb = SpecEmbedder::new(64, 3);
        let base = emb.embed(&ImageSpec::new(2, [0.5; 4], 1));
        let near = emb.embed(&ImageSpec::new(2, [0.55, 0.5, 0.5, 0.5], 1));
        let far = emb.embed(&ImageSpec::new(2, [0.95, 0.1, 0.9, 0.1], 1));
        assert!(base.cosine(&near) > base.cosine(&far));
    }

    #[test]
    fn feature_embedder_matches_spec_geometry() {
        // Same-category pairs must rank above cross-category pairs under
        // BOTH embedders — the property that justifies the fast path.
        let fe = FeatureEmbedder::new(
            crate::features::COLOR_BINS
                + crate::features::GRID * crate::features::GRID * crate::features::ORIENT_BINS,
            32,
            5,
        );
        let se = SpecEmbedder::new(32, 5);
        // The full pipeline: render, extract features, embed.
        let rendered = |spec: &ImageSpec| fe.embed(&full_features(&Image::render(spec, 32, 32)));
        let s_a1 = ImageSpec::new(4, [0.5, 0.5, 0.5, 0.5], 1);
        let s_a2 = ImageSpec::new(4, [0.52, 0.5, 0.5, 0.5], 2);
        let s_b = ImageSpec::new(11, [0.5, 0.5, 0.5, 0.5], 3);
        for (same, cross) in [
            (
                rendered(&s_a1).cosine(&rendered(&s_a2)),
                rendered(&s_a1).cosine(&rendered(&s_b)),
            ),
            (
                se.embed(&s_a1).cosine(&se.embed(&s_a2)),
                se.embed(&s_a1).cosine(&se.embed(&s_b)),
            ),
        ] {
            assert!(same > cross, "same {same} ≤ cross {cross}");
        }
    }

    #[test]
    fn embedders_are_deterministic() {
        let se = SpecEmbedder::new(16, 9);
        let spec = ImageSpec::new(3, [0.1, 0.9, 0.3, 0.7], 42);
        assert_eq!(se.embed(&spec), se.embed(&spec));
        let fe = FeatureEmbedder::new(8, 4, 2);
        let f = vec![0.1f32; 8];
        assert_eq!(fe.embed(&f), fe.embed(&f));
    }
}
