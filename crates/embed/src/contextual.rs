//! Contextualized similarity — the paper's key modeling novelty.
//!
//! "There is a different embedding of the same photo for different predefined
//! subsets" (Section 2). Each context (subset) carries an attention vector
//! over embedding dimensions, derived deterministically from the context's
//! label; the contextual similarity of two photos is the cosine of their
//! attention-reweighted embeddings, optionally blended with the EXIF context
//! distance of Sinha et al. The non-contextual provider (identical similarity
//! in every context) backs the paper's Greedy-NCS baseline.

use crate::embedding::Embedding;
use crate::exif::ExifData;
use par_core::{PhotoId, SimilarityProvider, Subset};

/// Per-context attention weights over embedding dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextVector {
    weights: Vec<f32>,
}

impl ContextVector {
    /// Derives a context vector from a label hash: each dimension gets a
    /// deterministic pseudo-random weight in `[0, 1]`.
    pub fn from_label(dim: usize, label: &str) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Self::from_seed(dim, h)
    }

    /// Derives a context vector from a numeric seed.
    pub fn from_seed(dim: usize, seed: u64) -> Self {
        let mut state = seed;
        let weights = (0..dim)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z >> 11) as f32 / (1u64 << 53) as f32
            })
            .collect();
        ContextVector { weights }
    }

    /// The uniform (identity) context: contextual similarity degenerates to
    /// the global cosine.
    pub fn uniform(dim: usize) -> Self {
        ContextVector {
            weights: vec![1.0; dim],
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Effective per-dimension weight with a floor `blend ∈ [0,1]`:
    /// `blend + (1 − blend) · wᵢ`. A floor of 1 disables contextualization.
    #[inline]
    pub fn effective(&self, i: usize, blend: f32) -> f32 {
        blend + (1.0 - blend) * self.weights[i]
    }

    /// The contextual (attention-reweighted, renormalized) embedding of `e`
    /// under this context — the per-context vector hashed by the LSH
    /// pipeline.
    pub fn contextual_embedding(&self, e: &Embedding, blend: f32) -> Embedding {
        let v = e
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &x)| x * self.effective(i, blend))
            .collect();
        Embedding::new(v)
    }

    /// Cosine of the two contextual embeddings, computed without
    /// materializing them.
    pub fn contextual_cosine(&self, a: &Embedding, b: &Embedding, blend: f32) -> f64 {
        let mut dot = 0.0f64;
        let mut na = 0.0f64;
        let mut nb = 0.0f64;
        for i in 0..self.weights.len() {
            let w = self.effective(i, blend) as f64;
            let w2 = w * w;
            let x = a.as_slice()[i] as f64;
            let y = b.as_slice()[i] as f64;
            dot += w2 * x * y;
            na += w2 * x * x;
            nb += w2 * y * y;
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
        }
    }

    /// The batch-materialization kernel of this context at a fixed blend:
    /// squared effective weights, hoisted out of the pairwise loop.
    pub fn kernel(&self, blend: f32) -> ContextKernel {
        let w2 = (0..self.weights.len())
            .map(|i| {
                let w = self.effective(i, blend) as f64;
                w * w
            })
            .collect();
        ContextKernel { w2 }
    }
}

/// Precomputed squared attention weights of one context at one blend — the
/// hoisted-invariant form of [`ContextVector::contextual_cosine`].
///
/// The fused cosine loop accumulates three *independent* sums over
/// dimensions: the weighted dot product and the two weighted self-norms. The
/// self-norm of a photo depends only on the context, yet an all-pairs
/// materialization recomputes it for every partner — `n − 1` times per
/// member — and recomputes the effective weights per pair on top. The kernel
/// hoists both: squared weights once per context, one [`norm_term`] per
/// member, leaving only the [`dot_term`] per pair. Every hoisted sum runs
/// over dimensions in the same order with the same operations as the fused
/// loop, so the reassembled cosine is bit-identical to `contextual_cosine`
/// (asserted by the `kernel_cosine_is_bit_identical` test).
///
/// [`norm_term`]: ContextKernel::norm_term
/// [`dot_term`]: ContextKernel::dot_term
#[derive(Debug, Clone)]
pub struct ContextKernel {
    w2: Vec<f64>,
}

impl ContextKernel {
    /// `Σ wᵢ²·xᵢ²` over dimensions — the `na`/`nb` accumulator of
    /// [`ContextVector::contextual_cosine`], computable once per member.
    pub fn norm_term(&self, e: &Embedding) -> f64 {
        let mut n = 0.0f64;
        for (i, &w2) in self.w2.iter().enumerate() {
            let x = e.as_slice()[i] as f64;
            n += w2 * x * x;
        }
        n
    }

    /// `Σ wᵢ²·xᵢ·yᵢ` over dimensions — the `dot` accumulator, the only sum
    /// still paid per pair.
    pub fn dot_term(&self, a: &Embedding, b: &Embedding) -> f64 {
        let mut dot = 0.0f64;
        for (i, &w2) in self.w2.iter().enumerate() {
            let x = a.as_slice()[i] as f64;
            let y = b.as_slice()[i] as f64;
            dot += w2 * x * y;
        }
        dot
    }

    /// Reassembles the cosine from precomputed accumulators — the tail of
    /// [`ContextVector::contextual_cosine`], including its zero-norm guard
    /// and clamp.
    pub fn cosine_from_terms(dot: f64, na: f64, nb: f64) -> f64 {
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
        }
    }

    /// Prepares one context's members for all-pairs scoring: each member's
    /// f64 rows `w²·x` and `x`, and its [`norm_term`](Self::norm_term). A
    /// [`dot_term`](Self::dot_term) then costs one multiply-add per
    /// dimension, and [`MemberRows::cosines_below`] runs four of them per
    /// pass.
    pub fn member_rows<'a>(&self, members: impl IntoIterator<Item = &'a Embedding>) -> MemberRows {
        let dim = self.w2.len();
        let members = members.into_iter();
        let n = members.size_hint().0;
        let mut rows = MemberRows {
            dim,
            weighted: Vec::with_capacity(n * dim),
            plain: Vec::with_capacity(n * dim),
            norms: Vec::with_capacity(n),
        };
        for e in members {
            let x = &e.as_slice()[..dim];
            rows.weighted
                .extend(self.w2.iter().zip(x).map(|(&w2, &x)| w2 * x as f64));
            rows.plain.extend(x.iter().map(|&x| x as f64));
            rows.norms.push(self.norm_term(e));
        }
        rows
    }
}

/// One context's members prepared by [`ContextKernel::member_rows`].
///
/// `dot_term(a, b)` sums `(w²·x)·y` over dimensions in order. The left
/// factor `w²·x` depends only on `a` and the right factor `y` only on `b`,
/// so both are computed once per member, and each pair adds the same
/// products in the same order: the dot product is bit-identical.
#[derive(Debug, Clone)]
pub struct MemberRows {
    dim: usize,
    /// `w²·x` per member, member-major: the left factor of a dot term.
    weighted: Vec<f64>,
    /// `x` widened to f64 per member: the right factor of a dot term.
    plain: Vec<f64>,
    /// The members' norm terms.
    norms: Vec<f64>,
}

impl MemberRows {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether there are no members.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    fn weighted(&self, i: usize) -> &[f64] {
        &self.weighted[i * self.dim..(i + 1) * self.dim]
    }

    fn plain(&self, j: usize) -> &[f64] {
        &self.plain[j * self.dim..(j + 1) * self.dim]
    }

    /// Calls `f(j, cosine)` for every member `j < i`, in ascending `j`,
    /// where `cosine` is bit-identical to
    /// `cosine_from_terms(dot_term(a_i, a_j), norm_term(a_i), norm_term(a_j))`.
    ///
    /// Four partners share each pass over member `i`'s row, with four
    /// independent accumulators, each summing its dimensions in order.
    // phocus-lint: hot-kernel — scores every pair of every exact-path context
    pub fn cosines_below(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        let left = self.weighted(i);
        let ni = self.norms[i];
        let mut j = 0;
        while j + 4 <= i {
            let right = [
                self.plain(j),
                self.plain(j + 1),
                self.plain(j + 2),
                self.plain(j + 3),
            ];
            for (k, dot) in dot4(left, right).into_iter().enumerate() {
                f(
                    j + k,
                    ContextKernel::cosine_from_terms(dot, ni, self.norms[j + k]),
                );
            }
            j += 4;
        }
        for j in j..i {
            let dot = left
                .iter()
                .zip(self.plain(j))
                .fold(0.0, |dot, (&l, &r)| dot + l * r);
            f(j, ContextKernel::cosine_from_terms(dot, ni, self.norms[j]));
        }
    }
}

/// Four dot products of one left row with four right rows, each summed in
/// dimension order in its own accumulator.
fn dot4(left: &[f64], [r0, r1, r2, r3]: [&[f64]; 4]) -> [f64; 4] {
    let mut dots = [0.0f64; 4];
    let right = r0.iter().zip(r1).zip(r2).zip(r3);
    for (&l, (((&a, &b), &c), &d)) in left.iter().zip(right) {
        dots[0] += l * a;
        dots[1] += l * b;
        dots[2] += l * c;
        dots[3] += l * d;
    }
    dots
}

/// The contextualized similarity provider used by PHOcus.
///
/// `SIM(q, a, b) = (1 − γ) · max(0, ctx_cosine_q(a, b)) + γ · (1 − exif_distance(a, b))`
/// with `γ = exif_weight` (0 disables metadata mixing). Context vectors are
/// indexed by subset id; photos by photo id.
#[derive(Debug, Clone)]
pub struct ContextualSimilarity {
    /// Global embeddings indexed by [`PhotoId`].
    pub embeddings: Vec<Embedding>,
    /// Context vectors indexed by subset id.
    pub contexts: Vec<ContextVector>,
    /// Attention floor `α ∈ [0,1]`; 1 disables contextualization.
    pub blend: f32,
    /// Optional EXIF metadata indexed by [`PhotoId`].
    pub exif: Option<Vec<ExifData>>,
    /// Weight `γ` of the EXIF context distance in the final similarity.
    pub exif_weight: f64,
}

impl ContextualSimilarity {
    /// Creates a provider with the given embeddings and per-subset context
    /// vectors (no EXIF mixing, default blend 0.3).
    pub fn new(embeddings: Vec<Embedding>, contexts: Vec<ContextVector>) -> Self {
        ContextualSimilarity {
            embeddings,
            contexts,
            blend: 0.3,
            exif: None,
            exif_weight: 0.0,
        }
    }

    /// Attaches EXIF metadata with the given mixing weight `γ`.
    pub fn with_exif(mut self, exif: Vec<ExifData>, weight: f64) -> Self {
        assert_eq!(exif.len(), self.embeddings.len());
        self.exif = Some(exif);
        self.exif_weight = weight.clamp(0.0, 1.0);
        self
    }

    fn visual(&self, subset: &Subset, a: PhotoId, b: PhotoId) -> f64 {
        let ctx = &self.contexts[subset.id.index()];
        let cos = ctx.contextual_cosine(
            &self.embeddings[a.index()],
            &self.embeddings[b.index()],
            self.blend,
        );
        cos.max(0.0)
    }

    /// Prepares one subset for all-pairs materialization: computes the
    /// context's [`ContextKernel`] and every member's norm term once, so the
    /// `O(|q|²)` pair loop pays only the dot accumulation. Similarities (EXIF
    /// mixing included) are bit-identical to calling
    /// [`SimilarityProvider::similarity`] pair by pair.
    pub fn prepare<'a>(&'a self, subset: &'a Subset) -> PreparedContext<'a> {
        let kernel = self.contexts[subset.id.index()].kernel(self.blend);
        let norms = subset
            .members
            .iter()
            .map(|&p| kernel.norm_term(&self.embeddings[p.index()]))
            .collect();
        PreparedContext {
            provider: self,
            subset,
            kernel,
            norms,
        }
    }
}

/// One subset of a [`ContextualSimilarity`] provider, prepared for all-pairs
/// materialization: the context kernel plus per-member norm terms, computed
/// once. See [`ContextualSimilarity::prepare`].
pub struct PreparedContext<'a> {
    provider: &'a ContextualSimilarity,
    subset: &'a Subset,
    kernel: ContextKernel,
    /// Norm terms indexed by local member position.
    norms: Vec<f64>,
}

impl PreparedContext<'_> {
    /// `SIM(q, members[i], members[j])` by local member positions —
    /// bit-identical to the parent provider's
    /// [`SimilarityProvider::similarity`] on the same pair.
    pub fn similarity_local(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (self.subset.members[i], self.subset.members[j]);
        if a == b {
            return 1.0;
        }
        let dot = self.kernel.dot_term(
            &self.provider.embeddings[a.index()],
            &self.provider.embeddings[b.index()],
        );
        let vis = ContextKernel::cosine_from_terms(dot, self.norms[i], self.norms[j]).max(0.0);
        match (&self.provider.exif, self.provider.exif_weight) {
            (Some(exif), g) if g > 0.0 => {
                let ctx_sim = 1.0 - exif[a.index()].context_distance(&exif[b.index()]);
                (1.0 - g) * vis + g * ctx_sim
            }
            _ => vis,
        }
    }
}

impl SimilarityProvider for ContextualSimilarity {
    fn similarity(&self, context: &Subset, a: PhotoId, b: PhotoId) -> f64 {
        if a == b {
            return 1.0;
        }
        let vis = self.visual(context, a, b);
        match (&self.exif, self.exif_weight) {
            (Some(exif), g) if g > 0.0 => {
                let ctx_sim = 1.0 - exif[a.index()].context_distance(&exif[b.index()]);
                (1.0 - g) * vis + g * ctx_sim
            }
            _ => vis,
        }
    }
}

/// The non-contextual provider backing the Greedy-NCS baseline: plain global
/// cosine (clamped to `[0, 1]`), identical in every context.
#[derive(Debug, Clone)]
pub struct NonContextualSimilarity {
    /// Global embeddings indexed by [`PhotoId`].
    pub embeddings: Vec<Embedding>,
}

impl SimilarityProvider for NonContextualSimilarity {
    fn similarity(&self, _context: &Subset, a: PhotoId, b: PhotoId) -> f64 {
        if a == b {
            return 1.0;
        }
        self.embeddings[a.index()]
            .cosine(&self.embeddings[b.index()])
            .max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::SpecEmbedder;
    use crate::image::ImageSpec;
    use par_core::SubsetId;

    fn subset(id: u32, members: Vec<PhotoId>) -> Subset {
        let n = members.len();
        Subset {
            id: SubsetId(id),
            label: format!("q{id}").into(),
            weight: 1.0,
            members,
            relevance: vec![1.0 / n as f64; n].into(),
        }
    }

    fn embeddings() -> Vec<Embedding> {
        let emb = SpecEmbedder::new(32, 11);
        vec![
            emb.embed(&ImageSpec::new(1, [0.5; 4], 1)),
            emb.embed(&ImageSpec::new(1, [0.52, 0.5, 0.5, 0.5], 2)),
            emb.embed(&ImageSpec::new(8, [0.5; 4], 3)),
        ]
    }

    #[test]
    fn similarity_is_contextual() {
        let ctxs = vec![
            ContextVector::from_label(32, "red shirts"),
            ContextVector::from_label(32, "office chairs"),
        ];
        let sim = ContextualSimilarity::new(embeddings(), ctxs);
        let q0 = subset(0, vec![PhotoId(0), PhotoId(1)]);
        let q1 = subset(1, vec![PhotoId(0), PhotoId(1)]);
        let s0 = sim.similarity(&q0, PhotoId(0), PhotoId(1));
        let s1 = sim.similarity(&q1, PhotoId(0), PhotoId(1));
        assert!((0.0..=1.0).contains(&s0));
        assert_ne!(s0, s1, "different contexts must give different scores");
    }

    #[test]
    fn self_similarity_is_one_and_symmetric() {
        let ctxs = vec![ContextVector::from_seed(32, 5)];
        let sim = ContextualSimilarity::new(embeddings(), ctxs);
        let q = subset(0, vec![PhotoId(0), PhotoId(1), PhotoId(2)]);
        assert_eq!(sim.similarity(&q, PhotoId(1), PhotoId(1)), 1.0);
        let ab = sim.similarity(&q, PhotoId(0), PhotoId(2));
        let ba = sim.similarity(&q, PhotoId(2), PhotoId(0));
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn same_category_scores_higher() {
        let ctxs = vec![ContextVector::from_seed(32, 5)];
        let sim = ContextualSimilarity::new(embeddings(), ctxs);
        let q = subset(0, vec![PhotoId(0), PhotoId(1), PhotoId(2)]);
        let same = sim.similarity(&q, PhotoId(0), PhotoId(1));
        let cross = sim.similarity(&q, PhotoId(0), PhotoId(2));
        assert!(same > cross, "same {same} vs cross {cross}");
    }

    #[test]
    fn uniform_context_equals_global_cosine() {
        let embs = embeddings();
        let ctxs = vec![ContextVector::uniform(32)];
        let mut sim = ContextualSimilarity::new(embs.clone(), ctxs);
        sim.blend = 0.0;
        let q = subset(0, vec![PhotoId(0), PhotoId(1)]);
        let ctx_sim = sim.similarity(&q, PhotoId(0), PhotoId(1));
        let global = embs[0].cosine(&embs[1]).max(0.0);
        assert!((ctx_sim - global).abs() < 1e-6);
    }

    #[test]
    fn blend_one_disables_contextualization() {
        let embs = embeddings();
        let ctxs = vec![
            ContextVector::from_seed(32, 1),
            ContextVector::from_seed(32, 2),
        ];
        let mut sim = ContextualSimilarity::new(embs, ctxs);
        sim.blend = 1.0;
        let q0 = subset(0, vec![PhotoId(0), PhotoId(1)]);
        let q1 = subset(1, vec![PhotoId(0), PhotoId(1)]);
        let s0 = sim.similarity(&q0, PhotoId(0), PhotoId(1));
        let s1 = sim.similarity(&q1, PhotoId(0), PhotoId(1));
        assert!((s0 - s1).abs() < 1e-9);
    }

    #[test]
    fn exif_mixing_shifts_similarity() {
        let embs = embeddings();
        let ctxs = vec![ContextVector::from_seed(32, 3)];
        let exif = vec![
            ExifData::synthesize(1, 1),
            ExifData::synthesize(1, 2), // same event as photo 0
            ExifData::synthesize(99, 3),
        ];
        let plain = ContextualSimilarity::new(embs.clone(), ctxs.clone());
        let mixed = ContextualSimilarity::new(embs, ctxs).with_exif(exif, 0.5);
        let q = subset(0, vec![PhotoId(0), PhotoId(1), PhotoId(2)]);
        let p_same = plain.similarity(&q, PhotoId(0), PhotoId(1));
        let m_same = mixed.similarity(&q, PhotoId(0), PhotoId(1));
        // Same-event EXIF (distance ≈ 0) pulls the similarity up.
        assert!(m_same >= p_same * 0.5, "mixing collapsed the similarity");
        let m_cross = mixed.similarity(&q, PhotoId(0), PhotoId(2));
        assert!(m_same > m_cross);
    }

    #[test]
    fn contextual_cosine_matches_materialized_embeddings() {
        let embs = embeddings();
        let ctx = ContextVector::from_seed(32, 8);
        let direct = ctx.contextual_cosine(&embs[0], &embs[1], 0.3);
        let via_embed = ctx
            .contextual_embedding(&embs[0], 0.3)
            .cosine(&ctx.contextual_embedding(&embs[1], 0.3));
        assert!((direct - via_embed).abs() < 1e-5);
    }

    #[test]
    fn kernel_cosine_is_bit_identical() {
        let embs = embeddings();
        for seed in [1u64, 8, 42] {
            let ctx = ContextVector::from_seed(32, seed);
            for blend in [0.0f32, 0.3, 0.7, 1.0] {
                let kernel = ctx.kernel(blend);
                for a in &embs {
                    for b in &embs {
                        let fused = ctx.contextual_cosine(a, b, blend);
                        let hoisted = ContextKernel::cosine_from_terms(
                            kernel.dot_term(a, b),
                            kernel.norm_term(a),
                            kernel.norm_term(b),
                        );
                        assert_eq!(
                            fused.to_bits(),
                            hoisted.to_bits(),
                            "seed={seed} blend={blend}: {fused} vs {hoisted}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_context_is_bit_identical_to_provider() {
        let embs = embeddings();
        let ctxs = vec![ContextVector::from_label(32, "red shirts")];
        let exif = vec![
            ExifData::synthesize(1, 1),
            ExifData::synthesize(1, 2),
            ExifData::synthesize(99, 3),
        ];
        let plain = ContextualSimilarity::new(embs.clone(), ctxs.clone());
        let mixed = ContextualSimilarity::new(embs, ctxs).with_exif(exif, 0.4);
        let q = subset(0, vec![PhotoId(0), PhotoId(1), PhotoId(2)]);
        for provider in [&plain, &mixed] {
            let prepared = provider.prepare(&q);
            for i in 0..3 {
                for j in 0..3 {
                    let direct = provider.similarity(&q, q.members[i], q.members[j]);
                    let fast = prepared.similarity_local(i, j);
                    assert_eq!(direct.to_bits(), fast.to_bits(), "pair ({i},{j})");
                }
            }
        }
    }

    /// The exact path's pair loop that [`MemberRows::cosines_below`]
    /// replaced: one `dot_term` per pair over the embeddings.
    fn dot_term_pairs(kernel: &ContextKernel, members: &[Embedding]) -> Vec<(usize, usize, u64)> {
        let norms: Vec<f64> = members.iter().map(|e| kernel.norm_term(e)).collect();
        let mut out = Vec::new();
        for i in 0..members.len() {
            for j in 0..i {
                let dot = kernel.dot_term(&members[i], &members[j]);
                let c = ContextKernel::cosine_from_terms(dot, norms[i], norms[j]);
                out.push((i, j, c.to_bits()));
            }
        }
        out
    }

    #[test]
    fn member_rows_match_the_dot_term_pair_loop_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x4_0D07);
        for case in 0..200u64 {
            let dim = rng.gen_range(1..70usize);
            let n = rng.gen_range(0..50usize);
            // Zero coordinates and all-zero members exercise the norm guard;
            // wide magnitudes make the summation order observable.
            let members: Vec<Embedding> = (0..n)
                .map(|k| {
                    Embedding::new(
                        (0..dim)
                            .map(|_| match rng.gen_range(0..6u32) {
                                _ if k % 11 == 5 => 0.0,
                                0 => 0.0,
                                1 => rng.gen::<f32>() * 1e-18,
                                2 => rng.gen::<f32>() * 1e12,
                                _ => rng.gen::<f32>() - 0.4,
                            })
                            .collect(),
                    )
                })
                .collect();
            let ctx = ContextVector::from_seed(dim, case);
            let kernel = ctx.kernel([0.0f32, 0.3, 1.0][case as usize % 3]);
            let rows = kernel.member_rows(&members);
            assert_eq!(rows.len(), n);
            let mut got = Vec::new();
            for i in 0..n {
                rows.cosines_below(i, |j, c| got.push((i, j, c.to_bits())));
            }
            assert_eq!(
                got,
                dot_term_pairs(&kernel, &members),
                "case {case}: dim {dim}, n {n}"
            );
        }
    }

    #[test]
    fn zero_norm_pairs_keep_their_guard() {
        let zero = Embedding::new(vec![0.0; 4]);
        let one = Embedding::new(vec![1.0; 4]);
        let ctx = ContextVector::from_seed(4, 9);
        let kernel = ctx.kernel(0.3);
        let hoisted = ContextKernel::cosine_from_terms(
            kernel.dot_term(&zero, &one),
            kernel.norm_term(&zero),
            kernel.norm_term(&one),
        );
        assert_eq!(hoisted, 0.0);
        assert_eq!(ctx.contextual_cosine(&zero, &one, 0.3), 0.0);
    }

    #[test]
    fn non_contextual_is_context_free() {
        let sim = NonContextualSimilarity {
            embeddings: embeddings(),
        };
        let q0 = subset(0, vec![PhotoId(0), PhotoId(1)]);
        let q1 = subset(1, vec![PhotoId(0), PhotoId(1)]);
        assert_eq!(
            sim.similarity(&q0, PhotoId(0), PhotoId(1)),
            sim.similarity(&q1, PhotoId(0), PhotoId(1))
        );
    }
}
