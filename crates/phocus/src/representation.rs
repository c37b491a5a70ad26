//! The Data Representation Module: [`Universe`] → solvable [`Instance`].
//!
//! Mirrors Section 5.1 of the paper. Relevance normalization is delegated to
//! `par-core`'s instance builder; this module decides the *similarity
//! representation*:
//!
//! * contextual attention (per-subset reweighting of the embedding space,
//!   from the subset's label) vs the non-contextual global cosine;
//! * optional EXIF context-distance mixing (Sinha et al.);
//! * optional per-context distance normalization — "dividing all distances by
//!   the maximum distance between any two photos in the context";
//! * the sparsification mode: dense all-pairs ([`Sparsification::None`],
//!   PHOcus-NS), dense-then-threshold ([`Sparsification::Threshold`]), or
//!   SimHash LSH without ever computing all pairs ([`Sparsification::Lsh`],
//!   the PHOcus default for large inputs).

use crate::error::{PhocusError, Result};
use par_core::{
    ContextSim, DenseSim, Instance, InstanceBuilder, PhotoId, SparseSim, Subset, SubsetId,
};
#[cfg(test)]
use par_core::SimilarityProvider;
use par_datasets::Universe;
use par_embed::{ContextVector, ContextualSimilarity, MemberRows, NonContextualSimilarity};

/// Sparsification mode of the representation (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sparsification {
    /// Materialize all pairwise similarities (PHOcus-NS).
    None,
    /// Materialize all pairs, then round those below `tau` down to zero.
    Threshold {
        /// The similarity threshold τ.
        tau: f64,
    },
    /// SimHash LSH per context: only verify colliding pairs; pairs below
    /// `tau` are never stored. Near-linear in the subset sizes.
    Lsh {
        /// The similarity threshold τ.
        tau: f64,
        /// Target recall of the LSH plan at τ.
        target_recall: f64,
        /// Hashing seed.
        seed: u64,
    },
}

/// Configuration of the Data Representation Module.
#[derive(Debug, Clone)]
pub struct RepresentationConfig {
    /// Attention floor `α ∈ [0,1]` of the per-subset contextual reweighting
    /// (the paper's contextualized embeddings; each subset's context vector
    /// comes from its label). 1 ⇒ effectively non-contextual.
    pub blend: f32,
    /// EXIF context-distance mixing weight `γ` (0 disables; ignored when the
    /// universe carries no EXIF). Dense and threshold representations only:
    /// with [`Sparsification::Lsh`] on a universe carrying EXIF, a positive
    /// weight is a [`PhocusError::UnsupportedWithLsh`].
    pub exif_weight: f64,
    /// Per-context max-distance normalization (Section 5.1). Dense and
    /// threshold representations only, like `exif_weight`.
    pub normalize_per_context: bool,
    /// Similarity sparsification mode.
    pub sparsification: Sparsification,
}

impl Default for RepresentationConfig {
    fn default() -> Self {
        RepresentationConfig {
            blend: 0.3,
            exif_weight: 0.0,
            normalize_per_context: false,
            sparsification: Sparsification::None,
        }
    }
}

impl RepresentationConfig {
    /// The PHOcus production representation: contextual + LSH sparsification.
    pub fn phocus(tau: f64) -> Self {
        RepresentationConfig {
            sparsification: Sparsification::Lsh {
                tau,
                target_recall: 0.95,
                seed: 0x9_0C05,
            },
            ..Default::default()
        }
    }

    /// The PHOcus-NS representation: contextual, dense.
    pub fn phocus_ns() -> Self {
        RepresentationConfig::default()
    }
}

fn builder_from_universe(universe: &Universe, budget: u64) -> InstanceBuilder {
    let mut b = InstanceBuilder::new(budget);
    for (name, &cost) in universe.names.iter().zip(&universe.costs) {
        b.add_photo(name.clone(), cost);
    }
    for &r in &universe.required {
        b.require(PhotoId(r));
    }
    for s in &universe.subsets {
        b.add_subset(
            s.label.clone(),
            s.weight,
            s.members.iter().map(|&m| PhotoId(m)).collect(),
            s.relevance.clone(),
        );
    }
    b
}

fn context_vectors(universe: &Universe) -> Vec<ContextVector> {
    let dim = universe.embeddings.first().map(|e| e.dim()).unwrap_or(1);
    universe
        .subsets
        .iter()
        .map(|s| ContextVector::from_label(dim, &s.label))
        .collect()
}

fn contextual_provider(universe: &Universe, cfg: &RepresentationConfig) -> ContextualSimilarity {
    let mut provider =
        ContextualSimilarity::new(universe.embeddings.clone(), context_vectors(universe));
    provider.blend = cfg.blend;
    if cfg.exif_weight > 0.0 {
        if let Some(exif) = &universe.exif {
            provider = provider.with_exif(exif.clone(), cfg.exif_weight);
        }
    }
    provider
}

/// Builds a dense store for one subset from a local pair function,
/// optionally applying per-context max-distance normalization.
fn dense_store_from_fn(
    subset_id: SubsetId,
    n: usize,
    pair: impl Fn(usize, usize) -> f64,
    normalize: bool,
) -> par_core::Result<DenseSim> {
    if !normalize {
        return DenseSim::from_local_fn(subset_id, n, pair);
    }
    let mut matrix = vec![1.0f64; n * n];
    let mut max_dist = 0.0f64;
    for i in 0..n {
        for j in 0..i {
            let s = pair(i, j);
            matrix[i * n + j] = s;
            matrix[j * n + i] = s;
            max_dist = max_dist.max(1.0 - s);
        }
    }
    if max_dist > 1e-12 {
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let d = (1.0 - matrix[i * n + j]) / max_dist;
                    matrix[i * n + j] = 1.0 - d;
                }
            }
        }
    }
    DenseSim::from_matrix(subset_id, n, &matrix)
}

/// Builds a dense store for one subset, optionally applying per-context
/// max-distance normalization. Generic over the provider; costs one
/// `similarity` call per pair. Retained as the reference implementation the
/// kernelized fast path is differentially tested against.
#[cfg(test)]
fn dense_store<P: SimilarityProvider>(
    subset: &Subset,
    provider: &P,
    normalize: bool,
) -> par_core::Result<DenseSim> {
    dense_store_from_fn(
        subset.id,
        subset.members.len(),
        |i, j| provider.similarity(subset, subset.members[i], subset.members[j]),
        normalize,
    )
}

/// The contextual-provider fast path: prepares the subset once (squared
/// attention weights + per-member norm terms hoisted out of the pair loop)
/// so each pair pays only a dot accumulation. Bit-identical to
/// [`dense_store`] with the same provider — asserted by
/// `kernelized_dense_build_is_bit_identical`.
fn dense_store_contextual(
    subset: &Subset,
    provider: &ContextualSimilarity,
    normalize: bool,
) -> par_core::Result<DenseSim> {
    let prepared = provider.prepare(subset);
    dense_store_from_fn(
        subset.id,
        subset.members.len(),
        |i, j| prepared.similarity_local(i, j),
        normalize,
    )
}

/// Contexts of at most this many members skip LSH: comparing every pair
/// exactly is cheaper below it.
const EXACT_CUTOFF: usize = 48;

/// Runs the Data Representation Module: turns a universe plus budget and
/// representation choices into a validated, solvable instance.
///
/// Every context's store depends on that context alone, so the stores are
/// built in one fan-out over contexts, largest first, one context per core,
/// and the instance is the same at every thread count.
///
/// Returns a [`PhocusError`] wrapping the failing layer: a sparsification
/// threshold that is NaN or outside `[0, 1]`
/// ([`PhocusError::InvalidTau`], raised before any store is built), a model
/// violation from instance building, an LSH planning failure when the
/// recall target is not a valid parameter, or
/// [`PhocusError::UnsupportedWithLsh`] when LSH is asked to mix EXIF or
/// normalize per context, which it cannot do.
pub fn represent(universe: &Universe, budget: u64, cfg: &RepresentationConfig) -> Result<Instance> {
    if let Sparsification::Threshold { tau } | Sparsification::Lsh { tau, .. } = cfg.sparsification
    {
        // NaN is in no range.
        if !(0.0..=1.0).contains(&tau) {
            return Err(PhocusError::InvalidTau(tau));
        }
    }
    let builder = builder_from_universe(universe, budget);
    let subsets = reconstruct_subsets(universe);
    let normalize = cfg.normalize_per_context;
    let sims = match cfg.sparsification {
        Sparsification::None => {
            let provider = contextual_provider(universe, cfg);
            build_stores(&subsets, |q| {
                Ok(ContextSim::Dense(dense_store_contextual(
                    q, &provider, normalize,
                )?))
            })?
        }
        Sparsification::Threshold { tau } => {
            let provider = contextual_provider(universe, cfg);
            build_stores(&subsets, |q| {
                let dense = dense_store_contextual(q, &provider, normalize)?;
                Ok(ContextSim::Sparse(dense.sparsify(tau)))
            })?
        }
        Sparsification::Lsh {
            tau,
            target_recall,
            seed,
        } => {
            if normalize {
                return Err(PhocusError::UnsupportedWithLsh { field: "normalize_per_context" });
            }
            if cfg.exif_weight > 0.0 && universe.exif.is_some() {
                return Err(PhocusError::UnsupportedWithLsh { field: "exif_weight" });
            }
            let contexts = context_vectors(universe);
            // Per-context LSH over *contextual* embeddings ("a different
            // embedding of the same photo for different predefined
            // subsets"): each large subset gets its own small banded index,
            // so candidate pairs are by construction co-members and the
            // baseline collision noise of a single global index (which
            // scales with n² across ALL photos) never arises. The random
            // hyperplanes are shared across contexts — only the signatures
            // differ.
            //
            // A capped engineering plan: the strict planner would demand
            // 1000+ bits at moderate thresholds; 9×20 = 180 bits catches
            // virtually all high-similarity pairs (≥99% at cos 0.85) and
            // most moderate ones, and misses only pairs whose loss
            // Figure 5e shows to be negligible. The cap respects the
            // caller's recall target when it is achievable within it.
            let planned = par_lsh::plan(tau, target_recall)?;
            let plan = if planned.total_bits() <= 256 {
                planned
            } else {
                par_lsh::LshPlan { rows: 9, bands: 20 }
            };
            let dim = universe.embeddings.first().map(|e| e.dim()).unwrap_or(1);
            // A universe whose contexts are all below the cutoff never pays
            // for the hyperplanes.
            let hasher = subsets
                .iter()
                .any(|q| q.members.len() > EXACT_CUTOFF)
                .then(|| par_lsh::SimHasher::new(dim, plan.total_bits(), seed));
            build_stores(&subsets, |q| {
                let ctx = &contexts[q.id.index()];
                let members = q.members.iter().map(|&p| &universe.embeddings[p.index()]);
                let pairs = match &hasher {
                    Some(hasher) if q.members.len() > EXACT_CUTOFF => {
                        let vectors: Vec<par_embed::Embedding> = members
                            .map(|e| ctx.contextual_embedding(e, cfg.blend))
                            .collect();
                        par_lsh::similar_pairs_with_plan(&vectors, tau, plan, hasher)
                    }
                    _ => exact_pairs(&ctx.kernel(cfg.blend).member_rows(members), tau),
                };
                Ok(ContextSim::Sparse(SparseSim::from_pairs(
                    q.id,
                    q.members.len(),
                    pairs,
                )?))
            })?
        }
    };
    Ok(builder.build_with_sims(sims)?)
}

/// Every pair `(j, i, cosine)` with `j < i` and `cosine ≥ tau`, in
/// ascending `(i, j)` order: the exact path of a context below the LSH
/// cutoff, bit-identical to `contextual_cosine` on each pair.
fn exact_pairs(rows: &MemberRows, tau: f64) -> Vec<(u32, u32, f64)> {
    let mut pairs = Vec::new();
    for i in 0..rows.len() {
        rows.cosines_below(i, |j, c| {
            if c >= tau {
                // phocus-lint: allow(cast-bounds) — j < i < |q|, and subset sizes fit u32
                pairs.push((j as u32, i as u32, c));
            }
        });
    }
    pairs
}

/// Builds every subset's store in one [`par_exec::par_map_dynamic`] fan-out
/// over contexts, largest first, and places each store at its own subset
/// index. Each store is a function of its subset alone, so the result
/// equals a serial build at every thread count; the kernels inside a store
/// run nested, one context per core. When stores fail, the error of the
/// lowest failing subset index is returned, whichever finished first.
fn build_stores(
    subsets: &[Subset],
    store: impl Fn(&Subset) -> par_core::Result<ContextSim> + Sync,
) -> par_core::Result<Vec<ContextSim>> {
    let mut order: Vec<usize> = (0..subsets.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(subsets[i].members.len()));
    let mut built = par_exec::par_map_dynamic(order.len(), || (), |(), k| {
        let i = order[k];
        (i, store(&subsets[i]))
    });
    built.sort_unstable_by_key(|&(i, _)| i);
    built.into_iter().map(|(_, store)| store).collect()
}

/// Rebuilds `Subset` values (ids, labels, members) from the universe, used
/// when stores are computed before instance validation. Relevance here is
/// raw; only ids/members matter for similarity computation.
fn reconstruct_subsets(universe: &Universe) -> Vec<Subset> {
    universe
        .subsets
        .iter()
        .enumerate()
        .map(|(i, s)| Subset {
            id: SubsetId(i as u32),
            label: s.label.as_str().into(),
            weight: s.weight,
            members: s.members.iter().map(|&m| PhotoId(m)).collect(),
            relevance: s.relevance.as_slice().into(),
        })
        .collect()
}

/// Builds the non-contextual similarity view of an already-represented
/// instance (same photos/subsets/budget, global-cosine similarities) — the
/// selection instance of the Greedy-NCS baseline.
pub fn non_contextual_view(inst: &Instance, universe: &Universe) -> Result<Instance> {
    let provider = NonContextualSimilarity {
        embeddings: universe.embeddings.clone(),
    };
    let mut sims = Vec::with_capacity(inst.num_subsets());
    for q in inst.subsets() {
        let dense = DenseSim::from_provider(q, &provider).map_err(PhocusError::Model)?;
        sims.push(ContextSim::Dense(dense));
    }
    Ok(inst.with_sims(sims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_core::exact_score;
    use par_datasets::{generate_openimages, OpenImagesConfig};

    fn small_universe(seed: u64) -> Universe {
        generate_openimages(&OpenImagesConfig {
            name: "T".into(),
            photos: 120,
            target_subsets: 25,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn dense_representation_builds() {
        let u = small_universe(1);
        let budget = u.total_cost() / 3;
        let inst = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        assert_eq!(inst.num_photos(), 120);
        assert_eq!(inst.num_subsets(), u.num_subsets());
        assert_eq!(inst.budget(), budget);
        // Relevance normalized per subset.
        for q in inst.subsets() {
            let s: f64 = q.relevance.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn threshold_sparsification_reduces_pairs() {
        let u = small_universe(2);
        let budget = u.total_cost() / 3;
        let dense = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        let sparse = represent(
            &u,
            budget,
            &RepresentationConfig {
                sparsification: Sparsification::Threshold { tau: 0.6 },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(sparse.stored_pairs() < dense.stored_pairs());
    }

    #[test]
    fn lsh_recovers_most_high_similarity_pairs() {
        let u = small_universe(3);
        let budget = u.total_cost() / 3;
        let tau = 0.7;
        let thresholded = represent(
            &u,
            budget,
            &RepresentationConfig {
                sparsification: Sparsification::Threshold { tau },
                ..Default::default()
            },
        )
        .unwrap();
        let lsh = represent(
            &u,
            budget,
            &RepresentationConfig {
                sparsification: Sparsification::Lsh {
                    tau,
                    target_recall: 0.95,
                    seed: 7,
                },
                ..Default::default()
            },
        )
        .unwrap();
        let exact_pairs = thresholded.stored_pairs();
        let lsh_pairs = lsh.stored_pairs();
        assert!(
            lsh_pairs as f64 >= 0.8 * exact_pairs as f64,
            "LSH found {lsh_pairs} of {exact_pairs} pairs"
        );
        assert!(lsh_pairs <= exact_pairs, "LSH must not invent pairs");
    }

    /// LSH never evaluates a pair distance, so it cannot mix EXIF into one
    /// or normalize it: asking for either is a typed error naming the
    /// field, not a store built as if the field were unset.
    #[test]
    fn lsh_refuses_fields_it_cannot_apply() {
        let mut u = small_universe(7);
        let budget = u.total_cost() / 3;
        let lsh = |exif_weight, normalize_per_context| RepresentationConfig {
            exif_weight,
            normalize_per_context,
            ..RepresentationConfig::phocus(0.3)
        };
        // Without EXIF, a weight is ignored by every representation.
        assert!(represent(&u, budget, &lsh(0.4, false)).is_ok());
        let unsupported = |field| Err(PhocusError::UnsupportedWithLsh { field });
        assert_eq!(
            represent(&u, budget, &lsh(0.0, true)).map(|_| ()),
            unsupported("normalize_per_context")
        );
        u.exif = Some(
            (0..u.num_photos())
                .map(|i| par_embed::ExifData::synthesize((i % 13) as u64, i as u64))
                .collect(),
        );
        assert_eq!(
            represent(&u, budget, &lsh(0.4, false)).map(|_| ()),
            unsupported("exif_weight")
        );
        assert!(represent(&u, budget, &lsh(0.0, false)).is_ok());
        // The dense-then-threshold path applies the weight.
        let threshold = |exif_weight| RepresentationConfig {
            exif_weight,
            sparsification: Sparsification::Threshold { tau: 0.3 },
            ..Default::default()
        };
        let plain = represent(&u, budget, &threshold(0.0)).unwrap();
        let mixed = represent(&u, budget, &threshold(0.4)).unwrap();
        assert_ne!(plain.stored_pairs(), mixed.stored_pairs());
    }

    #[test]
    fn non_contextual_view_shares_structure() {
        let u = small_universe(4);
        let budget = u.total_cost() / 3;
        let inst = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        let ncs = non_contextual_view(&inst, &u).unwrap();
        assert_eq!(ncs.num_photos(), inst.num_photos());
        assert_eq!(ncs.num_subsets(), inst.num_subsets());
        // Same set scores differently under the two views (contextual ≠
        // global) but both are valid objectives.
        let set: Vec<PhotoId> = (0..40).map(PhotoId).collect();
        let a = exact_score(&inst, &set);
        let b = exact_score(&ncs, &set);
        assert!(a > 0.0 && b > 0.0);
        assert!((a - b).abs() > 1e-9, "views should differ");
    }

    #[test]
    fn per_context_normalization_stretches_distances() {
        let u = small_universe(5);
        let budget = u.total_cost() / 2;
        let plain = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        let norm = represent(
            &u,
            budget,
            &RepresentationConfig {
                normalize_per_context: true,
                ..Default::default()
            },
        )
        .unwrap();
        // After normalization some pair in each multi-member context attains
        // similarity 0 (the max-distance pair), so stored pairs can only
        // shrink or stay equal; and at least one subset must differ.
        let mut any_diff = false;
        for q in plain.subsets() {
            if q.members.len() < 2 {
                continue;
            }
            let a = plain.sim(q.id).sim(0, 1);
            let b = norm.sim(q.id).sim(0, 1);
            if (a - b).abs() > 1e-9 {
                any_diff = true;
            }
            assert!(b <= a + 1e-9, "normalization must not raise similarity");
        }
        assert!(any_diff);
    }

    #[test]
    fn kernelized_dense_build_is_bit_identical() {
        // The hoisted-invariant contextual build must reproduce the generic
        // per-pair provider build bit for bit, normalized or not, with and
        // without EXIF mixing.
        let mut u = small_universe(7);
        u.exif = Some(
            (0..u.num_photos())
                .map(|i| par_embed::ExifData::synthesize((i % 9) as u64, i as u64))
                .collect(),
        );
        for exif_weight in [0.0, 0.35] {
            for normalize in [false, true] {
                let cfg = RepresentationConfig {
                    exif_weight,
                    normalize_per_context: normalize,
                    ..Default::default()
                };
                let provider = contextual_provider(&u, &cfg);
                for q in &reconstruct_subsets(&u) {
                    let generic = dense_store(q, &provider, normalize).unwrap();
                    let fast = dense_store_contextual(q, &provider, normalize).unwrap();
                    assert_eq!(
                        generic.raw_tri(),
                        fast.raw_tri(),
                        "subset {:?} γ={exif_weight} normalize={normalize}",
                        q.id
                    );
                }
            }
        }
    }

    /// A threshold that is NaN or outside `[0, 1]` is a typed parameter
    /// error for both sparsifying modes, raised before any store is built:
    /// not an empty representation, and not a bad similarity blamed on the
    /// data.
    #[test]
    fn sparsification_tau_outside_the_unit_interval_is_refused() {
        let u = small_universe(8);
        let budget = u.total_cost() / 3;
        for tau in [
            f64::NAN,
            -0.5,
            -f64::EPSILON,
            1.0 + f64::EPSILON,
            1.5,
            f64::INFINITY,
        ] {
            for sparsification in [
                Sparsification::Threshold { tau },
                Sparsification::Lsh {
                    tau,
                    target_recall: 0.95,
                    seed: 7,
                },
            ] {
                let cfg = RepresentationConfig {
                    sparsification,
                    ..Default::default()
                };
                match represent(&u, budget, &cfg) {
                    Err(PhocusError::InvalidTau(t)) => {
                        assert_eq!(t.to_bits(), tau.to_bits(), "{sparsification:?}")
                    }
                    other => panic!("{sparsification:?}: {:?}", other.map(|i| i.stored_pairs())),
                }
            }
        }
        // The interval's ends are thresholds.
        for tau in [0.0, 1.0] {
            let cfg = RepresentationConfig::phocus(tau);
            assert!(represent(&u, budget, &cfg).is_ok(), "tau {tau}");
        }
    }

    #[test]
    fn budget_must_cover_required() {
        let mut u = small_universe(6);
        u.required = vec![0, 1, 2];
        let tiny = u.costs[0] / 2;
        assert!(represent(&u, tiny, &RepresentationConfig::default()).is_err());
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use par_datasets::{generate_openimages, OpenImagesConfig};

    #[test]
    fn parallel_build_matches_serial() {
        // Every sparsification mode, LSH included (with contexts above the
        // exact-comparison cutoff), must build the same CSR arenas and dense
        // triangles under an installed serial, two- and eight-worker
        // parallelism.
        let u = generate_openimages(&OpenImagesConfig {
            name: "par".into(),
            photos: 400,
            target_subsets: 30,
            seed: 77,
            ..Default::default()
        });
        assert!(
            u.subsets.iter().any(|s| s.members.len() > EXACT_CUTOFF),
            "needs an LSH context"
        );
        let budget = u.total_cost() / 4;
        let build = |sparsification, threads| {
            let previous = par_exec::Parallelism::with_threads(threads).install_global();
            let inst = represent(
                &u,
                budget,
                &RepresentationConfig {
                    sparsification,
                    ..Default::default()
                },
            );
            previous.install_global();
            inst.unwrap()
        };
        for sparsification in [
            Sparsification::None,
            Sparsification::Threshold { tau: 0.6 },
            Sparsification::Lsh {
                tau: 0.6,
                target_recall: 0.95,
                seed: 42,
            },
        ] {
            let serial = build(sparsification, 1);
            for threads in [2, 8] {
                let parallel = build(sparsification, threads);
                assert_eq!(serial.num_subsets(), parallel.num_subsets());
                for q in serial.subsets() {
                    assert_eq!(
                        serial.sim(q.id),
                        parallel.sim(q.id),
                        "{sparsification:?} at {threads} threads: subset {:?}",
                        q.id
                    );
                }
            }
        }
    }

    #[test]
    fn failing_stores_report_the_lowest_subset_at_every_thread_count() {
        // Subsets of mixed sizes, so largest-first claims them out of index
        // order; two of them fail.
        let subsets: Vec<Subset> = (0..40u32)
            .map(|i| {
                let n = 1 + (i as usize * 7) % 23;
                Subset {
                    id: SubsetId(i),
                    label: format!("q{i}").into(),
                    weight: 1.0,
                    members: (0..n as u32).map(PhotoId).collect(),
                    relevance: vec![1.0 / n as f64; n].into(),
                }
            })
            .collect();
        let failing = [SubsetId(5), SubsetId(36)];
        let largest = subsets.iter().map(|q| q.members.len()).max();
        assert_eq!(
            Some(subsets[36].members.len()),
            largest,
            "36 is claimed first"
        );
        assert!(subsets[5].members.len() < subsets[36].members.len());
        let store = |q: &Subset| {
            if failing.contains(&q.id) {
                Err(par_core::ModelError::InvalidSimilarity {
                    subset: q.id,
                    value: -1.0,
                })
            } else {
                SparseSim::from_pairs(q.id, q.members.len(), []).map(ContextSim::Sparse)
            }
        };
        for threads in [1, 2, 8] {
            let previous = par_exec::Parallelism::with_threads(threads).install_global();
            let built = build_stores(&subsets, store);
            previous.install_global();
            assert_eq!(
                built.map(|sims| sims.len()),
                Err(par_core::ModelError::InvalidSimilarity {
                    subset: SubsetId(5),
                    value: -1.0
                }),
                "{threads} threads"
            );
        }
        // Without failures every store lands at its own subset index.
        let built = build_stores(&subsets[..10], |q| {
            SparseSim::from_pairs(q.id, q.members.len(), []).map(ContextSim::Sparse)
        })
        .unwrap();
        for (i, sim) in built.iter().enumerate() {
            assert_eq!(sim.len(), subsets[i].members.len(), "subset {i}");
        }
    }

    #[test]
    fn explicit_thread_counts_work() {
        // The representation builds under any installed worker count.
        let u = generate_openimages(&OpenImagesConfig {
            name: "par2".into(),
            photos: 100,
            target_subsets: 20,
            seed: 78,
            ..Default::default()
        });
        for threads in [1usize, 2, 4] {
            let previous = par_exec::Parallelism::with_threads(threads).install_global();
            let inst = represent(&u, u.total_cost() / 3, &RepresentationConfig::default());
            previous.install_global();
            let inst = inst.unwrap();
            assert_eq!(inst.num_subsets(), u.num_subsets());
        }
    }
}
