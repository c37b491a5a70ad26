//! Multi-action archival — keep, recompress@ℓ, or delete — the paper's §6
//! future work promoted to a first-class layer on the sharded solver:
//! *"consider which photos to compress (i.e., to sacrifice quality to gain
//! space) rather than to remove. We believe that our model can already
//! capture this problem."*
//!
//! It can, and this module shows how. A validated [`ActionLadder`] expands
//! each photo into a set of *variants* — the original plus one rendition per
//! ladder level, with smaller cost and degraded quality — so PAR's ground
//! set becomes photo × action and the plain budgeted solve picks one action
//! per photo. A variant joins its parent's subsets as a selectable
//! *representative*, not as content to be represented: its own relevance is
//! an ε (renditions we invent create no demand), while its similarity to any
//! photo is the parent's scaled by the rendition's quality factor — in
//! particular a variant covers its own parent at `SIM = quality`, not 1. No
//! mutual-exclusion constraint is needed: once the original is selected a
//! variant's coverage is dominated (`quality·SIM ≤ SIM`), so by
//! submodularity the greedy never wastes budget stacking variants of one
//! photo — `tests` verify this, along with the headline effect: at tight
//! budgets the solver trades full-quality originals for cheap renditions and
//! ends up with *higher* total quality than remove-only archival.
//!
//! The expanded instance runs through the same component-sharded machinery
//! as every other solve ([`par_algo::main_algorithm_sharded`]): variants
//! share their parent's embedding, so every stored pair keeps them in the
//! parent's connected component and the union-find/CELF/staleness machinery
//! carries over unchanged, transcript-bit-identical to the global solver.
//! Reported scores are ε-free ([`epsilon_free_score`]): measured over the
//! *original* photos' demand only, so remove-only and multi-action numbers
//! are directly comparable and the invented renditions' ε relevance never
//! inflates a headline gain.

use crate::error::{PhocusError, Result};
use crate::representation::{represent, RepresentationConfig};
use par_algo::main_algorithm_sharded;
use par_core::{Instance, PhotoId};
use par_datasets::{SubsetDef, Universe};

/// One compression rendition: retained size fraction and quality factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionLevel {
    /// Fraction of the original byte cost this rendition occupies, in
    /// `(0, 1)`.
    pub size_fraction: f64,
    /// Quality factor in `(0, 1)`: how well the rendition stands in for the
    /// original (scales relevance and similarity).
    pub quality: f64,
}

/// A sensible default ladder: a strong recompression and a thumbnail.
pub const DEFAULT_LADDER: [CompressionLevel; 2] = [
    CompressionLevel {
        size_fraction: 0.35,
        quality: 0.85,
    },
    CompressionLevel {
        size_fraction: 0.10,
        quality: 0.55,
    },
];

/// A validated set of per-photo storage actions: keep (implicit),
/// recompress at each level, or delete (don't select any variant).
///
/// Construction is the *only* place level values are checked — every
/// `size_fraction` and `quality` must be finite and in `(0, 1)` — so the
/// expansion itself never asserts on user data. The empty ladder is valid
/// and degenerates to the remove-only model: no variants, same instance,
/// same solution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActionLadder {
    levels: Vec<CompressionLevel>,
}

impl ActionLadder {
    /// Validates `levels` into a ladder.
    ///
    /// # Errors
    /// [`PhocusError::InvalidLadder`] naming the first offending level if
    /// any `size_fraction` or `quality` is non-finite or outside `(0, 1)`.
    pub fn new(levels: Vec<CompressionLevel>) -> Result<Self> {
        for (k, lvl) in levels.iter().enumerate() {
            if !(lvl.size_fraction > 0.0 && lvl.size_fraction < 1.0) {
                return Err(PhocusError::InvalidLadder {
                    level: k,
                    message: format!("size fraction {} is not in (0, 1)", lvl.size_fraction),
                });
            }
            if !(lvl.quality > 0.0 && lvl.quality < 1.0) {
                return Err(PhocusError::InvalidLadder {
                    level: k,
                    message: format!("quality {} is not in (0, 1)", lvl.quality),
                });
            }
        }
        Ok(ActionLadder { levels })
    }

    /// The degenerate delete-only ladder: no renditions, remove-only model.
    pub fn delete_only() -> Self {
        ActionLadder { levels: Vec::new() }
    }

    /// The built-in [`DEFAULT_LADDER`] (a strong recompression and a
    /// thumbnail).
    pub fn standard() -> Self {
        ActionLadder {
            levels: DEFAULT_LADDER.to_vec(),
        }
    }

    /// The recompression paper's measured ladder
    /// ([`par_datasets::RECOMPRESSION_LEVELS`]), strongest rung first.
    pub fn measured() -> Self {
        ActionLadder {
            levels: par_datasets::RECOMPRESSION_LEVELS
                .iter()
                .map(|&(size_fraction, quality)| CompressionLevel {
                    size_fraction,
                    quality,
                })
                .collect(),
        }
    }

    /// Parses a `quality:size_fraction[,quality:size_fraction...]` spec (the
    /// CLI's `--ladder` format). An empty or all-whitespace spec, or the
    /// word `none`, is the delete-only ladder; `paper` is the measured one.
    ///
    /// # Errors
    /// [`PhocusError::InvalidLadder`] naming the first entry that does not
    /// parse or validate.
    pub fn parse(spec: &str) -> Result<Self> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(Self::delete_only());
        }
        if spec == "paper" {
            return Ok(Self::measured());
        }
        let mut levels = Vec::new();
        for (k, entry) in spec.split(',').enumerate() {
            let invalid = |message: String| PhocusError::InvalidLadder { level: k, message };
            let Some((q, frac)) = entry.trim().split_once(':') else {
                return Err(invalid(format!(
                    "`{entry}` is not a quality:size_fraction pair"
                )));
            };
            let parse_f64 = |field: &str, text: &str| -> Result<f64> {
                text.trim()
                    .parse()
                    .map_err(|_| invalid(format!("{field} `{text}` is not a number")))
            };
            levels.push(CompressionLevel {
                quality: parse_f64("quality", q)?,
                size_fraction: parse_f64("size fraction", frac)?,
            });
        }
        Self::new(levels)
    }

    /// The validated levels, in ladder order.
    pub fn levels(&self) -> &[CompressionLevel] {
        &self.levels
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether this is the degenerate delete-only ladder.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Quality factor of a variant at `level` (originals are `None` → 1).
    fn quality_of(&self, level: Option<usize>) -> f64 {
        match level {
            None => 1.0,
            Some(k) => self.levels[k].quality,
        }
    }
}

/// Maps variant indices back to original photos.
#[derive(Debug, Clone)]
pub struct VariantMap {
    /// `parent[i]` = index of variant `i`'s original photo in the source
    /// universe (originals map to themselves).
    pub parent: Vec<u32>,
    /// `level[i]` = `None` for originals, `Some(k)` for ladder level `k`.
    pub level: Vec<Option<usize>>,
}

impl VariantMap {
    /// The identity map over `n` original photos — what an expansion with
    /// the delete-only ladder produces.
    pub fn identity(n: usize) -> Self {
        VariantMap {
            parent: (0..n as u32).collect(),
            level: vec![None; n],
        }
    }

    /// Whether variant `i` is an unmodified original.
    pub fn is_original(&self, i: usize) -> bool {
        self.level[i].is_none()
    }
}

/// Expands every photo of `universe` with the given compression ladder.
///
/// Original photos keep their indices (`0..n`); variants are appended. Each
/// variant joins every subset its parent belongs to, with relevance scaled
/// by its quality. Policy-required photos are *not* expanded into cheaper
/// variants: policy requires the original. The delete-only ladder returns
/// the universe unchanged (plus the identity map).
pub fn expand_with_variants(universe: &Universe, ladder: &ActionLadder) -> (Universe, VariantMap) {
    let n = universe.num_photos();
    if ladder.is_empty() {
        return (universe.clone(), VariantMap::identity(n));
    }
    let mut names = universe.names.clone();
    let mut costs = universe.costs.clone();
    let mut embeddings = universe.embeddings.clone();
    let mut exif = universe.exif.clone();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut level: Vec<Option<usize>> = vec![None; n];
    let required: std::collections::HashSet<u32> = universe.required.iter().copied().collect();

    // variant_of[p][k] = index of photo p's level-k variant.
    let mut variant_of: Vec<Vec<u32>> = vec![Vec::new(); n];
    for p in 0..n {
        if required.contains(&(p as u32)) {
            continue;
        }
        for (k, lvl) in ladder.levels().iter().enumerate() {
            // phocus-lint: allow(cast-bounds) — ≤ n·levels variants of a u32-id universe
            let idx = names.len() as u32;
            names.push(format!("{}@q{}", universe.names[p], k));
            costs.push(
                ((universe.costs[p] as f64) * lvl.size_fraction)
                    .ceil()
                    .max(1.0) as u64,
            );
            // The rendition depicts the same content: same embedding. Its
            // degraded fidelity enters through scaled relevance/similarity,
            // not through a perturbed embedding.
            embeddings.push(universe.embeddings[p].clone());
            if let Some(e) = &mut exif {
                e.push(e[p].clone());
            }
            parent.push(p as u32);
            level.push(Some(k));
            variant_of[p].push(idx);
        }
    }

    // Subsets: each variant joins its parent's subsets as a selectable
    // representative. Its own demand is an ε of the parent's relevance —
    // strictly positive (the model requires it) but negligible, so inventing
    // renditions does not dilute the real content's relevance mass.
    const VARIANT_DEMAND_EPS: f64 = 1e-6;
    let subsets = universe
        .subsets
        .iter()
        .map(|s| {
            let mut members = s.members.clone();
            let mut relevance = s.relevance.clone();
            for (&m, &r) in s.members.iter().zip(&s.relevance) {
                for &v in &variant_of[m as usize] {
                    members.push(v);
                    relevance.push(r * VARIANT_DEMAND_EPS);
                }
            }
            SubsetDef {
                label: s.label.clone(),
                weight: s.weight,
                members,
                relevance,
            }
        })
        .collect();

    let expanded = Universe {
        name: format!("{}+compress", universe.name),
        names,
        costs,
        embeddings,
        exif,
        subsets,
        required: universe.required.clone(),
    };
    debug_assert!(
        expanded.validate().is_ok(),
        "expanded universe remains valid"
    );
    (expanded, VariantMap { parent, level })
}

/// Represents an expanded universe with a similarity that scales each pair
/// by the quality factors of the variants involved: for variants `a, b` of
/// parents `A, B` at qualities `qa, qb`,
/// `SIM(q, a, b) = qa · qb · SIM_base(q, A, B)` (with `SIM(a, a) = 1` as the
/// model requires — a retained variant represents itself perfectly, but
/// represents its *parent* only at `qa`).
pub fn represent_with_variants(
    expanded: &Universe,
    map: &VariantMap,
    ladder: &ActionLadder,
    budget: u64,
    cfg: &RepresentationConfig,
) -> Result<Instance> {
    // Build the instance on the expanded universe (embeddings equal within a
    // variant family, so base contextual similarity is the parent's), then
    // rescale stored similarities by quality factors.
    let inst = represent(expanded, budget, cfg)?;
    let quality = |i: usize| -> f64 { ladder.quality_of(map.level[i]) };
    let mut sims = Vec::with_capacity(inst.num_subsets());
    for q in inst.subsets() {
        let store = inst.sim(q.id);
        let n = q.members.len();
        let mut pairs = Vec::new();
        let push_pair = |pairs: &mut Vec<(u32, u32, f64)>, i: usize, j: usize, s: f64| {
            let a = q.members[i].index();
            let b = q.members[j].index();
            let scaled = s * quality(a) * quality(b);
            if scaled > 0.0 {
                // phocus-lint: allow(cast-bounds) — member positions; subsets are u32-indexed
                pairs.push((i as u32, j as u32, scaled));
            }
        };
        if let par_core::ContextSim::Sparse(sp) = store {
            // CSR rows are sorted, so the upper-triangle suffix of row `i`
            // enumerates each unordered pair exactly once.
            for i in 0..n {
                let (ids, sims) = sp.neighbors(i);
                let upper = ids.partition_point(|&j| (j as usize) <= i);
                for (&j, &s) in ids[upper..].iter().zip(&sims[upper..]) {
                    push_pair(&mut pairs, i, j as usize, s as f64);
                }
            }
        } else {
            for i in 0..n {
                store.for_neighbors(i, |j, s| {
                    if j > i {
                        push_pair(&mut pairs, i, j, s); // each unordered pair once
                    }
                });
            }
        }
        sims.push(par_core::ContextSim::Sparse(
            par_core::SparseSim::from_pairs(q.id, n, pairs)?,
        ));
    }
    Ok(inst.with_sims(sims))
}

/// The ε-free objective: PAR's quality measured over the *original* photos'
/// demand only, ignoring the ε relevance that invented renditions carry.
///
/// For each subset, only members that are originals contribute demand; their
/// relevance is renormalized over the original members (restoring the base
/// instance's `Σ R(q,·) = 1` up to f64 re-association), while *coverage*
/// still comes from every selected variant through the quality-scaled stored
/// similarities. On an unexpanded instance (identity map) this is exactly
/// [`par_core::exact_score`] modulo summation order, so remove-only and
/// multi-action solutions are compared on one objective.
pub fn epsilon_free_score(inst: &Instance, map: &VariantMap, selected: &[PhotoId]) -> f64 {
    debug_assert_eq!(map.level.len(), inst.num_photos(), "map matches instance");
    let mut sel = vec![false; inst.num_photos()];
    for &p in selected {
        sel[p.index()] = true;
    }
    let mut total = 0.0;
    for q in inst.subsets() {
        let store = inst.sim(q.id);
        let mut mass = 0.0;
        let mut covered = 0.0;
        for (i, (&m, &r)) in q.members.iter().zip(q.relevance.iter()).enumerate() {
            if !map.is_original(m.index()) {
                continue;
            }
            mass += r;
            let mut best = 0.0;
            if sel[m.index()] {
                best = 1.0;
            } else {
                store.for_neighbors(i, |j, s| {
                    if sel[q.members[j].index()] && s > best {
                        best = s;
                    }
                });
            }
            covered += r * best;
        }
        if mass > 0.0 {
            total += q.weight * covered / mass;
        }
    }
    total
}

/// Keeps exactly one representative per selected photo: the
/// highest-quality selected variant, ties broken by lowest index, so
/// duplicate-quality ladder rungs never retain redundant copies. The
/// survivors keep their order in `selected`.
pub fn prune_superseded(
    map: &VariantMap,
    ladder: &ActionLadder,
    selected: &[PhotoId],
) -> Vec<PhotoId> {
    // keeper[parent] = selected variant with the highest quality, lowest
    // index on ties (the original, when selected: quality 1 > any
    // rendition's). HashMap lookups only — no iteration order leaks.
    let mut keeper: std::collections::HashMap<u32, (f64, u32)> = std::collections::HashMap::new();
    for &p in selected {
        let parent = map.parent[p.index()];
        let q = ladder.quality_of(map.level[p.index()]);
        let entry = keeper.entry(parent).or_insert((q, p.0));
        if q > entry.0 || (q == entry.0 && p.0 < entry.1) {
            *entry = (q, p.0);
        }
    }
    selected
        .iter()
        .copied()
        .filter(|&p| keeper.get(&map.parent[p.index()]).map(|e| e.1) == Some(p.0))
        .collect()
}

/// Drops superseded renditions from a selection and greedily refills the
/// freed budget.
///
/// The monotone greedy never *removes*, so when a cheap rendition selected
/// early is later upgraded (by a better rendition or the original of the
/// same photo), its bytes stay stranded in the solution. This repair pass
/// keeps one representative per selected photo ([`prune_superseded`]), then
/// resumes the cost-benefit lazy greedy with the recovered budget (through
/// the sharded solver, bit-identical to the global one). Monotonicity
/// guarantees the result never scores worse than the input selection minus
/// the ε-demand of the pruned renditions.
pub fn prune_and_refill(
    inst: &Instance,
    map: &VariantMap,
    ladder: &ActionLadder,
    selected: &[PhotoId],
) -> Vec<PhotoId> {
    let kept = prune_superseded(map, ladder, selected);
    let refilled =
        par_algo::sharded_lazy_greedy_from(inst, &kept, par_algo::GreedyRule::CostBenefit).selected;
    // Algorithm 2 fills the budget even with near-zero gains, which can
    // re-introduce dominated renditions as filler; a final prune leaves
    // that budget unused instead of stored as junk.
    prune_superseded(map, ladder, &refilled)
}

/// A multi-action solve: the expanded instance, its variant map, and the
/// repaired selection with its ε-free quality.
#[derive(Debug, Clone)]
pub struct MultiActionSolve {
    /// The solved instance — expanded when the ladder has rungs, the plain
    /// remove-only instance for the delete-only ladder.
    pub instance: Instance,
    /// Variant-to-parent map for `instance` (identity when delete-only).
    pub map: VariantMap,
    /// The chosen actions, in selection (transcript) order: an original
    /// means *keep*, a variant means *recompress@level*, an absent photo
    /// means *delete*.
    pub selected: Vec<PhotoId>,
    /// ε-free quality of `selected` ([`epsilon_free_score`]).
    pub score: f64,
    /// Photos kept at full quality.
    pub kept_original: usize,
    /// Compressed renditions retained.
    pub kept_compressed: usize,
}

/// The instance a multi-action solve runs on, with its variant map: the
/// expanded instance for a ladder with rungs, the plain remove-only
/// instance and the identity map for the delete-only ladder.
fn represent_actions(
    universe: &Universe,
    budget: u64,
    ladder: &ActionLadder,
    cfg: &RepresentationConfig,
) -> Result<(Instance, VariantMap)> {
    if ladder.is_empty() {
        let inst = represent(universe, budget, cfg)?;
        let map = VariantMap::identity(inst.num_photos());
        return Ok((inst, map));
    }
    let (expanded, map) = expand_with_variants(universe, ladder);
    let inst = represent_with_variants(&expanded, &map, ladder, budget, cfg)?;
    Ok((inst, map))
}

/// Algorithm 1 on the component-sharded solver, then — for a ladder with
/// rungs — the [`prune_and_refill`] repair, keeping whichever of the raw and
/// repaired selections scores higher on the ε-free objective (repaired on
/// ties). The delete-only ladder skips the repair and keeps Algorithm 1's
/// own score. Returns the selection and its score.
fn solve_represented(
    inst: &Instance,
    map: &VariantMap,
    ladder: &ActionLadder,
) -> (Vec<PhotoId>, f64) {
    let out = main_algorithm_sharded(inst);
    if ladder.is_empty() {
        return (out.best.selected, out.best.score);
    }
    let repaired = prune_and_refill(inst, map, ladder, &out.best.selected);
    let repaired_score = epsilon_free_score(inst, map, &repaired);
    let raw_score = epsilon_free_score(inst, map, &out.best.selected);
    if repaired_score >= raw_score {
        (repaired, repaired_score)
    } else {
        (out.best.selected, raw_score)
    }
}

/// Solves the multi-action PAR model: expand with `ladder`, run Algorithm 1
/// on the expanded instance through the component-sharded solver, then
/// apply the [`prune_and_refill`] repair, reporting whichever of the raw and
/// repaired selections scores higher on the ε-free objective (repaired on
/// ties).
///
/// The delete-only ladder takes the unexpanded path — same representation,
/// same solver, no repair — so its solution reproduces remove-only archival
/// *exactly*, bit for bit.
pub fn solve_multi_action(
    universe: &Universe,
    budget: u64,
    ladder: &ActionLadder,
    cfg: &RepresentationConfig,
) -> Result<MultiActionSolve> {
    let (instance, map) = represent_actions(universe, budget, ladder, cfg)?;
    let (selected, score) = solve_represented(&instance, &map, ladder);
    let kept_compressed = selected
        .iter()
        .filter(|p| !map.is_original(p.index()))
        .count();
    Ok(MultiActionSolve {
        kept_original: selected.len() - kept_compressed,
        kept_compressed,
        instance,
        map,
        selected,
        score,
    })
}

/// One point of a delete-only vs multi-action quality frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// The budget (bytes), clamped up to the required set's cost.
    pub budget: u64,
    /// [`solve_multi_action`]'s score at this budget with the delete-only
    /// ladder (remove-only quality).
    pub delete_only: f64,
    /// [`solve_multi_action`]'s score at this budget with the frontier's
    /// ladder (ε-free multi-action quality).
    pub multi_action: f64,
}

/// Figure-5-style frontier curves: delete-only vs multi-action quality at
/// each of `budgets`, in input order. Budgets below the required set's cost
/// `C(S₀)` are clamped up to it.
///
/// Each point is bit-identical to two [`solve_multi_action`] calls at its
/// (clamped) budget. Each side is represented once, at the largest budget:
/// similarity stores do not depend on the budget, so that instance
/// re-budgeted to `b` is the one representing at `b` builds. Only the solve
/// runs per point.
pub fn multi_action_frontier(
    universe: &Universe,
    budgets: &[u64],
    ladder: &ActionLadder,
    cfg: &RepresentationConfig,
) -> Result<Vec<FrontierPoint>> {
    let max_budget = budgets.iter().copied().max().unwrap_or(1).max(1);
    let curve = |ladder: &ActionLadder| -> Result<Vec<(u64, f64)>> {
        let (inst, map) = represent_actions(universe, max_budget, ladder, cfg)?;
        budgets
            .iter()
            .map(|&b| {
                let budget = b.max(inst.required_cost());
                let at = inst.with_budget(budget)?;
                Ok((budget, solve_represented(&at, &map, ladder).1))
            })
            .collect()
    };
    let delete_only = curve(&ActionLadder::delete_only())?;
    let multi = if ladder.is_empty() {
        delete_only.clone()
    } else {
        curve(ladder)?
    };
    Ok(delete_only
        .iter()
        .zip(&multi)
        .map(|(&(budget, d), &(_, m))| FrontierPoint {
            budget,
            delete_only: d,
            multi_action: m,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_core::{Evaluator, Solution};
    use par_datasets::{generate_openimages, OpenImagesConfig};

    fn universe() -> Universe {
        generate_openimages(&OpenImagesConfig {
            name: "cmp".into(),
            photos: 120,
            target_subsets: 25,
            seed: 55,
            ..Default::default()
        })
    }

    #[test]
    fn ladder_validates_at_construction() {
        for (frac, quality) in [
            (0.0, 0.5),
            (1.0, 0.5),
            (-0.3, 0.5),
            (f64::NAN, 0.5),
            (f64::INFINITY, 0.5),
            (0.5, 0.0),
            (0.5, 1.0),
            (0.5, -1.0),
            (0.5, f64::NAN),
        ] {
            let err = ActionLadder::new(vec![CompressionLevel {
                size_fraction: frac,
                quality,
            }]);
            assert!(
                matches!(err, Err(PhocusError::InvalidLadder { level: 0, .. })),
                "({frac}, {quality}) must be rejected, got {err:?}"
            );
        }
        assert!(ActionLadder::new(DEFAULT_LADDER.to_vec()).is_ok());
        assert!(ActionLadder::new(Vec::new()).is_ok(), "empty ladder is valid");
        // The measured ladder passes its own validator.
        assert!(ActionLadder::new(ActionLadder::measured().levels().to_vec()).is_ok());
    }

    #[test]
    fn ladder_parses_the_cli_spec() {
        let l = ActionLadder::parse("0.85:0.35, 0.55:0.10").unwrap();
        assert_eq!(l.levels(), ActionLadder::standard().levels());
        assert!(ActionLadder::parse("").unwrap().is_empty());
        assert!(ActionLadder::parse("none").unwrap().is_empty());
        assert_eq!(ActionLadder::parse("paper").unwrap(), ActionLadder::measured());
        for bad in ["0.85", "a:b", "0.85:0.35,oops", "2.0:0.5", "0.5:nan"] {
            assert!(
                matches!(
                    ActionLadder::parse(bad),
                    Err(PhocusError::InvalidLadder { .. })
                ),
                "`{bad}` must be rejected"
            );
        }
        // The error names the offending entry, not just "entry 0".
        let Err(PhocusError::InvalidLadder { level, .. }) =
            ActionLadder::parse("0.85:0.35,broken")
        else {
            panic!("malformed second entry must fail");
        };
        assert_eq!(level, 1);
    }

    #[test]
    fn expansion_shape() {
        let u = universe();
        let (x, map) = expand_with_variants(&u, &ActionLadder::standard());
        assert_eq!(x.num_photos(), 120 * 3);
        assert_eq!(map.parent.len(), 360);
        assert!(map.is_original(0));
        assert!(!map.is_original(120));
        // Variant costs are fractions of the parent's.
        let p = map.parent[121] as usize;
        assert!(x.costs[121] < u.costs[p]);
        // Variants join their parent's subsets.
        assert!(x.subsets[0].members.len() > u.subsets[0].members.len());
    }

    #[test]
    fn delete_only_expansion_is_the_identity() {
        let u = universe();
        let (x, map) = expand_with_variants(&u, &ActionLadder::delete_only());
        assert_eq!(x.name, u.name, "no +compress suffix on the identity path");
        assert_eq!(x.names, u.names);
        assert_eq!(x.costs, u.costs);
        assert_eq!(x.subsets.len(), u.subsets.len());
        assert_eq!(map.parent.len(), u.num_photos());
        assert!((0..u.num_photos()).all(|i| map.is_original(i)));
    }

    #[test]
    fn required_photos_are_not_expanded() {
        let mut u = universe();
        u.required = vec![0, 1];
        let (x, map) = expand_with_variants(&u, &ActionLadder::standard());
        for (i, &p) in map.parent.iter().enumerate() {
            if !map.is_original(i) {
                assert!(p != 0 && p != 1, "required photo {p} got a variant");
            }
        }
        assert_eq!(x.required, vec![0, 1]);
    }

    #[test]
    fn compression_never_hurts_and_usually_helps_tight_budgets() {
        let u = universe();
        let budget = u.total_cost() / 12; // tight: compression should shine
        let cfg = RepresentationConfig::default();
        let remove_only = solve_multi_action(&u, budget, &ActionLadder::delete_only(), &cfg)
            .unwrap()
            .score;
        let ma = solve_multi_action(&u, budget, &ActionLadder::standard(), &cfg).unwrap();
        assert!(
            ma.score >= remove_only - 1e-9,
            "compression made things worse: {} < {remove_only}",
            ma.score
        );
        assert!(ma.kept_compressed > 0, "ladder never used at a tight budget");
        assert!(
            ma.score > 1.02 * remove_only,
            "expected a visible gain: {} vs {remove_only}",
            ma.score
        );
        // Pinned ε-free numbers (both sides on the original photos'
        // demand): the old comparison read the expanded instance's exact
        // score — renditions' ε-demand included — so the headline was
        // slightly inflated and, worse, not on the same objective as the
        // remove-only side. These are the corrected values.
        let close = |x: f64, pin: f64| (x - pin).abs() <= 1e-6 * pin;
        assert!(
            close(remove_only, 149.72709166561123),
            "remove-only drifted: {remove_only}"
        );
        assert!(
            close(ma.score, 185.30881724362274),
            "multi-action drifted: {}",
            ma.score
        );
        assert_eq!((ma.kept_original, ma.kept_compressed), (2, 63));
    }

    #[test]
    fn epsilon_free_score_matches_exact_score_on_unexpanded_instances() {
        let u = universe();
        let budget = u.total_cost() / 10;
        let inst = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        let out = par_algo::main_algorithm(&inst);
        let map = VariantMap::identity(inst.num_photos());
        let eps_free = epsilon_free_score(&inst, &map, &out.best.selected);
        let exact = par_core::exact_score(&inst, &out.best.selected);
        assert!(
            (eps_free - exact).abs() <= 1e-9 * exact.max(1.0),
            "{eps_free} vs {exact}"
        );
    }

    #[test]
    fn epsilon_free_score_discounts_rendition_demand() {
        // A selected variant's own ε-demand contributes to the expanded
        // instance's exact_score but not to the ε-free objective: scoring
        // the set of *all* variants (no originals) must differ between the
        // two exactly by the ε terms, i.e. the ε-free score only counts
        // their quality-scaled coverage of the originals.
        let u = universe();
        let ladder = ActionLadder::standard();
        let (x, map) = expand_with_variants(&u, &ladder);
        let inst = represent_with_variants(
            &x,
            &map,
            &ladder,
            x.total_cost(),
            &RepresentationConfig::default(),
        )
        .unwrap();
        let variants: Vec<PhotoId> = (0..inst.num_photos() as u32)
            .map(PhotoId)
            .filter(|p| !map.is_original(p.index()))
            .collect();
        let eps_free = epsilon_free_score(&inst, &map, &variants);
        let inflated = par_core::exact_score(&inst, &variants);
        assert!(eps_free > 0.0, "variants do cover the originals");
        assert!(
            eps_free < inflated,
            "ε-demand must inflate exact_score: {eps_free} vs {inflated}"
        );
        // The best rendition's quality bounds per-query coverage, so the
        // ε-free score of variants-only can never reach the top quality
        // (sims are stored as f32, so the bound quantizes with them).
        let total_weight: f64 = inst.subsets().iter().map(|q| q.weight).sum();
        assert!(eps_free <= (0.85f32 as f64) * total_weight + 1e-6);
    }

    #[test]
    fn prune_breaks_equal_quality_ties_by_lowest_index() {
        // A ladder with duplicate quality rungs: both renditions of one
        // parent tie on quality, and the old `quality >= best` filter kept
        // both. The fix keeps exactly one — the lowest-index twin.
        let dup = ActionLadder::new(vec![
            CompressionLevel {
                size_fraction: 0.30,
                quality: 0.70,
            },
            CompressionLevel {
                size_fraction: 0.25,
                quality: 0.70,
            },
        ])
        .unwrap();
        let u = universe();
        let (x, map) = expand_with_variants(&u, &dup);
        // Both same-quality renditions of photo 0, selected together. The
        // budget covers exactly the twins, so the refill pass cannot afford
        // the full-quality original — the prune's own tie-break decides.
        let twins: Vec<u32> = (0..x.num_photos() as u32)
            .filter(|&p| map.parent[p as usize] == 0 && !map.is_original(p as usize))
            .collect();
        assert_eq!(twins.len(), 2);
        let budget: u64 = twins.iter().map(|&p| x.costs[p as usize]).sum();
        let inst =
            represent_with_variants(&x, &map, &dup, budget, &RepresentationConfig::default())
                .unwrap();
        let twins: Vec<PhotoId> = twins.into_iter().map(PhotoId).collect();
        let repaired = prune_and_refill(&inst, &map, &dup, &twins);
        let kept_of_parent0: Vec<PhotoId> = repaired
            .iter()
            .copied()
            .filter(|p| map.parent[p.index()] == 0)
            .collect();
        assert_eq!(
            kept_of_parent0.len(),
            1,
            "equal-quality twins must collapse to one: {kept_of_parent0:?}"
        );
        assert_eq!(
            kept_of_parent0[0],
            *twins.iter().min().unwrap(),
            "ties break to the lowest index"
        );
    }

    #[test]
    fn greedy_does_not_keep_variants_alongside_originals() {
        // After the original is selected, any variant's coverage is fully
        // dominated (quality·SIM ≤ SIM), so original+variant pairs must not
        // occur. Two *compressed* renditions of one photo can legitimately
        // co-exist as an upgrade path (the thumbnail selected early, a
        // better rendition later) — a modeling artifact of PAR's lack of an
        // exclusivity constraint, documented in EXPERIMENTS.md.
        let u = universe();
        let budget = u.total_cost() / 12;
        let ladder = ActionLadder::standard();
        let (x, map) = expand_with_variants(&u, &ladder);
        let inst = represent_with_variants(
            &x,
            &map,
            &ladder,
            budget,
            &RepresentationConfig::default(),
        )
        .unwrap();
        let out = par_algo::main_algorithm(&inst);
        let repaired = prune_and_refill(&inst, &map, &ladder, &out.best.selected);
        // The repair pass never lowers the true objective (beyond the
        // pruned renditions' own ε-demand).
        let before = par_core::exact_score(&inst, &out.best.selected);
        let after = par_core::exact_score(&inst, &repaired);
        assert!(
            after >= before - 1e-3,
            "repair lost quality: {after} < {before}"
        );
        let mut kept_original = std::collections::HashSet::new();
        let mut kept_variant_parents = Vec::new();
        for &p in &repaired {
            if map.is_original(p.index()) {
                kept_original.insert(map.parent[p.index()]);
            } else {
                kept_variant_parents.push(map.parent[p.index()]);
            }
        }
        let redundant = kept_variant_parents
            .iter()
            .filter(|p| kept_original.contains(p))
            .count();
        assert_eq!(
            redundant, 0,
            "{redundant} variants kept alongside their full-quality original"
        );
        // The repaired selection keeps at most one action per photo.
        let mut seen = std::collections::HashSet::new();
        for &p in &repaired {
            assert!(
                seen.insert(map.parent[p.index()]),
                "two actions retained for parent {}",
                map.parent[p.index()]
            );
        }
    }

    #[test]
    fn variant_gain_is_dominated_after_original() {
        let u = universe();
        let ladder = ActionLadder::standard();
        let (x, map) = expand_with_variants(&u, &ladder);
        let inst = represent_with_variants(
            &x,
            &map,
            &ladder,
            x.total_cost(),
            &RepresentationConfig::default(),
        )
        .unwrap();
        let mut ev = Evaluator::new(&inst);
        // Pick a parent with variants: photo 0 (not required).
        let parent = par_core::PhotoId(0);
        let variant = par_core::PhotoId(
            map.parent
                .iter()
                .enumerate()
                .position(|(i, &p)| p == 0 && !map.is_original(i))
                .unwrap() as u32,
        );
        let gain_variant_alone = ev.gain(variant);
        ev.add(parent);
        let gain_variant_after = ev.gain(variant);
        assert!(gain_variant_after <= gain_variant_alone + 1e-9);
        // After the original, the variant only covers *itself* (its own
        // membership entries), which carry its scaled relevance.
        assert!(gain_variant_after < 0.5 * gain_variant_alone + 1e-9);
    }

    #[test]
    fn expanded_solutions_remain_feasible() {
        let u = universe();
        let budget = u.total_cost() / 10;
        let ladder = ActionLadder::standard();
        let (x, map) = expand_with_variants(&u, &ladder);
        let inst = represent_with_variants(
            &x,
            &map,
            &ladder,
            budget,
            &RepresentationConfig::default(),
        )
        .unwrap();
        let out = par_algo::main_algorithm(&inst);
        let sol = Solution::new(&inst, out.best.selected).unwrap();
        assert!(sol.cost() <= budget);
    }

    #[test]
    fn delete_only_solve_reproduces_remove_only_exactly() {
        let u = universe();
        let budget = u.total_cost() / 8;
        let cfg = RepresentationConfig::default();
        let base = represent(&u, budget, &cfg).unwrap();
        let remove_only = par_algo::main_algorithm_sharded(&base);
        let ma = solve_multi_action(&u, budget, &ActionLadder::delete_only(), &cfg).unwrap();
        assert_eq!(ma.selected, remove_only.best.selected);
        assert_eq!(ma.score.to_bits(), remove_only.best.score.to_bits());
        assert_eq!(ma.kept_original, remove_only.best.selected.len());
        assert_eq!(ma.kept_compressed, 0);
    }

    #[test]
    fn frontier_multi_action_dominates_delete_only() {
        let u = universe();
        let total = u.total_cost();
        let budgets: Vec<u64> = [24u64, 12, 8, 4, 2]
            .iter()
            .map(|d| total / d)
            .collect();
        let frontier = multi_action_frontier(
            &u,
            &budgets,
            &ActionLadder::standard(),
            &RepresentationConfig::default(),
        )
        .unwrap();
        assert_eq!(frontier.len(), budgets.len());
        // Each row is a greedy answer, not an optimum, and the two sides run
        // on different ground sets, so dominance holds up to a slack rather
        // than pointwise exactly.
        for p in &frontier {
            assert!(
                p.multi_action >= 0.97 * p.delete_only,
                "multi-action fell below delete-only at {}: {} vs {}",
                p.budget,
                p.multi_action,
                p.delete_only
            );
        }
        // At the tightest budgets (the first points — the frontier follows
        // the input budget order) the ladder visibly wins.
        assert!(
            frontier[0].multi_action > frontier[0].delete_only
                || frontier[1].multi_action > frontier[1].delete_only,
            "no visible frontier gap at tight budgets: {frontier:?}"
        );
        // Degenerate ladder: the two curves coincide.
        let flat = multi_action_frontier(
            &u,
            &budgets,
            &ActionLadder::delete_only(),
            &RepresentationConfig::default(),
        )
        .unwrap();
        for p in &flat {
            assert_eq!(p.delete_only.to_bits(), p.multi_action.to_bits());
        }
    }

    #[test]
    fn frontier_rows_are_the_solves_at_their_budgets() {
        let mut u = universe();
        u.required = vec![0, 1, 2];
        let floor: u64 = u.required.iter().map(|&r| u.costs[r as usize]).sum();
        let total = u.total_cost();
        let cfg = RepresentationConfig::default();
        let ladder = ActionLadder::standard();
        // Unsorted on purpose; the first budget is below C(S₀) and is clamped
        // up to it.
        let budgets = [floor - 1, total / 12, total / 5, total / 8];
        let frontier = multi_action_frontier(&u, &budgets, &ladder, &cfg).unwrap();
        assert_eq!(frontier.len(), budgets.len());
        for (point, &b) in frontier.iter().zip(&budgets) {
            let budget = b.max(floor);
            assert_eq!(point.budget, budget);
            let remove = solve_multi_action(&u, budget, &ActionLadder::delete_only(), &cfg).unwrap();
            let ma = solve_multi_action(&u, budget, &ladder, &cfg).unwrap();
            assert_eq!(
                point.delete_only.to_bits(),
                remove.score.to_bits(),
                "delete-only row at {budget}: {} vs {}",
                point.delete_only,
                remove.score
            );
            assert_eq!(
                point.multi_action.to_bits(),
                ma.score.to_bits(),
                "multi-action row at {budget}: {} vs {}",
                point.multi_action,
                ma.score
            );
        }
        assert_eq!(frontier[0].budget, floor);
    }
}
