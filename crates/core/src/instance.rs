//! The validated PAR [`Instance`] and its [`InstanceBuilder`].
//!
//! An instance is the paper's tuple `⟨P, S₀, Q, C, W, R, SIM, B⟩` in
//! materialized form. Construction goes through [`InstanceBuilder`], which
//! normalizes relevance scores, validates every invariant of Section 3.1, and
//! materializes per-subset similarity stores from a
//! [`SimilarityProvider`] (or accepts pre-built
//! [`ContextSim`] stores, e.g. from an LSH pipeline).
//!
//! The heavyweight parts of an instance (photos, subsets, similarities, the
//! membership reverse-index) live behind an [`Arc`], so deriving variants —
//! a different budget for a sweep, a τ-sparsified similarity, a unit-similarity
//! view for the Greedy-NR baseline — is cheap.

use crate::sim::{ContextSim, DenseSim};
use crate::{ModelError, Photo, PhotoId, Result, SimilarityProvider, Subset, SubsetId};
use std::sync::Arc;

/// One entry of the photo → subset reverse index: photo appears in `subset`
/// at local member index `local`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Membership {
    /// The subset containing the photo.
    pub subset: SubsetId,
    /// The photo's local index within that subset's member list.
    pub local: u32,
}

/// Immutable core of an instance, shared between budget/similarity variants.
#[derive(Debug)]
struct Core {
    photos: Vec<Photo>,
    required: Vec<bool>,
    required_ids: Vec<PhotoId>,
    required_cost: u64,
    subsets: Vec<Subset>,
    /// CSR reverse index: photo `p`'s memberships are
    /// `membership_data[membership_offsets[p] .. membership_offsets[p + 1]]`.
    /// Flat storage keeps the per-epoch instance rebuild of
    /// [`crate::delta`] to two allocations and the hot coverage loops of
    /// [`crate::objective`] on one contiguous buffer.
    membership_offsets: Vec<u32>,
    membership_data: Vec<Membership>,
    total_cost: u64,
}

/// A validated PAR problem instance.
///
/// Cheap to clone: similarity stores and the core share `Arc`s. Use
/// [`Instance::with_budget`] for budget sweeps and [`Instance::sparsify`] /
/// [`Instance::with_sims`] to derive similarity variants over the same data.
#[derive(Debug, Clone)]
pub struct Instance {
    core: Arc<Core>,
    /// One store per subset; each store is individually `Arc`ed so component
    /// sub-views (see [`crate::components`]) can share unsplit stores with
    /// their parent instance.
    sims: Arc<Vec<Arc<ContextSim>>>,
    budget: u64,
}

impl Instance {
    /// Number of photos `n = |P|`.
    #[inline]
    pub fn num_photos(&self) -> usize {
        self.core.photos.len()
    }

    /// Number of pre-defined subsets `|Q|`.
    #[inline]
    pub fn num_subsets(&self) -> usize {
        self.core.subsets.len()
    }

    /// All photos, indexed by [`PhotoId`].
    #[inline]
    pub fn photos(&self) -> &[Photo] {
        &self.core.photos
    }

    /// The photo with the given id.
    #[inline]
    pub fn photo(&self, id: PhotoId) -> &Photo {
        &self.core.photos[id.index()]
    }

    /// Storage cost `C(p)` in bytes.
    #[inline]
    pub fn cost(&self, id: PhotoId) -> u64 {
        self.core.photos[id.index()].cost
    }

    /// All pre-defined subsets, indexed by [`SubsetId`].
    #[inline]
    pub fn subsets(&self) -> &[Subset] {
        &self.core.subsets
    }

    /// The subset with the given id.
    #[inline]
    pub fn subset(&self, id: SubsetId) -> &Subset {
        &self.core.subsets[id.index()]
    }

    /// The similarity store for the given subset (context).
    #[inline]
    pub fn sim(&self, id: SubsetId) -> &ContextSim {
        &self.sims[id.index()]
    }

    /// All similarity stores, parallel to [`Instance::subsets`]. Each store
    /// sits behind its own `Arc` so derived sub-views can share it.
    #[inline]
    pub fn sims(&self) -> &[Arc<ContextSim>] {
        &self.sims
    }

    /// The shared handle to a subset's similarity store (for building
    /// sub-views that alias the parent's store).
    #[inline]
    pub(crate) fn sim_arc(&self, id: SubsetId) -> &Arc<ContextSim> {
        &self.sims[id.index()]
    }

    /// The storage budget `B` in bytes.
    #[inline]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Whether policy requires `p` to be retained (`p ∈ S₀`).
    #[inline]
    pub fn is_required(&self, p: PhotoId) -> bool {
        self.core.required[p.index()]
    }

    /// The policy-retained photos `S₀`.
    #[inline]
    pub fn required(&self) -> &[PhotoId] {
        &self.core.required_ids
    }

    /// Total cost of `S₀` in bytes.
    #[inline]
    pub fn required_cost(&self) -> u64 {
        self.core.required_cost
    }

    /// Total cost `C(P)` of the full archive in bytes.
    #[inline]
    pub fn total_cost(&self) -> u64 {
        self.core.total_cost
    }

    /// Every (subset, local index) membership of photo `p`.
    #[inline]
    pub fn memberships(&self, p: PhotoId) -> &[Membership] {
        let lo = self.core.membership_offsets[p.index()] as usize;
        let hi = self.core.membership_offsets[p.index() + 1] as usize;
        &self.core.membership_data[lo..hi]
    }

    /// The maximum attainable objective value `Σ_q W(q)`, achieved by
    /// retaining all photos (each subset then scores exactly 1).
    pub fn max_score(&self) -> f64 {
        self.core.subsets.iter().map(|q| q.weight).sum()
    }

    /// Derives an instance with a different budget, sharing all data.
    pub fn with_budget(&self, budget: u64) -> Result<Self> {
        if self.core.required_cost > budget {
            return Err(ModelError::RequiredSetOverBudget {
                required_cost: self.core.required_cost,
                budget,
            });
        }
        Ok(Instance {
            core: Arc::clone(&self.core),
            sims: Arc::clone(&self.sims),
            budget,
        })
    }

    /// Derives an instance with replaced similarity stores (e.g. the
    /// non-contextual stores of the Greedy-NCS baseline). Stores must be
    /// parallel to the subsets and sized to match each member list.
    pub fn with_sims(&self, sims: Vec<ContextSim>) -> Self {
        assert_eq!(sims.len(), self.core.subsets.len());
        for (q, s) in self.core.subsets.iter().zip(&sims) {
            assert_eq!(q.members.len(), s.len(), "similarity store size mismatch");
        }
        Instance {
            core: Arc::clone(&self.core),
            sims: Arc::new(sims.into_iter().map(Arc::new).collect()),
            budget: self.budget,
        }
    }

    /// Derives the τ-sparsified instance of Section 4.3: all similarities
    /// below `tau` are rounded down to 0.
    pub fn sparsify(&self, tau: f64) -> Self {
        self.map_sims(|s| s.sparsify(tau))
    }

    /// Derives the τ-coverage view of Theorem 4.8's certificate: every
    /// similarity `≥ tau` becomes 1 and every other one 0. `G(S)` on the
    /// view is the right-node weight `S` covers in the τ-sparsified GFL
    /// graph, so Algorithm 1 on the view is a Budgeted-Max-Coverage greedy
    /// that starts from `S₀`.
    pub fn coverage_view(&self, tau: f64) -> Self {
        self.map_sims(|s| s.coverage(tau))
    }

    /// Derives the unit-similarity view used by the Greedy-NR baseline:
    /// `SIM(q, p, p') = 1` for all co-members, turning the objective into
    /// weighted subset coverage.
    pub fn with_unit_sims(&self) -> Self {
        self.map_sims(|s| ContextSim::Unit(s.len()))
    }

    /// The instance with every similarity store replaced by `f` of itself,
    /// sharing the core and budget.
    fn map_sims(&self, f: impl Fn(&ContextSim) -> ContextSim) -> Self {
        Instance {
            core: Arc::clone(&self.core),
            sims: Arc::new(self.sims.iter().map(|s| Arc::new(f(s))).collect()),
            budget: self.budget,
        }
    }

    /// Total number of stored nonzero similarity pairs across all contexts —
    /// the size measure that τ-sparsification reduces.
    pub fn stored_pairs(&self) -> usize {
        self.sims.iter().map(|s| s.nonzero_pairs()).sum()
    }

    /// Assembles an instance from already-validated parts, building the
    /// membership reverse-index and cost totals but performing **no**
    /// validation and **no** relevance normalization.
    ///
    /// This is the shared tail of the builder (whose `validate` has already
    /// normalized) and the entry point for [`crate::components`] sub-views,
    /// which must copy parent relevance bit-exactly — re-normalizing a
    /// query fragment would change `W·R` products and break the sharded
    /// solver's bit-identity with the global one.
    pub(crate) fn assemble(
        photos: Vec<Photo>,
        required: Vec<PhotoId>,
        subsets: Vec<Subset>,
        budget: u64,
        sims: Vec<Arc<ContextSim>>,
    ) -> Instance {
        let n = photos.len();
        // Two-pass CSR build: count per-photo degrees, prefix-sum into
        // offsets, then scatter (restoring offsets afterwards). Subset order
        // within a photo's slice matches the old per-photo push order
        // because subsets are visited ascending both times.
        let mut membership_offsets = vec![0u32; n + 1];
        for q in &subsets {
            for &m in &q.members {
                membership_offsets[m.index() + 1] += 1;
            }
        }
        for i in 0..n {
            membership_offsets[i + 1] += membership_offsets[i];
        }
        let total_members = membership_offsets[n] as usize;
        let mut membership_data = vec![
            Membership {
                subset: SubsetId(0),
                local: 0,
            };
            total_members
        ];
        let mut cursor = membership_offsets.clone();
        for q in &subsets {
            for (local, &m) in q.members.iter().enumerate() {
                let slot = cursor[m.index()] as usize;
                cursor[m.index()] += 1;
                membership_data[slot] = Membership {
                    subset: q.id,
                    local: local as u32,
                };
            }
        }
        let mut required_flags = vec![false; n];
        for &r in &required {
            required_flags[r.index()] = true;
        }
        let required_cost = required.iter().map(|&r| photos[r.index()].cost).sum();
        let total_cost = photos.iter().map(|p| p.cost).sum();
        Instance {
            core: Arc::new(Core {
                photos,
                required: required_flags,
                required_ids: required,
                required_cost,
                subsets,
                membership_offsets,
                membership_data,
                total_cost,
            }),
            sims: Arc::new(sims),
            budget,
        }
    }

    /// The membership reverse-index CSR arenas `(offsets, data)`, exposed to
    /// the `phocus-pack` writer ([`crate::pack`]) for verbatim section dumps.
    pub(crate) fn membership_csr(&self) -> (&[u32], &[Membership]) {
        (&self.core.membership_offsets, &self.core.membership_data)
    }

    /// Reassembles an instance from arenas bulk-read out of a `phocus-pack`
    /// file ([`crate::pack`]): unlike [`assemble`](Self::assemble), the
    /// membership reverse-index and cost totals arrive prebuilt and are
    /// installed verbatim — **no derivation, sorting, or validation** runs
    /// here beyond the O(|S₀|) required-flag scatter. The pack reader has
    /// already length- and range-checked every array against the section
    /// table.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_packed_parts(
        photos: Vec<Photo>,
        required_ids: Vec<PhotoId>,
        required_cost: u64,
        subsets: Vec<Subset>,
        membership_offsets: Vec<u32>,
        membership_data: Vec<Membership>,
        total_cost: u64,
        budget: u64,
        sims: Vec<Arc<ContextSim>>,
    ) -> Instance {
        let mut required_flags = vec![false; photos.len()];
        for &r in &required_ids {
            required_flags[r.index()] = true;
        }
        Instance {
            core: Arc::new(Core {
                photos,
                required: required_flags,
                required_ids,
                required_cost,
                subsets,
                membership_offsets,
                membership_data,
                total_cost,
            }),
            sims: Arc::new(sims),
            budget,
        }
    }
}

/// Photos, required ids, normalized subsets and budget, post-validation.
type ValidatedParts = (Vec<Photo>, Vec<PhotoId>, Vec<Subset>, u64);

/// Builder for [`Instance`], performing validation and relevance
/// normalization.
#[derive(Debug, Default)]
pub struct InstanceBuilder {
    photos: Vec<Photo>,
    required: Vec<PhotoId>,
    subsets: Vec<Subset>,
    budget: u64,
}

impl InstanceBuilder {
    /// Creates a builder with the given storage budget `B` (bytes).
    pub fn new(budget: u64) -> Self {
        InstanceBuilder {
            budget,
            ..Default::default()
        }
    }

    /// Adds a photo with the given human-readable name and byte cost,
    /// returning its id.
    pub fn add_photo(&mut self, name: impl Into<Arc<str>>, cost: u64) -> PhotoId {
        // phocus-lint: allow(cast-bounds) — builder append; pack/build validate n ≤ u32::MAX
        let id = PhotoId(self.photos.len() as u32);
        self.photos.push(Photo::new(id, name, cost));
        id
    }

    /// Marks a photo as policy-retained (`p ∈ S₀`).
    pub fn require(&mut self, p: PhotoId) -> &mut Self {
        self.required.push(p);
        self
    }

    /// Adds a pre-defined subset with raw (unnormalized) relevance scores.
    ///
    /// Relevance scores are normalized to sum to 1 at [`build`] time; they
    /// must be strictly positive and finite. Passing an empty `relevance`
    /// vector assigns uniform relevance to all members.
    ///
    /// [`build`]: InstanceBuilder::build_with_provider
    pub fn add_subset(
        &mut self,
        label: impl Into<Arc<str>>,
        weight: f64,
        members: Vec<PhotoId>,
        relevance: Vec<f64>,
    ) -> SubsetId {
        // phocus-lint: allow(cast-bounds) — builder append; pack/build validate m ≤ u32::MAX
        let id = SubsetId(self.subsets.len() as u32);
        let relevance = if relevance.is_empty() {
            vec![1.0; members.len()]
        } else {
            relevance
        };
        self.subsets.push(Subset {
            id,
            label: label.into(),
            weight,
            members,
            relevance: relevance.into(),
        });
        id
    }

    /// Current number of photos added.
    pub fn num_photos(&self) -> usize {
        self.photos.len()
    }

    /// Replaces the storage budget declared at construction.
    pub fn set_budget(&mut self, budget: u64) -> &mut Self {
        self.budget = budget;
        self
    }

    /// Validates the declared model and normalizes relevance scores,
    /// returning the parts needed to finish construction.
    fn validate(mut self) -> Result<ValidatedParts> {
        if self.photos.is_empty() {
            return Err(ModelError::NoPhotos);
        }
        let n = self.photos.len();
        // Total archive cost must fit u64. Every later accumulation — the
        // required-set cost, a solution's C(S), the evaluator's running
        // cost — is a sub-sum over distinct photos, so this single check
        // makes all of them overflow-free.
        let mut total: u64 = 0;
        for p in &self.photos {
            if p.cost == 0 {
                return Err(ModelError::ZeroCostPhoto(p.id));
            }
            total = total
                .checked_add(p.cost)
                .ok_or(ModelError::CostOverflow)?;
        }
        self.required.sort_unstable();
        self.required.dedup();
        for &r in &self.required {
            if r.index() >= n {
                return Err(ModelError::UnknownPhoto(r));
            }
        }
        let required_cost: u64 = self
            .required
            .iter()
            .map(|&r| self.photos[r.index()].cost)
            .sum();
        if required_cost > self.budget {
            return Err(ModelError::RequiredSetOverBudget {
                required_cost,
                budget: self.budget,
            });
        }
        for q in &mut self.subsets {
            if q.members.is_empty() {
                return Err(ModelError::EmptySubset(q.id));
            }
            if q.members.len() != q.relevance.len() {
                return Err(ModelError::RelevanceLengthMismatch {
                    subset: q.id,
                    members: q.members.len(),
                    relevances: q.relevance.len(),
                });
            }
            if !q.weight.is_finite() || q.weight <= 0.0 {
                return Err(ModelError::InvalidWeight {
                    subset: q.id,
                    value: q.weight,
                });
            }
            let mut seen = vec![false; n];
            for &m in &q.members {
                if m.index() >= n {
                    return Err(ModelError::UnknownPhoto(m));
                }
                if seen[m.index()] {
                    return Err(ModelError::DuplicateMember {
                        subset: q.id,
                        photo: m,
                    });
                }
                seen[m.index()] = true;
            }
            let mut sum = 0.0;
            for &r in q.relevance.iter() {
                if !r.is_finite() || r <= 0.0 {
                    return Err(ModelError::InvalidRelevance {
                        subset: q.id,
                        value: r,
                    });
                }
                sum += r;
            }
            // Normalize so Σ_{p∈q} R(q,p) = 1 (Section 3.1).
            q.relevance = q.relevance.iter().map(|r| r / sum).collect();
        }
        Ok((self.photos, self.required, self.subsets, self.budget))
    }

    /// Finishes construction, materializing dense all-pairs similarity stores
    /// from `provider` (the PHOcus-NS representation). Costs `Σ_q |q|²`
    /// provider calls.
    pub fn build_with_provider<P: SimilarityProvider + ?Sized>(
        self,
        provider: &P,
    ) -> Result<Instance> {
        let (photos, required, subsets, budget) = self.validate()?;
        let mut sims = Vec::with_capacity(subsets.len());
        for q in &subsets {
            sims.push(Arc::new(ContextSim::Dense(DenseSim::from_provider(
                q, provider,
            )?)));
        }
        Ok(Instance::assemble(photos, required, subsets, budget, sims))
    }

    /// Finishes construction with pre-built similarity stores (e.g. sparse
    /// stores produced by an LSH pipeline). Stores must be parallel to the
    /// subsets, in declaration order, and sized to each member list.
    pub fn build_with_sims(self, sims: Vec<ContextSim>) -> Result<Instance> {
        let (photos, required, subsets, budget) = self.validate()?;
        assert_eq!(sims.len(), subsets.len(), "one store per subset required");
        for (q, s) in subsets.iter().zip(&sims) {
            assert_eq!(q.members.len(), s.len(), "similarity store size mismatch");
        }
        let sims = sims.into_iter().map(Arc::new).collect();
        Ok(Instance::assemble(photos, required, subsets, budget, sims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::UnitSimilarity;

    fn builder() -> InstanceBuilder {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 10);
        let p1 = b.add_photo("b", 20);
        let p2 = b.add_photo("c", 30);
        b.add_subset("s", 2.0, vec![p0, p1, p2], vec![1.0, 1.0, 2.0]);
        b
    }

    #[test]
    fn build_normalizes_relevance() {
        let inst = builder().build_with_provider(&UnitSimilarity).unwrap();
        let q = inst.subset(SubsetId(0));
        assert!((q.relevance[0] - 0.25).abs() < 1e-12);
        assert!((q.relevance[2] - 0.5).abs() < 1e-12);
        let sum: f64 = q.relevance.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memberships_reverse_index() {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 1);
        let p1 = b.add_photo("b", 1);
        b.add_subset("q0", 1.0, vec![p0, p1], vec![]);
        b.add_subset("q1", 1.0, vec![p1], vec![]);
        let inst = b.build_with_provider(&UnitSimilarity).unwrap();
        assert_eq!(inst.memberships(p0).len(), 1);
        assert_eq!(inst.memberships(p1).len(), 2);
        assert_eq!(inst.memberships(p1)[1].subset, SubsetId(1));
        assert_eq!(inst.memberships(p1)[1].local, 0);
    }

    #[test]
    fn rejects_duplicate_member() {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 1);
        b.add_subset("q", 1.0, vec![p0, p0], vec![]);
        assert!(matches!(
            b.build_with_provider(&UnitSimilarity),
            Err(ModelError::DuplicateMember { .. })
        ));
    }

    #[test]
    fn rejects_required_over_budget() {
        let mut b = InstanceBuilder::new(5);
        let p0 = b.add_photo("a", 10);
        b.require(p0);
        b.add_subset("q", 1.0, vec![p0], vec![]);
        assert!(matches!(
            b.build_with_provider(&UnitSimilarity),
            Err(ModelError::RequiredSetOverBudget { .. })
        ));
    }

    #[test]
    fn rejects_zero_cost_and_bad_weight() {
        let mut b = InstanceBuilder::new(5);
        let p0 = b.add_photo("a", 0);
        b.add_subset("q", 1.0, vec![p0], vec![]);
        assert!(matches!(
            b.build_with_provider(&UnitSimilarity),
            Err(ModelError::ZeroCostPhoto(_))
        ));

        let mut b = InstanceBuilder::new(5);
        let p0 = b.add_photo("a", 1);
        b.add_subset("q", -1.0, vec![p0], vec![]);
        assert!(matches!(
            b.build_with_provider(&UnitSimilarity),
            Err(ModelError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn with_budget_shares_core() {
        let inst = builder().build_with_provider(&UnitSimilarity).unwrap();
        let inst2 = inst.with_budget(50).unwrap();
        assert_eq!(inst2.budget(), 50);
        assert_eq!(inst2.num_photos(), inst.num_photos());
        assert!(inst.with_budget(0).is_err() || inst.required_cost() == 0);
    }

    #[test]
    fn unit_sim_view_and_max_score() {
        let inst = builder().build_with_provider(&UnitSimilarity).unwrap();
        assert_eq!(inst.max_score(), 2.0);
        let unit = inst.with_unit_sims();
        assert_eq!(unit.sim(SubsetId(0)).sim(0, 2), 1.0);
    }

    #[test]
    fn total_and_required_cost() {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 10);
        let p1 = b.add_photo("b", 20);
        b.require(p1);
        b.add_subset("q", 1.0, vec![p0, p1], vec![]);
        let inst = b.build_with_provider(&UnitSimilarity).unwrap();
        assert_eq!(inst.total_cost(), 30);
        assert_eq!(inst.required_cost(), 20);
        assert!(inst.is_required(p1));
        assert!(!inst.is_required(p0));
    }
}
