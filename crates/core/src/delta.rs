//! Epoch deltas: incremental mutation of a live PAR instance.
//!
//! Production archives churn continuously — photos arrive and are purged,
//! query workloads drift, retention policy and budgets change — while the
//! instance between two consecutive solves is mostly unchanged. An
//! [`EpochDelta`] captures one epoch's worth of changes against a live
//! [`Instance`] and [`EpochDelta::apply`] produces:
//!
//! * the **post-delta instance**, rebuilt with order-preserving photo and
//!   subset id compaction (removed entries drop out, survivors keep their
//!   relative order, additions append) — so every cached quantity that
//!   depends only on iteration *order* (membership walks, CSR row order,
//!   smaller-id tie-breaks) stays bit-valid;
//! * the **post-delta shard labeling**, maintained incrementally: only the
//!   components actually touched by the delta are re-clustered, clean
//!   components carry their labels through, and the resulting
//!   [`ShardLabels`] is *identical* — same partition, same shard numbers —
//!   to a from-scratch [`shard_labels`] of the post-delta instance;
//! * **dirty marks** at photo and shard granularity, which the incremental
//!   solver in `par-algo` uses to decide which per-shard CELF stream
//!   transcripts can be replayed and which must be re-run.
//!
//! # Dirty-marking rules
//!
//! A photo's *component* is its shard, except that members of the merged
//! singleton pool are treated as one-photo components of their own (the pool
//! is an artifact of shard numbering, not of the interaction graph). The
//! delta dirties:
//!
//! * the component of every **removed** photo (its edges vanish, so the
//!   survivors may split);
//! * the components of every **retired** query's members (ditto);
//! * the components of every *existing* member of an **added** query (new
//!   edges may merge them) and every **added** photo;
//! * the component of every photo whose **required** flag flips (the shard's
//!   `S₀` replay state changes);
//! * nothing for a pure **budget** change — budget feasibility is verified
//!   per transcript event at replay time, not cached.
//!
//! No post-delta interaction edge ever connects a clean photo to a dirty
//! one: pre-existing edges lie inside a single old component (marked as a
//! unit) and new edges dirty both endpoints' components. Clean components
//! therefore survive verbatim and the incremental re-labeling only has to
//! run union-find over the dirty photos.
//!
//! Relevance vectors are **never re-normalized** when members are removed:
//! the surviving entries keep their exact bits (mirroring how
//! [`crate::components`] splits queries into fragments), so clean photos'
//! `W·R` products — and hence their cached marginal-gain bits — are
//! preserved. Added queries are normalized exactly like
//! [`crate::InstanceBuilder`] does.

use crate::components::{shard_labels, Dsu, ShardLabels};
use crate::instance::Instance;
use crate::sim::{ContextSim, DenseSim, SparseSim};
use crate::{ModelError, Photo, PhotoId, Result, Subset, SubsetId};
use std::sync::Arc;

/// A photo arriving in an epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct PhotoAdd {
    /// Human-readable label (file name, product title, …).
    pub name: String,
    /// Storage cost in bytes; must be strictly positive.
    pub cost: u64,
    /// Whether policy requires the photo to be retained on arrival.
    pub required: bool,
}

/// A member reference inside an added query: either a photo that already
/// exists (by its **pre-delta** id) or one added by the same delta (by its
/// index into [`EpochDelta::add_photos`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberRef {
    /// An existing photo, identified by its pre-delta [`PhotoId`].
    Existing(PhotoId),
    /// The `k`-th photo of this delta's [`EpochDelta::add_photos`] list.
    New(usize),
}

/// A query arriving in an epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAdd {
    /// Human-readable label.
    pub label: String,
    /// Importance weight `W(q)`; must be positive and finite.
    pub weight: f64,
    /// Member photos (pre-delta ids or same-delta additions).
    pub members: Vec<MemberRef>,
    /// Raw relevance scores, normalized to sum to 1 at apply time (exactly
    /// like the builder). Empty means uniform relevance.
    pub relevance: Vec<f64>,
    /// Sparse similarity pairs `(i, j, sim)` over *local member positions*
    /// of this query. Out-of-range indices and similarities outside `[0, 1]`
    /// are rejected.
    pub pairs: Vec<(u32, u32, f64)>,
}

/// One epoch's worth of changes to a live instance. All [`PhotoId`] /
/// [`SubsetId`] references are **pre-delta** ids.
///
/// Application order: photo removals (which drop the photo from every query
/// and imply un-requiring it; queries emptied this way auto-retire), query
/// retirements, photo additions, query additions, required-set changes
/// (`unrequire` before `require`), then the budget change.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochDelta {
    /// Photos to purge from the archive.
    pub remove_photos: Vec<PhotoId>,
    /// Queries to retire.
    pub retire_queries: Vec<SubsetId>,
    /// Photos arriving this epoch.
    pub add_photos: Vec<PhotoAdd>,
    /// Queries arriving this epoch.
    pub add_queries: Vec<QueryAdd>,
    /// Photos gaining the policy-retained flag.
    pub require: Vec<PhotoId>,
    /// Photos losing the policy-retained flag.
    pub unrequire: Vec<PhotoId>,
    /// New storage budget, if it changes this epoch.
    pub set_budget: Option<u64>,
}

impl EpochDelta {
    /// Whether the delta changes nothing at all.
    pub fn is_empty(&self) -> bool {
        self.remove_photos.is_empty()
            && self.retire_queries.is_empty()
            && self.add_photos.is_empty()
            && self.add_queries.is_empty()
            && self.require.is_empty()
            && self.unrequire.is_empty()
            && self.set_budget.is_none()
    }

    /// Applies the delta to `inst` (whose current labeling is `labels`),
    /// producing the post-delta instance, the incrementally maintained
    /// labeling, and the dirty marks. See the [module docs](self) for the
    /// exact semantics and invariants.
    pub fn apply(&self, inst: &Instance, labels: &ShardLabels) -> Result<AppliedDelta> {
        debug_assert_eq!(
            labels,
            &shard_labels(inst),
            "stale ShardLabels passed to EpochDelta::apply"
        );
        let n = inst.num_photos();
        let nq = inst.num_subsets();

        // ---- reference validation over the pre-delta instance ----
        let mut removed = vec![false; n];
        for &p in &self.remove_photos {
            if p.index() >= n {
                return Err(ModelError::UnknownPhoto(p));
            }
            removed[p.index()] = true;
        }
        let mut retired = vec![false; nq];
        for &q in &self.retire_queries {
            if q.index() >= nq {
                return Err(ModelError::UnknownSubset(q));
            }
            retired[q.index()] = true;
        }
        for &p in self.require.iter().chain(&self.unrequire) {
            if p.index() >= n || removed[p.index()] {
                return Err(ModelError::UnknownPhoto(p));
            }
        }

        // ---- order-preserving photo compaction ----
        let mut remap: Vec<Option<PhotoId>> = vec![None; n];
        let mut next = 0u32;
        for (p, slot) in remap.iter_mut().enumerate() {
            if !removed[p] {
                *slot = Some(PhotoId(next));
                next += 1;
            }
        }
        let first_new = next;
        for (k, add) in self.add_photos.iter().enumerate() {
            if add.cost == 0 {
                return Err(ModelError::ZeroCostPhoto(PhotoId(first_new + k as u32)));
            }
        }

        // ---- photos and the new ⇄ old id maps ----
        let n_new = (first_new as usize) + self.add_photos.len();
        let mut photos: Vec<Photo> = Vec::with_capacity(n_new);
        let mut origin: Vec<Option<PhotoId>> = Vec::with_capacity(n_new);
        for (p, mapped) in remap.iter().enumerate() {
            if let Some(new_id) = *mapped {
                let old = inst.photo(PhotoId(p as u32));
                photos.push(Photo::new(new_id, old.name.clone(), old.cost));
                origin.push(Some(PhotoId(p as u32)));
            }
        }
        for (k, add) in self.add_photos.iter().enumerate() {
            photos.push(Photo::new(
                PhotoId(first_new + k as u32),
                add.name.clone(),
                add.cost,
            ));
            origin.push(None);
        }
        if photos.is_empty() {
            return Err(ModelError::NoPhotos);
        }
        let mut total: u64 = 0;
        for p in &photos {
            total = total.checked_add(p.cost).ok_or(ModelError::CostOverflow)?;
        }

        // ---- required set ----
        let mut required_flags = vec![false; n_new];
        for &r in inst.required() {
            if let Some(new_id) = remap[r.index()] {
                required_flags[new_id.index()] = true;
            }
        }
        for &p in &self.unrequire {
            if let Some(new_id) = remap[p.index()] {
                required_flags[new_id.index()] = false;
            }
        }
        for &p in &self.require {
            if let Some(new_id) = remap[p.index()] {
                required_flags[new_id.index()] = true;
            }
        }
        for (k, add) in self.add_photos.iter().enumerate() {
            if add.required {
                required_flags[(first_new as usize) + k] = true;
            }
        }
        let required_ids: Vec<PhotoId> = required_flags
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(p, _)| PhotoId(p as u32))
            .collect();
        let required_cost: u64 = required_ids.iter().map(|&r| photos[r.index()].cost).sum();
        let budget = self.set_budget.unwrap_or(inst.budget());
        if required_cost > budget {
            return Err(ModelError::RequiredSetOverBudget {
                required_cost,
                budget,
            });
        }

        // ---- surviving queries: compact members, keep relevance bits ----
        let mut subsets: Vec<Subset> = Vec::new();
        let mut sims: Vec<Arc<ContextSim>> = Vec::new();
        for q in inst.subsets() {
            if retired[q.id.index()] {
                continue;
            }
            let kept: Vec<u32> = q
                .members
                .iter()
                .enumerate()
                .filter(|(_, m)| remap[m.index()].is_some())
                .map(|(pos, _)| pos as u32)
                .collect();
            if kept.is_empty() {
                continue; // every member purged: the query auto-retires
            }
            // phocus-lint: allow(cast-bounds) — surviving queries ≤ old m, and SubsetId is u32
            let id = SubsetId(subsets.len() as u32);
            let map_member = |pos: u32| match remap[q.members[pos as usize].index()] {
                Some(new_id) => new_id,
                None => unreachable!("kept positions survive by construction"),
            };
            if kept.len() == q.members.len() {
                subsets.push(Subset {
                    id,
                    label: q.label.clone(),
                    weight: q.weight,
                    // phocus-lint: allow(cast-bounds) — kept ≤ member count, itself u32-indexed
                    members: (0..kept.len() as u32).map(map_member).collect(),
                    relevance: q.relevance.clone(),
                });
                sims.push(Arc::clone(inst.sim_arc(q.id)));
            } else {
                let members: Vec<PhotoId> = kept.iter().map(|&pos| map_member(pos)).collect();
                let relevance: Arc<[f64]> =
                    kept.iter().map(|&pos| q.relevance[pos as usize]).collect();
                let store = match inst.sim(q.id) {
                    // `kept` is ascending, so the restriction preserves row
                    // order — the bit-identity prerequisite.
                    ContextSim::Sparse(sp) => ContextSim::Sparse(sp.restrict(&kept)),
                    ContextSim::Dense(d) => {
                        ContextSim::Dense(DenseSim::from_local_fn(id, kept.len(), |i, j| {
                            d.sim(kept[i] as usize, kept[j] as usize)
                        })?)
                    }
                    ContextSim::Unit(_) => ContextSim::Unit(kept.len()),
                };
                subsets.push(Subset {
                    id,
                    label: q.label.clone(),
                    weight: q.weight,
                    members,
                    relevance,
                });
                sims.push(Arc::new(store));
            }
        }

        // ---- added queries: builder-style validation and normalization ----
        for qa in &self.add_queries {
            // phocus-lint: allow(cast-bounds) — total query count validated ≤ u32 in pack/build
            let id = SubsetId(subsets.len() as u32);
            if qa.members.is_empty() {
                return Err(ModelError::EmptySubset(id));
            }
            if !qa.weight.is_finite() || qa.weight <= 0.0 {
                return Err(ModelError::InvalidWeight {
                    subset: id,
                    value: qa.weight,
                });
            }
            let mut members = Vec::with_capacity(qa.members.len());
            let mut seen = vec![false; n_new];
            for &m in &qa.members {
                let new_id = match m {
                    MemberRef::Existing(p) => {
                        if p.index() >= n {
                            return Err(ModelError::UnknownPhoto(p));
                        }
                        match remap[p.index()] {
                            Some(new_id) => new_id,
                            None => return Err(ModelError::UnknownPhoto(p)),
                        }
                    }
                    MemberRef::New(k) => {
                        if k >= self.add_photos.len() {
                            return Err(ModelError::UnknownPhoto(PhotoId(
                                first_new.saturating_add(k as u32),
                            )));
                        }
                        PhotoId(first_new + k as u32)
                    }
                };
                if seen[new_id.index()] {
                    return Err(ModelError::DuplicateMember {
                        subset: id,
                        photo: new_id,
                    });
                }
                seen[new_id.index()] = true;
                members.push(new_id);
            }
            let mut relevance = if qa.relevance.is_empty() {
                vec![1.0; members.len()]
            } else {
                qa.relevance.clone()
            };
            if relevance.len() != members.len() {
                return Err(ModelError::RelevanceLengthMismatch {
                    subset: id,
                    members: members.len(),
                    relevances: relevance.len(),
                });
            }
            let mut sum = 0.0;
            for &r in &relevance {
                if !r.is_finite() || r <= 0.0 {
                    return Err(ModelError::InvalidRelevance {
                        subset: id,
                        value: r,
                    });
                }
                sum += r;
            }
            for r in &mut relevance {
                *r /= sum;
            }
            let store = SparseSim::from_pairs(id, members.len(), qa.pairs.iter().copied())?;
            subsets.push(Subset {
                id,
                label: qa.label.as_str().into(),
                weight: qa.weight,
                members,
                relevance: relevance.into(),
            });
            sims.push(Arc::new(ContextSim::Sparse(store)));
        }

        let instance = Instance::assemble(photos, required_ids, subsets, budget, sims);

        // ---- dirty marks on the pre-delta instance ----
        // Component granularity: whole shard for regular shards, single
        // photo for members of the singleton pool.
        let mut dirty_shard_old = vec![false; labels.num_shards()];
        let mut dirty_pool_old = vec![false; n];
        let pool_old = labels.singleton_pool();
        let mark = |p: PhotoId, dirty_shard_old: &mut [bool], dirty_pool_old: &mut [bool]| {
            let s = labels.shard_of(p);
            if pool_old == Some(s) {
                dirty_pool_old[p.index()] = true;
            } else {
                dirty_shard_old[s] = true;
            }
        };
        for &p in &self.remove_photos {
            mark(p, &mut dirty_shard_old, &mut dirty_pool_old);
        }
        for &q in &self.retire_queries {
            for &m in &inst.subset(q).members {
                mark(m, &mut dirty_shard_old, &mut dirty_pool_old);
            }
        }
        for qa in &self.add_queries {
            for &m in &qa.members {
                if let MemberRef::Existing(p) = m {
                    mark(p, &mut dirty_shard_old, &mut dirty_pool_old);
                }
            }
        }
        for &p in self.require.iter().chain(&self.unrequire) {
            mark(p, &mut dirty_shard_old, &mut dirty_pool_old);
        }

        let mut dirty_photos = vec![false; n_new];
        for (p, &o) in origin.iter().enumerate() {
            dirty_photos[p] = match o {
                Some(old) => {
                    let s = labels.shard_of(old);
                    dirty_pool_old[old.index()] || (pool_old != Some(s) && dirty_shard_old[s])
                }
                None => true, // added this epoch
            };
        }

        // ---- incremental re-labeling ----
        let new_labels = relabel(labels, &instance, &origin, &dirty_photos);
        debug_assert_eq!(
            new_labels,
            shard_labels(&instance),
            "incremental relabel diverged from from-scratch shard_labels"
        );
        let mut dirty_shards = vec![false; new_labels.num_shards()];
        for (p, &d) in dirty_photos.iter().enumerate() {
            if d {
                dirty_shards[new_labels.shard_of(PhotoId(p as u32))] = true;
            }
        }

        Ok(AppliedDelta {
            instance,
            labels: new_labels,
            photo_remap: remap,
            photo_origin: origin,
            dirty_photos,
            dirty_shards,
        })
    }
}

/// Applies `delta` to `inst`, computing the labeling from scratch first.
/// Resident callers that hold the labels across epochs use
/// [`EpochDelta::apply`] directly.
pub fn apply_delta(inst: &Instance, delta: &EpochDelta) -> Result<AppliedDelta> {
    delta.apply(inst, &shard_labels(inst))
}

/// Incrementally re-labels the post-delta instance: clean components carry
/// their grouping through, dirty photos are re-clustered with union-find
/// over only the queries that contain a dirty member, and the shard
/// numbering pass reproduces [`shard_labels`]' first-seen-ascending order
/// (with singleton pooling) exactly.
fn relabel(
    old: &ShardLabels,
    new_inst: &Instance,
    origin: &[Option<PhotoId>],
    dirty: &[bool],
) -> ShardLabels {
    let n_new = new_inst.num_photos();
    let pool_old = old.singleton_pool();

    // Union pass restricted to dirty photos. No post-delta edge connects a
    // clean photo to a dirty one (see module docs), so this reconstructs
    // exactly the components that changed.
    let mut dsu = Dsu::new(n_new);
    let mut affected: Vec<bool> = vec![false; new_inst.num_subsets()];
    for (p, &d) in dirty.iter().enumerate() {
        if d {
            // phocus-lint: allow(cast-bounds) — p < n_new, and PhotoId is u32
            for m in new_inst.memberships(PhotoId(p as u32)) {
                affected[m.subset.index()] = true;
            }
        }
    }
    for q in new_inst.subsets() {
        if !affected[q.id.index()] {
            continue;
        }
        match new_inst.sim(q.id) {
            ContextSim::Sparse(sp) => {
                for (pos, &m) in q.members.iter().enumerate() {
                    for &j in sp.neighbors(pos).0 {
                        let other = q.members[j as usize];
                        debug_assert_eq!(
                            dirty[m.index()],
                            dirty[other.index()],
                            "interaction edge crosses the clean/dirty boundary"
                        );
                        if dirty[m.index()] && dirty[other.index()] {
                            dsu.union(m.0, other.0);
                        }
                    }
                }
            }
            _ => {
                // Dense/unit stores couple all members into one clique, so a
                // query with any dirty member has only dirty members.
                debug_assert!(q.members.iter().all(|&m| dirty[m.index()]));
                for w in q.members.windows(2) {
                    dsu.union(w[0].0, w[1].0);
                }
            }
        }
    }

    // Per-old-shard surviving-photo counts: clean shards keep all photos,
    // so the old count is the new component size.
    let mut old_shard_size = vec![0u32; old.num_shards()];
    for &s in old.photo_shards() {
        old_shard_size[s as usize] += 1;
    }

    // Component key of each new photo, plus the component size (needed for
    // singleton detection):
    //   clean, old pool member      → its own one-photo component;
    //   clean, regular old shard s  → the intact old component s;
    //   dirty                       → its DSU root.
    let component_size = |dsu: &mut Dsu, p: usize| -> u32 {
        if dirty[p] {
            // phocus-lint: allow(cast-bounds) — p < n_new, the DSU's own size
            let root = dsu.find(p as u32) as usize;
            dsu.size[root]
        } else {
            match origin[p] {
                Some(old_id) => {
                    let s = old.shard_of(old_id);
                    if pool_old == Some(s) {
                        1
                    } else {
                        old_shard_size[s]
                    }
                }
                None => unreachable!("clean photos always have an origin"),
            }
        }
    };
    let mut singletons = 0usize;
    for p in 0..n_new {
        if component_size(&mut dsu, p) == 1 {
            singletons += 1;
        }
    }
    let merge_singletons = singletons >= 2;

    // First-seen-ascending numbering, mirroring `shard_labels` exactly.
    let mut shard_for_old = vec![u32::MAX; old.num_shards()];
    let mut shard_for_root = vec![u32::MAX; n_new];
    let mut pool_shard = u32::MAX;
    let mut next = 0u32;
    let mut photo_shard = vec![0u32; n_new];
    for p in 0..n_new {
        let shard = if merge_singletons && component_size(&mut dsu, p) == 1 {
            if pool_shard == u32::MAX {
                pool_shard = next;
                next += 1;
            }
            pool_shard
        } else {
            let slot = if dirty[p] {
                // phocus-lint: allow(cast-bounds) — p < n_new, the DSU's own size
                let root = dsu.find(p as u32) as usize;
                &mut shard_for_root[root]
            } else {
                match origin[p] {
                    Some(old_id) => &mut shard_for_old[old.shard_of(old_id)],
                    None => unreachable!("clean photos always have an origin"),
                }
            };
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
            *slot
        };
        photo_shard[p] = shard;
    }

    ShardLabels::from_parts(
        photo_shard,
        next as usize,
        (pool_shard != u32::MAX).then_some(pool_shard as usize),
    )
}

/// The result of applying an [`EpochDelta`]: the post-delta instance, the
/// incrementally maintained labeling, the id maps, and the dirty marks the
/// incremental solver keys its transcript cache on.
#[derive(Debug)]
pub struct AppliedDelta {
    /// The post-delta instance.
    pub instance: Instance,
    /// Post-delta shard labeling, equal to `shard_labels(&instance)`.
    pub labels: ShardLabels,
    /// Pre-delta photo id → post-delta id (`None` = removed).
    pub photo_remap: Vec<Option<PhotoId>>,
    /// Post-delta photo id → pre-delta id (`None` = added this epoch).
    pub photo_origin: Vec<Option<PhotoId>>,
    /// Per post-delta photo: whether its component was touched by the delta.
    pub dirty_photos: Vec<bool>,
    /// Per post-delta shard: whether it contains any dirty photo. The
    /// singleton pool is marked dirty if *any* pooled photo is dirty; the
    /// solver refines pool handling to per-photo granularity.
    pub dirty_shards: Vec<bool>,
}

impl AppliedDelta {
    /// Number of dirty photos in the post-delta instance.
    pub fn num_dirty_photos(&self) -> usize {
        self.dirty_photos.iter().filter(|&&d| d).count()
    }

    /// Number of dirty shards in the post-delta labeling.
    pub fn num_dirty_shards(&self) -> usize {
        self.dirty_shards.iter().filter(|&&d| d).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{random_instance, RandomInstanceConfig};
    use crate::InstanceBuilder;

    fn sparse_fixture(seed: u64) -> Instance {
        random_instance(seed, &RandomInstanceConfig::default()).sparsify(0.8)
    }

    /// Structural ground truth: labels from the incremental path must equal
    /// the from-scratch labeling of the post-delta instance.
    fn check(inst: &Instance, delta: &EpochDelta) -> AppliedDelta {
        let applied = apply_delta(inst, delta).unwrap();
        assert_eq!(applied.labels, shard_labels(&applied.instance));
        assert_eq!(applied.photo_remap.len(), inst.num_photos());
        assert_eq!(applied.photo_origin.len(), applied.instance.num_photos());
        applied
    }

    #[test]
    fn budget_only_delta_is_all_clean() {
        let inst = sparse_fixture(0xD1CE_0001);
        let delta = EpochDelta {
            set_budget: Some(inst.budget() / 2),
            ..Default::default()
        };
        let applied = check(&inst, &delta);
        assert_eq!(applied.num_dirty_photos(), 0);
        assert_eq!(applied.num_dirty_shards(), 0);
        assert_eq!(applied.instance.budget(), inst.budget() / 2);
        assert_eq!(&applied.labels, &shard_labels(&inst));
    }

    #[test]
    fn remove_photo_dirties_exactly_its_component() {
        let inst = sparse_fixture(0xD1CE_0002);
        let labels = shard_labels(&inst);
        let victim = PhotoId(3);
        let delta = EpochDelta {
            remove_photos: vec![victim],
            ..Default::default()
        };
        let applied = check(&inst, &delta);
        assert_eq!(applied.instance.num_photos(), inst.num_photos() - 1);
        assert!(applied.photo_remap[victim.index()].is_none());
        // Every dirty survivor came from the victim's old component (or the
        // victim was pooled, in which case nothing survives dirty).
        let s = labels.shard_of(victim);
        for (p, &d) in applied.dirty_photos.iter().enumerate() {
            if d {
                let old = applied.photo_origin[p].unwrap();
                assert_eq!(labels.shard_of(old), s);
                assert_ne!(labels.singleton_pool(), Some(s));
            }
        }
    }

    #[test]
    fn removal_does_not_renormalize_relevance() {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 10);
        let p1 = b.add_photo("b", 10);
        let p2 = b.add_photo("c", 10);
        b.add_subset("q", 1.0, vec![p0, p1, p2], vec![1.0, 2.0, 5.0]);
        let inst = b.build_with_provider(&crate::UnitSimilarity).unwrap();
        let before = inst.subset(SubsetId(0)).relevance.clone();
        let delta = EpochDelta {
            remove_photos: vec![p1],
            ..Default::default()
        };
        let applied = check(&inst, &delta);
        let after = &applied.instance.subset(SubsetId(0)).relevance;
        assert_eq!(after.len(), 2);
        assert_eq!(after[0].to_bits(), before[0].to_bits());
        assert_eq!(after[1].to_bits(), before[2].to_bits());
        let sum: f64 = after.iter().sum();
        assert!(sum < 1.0, "removal must not renormalize");
    }

    #[test]
    fn added_query_merges_components_and_dirties_both() {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 10);
        let p1 = b.add_photo("b", 10);
        let p2 = b.add_photo("c", 10);
        let p3 = b.add_photo("d", 10);
        b.add_subset("q0", 1.0, vec![p0, p1], vec![]);
        b.add_subset("q1", 1.0, vec![p2, p3], vec![]);
        let inst = b.build_with_provider(&crate::FnSimilarity(|_, _, _| 0.5)).unwrap();
        assert_eq!(shard_labels(&inst).num_shards(), 2);
        let delta = EpochDelta {
            add_queries: vec![QueryAdd {
                label: "bridge".into(),
                weight: 1.0,
                members: vec![MemberRef::Existing(p1), MemberRef::Existing(p2)],
                relevance: vec![],
                pairs: vec![(0, 1, 0.7)],
            }],
            ..Default::default()
        };
        let applied = check(&inst, &delta);
        assert_eq!(applied.labels.num_shards(), 1);
        assert_eq!(applied.num_dirty_photos(), 4);
    }

    #[test]
    fn retire_query_splits_and_dirties_members() {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 10);
        let p1 = b.add_photo("b", 10);
        let p2 = b.add_photo("c", 10);
        b.add_subset("pair", 1.0, vec![p0, p1], vec![]);
        b.add_subset("bridge", 1.0, vec![p1, p2], vec![]);
        let inst = b.build_with_provider(&crate::FnSimilarity(|_, _, _| 0.5)).unwrap();
        assert_eq!(shard_labels(&inst).num_shards(), 1);
        let delta = EpochDelta {
            retire_queries: vec![SubsetId(1)],
            ..Default::default()
        };
        let applied = check(&inst, &delta);
        assert_eq!(applied.instance.num_subsets(), 1);
        // p2 is now an isolated singleton; {p0, p1} stay connected.
        assert_eq!(applied.labels.num_shards(), 2);
        assert!(applied.dirty_photos.iter().all(|&d| d));
    }

    #[test]
    fn added_photos_and_new_queries_join_and_compose() {
        let inst = sparse_fixture(0xD1CE_0003);
        let delta = EpochDelta {
            add_photos: vec![
                PhotoAdd {
                    name: "new0".into(),
                    cost: 123,
                    required: false,
                },
                PhotoAdd {
                    name: "new1".into(),
                    cost: 456,
                    required: true,
                },
            ],
            add_queries: vec![QueryAdd {
                label: "fresh".into(),
                weight: 2.0,
                members: vec![
                    MemberRef::New(0),
                    MemberRef::New(1),
                    MemberRef::Existing(PhotoId(0)),
                ],
                relevance: vec![1.0, 1.0, 2.0],
                pairs: vec![(0, 1, 0.9), (1, 2, 0.4)],
            }],
            ..Default::default()
        };
        let applied = check(&inst, &delta);
        let ni = &applied.instance;
        assert_eq!(ni.num_photos(), inst.num_photos() + 2);
        let new1 = PhotoId(inst.num_photos() as u32 + 1);
        assert!(ni.is_required(new1));
        let q = ni.subset(SubsetId(ni.num_subsets() as u32 - 1));
        assert_eq!(q.members.len(), 3);
        let sum: f64 = q.relevance.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "added queries are normalized");
        // Chained deltas compose: remove one of the new photos next epoch.
        let delta2 = EpochDelta {
            remove_photos: vec![new1],
            require: vec![PhotoId(0)],
            ..Default::default()
        };
        let applied2 = delta2.apply(ni, &applied.labels).unwrap();
        assert_eq!(applied2.labels, shard_labels(&applied2.instance));
        assert!(applied2.instance.is_required(
            applied2.photo_remap[0].unwrap()
        ));
    }

    #[test]
    fn require_unrequire_flip_flags_and_dirty_components() {
        let inst = sparse_fixture(0xD1CE_0001);
        let target = PhotoId(5);
        let delta = EpochDelta {
            require: vec![target],
            ..Default::default()
        };
        let applied = check(&inst, &delta);
        assert!(applied.instance.is_required(PhotoId(5)));
        assert!(applied.dirty_photos[5]);
        let back = EpochDelta {
            unrequire: vec![target],
            ..Default::default()
        };
        let applied2 = back.apply(&applied.instance, &applied.labels).unwrap();
        assert!(!applied2.instance.is_required(PhotoId(5)));
    }

    #[test]
    fn emptied_query_auto_retires() {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 10);
        let p1 = b.add_photo("b", 10);
        b.add_subset("lone", 1.0, vec![p0], vec![]);
        b.add_subset("keep", 1.0, vec![p1], vec![]);
        let inst = b.build_with_provider(&crate::UnitSimilarity).unwrap();
        let delta = EpochDelta {
            remove_photos: vec![p0],
            ..Default::default()
        };
        let applied = check(&inst, &delta);
        assert_eq!(applied.instance.num_subsets(), 1);
        assert_eq!(&*applied.instance.subset(SubsetId(0)).label, "keep");
    }

    #[test]
    fn validation_errors() {
        let inst = sparse_fixture(0xD1CE_0002);
        let n = inst.num_photos() as u32;
        let bad_remove = EpochDelta {
            remove_photos: vec![PhotoId(n)],
            ..Default::default()
        };
        assert!(matches!(
            apply_delta(&inst, &bad_remove),
            Err(ModelError::UnknownPhoto(_))
        ));
        let require_removed = EpochDelta {
            remove_photos: vec![PhotoId(0)],
            require: vec![PhotoId(0)],
            ..Default::default()
        };
        assert!(matches!(
            apply_delta(&inst, &require_removed),
            Err(ModelError::UnknownPhoto(_))
        ));
        let zero_cost = EpochDelta {
            add_photos: vec![PhotoAdd {
                name: "z".into(),
                cost: 0,
                required: false,
            }],
            ..Default::default()
        };
        assert!(matches!(
            apply_delta(&inst, &zero_cost),
            Err(ModelError::ZeroCostPhoto(_))
        ));
        let over_budget = EpochDelta {
            set_budget: Some(0),
            require: vec![PhotoId(0)],
            ..Default::default()
        };
        assert!(matches!(
            apply_delta(&inst, &over_budget),
            Err(ModelError::RequiredSetOverBudget { .. })
        ));
        let dup_member = EpochDelta {
            add_queries: vec![QueryAdd {
                label: "dup".into(),
                weight: 1.0,
                members: vec![
                    MemberRef::Existing(PhotoId(1)),
                    MemberRef::Existing(PhotoId(1)),
                ],
                relevance: vec![],
                pairs: vec![],
            }],
            ..Default::default()
        };
        assert!(matches!(
            apply_delta(&inst, &dup_member),
            Err(ModelError::DuplicateMember { .. })
        ));
    }

    #[test]
    fn pool_membership_changes_track_from_scratch() {
        // Build an instance with a singleton pool, then churn pool photos.
        let mut b = InstanceBuilder::new(1000);
        for k in 0..6 {
            let p = b.add_photo(format!("s{k}"), 10);
            b.add_subset(format!("q{k}"), 1.0, vec![p], vec![]);
        }
        let inst = b.build_with_provider(&crate::UnitSimilarity).unwrap();
        let labels = shard_labels(&inst);
        assert_eq!(labels.singleton_pool(), Some(0));
        let delta = EpochDelta {
            remove_photos: vec![PhotoId(2)],
            require: vec![PhotoId(4)],
            add_photos: vec![PhotoAdd {
                name: "s6".into(),
                cost: 10,
                required: false,
            }],
            ..Default::default()
        };
        let applied = check(&inst, &delta);
        // Clean pool photos stay clean — per-photo granularity.
        assert!(!applied.dirty_photos[0]);
        assert!(applied.dirty_photos[applied.photo_remap[4].unwrap().index()]);
        assert_eq!(applied.labels.singleton_pool(), Some(0));
    }

    #[test]
    fn random_churn_matches_from_scratch_labels() {
        // Randomized end-to-end: a chain of mixed deltas over a sparsified
        // instance, checking the incremental labels against from-scratch at
        // every step (the debug_assert inside apply double-checks too).
        let mut inst = sparse_fixture(0xFEED_0001);
        let mut labels = shard_labels(&inst);
        let mut rng = crate::fixtures::SplitMix64::new(0xFEED_0002);
        for round in 0..8 {
            let n = inst.num_photos();
            let mut delta = EpochDelta::default();
            match round % 4 {
                0 => {
                    delta.remove_photos = vec![PhotoId(rng.next_below(n) as u32)];
                }
                1 => {
                    let a = rng.next_below(n) as u32;
                    let b = rng.next_below(n) as u32;
                    if a != b {
                        delta.add_queries = vec![QueryAdd {
                            label: format!("drift{round}"),
                            weight: 0.5,
                            members: vec![
                                MemberRef::Existing(PhotoId(a)),
                                MemberRef::Existing(PhotoId(b)),
                            ],
                            relevance: vec![],
                            pairs: vec![(0, 1, 0.6)],
                        }];
                    }
                }
                2 => {
                    delta.add_photos = vec![PhotoAdd {
                        name: format!("arr{round}"),
                        cost: 100 + round as u64,
                        required: false,
                    }];
                }
                _ => {
                    if inst.num_subsets() > 1 {
                        delta.retire_queries =
                            vec![SubsetId(rng.next_below(inst.num_subsets()) as u32)];
                    }
                }
            }
            let applied = delta.apply(&inst, &labels).unwrap();
            assert_eq!(applied.labels, shard_labels(&applied.instance));
            inst = applied.instance;
            labels = applied.labels;
        }
    }
}
