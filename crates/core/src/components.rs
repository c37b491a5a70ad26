//! Connected-component decomposition of a PAR instance.
//!
//! The PAR objective is a sum over queries, and within a query a photo's
//! contribution depends only on its most similar *selected* co-member — so
//! two photos interact (one's presence can change the other's marginal gain)
//! only if some query contains both **and** stores a nonzero similarity
//! between them. The graph over photos with exactly those edges splits the
//! instance into independent sub-problems coupled solely through the shared
//! budget `B`. τ-sparsification (Section 4.3) makes these components
//! numerous and small on realistic archives.
//!
//! [`shard_labels`] computes the components from the similarity stores:
//!
//! * [`ContextSim::Sparse`] queries contribute one edge per stored CSR pair,
//!   so a sparse query's members may land in several components;
//! * [`ContextSim::Dense`] and [`ContextSim::Unit`] queries couple all their
//!   members (the dense gain kernel visits every co-member, so a dense query
//!   always sits in one component).
//!
//! Components with a single photo (photos with no memberships, or members
//! with no stored similarity edges at all) are merged into one residual
//! shard: they never interact with anything, and pooling them avoids
//! thousands of one-photo streams.
//!
//! The result is a labeling only — one shard index per photo — and nothing
//! is copied out of the instance. The sharded solver runs every shard's
//! stream over the one shared evaluator, so it needs to know which shard a
//! photo is in and nothing more.

use crate::instance::Instance;
use crate::sim::ContextSim;
use crate::PhotoId;

/// A component decomposition as a labeling: which shard every photo
/// belongs to.
///
/// This is the state the epoch-delta layer ([`crate::delta`]) maintains
/// incrementally: applying a delta re-labels only the *dirty* components and
/// copies clean labels through, and the result must equal a from-scratch
/// [`shard_labels`] of the post-delta instance exactly — same partition,
/// same shard numbers (pinned by proptests in the integration suite).
/// Derives `PartialEq`/`Eq` so that equality check is a one-liner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLabels {
    /// `photo_shard[p]` = shard index of photo `p`'s component.
    photo_shard: Vec<u32>,
    /// Number of shards (≥ 1 for any non-empty instance).
    num_shards: usize,
    /// Index of the merged singleton shard, if one was formed.
    singleton_pool: Option<usize>,
}

impl ShardLabels {
    /// Number of shards (≥ 1 for any non-empty instance).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard index of a global photo.
    #[inline]
    pub fn shard_of(&self, p: PhotoId) -> usize {
        self.photo_shard[p.index()] as usize
    }

    /// Per-photo shard indices, indexed by [`PhotoId`].
    #[inline]
    pub fn photo_shards(&self) -> &[u32] {
        &self.photo_shard
    }

    /// The shard holding all merged single-photo components, if any.
    #[inline]
    pub fn singleton_pool(&self) -> Option<usize> {
        self.singleton_pool
    }

    /// Assembles labels from raw parts (used by the incremental maintenance
    /// in [`crate::delta`]).
    pub(crate) fn from_parts(
        photo_shard: Vec<u32>,
        num_shards: usize,
        singleton_pool: Option<usize>,
    ) -> Self {
        ShardLabels {
            photo_shard,
            num_shards,
            singleton_pool,
        }
    }
}

/// Union-find over photo ids with path halving and union by size.
///
/// Crate-visible so the epoch-delta layer ([`crate::delta`]) can reuse it to
/// re-cluster dirty photos with identical union semantics.
pub(crate) struct Dsu {
    parent: Vec<u32>,
    pub(crate) size: Vec<u32>,
}

impl Dsu {
    pub(crate) fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    pub(crate) fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

/// Runs the interaction-graph union pass for `inst` into `dsu`, for the full
/// [`shard_labels`] pass. The delta layer's `relabel` runs its own loop,
/// restricted to the subsets and photos a delta dirtied.
pub(crate) fn union_interactions(inst: &Instance, dsu: &mut Dsu) {
    for q in inst.subsets() {
        match inst.sim(q.id) {
            ContextSim::Sparse(sp) => {
                // One union per stored pair: photos without a stored edge in
                // any query never influence each other's gains.
                for (pos, &m) in q.members.iter().enumerate() {
                    for &j in sp.neighbors(pos).0 {
                        dsu.union(m.0, q.members[j as usize].0);
                    }
                }
            }
            // Dense and Unit stores couple every co-member pair; a chain
            // union over the member list merges the whole clique.
            _ => {
                for w in q.members.windows(2) {
                    dsu.union(w[0].0, w[1].0);
                }
            }
        }
    }
}

/// Computes the shard labeling of `inst`: the component partition plus the
/// deterministic shard numbering.
///
/// Numbering: components in first-seen order by ascending photo id, with all
/// single-photo components collapsed onto one pool shard (when there are at
/// least two of them). The labeling is a true partition: every photo gets
/// exactly one label, no stored similarity pair links two shards, and every
/// dense or unit query lies inside one shard. It is the ground truth the
/// incremental relabeling in [`crate::delta`] must reproduce exactly. Runs
/// in `O(n + Σ_q E_q · α)` time.
pub fn shard_labels(inst: &Instance) -> ShardLabels {
    let n = inst.num_photos();
    let mut dsu = Dsu::new(n);
    union_interactions(inst, &mut dsu);

    let mut singletons = 0usize;
    for p in 0..n as u32 {
        let root = dsu.find(p) as usize;
        if dsu.size[root] == 1 {
            singletons += 1;
        }
    }
    let merge_singletons = singletons >= 2;
    let mut shard_of_root = vec![u32::MAX; n];
    let mut pool_shard = u32::MAX;
    let mut next = 0u32;
    let mut photo_shard = vec![0u32; n];
    for p in 0..n as u32 {
        let root = dsu.find(p) as usize;
        let shard = if merge_singletons && dsu.size[root] == 1 {
            if pool_shard == u32::MAX {
                pool_shard = next;
                next += 1;
            }
            pool_shard
        } else {
            if shard_of_root[root] == u32::MAX {
                shard_of_root[root] = next;
                next += 1;
            }
            shard_of_root[root]
        };
        photo_shard[p as usize] = shard;
    }

    ShardLabels::from_parts(
        photo_shard,
        next as usize,
        (pool_shard != u32::MAX).then_some(pool_shard as usize),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};

    /// Checks the partition invariants of `shard_labels(inst)` and returns
    /// the labels.
    fn assert_partition(inst: &Instance) -> ShardLabels {
        let labels = shard_labels(inst);
        let n = inst.num_photos();
        assert_eq!(labels.photo_shards().len(), n);
        // Labels run 0..num_shards in first-seen order by photo id.
        let mut next = 0u32;
        for &s in labels.photo_shards() {
            assert!(s <= next, "label {s} appears before label {next}");
            next = next.max(s + 1);
        }
        assert_eq!(next as usize, labels.num_shards());
        // No stored pair crosses shards; dense and unit queries are whole.
        let mut has_edge = vec![false; n];
        for q in inst.subsets() {
            match inst.sim(q.id) {
                ContextSim::Sparse(sp) => {
                    for (pos, &m) in q.members.iter().enumerate() {
                        for &j in sp.neighbors(pos).0 {
                            let other = q.members[j as usize];
                            assert_eq!(labels.shard_of(other), labels.shard_of(m));
                            has_edge[m.index()] = true;
                            has_edge[other.index()] = true;
                        }
                    }
                }
                _ => {
                    let s = labels.shard_of(q.members[0]);
                    assert!(
                        q.members.iter().all(|&m| labels.shard_of(m) == s),
                        "dense query split"
                    );
                    if q.members.len() > 1 {
                        q.members.iter().for_each(|&m| has_edge[m.index()] = true);
                    }
                }
            }
        }
        // With two or more edgeless photos, the pool holds exactly those.
        let edgeless: Vec<usize> = (0..n).filter(|&p| !has_edge[p]).collect();
        match labels.singleton_pool() {
            Some(pool) => {
                assert!(edgeless.len() >= 2);
                let pooled: Vec<usize> = (0..n)
                    .filter(|&p| labels.photo_shards()[p] as usize == pool)
                    .collect();
                assert_eq!(pooled, edgeless);
            }
            None => assert!(edgeless.len() < 2),
        }
        labels
    }

    #[test]
    fn figure1_decomposes_to_valid_partition() {
        let labels = assert_partition(&figure1_instance(4 * MB));
        assert!(labels.num_shards() >= 1);
    }

    #[test]
    fn dense_random_instance_partition() {
        let inst = random_instance(0xC0FFEE, &RandomInstanceConfig::default());
        assert_partition(&inst);
        assert_partition(&inst.sparsify(0.8));
    }

    #[test]
    fn unit_queries_are_clique_unioned() {
        let inst = random_instance(7, &RandomInstanceConfig::default()).with_unit_sims();
        assert_partition(&inst);
    }

    #[test]
    fn singletons_merge_into_pool() {
        // Unit queries of size 1: every photo is its own component.
        let mut b = crate::InstanceBuilder::new(100);
        for k in 0..5 {
            let p = b.add_photo(format!("p{k}"), 10);
            b.add_subset(format!("q{k}"), 1.0, vec![p], vec![]);
        }
        let inst = b.build_with_provider(&crate::UnitSimilarity).unwrap();
        let labels = assert_partition(&inst);
        assert_eq!(labels.num_shards(), 1);
        assert_eq!(labels.singleton_pool(), Some(0));
    }
}
