//! Contextualized similarity storage and providers.
//!
//! The paper's `SIM : Q × P × P → [0,1]` is *contextual*: the similarity of
//! the same pair of photos differs between pre-defined subsets. Within an
//! [`Instance`](crate::Instance) similarities are therefore stored per subset,
//! indexed by the *local* member index within that subset.
//!
//! Two storage layouts are provided:
//!
//! * [`DenseSim`] — a packed lower-triangular matrix, used when all pairwise
//!   similarities are materialized (the paper's PHOcus-NS configuration);
//! * [`SparseSim`] — a CSR (compressed sparse row) adjacency store with split
//!   index/similarity arrays, used after τ-sparsification (Section 4.3) or
//!   when the pairs come from an LSH index.
//!
//! Both layouts implicitly define `SIM(q, p, p) = 1` and treat missing pairs
//! as similarity 0, exactly as the sparsified model does.
//!
//! Both expose *slice-returning* accessors ([`SparseSim::neighbors`],
//! [`DenseSim::row`], [`DenseSim::raw_tri`]) so that hot kernels — the
//! [`Evaluator`](crate::Evaluator)'s marginal-gain, add, remove and
//! exact-score loops — iterate flat arrays with no per-element pointer
//! chasing, enum dispatch, or triangular index arithmetic.
//!
//! [`SimilarityProvider`] abstracts over *sources* of similarity (embedding
//! cosine, test oracles, closures) from which the stores are materialized.

use crate::{ModelError, PhotoId, Result, Subset, SubsetId};

/// A source of contextualized similarity scores, used to materialize
/// [`ContextSim`] stores during instance construction.
///
/// Implementations must be symmetric (`similarity(q, a, b) ==
/// similarity(q, b, a)`), return values in `[0, 1]`, and return 1 for
/// identical photos. These invariants are validated at materialization time.
pub trait SimilarityProvider {
    /// `SIM(context, a, b)` for two photos that are members of `context`.
    fn similarity(&self, context: &Subset, a: PhotoId, b: PhotoId) -> f64;
}

/// The trivial provider with `SIM ≡ 1` for all co-members.
///
/// Under this provider the PAR objective degenerates to weighted coverage of
/// subsets — the selection objective of the paper's Greedy-NR baseline, and
/// the gadget used in the Max-Coverage hardness reduction (Theorem 3.4).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitSimilarity;

impl SimilarityProvider for UnitSimilarity {
    fn similarity(&self, _context: &Subset, _a: PhotoId, _b: PhotoId) -> f64 {
        1.0
    }
}

/// A provider backed by a closure, convenient for tests and fixtures.
pub struct FnSimilarity<F>(pub F)
where
    F: Fn(SubsetId, PhotoId, PhotoId) -> f64;

impl<F> SimilarityProvider for FnSimilarity<F>
where
    F: Fn(SubsetId, PhotoId, PhotoId) -> f64,
{
    fn similarity(&self, context: &Subset, a: PhotoId, b: PhotoId) -> f64 {
        if a == b {
            1.0
        } else {
            (self.0)(context.id, a, b)
        }
    }
}

/// Packed lower-triangular matrix of pairwise similarities over the members
/// of one subset. The diagonal (`SIM = 1`) is implicit.
///
/// Entry `(i, j)` with `i > j` is stored at offset `i·(i−1)/2 + j`. Values are
/// kept as `f32` to halve memory traffic; all arithmetic is done in `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseSim {
    n: usize,
    /// Lower triangle, row-major: entry (i,j), i>j at `i*(i-1)/2 + j`.
    tri: Vec<f32>,
}

impl DenseSim {
    /// Materializes all pairwise similarities of `subset`'s members from a
    /// provider. Costs `O(|q|²)` provider calls.
    pub fn from_provider<P: SimilarityProvider + ?Sized>(
        subset: &Subset,
        provider: &P,
    ) -> Result<Self> {
        Self::from_local_fn(subset.id, subset.members.len(), |i, j| {
            provider.similarity(subset, subset.members[i], subset.members[j])
        })
    }

    /// Materializes all pairwise similarities over `n` members from a pair
    /// function of *local* member positions `(i, j)` with `i > j`. Validation
    /// and fill order match [`from_provider`](Self::from_provider) exactly;
    /// callers with precomputed per-member state (e.g. hoisted norm terms)
    /// use this to skip per-pair provider dispatch.
    pub fn from_local_fn(
        subset_id: SubsetId,
        n: usize,
        pair: impl Fn(usize, usize) -> f64,
    ) -> Result<Self> {
        let mut tri = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 1..n {
            for j in 0..i {
                let s = pair(i, j);
                if !(0.0..=1.0).contains(&s) || s.is_nan() {
                    return Err(ModelError::InvalidSimilarity {
                        subset: subset_id,
                        value: s,
                    });
                }
                tri.push(s as f32);
            }
        }
        Ok(DenseSim { n, tri })
    }

    /// Builds a dense store directly from a full `n×n` matrix slice
    /// (row-major). Only the lower triangle is read.
    pub fn from_matrix(subset_id: SubsetId, n: usize, matrix: &[f64]) -> Result<Self> {
        assert_eq!(matrix.len(), n * n, "matrix must be n*n row-major");
        let mut tri = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 1..n {
            for j in 0..i {
                let s = matrix[i * n + j];
                if !(0.0..=1.0).contains(&s) || s.is_nan() {
                    return Err(ModelError::InvalidSimilarity {
                        subset: subset_id,
                        value: s,
                    });
                }
                tri.push(s as f32);
            }
        }
        Ok(DenseSim { n, tri })
    }

    /// Number of members in the underlying subset.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store covers zero members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Similarity between local member indices `i` and `j`.
    #[inline]
    pub fn sim(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 1.0;
        }
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        self.tri[hi * (hi - 1) / 2 + lo] as f64
    }

    /// The contiguous lower-triangle row of member `i`: similarities to
    /// members `0..i`, in member order. Empty for `i == 0`.
    ///
    /// Together with [`raw_tri`](Self::raw_tri) this lets kernels visit all
    /// neighbors of `i` without per-element triangular index arithmetic: the
    /// entries `(j, i)` for `j > i` live at `raw_tri()[base + i]` where
    /// `base` starts at `i·(i+1)/2` (row `i+1`) and advances by `j` per row.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let base = i * i.saturating_sub(1) / 2;
        &self.tri[base..base + i]
    }

    /// The packed lower triangle: entry `(i, j)` with `i > j` at
    /// `i·(i−1)/2 + j`. See [`row`](Self::row) for the hoisted iteration
    /// pattern over a member's column entries.
    #[inline]
    pub fn raw_tri(&self) -> &[f32] {
        &self.tri
    }

    /// Reassembles a store from a packed lower triangle bulk-read from a
    /// `phocus-pack` section ([`crate::pack`]). The pack reader has already
    /// checked `tri.len() == n·(n−1)/2`; no validation runs here.
    pub(crate) fn from_raw_tri(n: usize, tri: Vec<f32>) -> Self {
        debug_assert_eq!(tri.len(), n * n.saturating_sub(1) / 2);
        DenseSim { n, tri }
    }

    /// Converts to a sparse store, dropping all zero similarities and all
    /// similarities `< tau` (the τ-sparsification of Section 4.3).
    pub fn sparsify(&self, tau: f64) -> SparseSim {
        let n = self.n;
        let keep = |s: f32| (s as f64) >= tau && s > 0.0;
        // Pass 1: per-row degree counts.
        let mut offsets = vec![0u32; n + 1];
        for i in 1..n {
            let base = i * (i - 1) / 2;
            for j in 0..i {
                if keep(self.tri[base + j]) {
                    offsets[i + 1] += 1;
                    offsets[j + 1] += 1;
                }
            }
        }
        for k in 1..=n {
            offsets[k] += offsets[k - 1];
        }
        // Pass 2: fill. Iterating pairs (i, j<i) in row-major order hands
        // each CSR row first its smaller neighbors (ascending j) and then its
        // larger ones (ascending i), so every row comes out sorted.
        let total = offsets[n] as usize;
        let mut neighbor_idx = vec![0u32; total];
        let mut sim = vec![0.0f32; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for i in 1..n {
            let base = i * (i - 1) / 2;
            for j in 0..i {
                let s = self.tri[base + j];
                if keep(s) {
                    let ci = cursor[i] as usize;
                    neighbor_idx[ci] = j as u32;
                    sim[ci] = s;
                    cursor[i] += 1;
                    let cj = cursor[j] as usize;
                    neighbor_idx[cj] = i as u32;
                    sim[cj] = s;
                    cursor[j] += 1;
                }
            }
        }
        SparseSim {
            offsets,
            neighbor_idx,
            sim,
        }
    }

    /// Number of stored (unordered) pairs with nonzero similarity.
    pub fn nonzero_pairs(&self) -> usize {
        self.tri.iter().filter(|&&s| s > 0.0).count()
    }
}

/// CSR (compressed sparse row) adjacency store of similarities over one
/// subset's members.
///
/// Row `i` spans `offsets[i]..offsets[i+1]` in the split `neighbor_idx` /
/// `sim` arrays and holds `(j, SIM(q, mᵢ, mⱼ))` for every *other* member `j`
/// whose stored similarity is nonzero, sorted by `j`. The diagonal is
/// implicit (1.0); absent pairs have similarity 0 — exactly the semantics of
/// a τ-sparsified instance.
///
/// The structure-of-arrays split keeps the index stream and the value stream
/// each contiguous, so a marginal-gain kernel walking a row touches two flat
/// `u32`/`f32` runs instead of chasing one heap allocation per member.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSim {
    /// Row boundaries: row `i` is `offsets[i]..offsets[i+1]`; `len = n + 1`.
    offsets: Vec<u32>,
    /// Concatenated neighbor local indices, sorted within each row.
    neighbor_idx: Vec<u32>,
    /// Similarities parallel to `neighbor_idx`.
    sim: Vec<f32>,
}

impl Default for SparseSim {
    fn default() -> Self {
        SparseSim::empty(0)
    }
}

impl SparseSim {
    /// The store over `n` members with no pairs at all.
    pub fn empty(n: usize) -> Self {
        SparseSim {
            offsets: vec![0; n + 1],
            neighbor_idx: Vec::new(),
            sim: Vec::new(),
        }
    }

    /// Builds a sparse store over `n` members from unordered pairs
    /// `(i, j, sim)`. Pairs are inserted symmetrically; duplicate pairs keep
    /// the maximum similarity; self-pairs and zero similarities are ignored.
    /// Indices `≥ n` are rejected with
    /// [`ModelError::PairIndexOutOfRange`].
    ///
    /// A counting build: one validating pass keeps the pairs and counts each
    /// row's degree, a prefix sum places the rows, and a scatter writes both
    /// directions of every pair. Row `r` receives its neighbors in input
    /// order, so a caller emitting pairs in ascending `(min, max)` order — or
    /// row-major `(j, i)` with `j < i` — hands it the smaller neighbors
    /// ascending, then the larger ones ascending: already strictly sorted.
    /// Only a row that is not strictly ascending (out-of-order input or a
    /// duplicate pair) is sorted by column, similarity descending, and
    /// deduplicated to its maximum.
    // phocus-lint: hot-kernel — builds the CSR store of every sparsified context
    pub fn from_pairs(
        subset_id: SubsetId,
        n: usize,
        pairs: impl IntoIterator<Item = (u32, u32, f64)>,
    ) -> Result<Self> {
        let pairs = pairs.into_iter();
        // phocus-lint: allow(alloc-hot) — the output row table
        let mut offsets = vec![0u32; n + 1];
        // phocus-lint: allow(alloc-hot) — the one scratch buffer: the validated pairs, kept for the scatter
        let mut kept: Vec<(u32, u32, f32)> = Vec::with_capacity(pairs.size_hint().0);
        for (i, j, s) in pairs {
            if !(0.0..=1.0).contains(&s) || s.is_nan() {
                return Err(ModelError::InvalidSimilarity {
                    subset: subset_id,
                    value: s,
                });
            }
            if i == j || s == 0.0 {
                continue;
            }
            if let Some(&index) = [i, j].iter().find(|&&k| k as usize >= n) {
                return Err(ModelError::PairIndexOutOfRange {
                    subset: subset_id,
                    index,
                    members: n,
                });
            }
            offsets[i as usize + 1] += 1;
            offsets[j as usize + 1] += 1;
            kept.push((i, j, s as f32));
        }
        for k in 1..=n {
            offsets[k] += offsets[k - 1];
        }
        // Scatter, using `offsets[r]` as row `r`'s cursor: afterwards it
        // holds the row's end, which the shift below turns back into starts.
        let total = offsets[n] as usize;
        // phocus-lint: allow(alloc-hot) — the output neighbor arena
        let mut neighbor_idx = vec![0u32; total];
        // phocus-lint: allow(alloc-hot) — the output similarity arena
        let mut sim = vec![0.0f32; total];
        for &(i, j, s) in &kept {
            for (row, col) in [(i, j), (j, i)] {
                let at = offsets[row as usize] as usize;
                neighbor_idx[at] = col;
                sim[at] = s;
                offsets[row as usize] += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        // Sort and deduplicate the rows that need it, compacting every row
        // down to the write cursor; the pair buffer, no longer needed, holds
        // a row while it sorts. Rows written in order stay in place.
        let (mut read, mut write) = (0usize, 0usize);
        for r in 0..n {
            let end = offsets[r + 1] as usize;
            if neighbor_idx[read..end].windows(2).all(|w| w[0] < w[1]) {
                if write != read {
                    neighbor_idx.copy_within(read..end, write);
                    sim.copy_within(read..end, write);
                }
                write += end - read;
            } else {
                kept.clear();
                kept.extend((read..end).map(|at| (0, neighbor_idx[at], sim[at])));
                // Column ascending, similarity descending: the dedup keeps
                // the maximum of each duplicated pair.
                kept.sort_unstable_by(|a, b| a.1.cmp(&b.1).then_with(|| b.2.total_cmp(&a.2)));
                kept.dedup_by_key(|e| e.1);
                for &(_, col, s) in &kept {
                    neighbor_idx[write] = col;
                    sim[write] = s;
                    write += 1;
                }
            }
            // phocus-lint: allow(cast-bounds) — write ≤ total, itself a u32 offset
            offsets[r + 1] = write as u32;
            read = end;
        }
        neighbor_idx.truncate(write);
        sim.truncate(write);
        Ok(SparseSim {
            offsets,
            neighbor_idx,
            sim,
        })
    }

    /// Number of members covered by the store.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the store covers zero members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Similarity between local member indices `i` and `j` (0 if not stored).
    pub fn sim(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 1.0;
        }
        let (ids, sims) = self.neighbors(i);
        // phocus-lint: allow(cast-bounds) — j is a local member index; rows store u32 ids
        ids.binary_search(&(j as u32))
            .map(|pos| sims[pos] as f64)
            .unwrap_or(0.0)
    }

    /// Neighbors of member `i` as parallel slices `(indices, similarities)`:
    /// other members with nonzero stored similarity, sorted by local index.
    #[inline]
    pub fn neighbors(&self, i: usize) -> (&[u32], &[f32]) {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        (&self.neighbor_idx[start..end], &self.sim[start..end])
    }

    /// Number of stored neighbors of member `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Number of stored (unordered) nonzero pairs.
    pub fn nonzero_pairs(&self) -> usize {
        self.neighbor_idx.len() / 2
    }

    /// The raw CSR arenas `(offsets, neighbor_idx, sim)`, exposed to the
    /// `phocus-pack` writer ([`crate::pack`]) for verbatim section dumps.
    pub(crate) fn raw_csr(&self) -> (&[u32], &[u32], &[f32]) {
        (&self.offsets, &self.neighbor_idx, &self.sim)
    }

    /// Reassembles a store from CSR arenas bulk-read from a `phocus-pack`
    /// section ([`crate::pack`]). The pack reader has already checked the
    /// offsets are monotone, end at `neighbor_idx.len()`, and that every
    /// neighbor index is in range; no validation or re-sorting runs here.
    pub(crate) fn from_raw_csr(offsets: Vec<u32>, neighbor_idx: Vec<u32>, sim: Vec<f32>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(neighbor_idx.len(), sim.len());
        SparseSim {
            offsets,
            neighbor_idx,
            sim,
        }
    }

    /// Restricts the store to the members at `positions` (strictly ascending
    /// local indices), remapping kept neighbors to their position in
    /// `positions` and dropping edges to excluded members.
    ///
    /// Because `positions` is ascending, the remap is order-preserving: each
    /// restricted row keeps its original (sorted) entry order, so kernels
    /// iterating the restricted rows see the surviving `(neighbor, sim)`
    /// pairs in exactly the sequence the parent store produced. The component
    /// decomposition relies on this for bit-identical gain arithmetic.
    pub fn restrict(&self, positions: &[u32]) -> SparseSim {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        let mut remap = vec![u32::MAX; self.len()];
        for (new, &old) in positions.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let mut offsets = vec![0u32; positions.len() + 1];
        let mut neighbor_idx = Vec::new();
        let mut sim = Vec::new();
        for (new, &old) in positions.iter().enumerate() {
            let (ids, sims) = self.neighbors(old as usize);
            for (&j, &s) in ids.iter().zip(sims) {
                let nj = remap[j as usize];
                if nj != u32::MAX {
                    neighbor_idx.push(nj);
                    sim.push(s);
                }
            }
            // phocus-lint: allow(cast-bounds) — restriction keeps ≤ the original u32 edge count
            offsets[new + 1] = neighbor_idx.len() as u32;
        }
        SparseSim {
            offsets,
            neighbor_idx,
            sim,
        }
    }

    /// A copy with all similarities `< tau` (and any zeros) dropped.
    pub fn sparsify(&self, tau: f64) -> SparseSim {
        let n = self.len();
        let mut offsets = vec![0u32; n + 1];
        let mut neighbor_idx = Vec::new();
        let mut sim = Vec::new();
        for i in 0..n {
            let (ids, sims) = self.neighbors(i);
            for (&j, &s) in ids.iter().zip(sims) {
                if (s as f64) >= tau && s > 0.0 {
                    neighbor_idx.push(j);
                    sim.push(s);
                }
            }
            // phocus-lint: allow(cast-bounds) — sparsify keeps ≤ the original u32 edge count
            offsets[i + 1] = neighbor_idx.len() as u32;
        }
        SparseSim {
            offsets,
            neighbor_idx,
            sim,
        }
    }
}

/// Per-subset similarity storage: dense all-pairs, sparse adjacency, or the
/// implicit all-ones store.
#[derive(Debug, Clone, PartialEq)]
pub enum ContextSim {
    /// All pairwise similarities materialized (PHOcus-NS).
    Dense(DenseSim),
    /// Only pairs above a threshold / produced by LSH (PHOcus).
    Sparse(SparseSim),
    /// Implicit `SIM ≡ 1` over `n` members, stored in O(1) memory. Used by
    /// the Greedy-NR baseline view and the Max-Coverage hardness gadget.
    Unit(usize),
}

impl ContextSim {
    /// Number of members covered by the store.
    pub fn len(&self) -> usize {
        match self {
            ContextSim::Dense(d) => d.len(),
            ContextSim::Sparse(s) => s.len(),
            ContextSim::Unit(n) => *n,
        }
    }

    /// Whether the store covers zero members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sparse store, if this is the CSR variant. Hot consumers branch on
    /// this once and then iterate the raw [`SparseSim::neighbors`] slices.
    #[inline]
    pub fn as_sparse(&self) -> Option<&SparseSim> {
        match self {
            ContextSim::Sparse(s) => Some(s),
            _ => None,
        }
    }

    /// The dense store, if this is the packed-triangle variant.
    #[inline]
    pub fn as_dense(&self) -> Option<&DenseSim> {
        match self {
            ContextSim::Dense(d) => Some(d),
            _ => None,
        }
    }

    /// Similarity between local member indices `i` and `j`.
    #[inline]
    pub fn sim(&self, i: usize, j: usize) -> f64 {
        match self {
            ContextSim::Dense(d) => d.sim(i, j),
            ContextSim::Sparse(s) => s.sim(i, j),
            ContextSim::Unit(_) => 1.0,
        }
    }

    /// Calls `f(j, sim)` for every member `j ≠ i` with nonzero stored
    /// similarity to `i`. For dense stores this visits all other members
    /// (zero entries included — the evaluator relies on nonnegativity, not
    /// on skipping zeros); for sparse stores only stored neighbors.
    ///
    /// The dense arm iterates the contiguous [`DenseSim::row`] slice for
    /// `j < i` and walks the column entries with an incrementally maintained
    /// row base for `j > i`, so no per-element triangular multiply occurs.
    #[inline]
    pub fn for_neighbors(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        match self {
            ContextSim::Dense(d) => {
                for (j, &s) in d.row(i).iter().enumerate() {
                    f(j, s as f64);
                }
                let tri = d.raw_tri();
                let mut base = i * (i + 1) / 2;
                for j in i + 1..d.len() {
                    f(j, tri[base + i] as f64);
                    base += j;
                }
            }
            ContextSim::Sparse(s) => {
                let (ids, sims) = s.neighbors(i);
                for (&j, &sim) in ids.iter().zip(sims) {
                    f(j as usize, sim as f64);
                }
            }
            ContextSim::Unit(n) => {
                for j in 0..*n {
                    if j != i {
                        f(j, 1.0);
                    }
                }
            }
        }
    }

    /// Number of stored (unordered) nonzero pairs — a measure of how much
    /// work each marginal-gain evaluation performs.
    pub fn nonzero_pairs(&self) -> usize {
        match self {
            ContextSim::Dense(d) => d.nonzero_pairs(),
            ContextSim::Sparse(s) => s.nonzero_pairs(),
            ContextSim::Unit(n) => n * n.saturating_sub(1) / 2,
        }
    }

    /// Applies τ-sparsification, producing a store with all similarities
    /// `< tau` dropped. Zero-similarity entries are dropped on every arm
    /// (stored zeros and absent pairs are semantically identical).
    pub fn sparsify(&self, tau: f64) -> ContextSim {
        match self {
            ContextSim::Unit(n) => {
                if tau <= 1.0 {
                    ContextSim::Unit(*n)
                } else {
                    ContextSim::Sparse(SparseSim::empty(*n))
                }
            }
            ContextSim::Dense(d) => ContextSim::Sparse(d.sparsify(tau)),
            ContextSim::Sparse(s) => ContextSim::Sparse(s.sparsify(tau)),
        }
    }

    /// The τ-coverage store: [`ContextSim::sparsify`] at `tau`, then every
    /// kept similarity set to 1, so a member covers exactly itself and the
    /// co-members it keeps a pair with. A `Unit` store stays `Unit` for
    /// τ ≤ 1.
    pub fn coverage(&self, tau: f64) -> ContextSim {
        match self.sparsify(tau) {
            ContextSim::Sparse(mut s) => {
                s.sim.fill(1.0);
                ContextSim::Sparse(s)
            }
            unit => unit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subset3() -> Subset {
        Subset {
            id: SubsetId(0),
            label: "t".into(),
            weight: 1.0,
            members: vec![PhotoId(0), PhotoId(1), PhotoId(2)],
            relevance: vec![0.4, 0.3, 0.3].into(),
        }
    }

    fn empty_subset() -> Subset {
        Subset {
            id: SubsetId(0),
            label: "e".into(),
            weight: 1.0,
            members: vec![],
            relevance: Vec::new().into(),
        }
    }

    #[test]
    fn dense_from_provider_is_symmetric() {
        let q = subset3();
        let prov =
            FnSimilarity(|_, a: PhotoId, b: PhotoId| 1.0 / (1.0 + (a.0 as f64 - b.0 as f64).abs()));
        let d = DenseSim::from_provider(&q, &prov).unwrap();
        assert_eq!(d.sim(0, 0), 1.0);
        assert!((d.sim(0, 1) - 0.5).abs() < 1e-6);
        assert_eq!(d.sim(0, 1), d.sim(1, 0));
        assert!((d.sim(0, 2) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn dense_rejects_out_of_range() {
        let q = subset3();
        let bad = FnSimilarity(|_, _, _| 1.5);
        assert!(matches!(
            DenseSim::from_provider(&q, &bad),
            Err(ModelError::InvalidSimilarity { .. })
        ));
    }

    #[test]
    fn empty_subset_stores_work() {
        // Regression: `n*(n-1)/2` capacity math underflowed in debug builds
        // when n == 0.
        let q = empty_subset();
        let d = DenseSim::from_provider(&q, &UnitSimilarity).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.nonzero_pairs(), 0);
        let s = d.sparsify(0.5);
        assert!(s.is_empty());
        assert_eq!(s.nonzero_pairs(), 0);
        let m = DenseSim::from_matrix(SubsetId(0), 0, &[]).unwrap();
        assert!(m.is_empty());
        let sp = SparseSim::from_pairs(SubsetId(0), 0, vec![]).unwrap();
        assert!(sp.is_empty());
        assert_eq!(SparseSim::default().len(), 0);
    }

    #[test]
    fn dense_row_and_raw_tri_match_sim() {
        let q = subset3();
        let prov =
            FnSimilarity(|_, a: PhotoId, b: PhotoId| 1.0 / (1.0 + (a.0 as f64 - b.0 as f64).abs()));
        let d = DenseSim::from_provider(&q, &prov).unwrap();
        assert!(d.row(0).is_empty());
        for i in 0..3 {
            let row = d.row(i);
            assert_eq!(row.len(), i);
            for (j, &s) in row.iter().enumerate() {
                assert_eq!(s as f64, d.sim(i, j));
            }
        }
        // Column walk with the documented incremental base.
        let i = 0usize;
        let tri = d.raw_tri();
        let mut base = i * (i + 1) / 2;
        for j in i + 1..d.len() {
            assert_eq!(tri[base + i] as f64, d.sim(i, j));
            base += j;
        }
    }

    #[test]
    fn sparsify_drops_below_tau() {
        let q = subset3();
        let prov = FnSimilarity(
            |_, a: PhotoId, b: PhotoId| {
                if a.0 + b.0 == 1 {
                    0.9
                } else {
                    0.2
                }
            },
        );
        let d = DenseSim::from_provider(&q, &prov).unwrap();
        let s = d.sparsify(0.5);
        assert!((s.sim(0, 1) - 0.9).abs() < 1e-6);
        assert_eq!(s.sim(0, 2), 0.0);
        assert_eq!(s.sim(1, 2), 0.0);
        assert_eq!(s.nonzero_pairs(), 1);
    }

    #[test]
    fn sparse_from_pairs_dedups_by_max() {
        let s = SparseSim::from_pairs(SubsetId(0), 3, vec![(0, 1, 0.3), (1, 0, 0.7), (0, 2, 0.0)])
            .unwrap();
        assert!((s.sim(0, 1) - 0.7).abs() < 1e-6);
        assert_eq!(s.sim(0, 2), 0.0);
        assert_eq!(s.nonzero_pairs(), 1);
        assert_eq!(s.degree(0), 1);
        assert_eq!(s.degree(2), 0);
    }

    #[test]
    fn sparse_from_pairs_rejects_out_of_range_index() {
        let err = SparseSim::from_pairs(SubsetId(3), 2, vec![(0, 5, 0.5)]).unwrap_err();
        match err {
            ModelError::PairIndexOutOfRange {
                subset,
                index,
                members,
            } => {
                assert_eq!(subset, SubsetId(3));
                assert_eq!(index, 5);
                assert_eq!(members, 2);
            }
            other => panic!("expected PairIndexOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn neighbors_iteration_matches_sim() {
        let s = SparseSim::from_pairs(
            SubsetId(0),
            4,
            vec![(0, 1, 0.5), (0, 2, 0.25), (2, 3, 0.75)],
        )
        .unwrap();
        let cs = ContextSim::Sparse(s);
        let mut seen = Vec::new();
        cs.for_neighbors(0, |j, sim| seen.push((j, sim)));
        assert_eq!(seen, vec![(1, 0.5), (2, 0.25)]);
    }

    #[test]
    fn csr_rows_are_sorted_slices() {
        let s = SparseSim::from_pairs(
            SubsetId(0),
            4,
            vec![(3, 0, 0.4), (0, 1, 0.5), (2, 0, 0.25)],
        )
        .unwrap();
        let (ids, sims) = s.neighbors(0);
        assert_eq!(ids, &[1, 2, 3]);
        assert_eq!(sims, &[0.5, 0.25, 0.4]);
        let (ids, sims) = s.neighbors(1);
        assert_eq!(ids, &[0]);
        assert_eq!(sims, &[0.5]);
    }

    #[test]
    fn dense_neighbors_visits_all_others() {
        let q = subset3();
        let d = DenseSim::from_provider(&q, &UnitSimilarity).unwrap();
        let cs = ContextSim::Dense(d);
        let mut count = 0;
        cs.for_neighbors(1, |_, sim| {
            assert_eq!(sim, 1.0);
            count += 1;
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn unit_similarity_is_one() {
        let q = subset3();
        assert_eq!(UnitSimilarity.similarity(&q, PhotoId(0), PhotoId(2)), 1.0);
    }

    #[test]
    fn context_sparsify_on_sparse_store() {
        let s = SparseSim::from_pairs(SubsetId(0), 3, vec![(0, 1, 0.9), (1, 2, 0.3)]).unwrap();
        let cs = ContextSim::Sparse(s).sparsify(0.5);
        assert_eq!(cs.sim(1, 2), 0.0);
        assert!((cs.sim(0, 1) - 0.9).abs() < 1e-6);
    }

    #[test]
    fn dense_and_sparse_sparsify_arms_agree() {
        // The Dense and Sparse sparsify arms must produce identical stores
        // from the same underlying similarities, including dropping zeros
        // even at tau = 0.
        let n = 5;
        let value = |i: usize, j: usize| -> f64 {
            match (i + j) % 4 {
                0 => 0.0,
                1 => 0.2,
                2 => 0.55,
                _ => 0.9,
            }
        };
        let mut matrix = vec![1.0f64; n * n];
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in 0..i {
                let s = value(i, j);
                matrix[i * n + j] = s;
                matrix[j * n + i] = s;
                pairs.push((j as u32, i as u32, s));
            }
        }
        let dense = ContextSim::Dense(DenseSim::from_matrix(SubsetId(0), n, &matrix).unwrap());
        let sparse =
            ContextSim::Sparse(SparseSim::from_pairs(SubsetId(0), n, pairs.clone()).unwrap());
        for tau in [0.0, 0.3, 0.6, 1.1] {
            let from_dense = dense.sparsify(tau);
            let from_sparse = sparse.sparsify(tau);
            assert_eq!(
                from_dense.nonzero_pairs(),
                from_sparse.nonzero_pairs(),
                "pair counts differ at tau={tau}"
            );
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        from_dense.sim(i, j),
                        from_sparse.sim(i, j),
                        "sim({i},{j}) differs at tau={tau}"
                    );
                }
            }
        }
    }
}
