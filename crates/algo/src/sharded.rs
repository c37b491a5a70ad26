//! Component-sharded CELF (lazy greedy over a component decomposition).
//!
//! [`sharded_lazy_greedy`] produces a **bit-identical** transcript to the
//! global [`lazy_greedy`](crate::lazy_greedy) — same photos, same order,
//! same `f64` score bits — while doing strictly less gain recomputation.
//! The photos are first labeled by [`par_core::shard_labels`] with the
//! shards that interact only through the shared budget. Each shard then runs
//! its own lazy stream (a CELF heap plus per-photo staleness stamps), and a
//! budget-aware coordinator repeatedly takes the stream whose *settled* top
//! has the maximum key, with the global heap's exact tie-break (smaller
//! photo id).
//!
//! All streams share **one** evaluator — the prepared solver's clone of the
//! post-`S₀` arena — so every gain is computed by the very same code on the
//! very same state as the global solver's, making bit-identity of scores a
//! triviality rather than a theorem about sub-instance remapping — and the
//! solver needs nothing from the decomposition beyond each photo's shard
//! label. The decomposition buys speed through what is *not* recomputed, at
//! two levels:
//!
//! 1. **Across shards**: the global heap's epoch counter advances on *every*
//!    accept, so every cached entry goes stale even when the accepted photo
//!    lives in a different component and cannot have changed its gain. A
//!    shard stream is only re-settled after an accept in its own shard, so
//!    cross-component accepts trigger no pops and no recomputes elsewhere.
//! 2. **Within a shard**: an accept only changes the gains of photos whose
//!    *read-set* it touched. A marginal gain reads exactly the photo's own
//!    coverage (`best` similarity) and its stored neighbors' coverage in
//!    each of its contexts; so when [`Evaluator::add_tracked`] reports the
//!    members whose `best` changed, bumping a version counter on each
//!    changed member *and its stored CSR neighbors* (all members, in dense
//!    contexts) marks precisely the photos whose cached gains may have
//!    moved. A popped entry whose photo's version is unchanged is guaranteed
//!    to recompute to the same key bits, so the recomputation is skipped
//!    entirely.
//! 3. **The singleton pool**: photos forming singleton components share no
//!    stored pair with anyone, so their seed keys are *frozen* — exact for
//!    the whole run. The pool's stream is a cursor over entries pre-sorted
//!    in pop order (cached per rule at prepare time) instead of a heap:
//!    pops are sequential reads with no sift-downs, no staleness checks,
//!    and pool accepts skip change-tracking and propagation outright.
//!
//! On top of removing redundant re-evaluations, the prepared
//! [`ShardedSolver`] amortizes all rule-independent work across solves: the
//! shard labeling, the `S₀` replay, and the epoch-0 seed sweep (marginal
//! gains at the post-`S₀` state do not depend on the greedy rule; each
//! solve derives its keys as `rule.key(δ, cost)` exactly as the global
//! seeding does). Algorithm 1 runs both rules, so its sharded form pays for
//! one seed sweep instead of two.
//!
//! Why the transcript is identical: at every step, global CELF selects the
//! photo with the maximum *current* key among unselected photos affordable
//! under the remaining budget (lazy acceptance is exact by submodularity),
//! breaking ties toward the smaller id; photos found unaffordable are
//! dropped permanently (costs only grow). A settled shard stream parks its
//! shard's true argmax under the same rule: cached keys are upper bounds
//! (gains only shrink as the solution grows), current-stamp entries carry
//! exact keys, and when the global loop recomputes a stale-but-unchanged
//! top it re-pushes the identical `(key, photo)` and accepts it on the next
//! pop — the very photo the stamp check parks without recomputing. A parked
//! candidate can never go stale while parked: only accepts in its own shard
//! touch its read-set, and its shard only accepts the parked candidate
//! itself. The coordinator's max-heap over parked candidates therefore
//! selects the same global argmax, re-checking affordability at pop time
//! exactly where the global loop does.
//!
//! Per-component stream construction (keying the cached seed gains and
//! heapifying) is dispatched through `par-exec`, so multi-core runs scale
//! with component count; the coordinator itself is sequential by nature
//! (each accept must observe the previous one), and the serial fallback is
//! transcript-identical because heap *pop order* is fully determined by the
//! entry ordering, not by construction order.

use crate::celf::Entry;
use crate::types::{GreedyOutcome, RunStats};
use crate::GreedyRule;
use par_core::{
    shard_labels, ContextSim, EvalArena, EvalStats, Evaluator, Instance, PhotoId, ShardLabels,
    SubsetId,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Reusable solver buffers for multi-tenant (fleet) runs: the evaluator
/// arenas, per-shard stream entry buffers, staleness stamps, and the
/// change-tracking list that [`ShardedSolver`] otherwise allocates fresh on
/// every prepare + solve.
///
/// One `SolveScratch` serves any sequence of tenants: buffers grow to the
/// largest instance seen and are reused (cleared, then fully rewritten) for
/// each subsequent one. Like [`EvalArena`], the scratch holds *capacity
/// only*, so [`ShardedSolver::solve_scratch`] is bit-identical to
/// [`ShardedSolver::solve`] no matter what ran in the scratch before — the
/// invariant the fleet determinism tests pin.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// Capacity for the prepared solver's base (post-`S₀`) evaluator.
    base_eval: EvalArena,
    /// Capacity for the per-solve evaluator clone.
    solve_eval: EvalArena,
    /// Recycled per-shard stream entry buffers (heap backing stores and
    /// frozen pool vectors alike).
    entries: Vec<Vec<Entry>>,
    /// Per-photo staleness versions.
    ver: Vec<u32>,
    /// Coverage-change report buffer for `add_tracked`.
    changed: Vec<(SubsetId, u32)>,
}

impl SolveScratch {
    /// An empty scratch; buffers are allocated on first use and kept.
    pub fn new() -> Self {
        Self::default()
    }
}


/// One per-component lazy stream: a CELF heap over the shard's photos
/// (global ids) and the parked settled top.
///
/// Instead of the global CELF's single epoch (every accept invalidates every
/// cached entry), each *subset* carries a version counter — `ver` in
/// [`ShardedSolver::solve_with`] — bumped when an accept changes any of its
/// members' coverage. A cached entry stores its photo's stamp
/// ([`photo_stamp`]) at compute time; the entry is exactly current while the
/// stamp is unchanged, because a marginal gain reads only the coverage
/// state of the photo's own contexts. Popping a current entry therefore
/// skips the gain recomputation the global loop would have paid, with a
/// bit-identical key.
struct ShardStream {
    state: StreamState,
    /// The settled top: current (stamp-validated) and affordable at settle
    /// time. `None` once the stream is drained.
    candidate: Option<Entry>,
    pq_pops: u64,
}

/// The backing store of a shard stream.
enum StreamState {
    /// A CELF max-heap: entries go stale and are re-keyed via the staleness
    /// stamps.
    Heap(BinaryHeap<Entry>),
    /// The singleton pool's stream: a cursor over entries pre-sorted in pop
    /// order (descending [`Entry`] order — max key, ties to the smaller id).
    ///
    /// A pool photo shares no stored similarity pair with any other photo
    /// (it forms a singleton interaction component), so its marginal gain
    /// reads only its own coverage, which no other photo's accept can raise
    /// — every other photo's similarity to it is unstored, hence zero. Its
    /// seed key is therefore **exact forever**: no staleness check, no
    /// recomputation, and a sorted cursor pops in exactly the heap's order
    /// with sequential memory access instead of `O(log n)` sift-downs
    /// through a pool-sized heap.
    Frozen { entries: Vec<Entry>, cursor: usize },
}

impl ShardStream {
    /// Advances until the top entry is current (its cached stamp matches;
    /// frozen entries are always current) and affordable, parking it as the
    /// candidate. Photos popped while unaffordable are dropped permanently —
    /// the remaining budget only shrinks, exactly the global loop's drop
    /// rule.
    // phocus-lint: hot-kernel — CELF stream advance; runs once per merge-heap pop
    fn settle(
        &mut self,
        inst: &Instance,
        ev: &Evaluator<'_>,
        ver: &[u32],
        budget: u64,
        rule: GreedyRule,
    ) {
        debug_assert!(self.candidate.is_none());
        match &mut self.state {
            StreamState::Heap(heap) => {
                while let Some(top) = heap.pop() {
                    self.pq_pops += 1;
                    let p = top.photo;
                    if ev.is_selected(p) {
                        continue;
                    }
                    if !ev.fits(p, budget) {
                        continue;
                    }
                    let stamp = ver[p.index()];
                    if top.epoch == stamp {
                        self.candidate = Some(top);
                        return;
                    }
                    let delta = ev.gain(p);
                    heap.push(Entry {
                        key: rule.key(delta, inst.cost(p)),
                        photo: p,
                        epoch: stamp,
                    });
                }
            }
            StreamState::Frozen { entries, cursor } => {
                while let Some(&top) = entries.get(*cursor) {
                    *cursor += 1;
                    self.pq_pops += 1;
                    if ev.is_selected(top.photo) {
                        continue;
                    }
                    if !ev.fits(top.photo, budget) {
                        continue;
                    }
                    self.candidate = Some(top);
                    return;
                }
            }
        }
    }
}

/// A coordinator heap entry: a shard's settled top, keyed for the merged
/// argmax with the same ordering as the global CELF heap (max key, ties to
/// the smaller photo id). Shared with the epoch-replay coordinator in
/// [`crate::incremental`].
pub(crate) struct MergeEntry {
    pub(crate) key: f64,
    pub(crate) photo: PhotoId,
    pub(crate) shard: u32,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.photo == other.photo
    }
}
impl Eq for MergeEntry {}
impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then_with(|| other.photo.cmp(&self.photo))
    }
}

/// A reusable component-sharded solver: labels the instance's shards,
/// replays `S₀`, and runs the rule-independent seed sweep **once**, then
/// solves any number of times (e.g. under both greedy rules, as
/// [`main_algorithm_sharded`](crate::main_algorithm_sharded) does).
#[derive(Debug)]
pub struct ShardedSolver<'a> {
    inst: &'a Instance,
    labels: ShardLabels,
    /// The shared arena with `S₀` replayed; cloned per solve (the clone
    /// shares the offset/weight layout and copies only the mutable state).
    base: Evaluator<'a>,
    /// Instrumentation already spent building `base` (subtracted from each
    /// solve's reported stats so they count per-solve work only).
    base_stats: EvalStats,
    /// Epoch-0 marginal gains of every unselected affordable photo at the
    /// post-`S₀` state, pre-partitioned by shard with ascending photo id
    /// within each shard. Rule-independent: each solve derives its heap keys
    /// as `rule.key(δ, cost)`, bit-identical to the global seeding.
    seed_by_shard: Vec<Vec<(PhotoId, f64)>>,
    /// The singleton pool's seed entries pre-sorted in pop order, one vector
    /// per greedy rule (indexed by [`rule_index`]). Pool keys are frozen —
    /// see [`StreamState::Frozen`] — so a cold solve memcpys the right
    /// vector instead of re-keying and heapifying the (often largest) shard.
    pool_sorted: Option<[Vec<Entry>; 2]>,
}

/// Index of `rule` into per-rule caches ([`ShardedSolver::pool_sorted`],
/// the epoch layer's transcript caches).
#[inline]
pub(crate) fn rule_index(rule: GreedyRule) -> usize {
    match rule {
        GreedyRule::UnitCost => 0,
        GreedyRule::CostBenefit => 1,
    }
}

impl<'a> ShardedSolver<'a> {
    /// Labels `inst`'s photo–query components and prepares the shared
    /// post-`S₀` state: the evaluator arena and the seed-gain sweep (one
    /// parallel batch through `par-exec`).
    pub fn new(inst: &'a Instance) -> Self {
        Self::build(inst, shard_labels(inst), &mut EvalArena::new())
    }

    /// [`new`](Self::new) drawing the base evaluator's buffers from
    /// `scratch`. Bit-identical preparation; pair with
    /// [`recycle`](Self::recycle) to return the buffers afterwards.
    pub fn new_in(inst: &'a Instance, scratch: &mut SolveScratch) -> Self {
        Self::build(inst, shard_labels(inst), &mut scratch.base_eval)
    }

    /// [`new_in`](Self::new_in) with the component labeling precomputed —
    /// resident labels from the epoch layer or labels bulk-read from a
    /// `phocus-pack` file skip the union-find pass of [`shard_labels`]. The
    /// labels must equal `shard_labels(inst)` (the pack writer derives them
    /// exactly so); everything downstream is bit-identical to
    /// [`new`](Self::new).
    pub fn new_in_with_labels(
        inst: &'a Instance,
        labels: ShardLabels,
        scratch: &mut SolveScratch,
    ) -> Self {
        debug_assert_eq!(labels.photo_shards().len(), inst.num_photos());
        Self::build(inst, labels, &mut scratch.base_eval)
    }

    fn build(inst: &'a Instance, labels: ShardLabels, arena: &mut EvalArena) -> Self {
        let mut base = Evaluator::new_in(inst, arena);
        for &p in inst.required() {
            base.add(p);
        }
        // The seed sweep covers *every* unselected photo, not just the ones
        // affordable under the instance budget: affordability is applied at
        // stream-build time against the budget of each individual solve, so
        // one prepared solver serves a whole budget sweep
        // ([`solve_with_budget`](Self::solve_with_budget)) and the epoch
        // layer's replay caches stay valid across budget changes.
        let candidates: Vec<PhotoId> = (0..inst.num_photos() as u32)
            .map(PhotoId)
            .filter(|&p| !base.is_selected(p))
            .collect(); // phocus-lint: allow(alloc-hot) — stream construction, once per run, not the pop loop
        let gains = base.batch_gains(&candidates);
        // phocus-lint: allow(alloc-hot) — stream construction, once per run
        let mut seed_by_shard: Vec<Vec<(PhotoId, f64)>> = vec![Vec::new(); labels.num_shards()];
        for (&p, &delta) in candidates.iter().zip(&gains) {
            seed_by_shard[labels.shard_of(p)].push((p, delta));
        }
        let base_stats = base.stats();
        let pool_sorted = labels.singleton_pool().map(|pool| {
            [GreedyRule::UnitCost, GreedyRule::CostBenefit].map(|rule| {
                let mut entries: Vec<Entry> = seed_by_shard[pool]
                    .iter()
                    .map(|&(p, delta)| Entry {
                        key: rule.key(delta, inst.cost(p)),
                        photo: p,
                        epoch: 0,
                    })
                    .collect(); // phocus-lint: allow(alloc-hot) — pool seed sort, once per run
                entries.sort_unstable_by(|a, b| b.cmp(a));
                entries
            })
        });
        ShardedSolver {
            inst,
            labels,
            base,
            base_stats,
            seed_by_shard,
            pool_sorted,
        }
    }

    /// The shard labeling the solver runs on.
    pub fn labels(&self) -> &ShardLabels {
        &self.labels
    }

    /// Sharded equivalent of [`lazy_greedy`](crate::lazy_greedy).
    pub fn solve(&self, rule: GreedyRule) -> GreedyOutcome {
        self.solve_inner(None, rule, None, self.inst.budget())
    }

    /// [`solve`](Self::solve) under an arbitrary budget `B'` instead of the
    /// instance's own: bit-identical to solving `inst.with_budget(B')` from
    /// scratch, but reusing this solver's shard labels, `S₀` replay and
    /// seed sweep (all budget-independent). This is what lets a sorted
    /// budget sweep — [`quality_curve`](crate::quality_curve) — prepare the
    /// sharded solver once.
    pub fn solve_with_budget(&self, rule: GreedyRule, budget: u64) -> GreedyOutcome {
        self.solve_inner(None, rule, None, budget)
    }

    /// Sharded equivalent of [`lazy_greedy_from`](crate::lazy_greedy_from):
    /// resumes from an arbitrary initial selection. The cached seed gains do
    /// not apply to a warm start (they were computed at the post-`S₀` state),
    /// so this path pays its own seed sweep, like the global solver.
    pub fn solve_from(&self, initial: &[PhotoId], rule: GreedyRule) -> GreedyOutcome {
        self.solve_inner(Some(initial), rule, None, self.inst.budget())
    }

    /// [`solve`](Self::solve) drawing every per-solve allocation (evaluator
    /// clone, stream entry buffers, staleness stamps, change list) from
    /// `scratch`, and returning the capacity there afterwards. Bit-identical
    /// to `solve` — see [`SolveScratch`].
    pub fn solve_scratch(&self, rule: GreedyRule, scratch: &mut SolveScratch) -> GreedyOutcome {
        self.solve_inner(None, rule, Some(scratch), self.inst.budget())
    }

    /// Returns the prepared base evaluator's buffers to `scratch` for the
    /// next tenant. Call after the last solve against this solver.
    pub fn recycle(self, scratch: &mut SolveScratch) {
        self.base.recycle(&mut scratch.base_eval);
    }

    fn solve_inner(
        &self,
        initial: Option<&[PhotoId]>,
        rule: GreedyRule,
        mut scratch: Option<&mut SolveScratch>,
        budget: u64,
    ) -> GreedyOutcome {
        let start = Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported timing field only
        let inst = self.inst;
        let labels = &self.labels;
        let mut ev = match scratch.as_deref_mut() {
            Some(sc) => self.base.clone_in(&mut sc.solve_eval),
            None => self.base.clone(),
        };

        // The per-shard seed gains: the prepared sweep for a cold solve, or
        // a fresh sweep at the warm-started state. Either way the entries
        // within a shard are in ascending photo id, mirroring the global
        // seeding scan order.
        let warm_seeds: Option<Vec<Vec<(PhotoId, f64)>>> = initial.map(|init| {
            for &p in init {
                ev.add(p);
            }
            let candidates: Vec<PhotoId> = (0..inst.num_photos() as u32)
                .map(PhotoId)
                .filter(|&p| !ev.is_selected(p) && ev.fits(p, budget))
                .collect();
            let gains = ev.batch_gains(&candidates);
            let mut by_shard = vec![Vec::new(); labels.num_shards()];
            for (&p, &delta) in candidates.iter().zip(&gains) {
                by_shard[labels.shard_of(p)].push((p, delta));
            }
            by_shard
        });
        let seeds = warm_seeds.as_ref().unwrap_or(&self.seed_by_shard);

        // Build the per-shard streams. `make_stream` writes into a caller-
        // provided buffer (empty on the fresh-allocation path, recycled on
        // the scratch path) with identical entry values either way; with a
        // scratch the shards are built serially so the recycled buffers can
        // rotate through, without one they fan out through par-exec. Pop
        // order is fully determined by the entry ordering, so all three
        // paths are transcript-identical.
        let pool = labels.singleton_pool();
        // The prepared seeds cover every unselected photo; affordability is
        // applied here against *this solve's* budget. At stream-build time
        // the evaluator holds exactly the state the seeds were swept at
        // (post-`S₀`, or the warm start), so `ev.fits` reproduces the filter
        // the global seeding applies, for any budget.
        let seed_ref = &ev;
        let make_stream = |s: usize, mut buf: Vec<Entry>| -> ShardStream {
            buf.clear();
            if Some(s) == pool {
                // Frozen pool stream: reuse the pre-sorted entries on the
                // cold path; a warm start re-keys at the warm state (pool
                // keys are frozen from the seed sweep on, whatever the
                // initial selection) and sorts into pop order. Filtering the
                // pre-sorted entries preserves their pop order.
                match (&self.pool_sorted, initial.is_none()) {
                    (Some(per_rule), true) => {
                        buf.extend(
                            per_rule[rule_index(rule)]
                                .iter()
                                .filter(|e| seed_ref.fits(e.photo, budget))
                                .copied(),
                        );
                    }
                    _ => {
                        buf.extend(seeds[s].iter().filter_map(|&(p, delta)| {
                            seed_ref.fits(p, budget).then_some(Entry {
                                key: rule.key(delta, inst.cost(p)),
                                photo: p,
                                epoch: 0,
                            })
                        }));
                        buf.sort_unstable_by(|a, b| b.cmp(a));
                    }
                }
                return ShardStream {
                    state: StreamState::Frozen {
                        entries: buf,
                        cursor: 0,
                    },
                    candidate: None,
                    pq_pops: 0,
                };
            }
            buf.extend(seeds[s].iter().filter_map(|&(p, delta)| {
                seed_ref.fits(p, budget).then_some(Entry {
                    key: rule.key(delta, inst.cost(p)),
                    photo: p,
                    epoch: 0,
                })
            }));
            ShardStream {
                state: StreamState::Heap(BinaryHeap::from(buf)),
                candidate: None,
                pq_pops: 0,
            }
        };
        let mut streams: Vec<ShardStream> = match scratch.as_deref_mut() {
            Some(sc) => (0..labels.num_shards())
                .map(|s| make_stream(s, sc.entries.pop().unwrap_or_default()))
                .collect(),
            None => par_exec::par_map_indexed(labels.num_shards(), |s| make_stream(s, Vec::new())),
        };

        // Per-photo staleness versions; all zero, matching the epoch-0 seed
        // entries.
        let (mut ver, mut changed) = match scratch.as_deref_mut() {
            Some(sc) => {
                let mut ver = std::mem::take(&mut sc.ver);
                ver.clear();
                ver.resize(inst.num_photos(), 0);
                let mut changed = std::mem::take(&mut sc.changed);
                changed.clear();
                (ver, changed)
            }
            None => (vec![0u32; inst.num_photos()], Vec::new()),
        };

        // The merged frontier: at most one settled candidate per shard.
        let mut merge: BinaryHeap<MergeEntry> = BinaryHeap::new();
        for (s, stream) in streams.iter_mut().enumerate() {
            stream.settle(inst, &ev, &ver, budget, rule);
            if let Some(c) = &stream.candidate {
                merge.push(MergeEntry {
                    key: c.key,
                    photo: c.photo,
                    shard: s as u32, // phocus-lint: allow(cast-bounds) — shard count ≤ photo count, u32 by id width
                });
            }
        }

        let mut merge_pops = 0u64;
        let mut lazy_accepts = 0u64;
        while let Some(top) = merge.pop() {
            merge_pops += 1;
            let s = top.shard as usize;
            streams[s].candidate = None;
            if ev.fits(top.photo, budget) {
                lazy_accepts += 1;
                if Some(s) == pool {
                    // A pool accept raises only its own coverage (no stored
                    // pair links it to anyone), and the frozen pool stream
                    // never reads stamps: no propagation to do.
                    ev.add(top.photo);
                } else {
                    // Accept, then bump the version of every photo whose
                    // gain read-set the add touched.
                    changed.clear();
                    ev.add_tracked(top.photo, |q, j| changed.push((q, j)));
                    propagate_changes(inst, &changed, &mut ver);
                }
            }
            // Otherwise: parked before the budget tightened; global CELF
            // drops such photos at pop time, and they can never fit again.
            streams[s].settle(inst, &ev, &ver, budget, rule);
            if let Some(c) = &streams[s].candidate {
                merge.push(MergeEntry {
                    key: c.key,
                    photo: c.photo,
                    shard: top.shard,
                });
            }
        }

        let st = ev.stats();
        let pq_pops = merge_pops + streams.iter().map(|s| s.pq_pops).sum::<u64>();
        let outcome = GreedyOutcome {
            score: ev.score(),
            cost: ev.cost(),
            selected: ev.selected_ids().to_vec(),
            stats: RunStats {
                // Per-solve work only: the prepared `S₀` replay and seed
                // sweep are amortized across solves and not re-counted.
                gain_evals: st.gain_evals - self.base_stats.gain_evals,
                sim_ops: st.sim_ops - self.base_stats.sim_ops,
                pq_pops,
                lazy_accepts,
                elapsed: start.elapsed(),
            },
        };
        if let Some(sc) = scratch {
            ev.recycle(&mut sc.solve_eval);
            sc.ver = ver;
            sc.changed = changed;
            for stream in streams {
                let buf = match stream.state {
                    StreamState::Heap(heap) => heap.into_vec(),
                    StreamState::Frozen { entries, .. } => entries,
                };
                sc.entries.push(buf);
            }
        }
        outcome
    }
}

/// Bumps the staleness version of every photo whose gain read-set an accept
/// touched, given the coverage changes [`Evaluator::add_tracked`] reported
/// (grouped by subset, in report order).
///
/// Per changed subset the cheaper propagation wins: walk the changed
/// members' stored rows — a gain reads exactly its own and its stored
/// neighbors' coverage — or, when those rows are longer than the context
/// (or the context is dense/unit, where one change dirties every member),
/// bump every member once. Both mark a superset of the affected photos, so
/// invalidation never costs more than O(|q|) per changed context. Shared by
/// the prepared solver and the epoch-replay coordinator in
/// [`crate::incremental`].
pub(crate) fn propagate_changes(inst: &Instance, changed: &[(SubsetId, u32)], ver: &mut [u32]) {
    let mut i = 0;
    while i < changed.len() {
        let q = changed[i].0;
        let mut end = i + 1;
        while end < changed.len() && changed[end].0 == q {
            end += 1;
        }
        let group = &changed[i..end];
        let members = &inst.subset(q).members;
        let precise = match inst.sim(q) {
            ContextSim::Sparse(sp) => {
                let walk: usize = group
                    .iter()
                    .map(|&(_, j)| sp.neighbors(j as usize).0.len() + 1)
                    .sum();
                (walk < members.len()).then_some(sp)
            }
            _ => None,
        };
        match precise {
            Some(sp) => {
                for &(_, j) in group {
                    let m = members[j as usize].index();
                    ver[m] = ver[m].wrapping_add(1);
                    for &k in sp.neighbors(j as usize).0 {
                        let n = members[k as usize].index();
                        ver[n] = ver[n].wrapping_add(1);
                    }
                }
            }
            None => {
                for &m in members {
                    ver[m.index()] = ver[m.index()].wrapping_add(1);
                }
            }
        }
        i = end;
    }
}

/// Runs the component-sharded CELF on `inst` with its budget. Bit-identical
/// transcript to [`lazy_greedy`](crate::lazy_greedy), faster on instances
/// with more than one component.
pub fn sharded_lazy_greedy(inst: &Instance, rule: GreedyRule) -> GreedyOutcome {
    ShardedSolver::new(inst).solve(rule)
}

/// [`sharded_lazy_greedy`] resuming from an arbitrary initial selection;
/// bit-identical to [`lazy_greedy_from`](crate::lazy_greedy_from).
pub fn sharded_lazy_greedy_from(
    inst: &Instance,
    initial: &[PhotoId],
    rule: GreedyRule,
) -> GreedyOutcome {
    ShardedSolver::new(inst).solve_from(initial, rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy_greedy;
    use crate::lazy_greedy_from;
    use par_core::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};

    fn assert_transcripts_match(inst: &Instance) {
        for rule in [GreedyRule::UnitCost, GreedyRule::CostBenefit] {
            let global = lazy_greedy(inst, rule);
            let sharded = sharded_lazy_greedy(inst, rule);
            assert_eq!(sharded.selected, global.selected, "selection diverged ({rule:?})");
            assert_eq!(
                sharded.score.to_bits(),
                global.score.to_bits(),
                "score bits diverged ({rule:?}): {} vs {}",
                sharded.score,
                global.score
            );
            assert_eq!(sharded.cost, global.cost);
        }
    }

    #[test]
    fn figure1_transcripts_match() {
        for budget in [2 * MB, 3 * MB, 4 * MB, u64::MAX] {
            assert_transcripts_match(&figure1_instance(budget));
        }
    }

    #[test]
    fn dense_and_sparse_random_transcripts_match() {
        for seed in 0..4 {
            let inst = random_instance(seed, &RandomInstanceConfig::default());
            assert_transcripts_match(&inst);
            assert_transcripts_match(&inst.sparsify(0.8));
            assert_transcripts_match(&inst.with_unit_sims());
        }
    }

    #[test]
    fn required_photos_and_tight_budgets_match() {
        let cfg = RandomInstanceConfig {
            photos: 60,
            subsets: 15,
            required_prob: 0.1,
            budget_fraction: 0.25,
            ..Default::default()
        };
        for seed in 0..4 {
            let inst = random_instance(seed, &cfg);
            assert_transcripts_match(&inst.sparsify(0.85));
        }
    }

    #[test]
    fn warm_start_matches_lazy_greedy_from() {
        let inst = random_instance(11, &RandomInstanceConfig::default()).sparsify(0.8);
        // Warm-start from the first few CB picks (a superset of S₀).
        let warm = lazy_greedy(&inst, GreedyRule::CostBenefit);
        let initial: Vec<PhotoId> = warm.selected.iter().copied().take(4).collect();
        for rule in [GreedyRule::UnitCost, GreedyRule::CostBenefit] {
            let global = lazy_greedy_from(&inst, &initial, rule);
            let sharded = sharded_lazy_greedy_from(&inst, &initial, rule);
            assert_eq!(sharded.selected, global.selected);
            assert_eq!(sharded.score.to_bits(), global.score.to_bits());
        }
    }

    #[test]
    fn scratch_solve_is_bit_identical_across_reused_tenants() {
        // One scratch, several differently shaped "tenants" in sequence:
        // each prepare + solve through the dirty scratch must match the
        // fresh-allocation path bit for bit.
        let mut scratch = SolveScratch::new();
        let tenants = [
            random_instance(3, &RandomInstanceConfig::default()),
            random_instance(
                9,
                &RandomInstanceConfig {
                    photos: 40,
                    subsets: 8,
                    budget_fraction: 0.3,
                    ..Default::default()
                },
            )
            .sparsify(0.8),
            figure1_instance(3 * MB),
        ];
        for inst in &tenants {
            for rule in [GreedyRule::UnitCost, GreedyRule::CostBenefit] {
                let fresh_solver = ShardedSolver::new(inst);
                let fresh = fresh_solver.solve(rule);
                let solver = ShardedSolver::new_in(inst, &mut scratch);
                let reused = solver.solve_scratch(rule, &mut scratch);
                solver.recycle(&mut scratch);
                assert_eq!(reused.selected, fresh.selected, "selection ({rule:?})");
                assert_eq!(reused.score.to_bits(), fresh.score.to_bits());
                assert_eq!(reused.cost, fresh.cost);
                assert_eq!(reused.stats.gain_evals, fresh.stats.gain_evals);
                assert_eq!(reused.stats.pq_pops, fresh.stats.pq_pops);
            }
        }
        assert!(
            !scratch.entries.is_empty(),
            "solve_scratch must return entry buffers for reuse"
        );
    }

    #[test]
    fn main_algorithm_scratch_matches_sharded() {
        let mut scratch = SolveScratch::new();
        for seed in 0..3 {
            let inst = random_instance(seed, &RandomInstanceConfig::default()).sparsify(0.85);
            let fresh = crate::main_algorithm_sharded(&inst);
            let reused = crate::main_algorithm_scratch(&inst, &mut scratch);
            assert_eq!(reused.best.selected, fresh.best.selected);
            assert_eq!(reused.best.score.to_bits(), fresh.best.score.to_bits());
            assert_eq!(reused.winner, fresh.winner);
        }
    }

    #[test]
    fn solve_with_budget_matches_rebuilt_solver() {
        // One prepared solver swept over many budgets must match a solver
        // prepared per budget (and hence, transitively, the global CELF).
        let inst = random_instance(17, &RandomInstanceConfig::default()).sparsify(0.8);
        let solver = ShardedSolver::new(&inst);
        let lo = inst.required_cost();
        let hi = inst.total_cost();
        for step in 0..6u64 {
            let budget = lo + (hi - lo) * step / 5;
            let scoped = inst.with_budget(budget).unwrap();
            let fresh_solver = ShardedSolver::new(&scoped);
            for rule in [GreedyRule::UnitCost, GreedyRule::CostBenefit] {
                let swept = solver.solve_with_budget(rule, budget);
                let fresh = fresh_solver.solve(rule);
                assert_eq!(swept.selected, fresh.selected, "budget {budget} ({rule:?})");
                assert_eq!(swept.score.to_bits(), fresh.score.to_bits());
                assert_eq!(swept.cost, fresh.cost);
            }
        }
    }

    #[test]
    fn sharded_recomputes_less_on_multi_component_instances() {
        let inst = random_instance(5, &RandomInstanceConfig::default()).sparsify(0.85);
        let solver = ShardedSolver::new(&inst);
        if solver.labels().num_shards() < 2 {
            return; // nothing to save on a single component
        }
        let global = lazy_greedy(&inst, GreedyRule::CostBenefit);
        let sharded = solver.solve(GreedyRule::CostBenefit);
        assert!(
            sharded.stats.gain_evals <= global.stats.gain_evals,
            "sharded {} vs global {}",
            sharded.stats.gain_evals,
            global.stats.gain_evals
        );
    }
}
