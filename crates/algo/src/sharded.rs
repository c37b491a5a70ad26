//! Component-sharded CELF (lazy greedy over a component decomposition).
//!
//! [`sharded_lazy_greedy`] produces a **bit-identical** transcript to the
//! global [`lazy_greedy`](crate::lazy_greedy) — same photos, same order,
//! same `f64` score bits — while doing strictly less gain recomputation.
//! The photos are first labeled by [`par_core::shard_labels`] with the
//! shards that interact only through the shared budget. Each shard then runs
//! its own lazy stream, and a budget-aware coordinator repeatedly takes the
//! stream whose *settled* top has the maximum key, with the global heap's
//! exact tie-break (smaller photo id). This file is the crate's one such
//! coordinator: one-shot solves and the epoch-resident
//! [`ArchiveSession`](crate::ArchiveSession) both run it.
//!
//! All streams share **one** evaluator — the prepared solver's clone of the
//! post-`S₀` arena — so every gain is computed by the very same code on the
//! very same state as the global solver's, making bit-identity of scores a
//! triviality rather than a theorem about sub-instance remapping — and the
//! solver needs nothing from the decomposition beyond each photo's shard
//! label. The decomposition buys speed through what is *not* recomputed, at
//! three levels:
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
//!    the whole run. The pool's stream is a cursor over entries sorted into
//!    pop order when the run starts, instead of a heap: pops are sequential
//!    reads with no sift-downs, no staleness checks, and pool accepts skip
//!    change-tracking and propagation outright.
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
//! # Streams
//!
//! A shard's stream is one of three kinds (`StreamState`): a CELF heap
//! with staleness stamps, the pool's frozen cursor, or a *replayed
//! transcript* — the resident solver's way of skipping a clean shard's
//! work (below). Every run builds its streams in one serial loop, from
//! scratch buffers or fresh ones; the coordinator is sequential by nature
//! (each accept must observe the previous one), and heap *pop order* is
//! fully determined by the entry ordering, not by construction order, so
//! neither the buffers nor the thread count can show in a transcript.
//!
//! # Transcript replay
//!
//! A solver prepared by the epoch layer ([`crate::incremental`]) records,
//! for every non-pool shard, the stream's *observable* events:
//! `TEvent::Drop` when the stream pops a photo that no longer fits the
//! remaining budget (dropped permanently — the global rule), and
//! `TEvent::Cand` when the coordinator pops a parked candidate, with the
//! key it carried and whether it was accepted. Internal heap mechanics —
//! stale re-keys, `is_selected` skips — are *not* recorded: for a clean
//! shard they are a deterministic function of the intra-shard accept
//! history, which is exactly what the replay reproduces.
//!
//! The next epoch starts a clean shard's stream on its transcript. The
//! recorded keys are still exact **as long as the run unfolds the same
//! way**, which every replayed event re-verifies against current reality:
//!
//! * `Drop(p)`: if `p` still does not fit, consume and re-record; if it fits
//!   now (the budget trajectory loosened), the transcript is missing `p`'s
//!   candidacies — **go live** without consuming.
//! * `Cand { photo, key, accepted }`: park `(key, photo)`. When the
//!   coordinator pops it, compare the recorded flag with the current
//!   affordability: on agreement the replay continues (accepts apply the
//!   photo, drops are free); on disagreement the remaining events describe a
//!   different trajectory — apply the *current* outcome, then **go live**.
//!
//! Going live rebuilds the shard's heap from scratch over its unselected,
//! still-affordable photos with freshly computed gains — the exact-argmax
//! state the from-scratch settle loop reaches by lazy means, so the
//! coordinator cannot tell the difference. Dropped photos never re-enter
//! (costs only grow), and interposed replay candidacies that end in drops
//! are cost- and coverage-neutral, so they cannot perturb the accept
//! sequence. Replay accepts use the plain [`Evaluator::add`]: coverage
//! changes are always intra-shard and replay streams read no staleness
//! stamps, so there is nothing to propagate.
//!
//! The singleton pool keeps no transcript. A pool photo's seed gain `Σ W·R`
//! is state-independent (it shares no stored similarity with anyone), so
//! the epoch layer caches it per photo and the pool stream is rebuilt each
//! run by filtering and sorting — a total order over distinct photos, hence
//! bit-identical to the from-scratch pool stream.

use crate::celf::Entry;
use crate::types::{GreedyOutcome, RunStats};
use crate::GreedyRule;
use par_core::{
    shard_labels, ContextSim, EvalArena, EvalStats, Evaluator, Instance, PhotoId, ShardLabels,
    SubsetId,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// One recorded observable event of a shard's stream. See the
/// [module docs](self) for the replay verification rules.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TEvent {
    /// The stream popped this photo while it no longer fit the remaining
    /// budget and dropped it permanently.
    Drop(PhotoId),
    /// A parked candidate was popped by the coordinator carrying `key`;
    /// `accepted` records whether it was affordable at pop time.
    Cand {
        /// The candidate photo.
        photo: PhotoId,
        /// The exact priority key it was parked with.
        key: f64,
        /// Whether the coordinator accepted (vs dropped) it.
        accepted: bool,
    },
}

/// A shard's transcripts, one per greedy rule (indexed by [`rule_index`]).
pub(crate) type RuleCache = [Vec<TEvent>; 2];

/// Index of `rule` into a [`RuleCache`].
#[inline]
fn rule_index(rule: GreedyRule) -> usize {
    match rule {
        GreedyRule::UnitCost => 0,
        GreedyRule::CostBenefit => 1,
    }
}

/// One shard's lazy stream for one run, and its parked settled top.
///
/// Instead of the global CELF's single epoch (every accept invalidates every
/// cached entry), each *photo* carries a version counter — `ver` in
/// [`ShardedSolver::run`] — bumped when an accept changes coverage the
/// photo's gain reads ([`propagate_changes`]). A cached heap entry stores
/// its photo's version at compute time; the entry is exactly current while
/// the version is unchanged, because a marginal gain reads only the
/// coverage state of the photo's own contexts. Popping a current entry
/// therefore skips the gain recomputation the global loop would have paid,
/// with a bit-identical key.
struct ShardStream<'t> {
    state: StreamState<'t>,
    /// The settled top: current (stamp-validated) and affordable at settle
    /// time. `None` once the stream is drained.
    candidate: Option<Entry>,
    /// The recorded `accepted` flag of a parked replay candidate; `None`
    /// when the candidate came from a heap or the pool.
    pending: Option<bool>,
    /// The events this run observed — the shard's next transcript. `None`
    /// when the run does not record, and always for the pool.
    rec: Option<Vec<TEvent>>,
    pq_pops: u64,
    /// Whether a replay diverged and fell back to a heap.
    went_live: bool,
}

/// The backing store of a shard stream.
enum StreamState<'t> {
    /// A CELF max-heap: entries go stale and are re-keyed via the staleness
    /// stamps.
    Heap(BinaryHeap<Entry>),
    /// The singleton pool's stream: a cursor over entries sorted in pop
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
    /// A transcript recorded by the shard's last run, re-verified event by
    /// event; it becomes a `Heap` when it goes live.
    Replay { events: &'t [TEvent], cursor: usize },
}

impl ShardStream<'_> {
    /// Advances until a candidate is parked or the stream drains: the top
    /// entry must be current (its cached stamp matches; frozen and replayed
    /// entries always are) and affordable. Photos popped while unaffordable
    /// are dropped permanently — the remaining budget only shrinks, exactly
    /// the global loop's drop rule — and recorded when the run records. A
    /// replayed event that no longer holds falls through to
    /// [`go_live`](Self::go_live).
    // phocus-lint: hot-kernel — CELF stream advance; runs once per merge-heap pop
    fn settle(
        &mut self,
        solver: &ShardedSolver<'_>,
        s: usize,
        ev: &Evaluator<'_>,
        ver: &[u32],
        budget: u64,
        rule: GreedyRule,
    ) {
        debug_assert!(self.candidate.is_none());
        loop {
            match &mut self.state {
                StreamState::Heap(heap) => {
                    while let Some(top) = heap.pop() {
                        self.pq_pops += 1;
                        let p = top.photo;
                        if ev.is_selected(p) {
                            continue;
                        }
                        if !ev.fits(p, budget) {
                            if let Some(rec) = &mut self.rec {
                                rec.push(TEvent::Drop(p));
                            }
                            continue;
                        }
                        let stamp = ver[p.index()];
                        if top.epoch == stamp {
                            self.candidate = Some(top);
                            return;
                        }
                        let delta = ev.gain(p);
                        heap.push(Entry {
                            key: rule.key(delta, solver.inst.cost(p)),
                            photo: p,
                            epoch: stamp,
                        });
                    }
                    return;
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
                    return;
                }
                StreamState::Replay { events, cursor } => {
                    let mut diverged = false;
                    while let Some(&e) = events.get(*cursor) {
                        self.pq_pops += 1;
                        match e {
                            TEvent::Drop(p) => {
                                if ev.is_selected(p) {
                                    *cursor += 1;
                                    continue;
                                }
                                if !ev.fits(p, budget) {
                                    *cursor += 1;
                                    if let Some(rec) = &mut self.rec {
                                        rec.push(TEvent::Drop(p));
                                    }
                                    continue;
                                }
                                // The recorded run dropped a photo that fits
                                // this run: the transcript under-covers it.
                                diverged = true;
                                break;
                            }
                            TEvent::Cand {
                                photo,
                                key,
                                accepted,
                            } => {
                                debug_assert!(!ev.is_selected(photo));
                                *cursor += 1;
                                self.candidate = Some(Entry {
                                    key,
                                    photo,
                                    epoch: 0,
                                });
                                self.pending = Some(accepted);
                                return;
                            }
                        }
                    }
                    if !diverged {
                        return; // drained
                    }
                }
            }
            self.go_live(solver, s, ev, ver, budget, rule);
        }
    }

    /// Abandons replay: rebuilds an exact heap over the shard's unselected,
    /// still-affordable photos with freshly computed gains, stamped at the
    /// current staleness versions. This is precisely the settled state the
    /// from-scratch lazy heap represents, so the coordinator's view is
    /// unchanged.
    fn go_live(
        &mut self,
        solver: &ShardedSolver<'_>,
        s: usize,
        ev: &Evaluator<'_>,
        ver: &[u32],
        budget: u64,
        rule: GreedyRule,
    ) {
        let mut ids: Vec<PhotoId> = Vec::new();
        for &p in &solver.shard_photos[s] {
            if ev.is_selected(p) {
                continue;
            }
            if ev.fits(p, budget) {
                ids.push(p);
            } else if let Some(rec) = &mut self.rec {
                // The rebuild excludes photos that no longer fit — exactly
                // the photos a lazy heap would pop and drop later. Record
                // those drops so the next transcript still covers them (the
                // replay re-verifies each one against its own budget
                // trajectory).
                rec.push(TEvent::Drop(p));
            }
        }
        let gains = ev.batch_gains(&ids);
        let entries: Vec<Entry> = ids
            .iter()
            .zip(&gains)
            .map(|(&p, &g)| Entry {
                key: rule.key(g, solver.inst.cost(p)),
                photo: p,
                epoch: ver[p.index()],
            })
            .collect(); // phocus-lint: allow(alloc-hot) — go-live divergence fallback, once per demoted stream
        self.state = StreamState::Heap(BinaryHeap::from(entries));
        self.pending = None;
        self.went_live = true;
    }
}

/// A coordinator heap entry: a shard's settled top, keyed for the merged
/// argmax with the same ordering as the global CELF heap (max key, ties to
/// the smaller photo id).
struct MergeEntry {
    key: f64,
    photo: PhotoId,
    shard: u32,
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

/// What one coordinator run produced.
pub(crate) struct Run {
    /// The greedy outcome, with per-run work counters.
    pub(crate) outcome: GreedyOutcome,
    /// Per shard, the events the run observed — the shard's next
    /// transcript (`None` for the pool). Empty unless the run records.
    pub(crate) transcripts: Vec<Option<Vec<TEvent>>>,
    /// Replay streams that diverged and went live.
    pub(crate) went_live: usize,
}

/// A reusable component-sharded solver: labels the instance's shards,
/// replays `S₀`, and runs the rule-independent seed sweep **once**, then
/// solves any number of times (e.g. under both greedy rules, as
/// [`main_algorithm_sharded`](crate::main_algorithm_sharded) does).
#[derive(Debug)]
pub struct ShardedSolver<'a> {
    inst: &'a Instance,
    /// Owned for one-shot solvers; lent by the epoch layer.
    labels: Cow<'a, ShardLabels>,
    /// The shared arena with `S₀` replayed; cloned per solve (the clone
    /// shares the offset/weight layout and copies only the mutable state).
    base: Evaluator<'a>,
    /// Instrumentation already spent building `base` (subtracted from each
    /// solve's reported stats so they count per-solve work only).
    base_stats: EvalStats,
    /// Each shard's photos left unselected at the base state, in ascending
    /// id: what a stream is built from, and rebuilt from when it goes live.
    shard_photos: Vec<Vec<PhotoId>>,
    /// Seed gain of every photo a stream is built from (live shards and the
    /// pool), by photo id, at the base state. Rule-independent: each solve
    /// derives its heap keys as `rule.key(δ, cost)`, bit-identical to the
    /// global seeding.
    seed: Vec<f64>,
    /// The epoch layer's per-shard transcripts (`None` = run live). A solver
    /// given transcripts replays them and records every run; one-shot
    /// solvers have none and do neither.
    transcripts: Option<&'a [Option<RuleCache>]>,
}

impl<'a> ShardedSolver<'a> {
    /// Labels `inst`'s photo–query components and prepares the shared
    /// post-`S₀` state: the evaluator arena and the seed-gain sweep (one
    /// parallel batch through `par-exec`).
    pub fn new(inst: &'a Instance) -> Self {
        Self::build(
            inst,
            Cow::Owned(shard_labels(inst)),
            &mut EvalArena::new(),
            None,
            None,
        )
    }

    /// [`new`](Self::new) with the component labeling precomputed — labels
    /// bulk-read from a `phocus-pack` file, or `shard_labels(inst)` from a
    /// fleet worker — drawing the base evaluator's buffers from `scratch`.
    /// Pair with [`recycle`](Self::recycle) to return the buffers afterwards.
    ///
    /// The labels need not equal `shard_labels(inst)`. Every solve is
    /// bit-identical to [`new`](Self::new)'s as long as:
    /// - every stored pair, and every dense or unit store of two or more
    ///   members, sits inside one non-pool shard;
    /// - the singleton pool's members share no stored pair.
    ///
    /// Labels that merge components (several components on one shard) meet
    /// both, and the pack reader accepts them.
    pub fn new_in_with_labels(
        inst: &'a Instance,
        labels: ShardLabels,
        scratch: &mut SolveScratch,
    ) -> Self {
        debug_assert_eq!(labels.photo_shards().len(), inst.num_photos());
        Self::build(inst, Cow::Owned(labels), &mut scratch.base_eval, None, None)
    }

    /// The epoch layer's prepare: `transcripts` holds one slot per shard
    /// (`Some` = replay it), and `pool_gain` caches the pool photos' seed
    /// gains by photo id. The sweep covers only live shards and pool photos
    /// without a cached gain, and fills the cache in.
    pub(crate) fn resume(
        inst: &'a Instance,
        labels: &'a ShardLabels,
        transcripts: &'a [Option<RuleCache>],
        pool_gain: &mut [Option<f64>],
    ) -> Self {
        debug_assert_eq!(transcripts.len(), labels.num_shards());
        Self::build(
            inst,
            Cow::Borrowed(labels),
            &mut EvalArena::new(),
            Some(transcripts),
            Some(pool_gain),
        )
    }

    fn build(
        inst: &'a Instance,
        labels: Cow<'a, ShardLabels>,
        arena: &mut EvalArena,
        transcripts: Option<&'a [Option<RuleCache>]>,
        pool_gain: Option<&mut [Option<f64>]>,
    ) -> Self {
        let mut base = Evaluator::new_in(inst, arena);
        for &p in inst.required() {
            base.add(p);
        }
        // The sweep covers every unselected photo, not just the ones
        // affordable under the instance budget: affordability is applied at
        // stream-build time against the budget of each individual solve, so
        // one prepared solver serves a whole budget sweep
        // ([`solve_with_budget`](Self::solve_with_budget)) and the epoch
        // layer's pool cache stays valid across budget changes.
        let (shard_photos, seed) = sweep(&base, &labels, transcripts, pool_gain, None);
        let base_stats = base.stats();
        ShardedSolver {
            inst,
            labels,
            base,
            base_stats,
            shard_photos,
            seed,
            transcripts,
        }
    }

    /// The shard labeling the solver runs on.
    pub fn labels(&self) -> &ShardLabels {
        &self.labels
    }

    /// Gain evaluations the prepare paid (the `S₀` replay and seed sweep),
    /// which no run's stats count.
    pub(crate) fn prepare_gain_evals(&self) -> u64 {
        self.base_stats.gain_evals
    }

    /// Sharded equivalent of [`lazy_greedy`](crate::lazy_greedy).
    pub fn solve(&self, rule: GreedyRule) -> GreedyOutcome {
        self.run(rule, self.inst.budget(), None).outcome
    }

    /// [`solve`](Self::solve) under an arbitrary budget `B'` instead of the
    /// instance's own: bit-identical to solving `inst.with_budget(B')` from
    /// scratch, but reusing this solver's shard labels, `S₀` replay and
    /// seed sweep (all budget-independent). This is what lets the budget
    /// planner (`phocus::minimal_budget`) prepare the sharded solver once for
    /// all its probes.
    pub fn solve_with_budget(&self, rule: GreedyRule, budget: u64) -> GreedyOutcome {
        self.run(rule, budget, None).outcome
    }

    /// Sharded equivalent of [`lazy_greedy_from`](crate::lazy_greedy_from):
    /// resumes from an arbitrary initial selection. The cached seed gains do
    /// not apply to a warm start (they were computed at the post-`S₀` state),
    /// so this path pays its own seed sweep over the photos still
    /// affordable, like the global solver, and counts it as solve work.
    pub fn solve_from(&self, initial: &[PhotoId], rule: GreedyRule) -> GreedyOutcome {
        let budget = self.inst.budget();
        let mut base = self.base.clone();
        for &p in initial {
            base.add(p);
        }
        let (shard_photos, seed) = sweep(&base, &self.labels, None, None, Some(budget));
        let warm = ShardedSolver {
            inst: self.inst,
            labels: Cow::Borrowed(&*self.labels),
            base,
            base_stats: self.base_stats,
            shard_photos,
            seed,
            transcripts: None,
        };
        warm.run(rule, budget, None).outcome
    }

    /// [`solve`](Self::solve) drawing every per-solve allocation (evaluator
    /// clone, stream entry buffers, staleness stamps, change list) from
    /// `scratch`, and returning the capacity there afterwards. Bit-identical
    /// to `solve` — see [`SolveScratch`].
    pub fn solve_scratch(&self, rule: GreedyRule, scratch: &mut SolveScratch) -> GreedyOutcome {
        self.run(rule, self.inst.budget(), Some(scratch)).outcome
    }

    /// Returns the prepared base evaluator's buffers to `scratch` for the
    /// next tenant. Call after the last solve against this solver.
    pub fn recycle(self, scratch: &mut SolveScratch) {
        self.base.recycle(&mut scratch.base_eval);
    }

    /// Builds shard `s`'s stream for one run: its transcript when it has
    /// one, else its affordable photos keyed from the seed sweep into `buf`
    /// (recycled capacity or empty) — sorted into pop order for the pool,
    /// heapified for any other shard.
    fn stream(
        &self,
        s: usize,
        mut buf: Vec<Entry>,
        ev: &Evaluator<'_>,
        budget: u64,
        rule: GreedyRule,
    ) -> ShardStream<'a> {
        let is_pool = Some(s) == self.labels.singleton_pool();
        let state = match self.transcripts.and_then(|t| t[s].as_ref()) {
            Some(per_rule) => StreamState::Replay {
                events: &per_rule[rule_index(rule)],
                cursor: 0,
            },
            None => {
                // At stream-build time the evaluator holds exactly the state
                // the seeds were swept at, so `ev.fits` reproduces the
                // global seeding's filter for any budget.
                buf.clear();
                buf.extend(
                    self.shard_photos[s]
                        .iter()
                        .filter(|&&p| ev.fits(p, budget))
                        .map(|&p| Entry {
                            key: rule.key(self.seed[p.index()], self.inst.cost(p)),
                            photo: p,
                            epoch: 0,
                        }),
                );
                if is_pool {
                    buf.sort_unstable_by(|a, b| b.cmp(a));
                    StreamState::Frozen {
                        entries: buf,
                        cursor: 0,
                    }
                } else {
                    StreamState::Heap(BinaryHeap::from(buf))
                }
            }
        };
        ShardStream {
            state,
            candidate: None,
            pending: None,
            rec: (self.transcripts.is_some() && !is_pool).then(Vec::new),
            pq_pops: 0,
            went_live: false,
        }
    }

    /// One coordinator run under `rule` and `budget`, with every per-run
    /// buffer drawn from (and returned to) `scratch` when one is given.
    pub(crate) fn run(
        &self,
        rule: GreedyRule,
        budget: u64,
        mut scratch: Option<&mut SolveScratch>,
    ) -> Run {
        let inst = self.inst;
        let pool = self.labels.singleton_pool();
        let mut ev = match scratch.as_deref_mut() {
            Some(sc) => self.base.clone_in(&mut sc.solve_eval),
            None => self.base.clone(),
        };
        let mut streams: Vec<ShardStream<'a>> = (0..self.labels.num_shards())
            .map(|s| {
                let buf = scratch
                    .as_deref_mut()
                    .and_then(|sc| sc.entries.pop())
                    .unwrap_or_default();
                self.stream(s, buf, &ev, budget, rule)
            })
            .collect();

        // Per-photo staleness versions; all zero, matching the seed entries.
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
            stream.settle(self, s, &ev, &ver, budget, rule);
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
            let stream = &mut streams[s];
            stream.candidate = None;
            let recorded = stream.pending.take();
            let fit = ev.fits(top.photo, budget);
            if let Some(rec) = &mut stream.rec {
                rec.push(TEvent::Cand {
                    photo: top.photo,
                    key: top.key,
                    accepted: fit,
                });
            }
            if fit {
                lazy_accepts += 1;
                if Some(s) == pool || recorded.is_some() {
                    // A pool accept raises only its own coverage (no stored
                    // pair links it to anyone), and the frozen pool stream
                    // never reads stamps; a replayed accept changes coverage
                    // only inside its shard, whose stream reads no stamps
                    // while it replays. Neither has anything to propagate.
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
            if recorded.is_some_and(|accepted| accepted != fit) {
                // The recorded run decided this candidate the other way, so
                // the rest of its transcript describes another trajectory.
                stream.go_live(self, s, &ev, &ver, budget, rule);
            }
            stream.settle(self, s, &ev, &ver, budget, rule);
            if let Some(c) = &stream.candidate {
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
            },
        };
        let went_live = streams.iter().filter(|s| s.went_live).count();
        let transcripts = match self.transcripts {
            Some(_) => streams.iter_mut().map(|s| s.rec.take()).collect(),
            None => Vec::new(),
        };
        if let Some(sc) = scratch {
            ev.recycle(&mut sc.solve_eval);
            sc.ver = ver;
            sc.changed = changed;
            for stream in streams {
                match stream.state {
                    StreamState::Heap(heap) => sc.entries.push(heap.into_vec()),
                    StreamState::Frozen { entries, .. } => sc.entries.push(entries),
                    StreamState::Replay { .. } => {}
                }
            }
        }
        Run {
            outcome,
            transcripts,
            went_live,
        }
    }
}

/// Lists each shard's photos left unselected by `base` (ascending id) and
/// sweeps the seed gains the streams are built from, in one parallel batch:
/// every listed photo except those of shards replaying a transcript, and
/// pool photos whose gain `pool_gain` already caches (the sweep fills the
/// cache in). A warm start passes `fits_under` to list and sweep only the
/// photos it can still afford. Returns the lists and the dense seed vector.
fn sweep(
    base: &Evaluator<'_>,
    labels: &ShardLabels,
    transcripts: Option<&[Option<RuleCache>]>,
    mut pool_gain: Option<&mut [Option<f64>]>,
    fits_under: Option<u64>,
) -> (Vec<Vec<PhotoId>>, Vec<f64>) {
    let pool = labels.singleton_pool();
    let num_photos = base.instance().num_photos();
    // phocus-lint: allow(alloc-hot) — stream inputs, once per prepare
    let mut shard_photos: Vec<Vec<PhotoId>> = vec![Vec::new(); labels.num_shards()];
    let mut seed = vec![0.0f64; num_photos]; // phocus-lint: allow(alloc-hot) — stream inputs, once per prepare
    let mut need: Vec<PhotoId> = Vec::new();
    for p in (0..num_photos as u32).map(PhotoId) {
        if base.is_selected(p) || fits_under.is_some_and(|b| !base.fits(p, b)) {
            continue;
        }
        let s = labels.shard_of(p);
        shard_photos[s].push(p);
        if Some(s) == pool {
            if let Some(g) = pool_gain.as_deref().and_then(|cache| cache[p.index()]) {
                seed[p.index()] = g;
                continue;
            }
        } else if transcripts.is_some_and(|t| t[s].is_some()) {
            continue;
        }
        need.push(p);
    }
    let gains = base.batch_gains(&need);
    for (&p, &g) in need.iter().zip(&gains) {
        seed[p.index()] = g;
        if let Some(cache) = pool_gain.as_deref_mut() {
            if Some(labels.shard_of(p)) == pool {
                cache[p.index()] = Some(g);
            }
        }
    }
    (shard_photos, seed)
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
/// invalidation never costs more than O(|q|) per changed context.
fn propagate_changes(inst: &Instance, changed: &[(SubsetId, u32)], ver: &mut [u32]) {
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
            // Binary similarities: exact key ties are common.
            assert_transcripts_match(&inst.coverage_view(0.8));
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
                let solver =
                    ShardedSolver::new_in_with_labels(inst, shard_labels(inst), &mut scratch);
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
    fn main_algorithm_packed_matches_sharded() {
        // One scratch reused across tenants, labels computed per tenant:
        // the fleet engine's per-tenant solve.
        let mut scratch = SolveScratch::new();
        for seed in 0..3 {
            let inst = random_instance(seed, &RandomInstanceConfig::default()).sparsify(0.85);
            let fresh = crate::main_algorithm_sharded(&inst);
            let reused = crate::main_algorithm_packed(&inst, shard_labels(&inst), &mut scratch);
            assert_eq!(reused.best.selected, fresh.best.selected);
            assert_eq!(reused.best.score.to_bits(), fresh.best.score.to_bits());
            assert_eq!(reused.winner, fresh.winner);
        }
    }

    #[test]
    fn recording_run_matches_solve() {
        // A resumed solver with nothing to replay runs every stream live and
        // records it: same selection, score bits and work counters as a
        // one-shot solve, and a transcript for every shard but the pool.
        for seed in 0..4 {
            let inst = random_instance(seed, &RandomInstanceConfig::default());
            for inst in [inst.clone(), inst.sparsify(0.8), inst.with_unit_sims()] {
                let labels = shard_labels(&inst);
                let caches: Vec<Option<RuleCache>> = vec![None; labels.num_shards()];
                let mut pool_gain = vec![None; inst.num_photos()];
                let recording = ShardedSolver::resume(&inst, &labels, &caches, &mut pool_gain);
                let one_shot = ShardedSolver::new(&inst);
                for rule in [GreedyRule::UnitCost, GreedyRule::CostBenefit] {
                    let run = recording.run(rule, inst.budget(), None);
                    let solved = one_shot.solve(rule);
                    assert_eq!(
                        run.outcome.selected, solved.selected,
                        "selection ({rule:?})"
                    );
                    assert_eq!(run.outcome.score.to_bits(), solved.score.to_bits());
                    assert_eq!(run.outcome.stats, solved.stats, "counters ({rule:?})");
                    assert_eq!(run.went_live, 0);
                    assert_eq!(run.transcripts.len(), labels.num_shards());
                    for (s, t) in run.transcripts.iter().enumerate() {
                        assert_eq!(t.is_none(), Some(s) == labels.singleton_pool(), "shard {s}");
                    }
                }
                assert_eq!(
                    recording.prepare_gain_evals(),
                    one_shot.prepare_gain_evals(),
                    "an all-live resume sweeps what a one-shot prepare does"
                );
            }
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
