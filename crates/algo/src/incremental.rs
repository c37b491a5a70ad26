//! Epoch-resident incremental solver: warm-started sharded CELF streams.
//!
//! [`IncrementalSolver`] keeps an archive's solve state alive across epochs.
//! Each epoch, an [`EpochDelta`] is applied through
//! [`par_core::delta`] — which maintains the component labeling
//! incrementally and marks exactly the touched components dirty — and
//! [`IncrementalSolver::resolve`] re-runs Algorithm 1 with the
//! component-sharded coordinator of [`crate::sharded`], except that **clean
//! shards replay their recorded stream transcripts** instead of re-running
//! their CELF heaps. The headline invariant, pinned by the goldens and
//! proptests in `tests/`: every epoch's [`MainOutcome`] is **bit-identical**
//! to [`main_algorithm_sharded`](crate::main_algorithm_sharded) on the
//! post-delta instance — same photos, same order, same `f64` score bits.
//!
//! # Transcript replay
//!
//! During every run, each non-pool shard records its *observable* stream
//! events: [`TEvent::Drop`] when the stream pops a photo that no longer fits
//! the remaining budget (dropped permanently — the global rule), and
//! [`TEvent::Cand`] when a parked candidate is popped by the merge
//! coordinator, with the key it carried and whether it was accepted.
//! Internal heap mechanics — stale re-keys, `is_selected` skips — are *not*
//! recorded: for a clean shard they are a deterministic function of the
//! intra-shard accept history, which is exactly what the replay reproduces.
//!
//! A clean shard's gains are bit-stable across the delta: the photo set,
//! required flags, memberships (in order), fused `W·R` weights and stored
//! similarity structure all survive verbatim (see `par_core::delta` — no
//! renormalization, order-preserving compaction), and a marginal gain reads
//! only intra-component state. The recorded keys are therefore still exact
//! **as long as the run unfolds the same way**, which every replayed event
//! re-verifies against current reality:
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
//! is state-independent (it shares no stored similarity with anyone), so the
//! solver caches it per photo and rebuilds the frozen pool stream each epoch
//! by filtering and sorting — a total order over distinct photos, hence
//! bit-identical to the from-scratch pool stream regardless of input order.
//!
//! # Both rules at once
//!
//! The UC and CB runs of an epoch read the same prepared state — the
//! post-`S₀` evaluator, the seed sweep, the carried transcripts — and write
//! nothing the other reads: each clones its own evaluator (and with it its
//! own counters) and records its own transcripts. [`IncrementalSolver::resolve`]
//! therefore runs them through [`par_exec::join`], UC on the caller and CB
//! on a pool worker, falling back to UC-then-CB at one installed thread.
//! Outcomes, transcripts and every counter are the same on either path.
//!
//! # Cache invalidation
//!
//! [`IncrementalSolver::apply_delta`] remaps the caches through the delta's
//! id compaction: transcripts survive for clean shards (dirty shards and
//! shards whose photos were touched re-run live), per-photo pool gains
//! survive for clean photos. One global guard remains: stream construction
//! filters by affordability at the post-`S₀` state, so if the budget slack
//! `B − C(S₀)` *grew* since the transcripts were recorded, a photo absent
//! from a transcript might fit now; any replay shard containing such a photo
//! is demoted to live at build time.

use crate::celf::Entry;
use crate::main_alg::{pick_winner, MainOutcome};
use crate::sharded::{propagate_changes, rule_index, MergeEntry};
use crate::types::{GreedyOutcome, RunStats};
use crate::GreedyRule;
use par_core::{
    shard_labels, EpochDelta, EvalStats, Evaluator, Instance, PhotoId, ShardLabels, SubsetId,
};
use std::collections::BinaryHeap;
use std::time::Instant;

/// One recorded observable event of a shard's stream. See the
/// [module docs](self) for the replay verification rules.
#[derive(Debug, Clone, Copy)]
enum TEvent {
    /// The stream popped this photo while it no longer fit the remaining
    /// budget and dropped it permanently.
    Drop(PhotoId),
    /// A parked candidate was popped by the merge coordinator carrying
    /// `key`; `accepted` records whether it was affordable at pop time.
    Cand {
        /// The candidate photo.
        photo: PhotoId,
        /// The exact priority key it was parked with.
        key: f64,
        /// Whether the coordinator accepted (vs dropped) it.
        accepted: bool,
    },
}

/// Per-shard transcripts, one per greedy rule (indexed by
/// [`rule_index`]).
type RuleCache = [Vec<TEvent>; 2];

/// What a delta did to the resident instance, reported by
/// [`IncrementalSolver::apply_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Photos whose component the delta touched (post-delta ids).
    pub dirty_photos: usize,
    /// Post-delta shards containing at least one dirty photo.
    pub dirty_shards: usize,
    /// Total post-delta shards.
    pub num_shards: usize,
    /// Total post-delta photos.
    pub num_photos: usize,
}

/// How the last [`IncrementalSolver::resolve`] split its work between
/// replayed and live streams (streams are counted per greedy rule; the
/// singleton pool has no stream transcript and is excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochReport {
    /// Shards in the epoch's labeling.
    pub num_shards: usize,
    /// Streams that began the run replaying a cached transcript.
    pub replayed_streams: usize,
    /// Streams that began the run live (dirty or uncached shards).
    pub live_streams: usize,
    /// Replay streams that diverged mid-run and fell back to a live heap.
    pub went_live: usize,
    /// Total marginal-gain evaluations the epoch paid, including the `S₀`
    /// replay and the seed sweep over live shards and uncached pool photos.
    pub gain_evals: u64,
}

/// A resident solver that carries an [`Instance`], its component labeling,
/// and per-shard stream transcripts across epochs.
///
/// ```
/// use par_algo::IncrementalSolver;
/// use par_core::fixtures::{figure1_instance, MB};
/// use par_core::EpochDelta;
///
/// let mut solver = IncrementalSolver::new(figure1_instance(4 * MB));
/// let first = solver.resolve(); // identical to main_algorithm_sharded
/// let delta = EpochDelta { set_budget: Some(3 * MB), ..Default::default() };
/// solver.apply_delta(&delta).unwrap();
/// let second = solver.resolve(); // replays clean streams, same bits as a
/// assert!(second.best.cost <= 3 * MB); // from-scratch solve at 3 MB
/// # let _ = first;
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    inst: Instance,
    labels: ShardLabels,
    /// Per-shard per-rule transcripts from the last resolve, remapped
    /// through every delta applied since. `None` = run live. The pool's slot
    /// is always `None`.
    caches: Vec<Option<RuleCache>>,
    /// Cached state-independent post-`S₀` seed gains of pool photos, by
    /// current photo id. `None` = recompute at the next resolve.
    pool_gain: Vec<Option<f64>>,
    /// Budget slack `B − C(S₀)` when the cached transcripts were recorded.
    prev_slack: Option<u64>,
    report: EpochReport,
}

impl IncrementalSolver {
    /// Takes residence over `inst`. The first [`resolve`](Self::resolve)
    /// runs every stream live (there is nothing to replay yet).
    pub fn new(inst: Instance) -> Self {
        let labels = shard_labels(&inst);
        Self::with_labels(inst, labels)
    }

    /// [`new`](Self::new) with the component labeling already known — the
    /// epoch-0 warm start of a catalog-backed session, where the instance
    /// and its labels arrive together from a `phocus-pack` file and the
    /// union-find pass is skipped. The labels must equal
    /// `shard_labels(&inst)` (the pack writer derives them exactly so; a
    /// debug build cross-checks).
    pub fn with_labels(inst: Instance, labels: ShardLabels) -> Self {
        debug_assert_eq!(labels, shard_labels(&inst));
        let num_photos = inst.num_photos();
        let num_shards = labels.num_shards();
        IncrementalSolver {
            inst,
            labels,
            // phocus-lint: allow(alloc-hot) — constructor, not the pop loop; reached only via go-live rebuild
            caches: (0..num_shards).map(|_| None).collect(),
            pool_gain: vec![None; num_photos], // phocus-lint: allow(alloc-hot) — constructor, once per resident solver
            prev_slack: None,
            report: EpochReport::default(),
        }
    }

    /// The resident (post-all-deltas) instance.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The resident component labeling (always equal to
    /// `shard_labels(self.instance())`).
    pub fn labels(&self) -> &ShardLabels {
        &self.labels
    }

    /// The replay/live split of the last [`resolve`](Self::resolve).
    pub fn last_report(&self) -> &EpochReport {
        &self.report
    }

    /// Applies one epoch's delta to the resident instance, carrying every
    /// cache that survives it: transcripts of clean shards (remapped to
    /// post-delta photo ids), pool seed gains of clean photos. On error the
    /// solver is left untouched — deltas are validated against the
    /// pre-delta instance before anything is mutated.
    pub fn apply_delta(&mut self, delta: &EpochDelta) -> par_core::Result<DeltaStats> {
        let applied = delta.apply(&self.inst, &self.labels)?;
        let stats = DeltaStats {
            dirty_photos: applied.num_dirty_photos(),
            dirty_shards: applied.num_dirty_shards(),
            num_shards: applied.labels.num_shards(),
            num_photos: applied.instance.num_photos(),
        };
        let num_photos = applied.instance.num_photos();
        let num_shards = applied.labels.num_shards();
        let new_pool = applied.labels.singleton_pool();
        let old_pool = self.labels.singleton_pool();

        // Pool seed gains: state-independent, so clean survivors keep their
        // bits under the id remap.
        let mut pool_gain = vec![None; num_photos];
        for (new_idx, origin) in applied.photo_origin.iter().enumerate() {
            if let Some(o) = origin {
                if !applied.dirty_photos[new_idx] {
                    pool_gain[new_idx] = self.pool_gain.get(o.index()).copied().flatten();
                }
            }
        }

        // Transcripts: a clean non-pool shard is an old shard that survived
        // verbatim (splits and merges dirty every photo involved), so any
        // member's origin locates its old shard — and with it the recorded
        // streams, which only need their photo ids remapped. The old pool
        // has no transcript; a lone ex-pool singleton re-runs live.
        let mut representative: Vec<Option<PhotoId>> = vec![None; num_shards];
        for i in 0..num_photos as u32 {
            let s = applied.labels.shard_of(PhotoId(i));
            if representative[s].is_none() {
                representative[s] = Some(PhotoId(i));
            }
        }
        let mut caches: Vec<Option<RuleCache>> = Vec::with_capacity(num_shards);
        for (s, &rep) in representative.iter().enumerate() {
            if Some(s) == new_pool || applied.dirty_shards[s] {
                caches.push(None);
                continue;
            }
            let carried = rep
                .and_then(|p| applied.photo_origin[p.index()])
                .map(|o| self.labels.shard_of(o))
                .filter(|&os| Some(os) != old_pool)
                .and_then(|os| self.caches.get_mut(os).map(std::mem::take))
                .flatten()
                .and_then(|per_rule| remap_events(per_rule, &applied.photo_remap));
            caches.push(carried);
        }

        self.inst = applied.instance;
        self.labels = applied.labels;
        self.caches = caches;
        self.pool_gain = pool_gain;
        Ok(stats)
    }

    /// Runs Algorithm 1 on the resident instance: both greedy rules at once
    /// through the sharded coordinator, clean shards replaying their
    /// transcripts.
    /// Bit-identical to
    /// [`main_algorithm_sharded`](crate::main_algorithm_sharded) on
    /// [`instance`](Self::instance), including the winner selection.
    /// Re-records every shard's transcript for the next epoch.
    pub fn resolve(&mut self) -> MainOutcome {
        let inst = &self.inst;
        let labels = &self.labels;
        let num_photos = inst.num_photos();
        let num_shards = labels.num_shards();
        let pool = labels.singleton_pool();
        let budget = inst.budget();
        debug_assert_eq!(self.caches.len(), num_shards);

        let mut shard_photos: Vec<Vec<PhotoId>> = vec![Vec::new(); num_shards];
        for i in 0..num_photos as u32 {
            shard_photos[labels.shard_of(PhotoId(i))].push(PhotoId(i));
        }

        let mut base = Evaluator::new(inst);
        for &p in inst.required() {
            base.add(p);
        }

        // Streams are built over photos affordable at the post-`S₀` state.
        // If that slack grew since the transcripts were recorded, a replay
        // shard may hold a photo its transcript has never seen — demote it
        // to live.
        let slack = budget.saturating_sub(base.cost());
        if let Some(prev) = self.prev_slack {
            if slack > prev {
                for (s, photos) in shard_photos.iter().enumerate() {
                    let newly_fitting = |&&p: &&PhotoId| {
                        let c = inst.cost(p);
                        c > prev && c <= slack && !base.is_selected(p)
                    };
                    if self.caches[s].is_some() && photos.iter().any(|p| newly_fitting(&p)) {
                        self.caches[s] = None;
                    }
                }
            }
        }

        // One rule-independent seed sweep over what the caches don't cover:
        // all photos of live shards, plus pool photos with no cached gain.
        let mut need: Vec<PhotoId> = Vec::new();
        for (s, photos) in shard_photos.iter().enumerate() {
            let is_pool = Some(s) == pool;
            if !is_pool && self.caches[s].is_some() {
                continue;
            }
            for &p in photos {
                if base.is_selected(p) {
                    continue;
                }
                if !is_pool || self.pool_gain[p.index()].is_none() {
                    need.push(p);
                }
            }
        }
        let gains = base.batch_gains(&need);
        let mut seed = vec![0.0f64; num_photos];
        for (&p, &g) in need.iter().zip(&gains) {
            seed[p.index()] = g;
            if Some(labels.shard_of(p)) == pool {
                self.pool_gain[p.index()] = Some(g);
            }
        }
        let base_stats = base.stats();

        let ctx = RuleCtx {
            inst,
            shard_photos: &shard_photos,
            pool,
            pool_gain: &self.pool_gain,
            seed: &seed,
            budget,
        };
        // The two rules share only read-only state and each clones its own
        // evaluator (with its own counters), so they run at once.
        let (uc, cb) = par_exec::join(
            || run_rule(&ctx, &self.caches, &base, &base_stats, GreedyRule::UnitCost),
            || run_rule(&ctx, &self.caches, &base, &base_stats, GreedyRule::CostBenefit),
        );

        self.report = EpochReport {
            num_shards,
            replayed_streams: uc.replayed + cb.replayed,
            live_streams: uc.live + cb.live,
            went_live: uc.went_live + cb.went_live,
            gain_evals: base_stats.gain_evals
                + uc.outcome.stats.gain_evals
                + cb.outcome.stats.gain_evals,
        };
        self.prev_slack = Some(slack);
        self.caches = uc
            .rec
            .into_iter()
            .zip(cb.rec)
            .enumerate()
            .map(|(s, (u, c))| (Some(s) != pool).then_some([u, c]))
            .collect();
        pick_winner(uc.outcome, cb.outcome)
    }
}

/// Remaps a carried transcript's photo ids through the delta's compaction.
/// Returns `None` if any referenced photo was removed — impossible for a
/// clean shard, but the fallback is simply a live re-run.
fn remap_events(per_rule: RuleCache, remap: &[Option<PhotoId>]) -> Option<RuleCache> {
    let map_photo = |p: PhotoId| remap.get(p.index()).copied().flatten();
    let map_one = |events: Vec<TEvent>| -> Option<Vec<TEvent>> {
        events
            .into_iter()
            .map(|e| match e {
                TEvent::Drop(p) => map_photo(p).map(TEvent::Drop),
                TEvent::Cand {
                    photo,
                    key,
                    accepted,
                } => map_photo(photo).map(|photo| TEvent::Cand {
                    photo,
                    key,
                    accepted,
                }),
            })
            .collect()
    };
    let [uc, cb] = per_rule;
    Some([map_one(uc)?, map_one(cb)?])
}

/// Everything a single rule's run needs, bundled to keep signatures flat.
struct RuleCtx<'a> {
    inst: &'a Instance,
    shard_photos: &'a [Vec<PhotoId>],
    pool: Option<usize>,
    pool_gain: &'a [Option<f64>],
    seed: &'a [f64],
    budget: u64,
}

/// One rule's outcome plus the transcripts observed while producing it.
struct RuleRun {
    outcome: GreedyOutcome,
    rec: Vec<Vec<TEvent>>,
    replayed: usize,
    live: usize,
    went_live: usize,
}

/// The backing store of an epoch stream: a live CELF heap, a transcript
/// being replayed (may transition to a heap on divergence), or the frozen
/// pool cursor.
enum StreamState<'c> {
    Heap(BinaryHeap<Entry>),
    Replay { events: &'c [TEvent], cursor: usize },
    Frozen { entries: Vec<Entry>, cursor: usize },
}

/// One shard's stream for one rule's run, mirroring
/// `sharded::ShardStream` plus replay state and the transcript recorder.
struct Stream<'c> {
    state: StreamState<'c>,
    candidate: Option<Entry>,
    /// The recorded `accepted` flag of the parked replay candidate;
    /// `None` when the candidate came from a heap or the pool.
    pending: Option<bool>,
    /// Events observed this run — the next epoch's transcript.
    rec: Vec<TEvent>,
    pq_pops: u64,
    went_live: bool,
}

impl<'c> Stream<'c> {
    /// Abandons replay: rebuilds an exact heap over the shard's unselected,
    /// still-affordable photos with freshly computed gains, stamped at the
    /// current staleness versions. This is precisely the settled state the
    /// from-scratch lazy heap represents, so the coordinator's view is
    /// unchanged.
    fn go_live(&mut self, ctx: &RuleCtx<'_>, s: usize, ev: &Evaluator<'_>, ver: &[u32], rule: GreedyRule) {
        let mut ids: Vec<PhotoId> = Vec::new();
        for &p in &ctx.shard_photos[s] {
            if ev.is_selected(p) {
                continue;
            }
            if ev.fits(p, ctx.budget) {
                ids.push(p);
            } else {
                // The rebuild excludes photos that no longer fit — exactly
                // the photos a lazy heap would pop and drop later. Record
                // those drops so the next epoch's transcript still covers
                // them (the replay re-verifies each one against its own
                // budget trajectory).
                self.rec.push(TEvent::Drop(p));
            }
        }
        let gains = ev.batch_gains(&ids);
        let entries: Vec<Entry> = ids
            .iter()
            .zip(&gains)
            .map(|(&p, &g)| Entry {
                key: rule.key(g, ctx.inst.cost(p)),
                photo: p,
                epoch: ver[p.index()],
            })
            .collect(); // phocus-lint: allow(alloc-hot) — go-live divergence fallback, once per demoted stream
        self.state = StreamState::Heap(BinaryHeap::from(entries));
        self.pending = None;
        self.went_live = true;
    }

    /// Advances until a candidate is parked or the stream drains, exactly
    /// like `sharded::ShardStream::settle`, recording drops and verifying
    /// replayed events (divergence falls through to [`go_live`](Self::go_live)).
    // phocus-lint: hot-kernel — warm-replay CELF stream advance; per merge-heap pop
    fn settle(&mut self, ctx: &RuleCtx<'_>, s: usize, ev: &Evaluator<'_>, ver: &[u32], rule: GreedyRule) {
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
                        if !ev.fits(p, ctx.budget) {
                            self.rec.push(TEvent::Drop(p));
                            continue;
                        }
                        let stamp = ver[p.index()];
                        if top.epoch == stamp {
                            self.candidate = Some(top);
                            return;
                        }
                        let delta = ev.gain(p);
                        heap.push(Entry {
                            key: rule.key(delta, ctx.inst.cost(p)),
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
                        if !ev.fits(top.photo, ctx.budget) {
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
                                if !ev.fits(p, ctx.budget) {
                                    *cursor += 1;
                                    self.rec.push(TEvent::Drop(p));
                                    continue;
                                }
                                // The recorded run dropped a photo that fits
                                // this epoch: the transcript under-covers it.
                                diverged = true;
                                break;
                            }
                            TEvent::Cand { photo, key, accepted } => {
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
            self.go_live(ctx, s, ev, ver, rule);
        }
    }
}

/// One rule's full coordinator run, mixing live, replayed and frozen
/// streams. Mirrors `ShardedSolver::solve_inner` step for step; the
/// replayed parts shortcut only work whose outcome is re-verified.
fn run_rule(
    ctx: &RuleCtx<'_>,
    caches: &[Option<RuleCache>],
    base: &Evaluator<'_>,
    base_stats: &EvalStats,
    rule: GreedyRule,
) -> RuleRun {
    let start = Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported timing field only
    let inst = ctx.inst;
    let ri = rule_index(rule);
    let mut ev = base.clone();
    let mut ver = vec![0u32; inst.num_photos()];
    let mut changed: Vec<(SubsetId, u32)> = Vec::new();
    let mut replayed = 0usize;
    let mut live = 0usize;

    let mut streams: Vec<Stream<'_>> = (0..ctx.shard_photos.len())
        .map(|s| {
            let state = if Some(s) == ctx.pool {
                let mut entries: Vec<Entry> = ctx.shard_photos[s]
                    .iter()
                    .filter(|&&p| !ev.is_selected(p) && ev.fits(p, ctx.budget))
                    .map(|&p| {
                        debug_assert!(ctx.pool_gain[p.index()].is_some());
                        Entry {
                            key: rule.key(
                                ctx.pool_gain[p.index()].unwrap_or_default(),
                                inst.cost(p),
                            ),
                            photo: p,
                            epoch: 0,
                        }
                    })
                    .collect();
                entries.sort_unstable_by(|a, b| b.cmp(a));
                StreamState::Frozen { entries, cursor: 0 }
            } else if let Some(per_rule) = &caches[s] {
                replayed += 1;
                StreamState::Replay {
                    events: &per_rule[ri],
                    cursor: 0,
                }
            } else {
                live += 1;
                let entries: Vec<Entry> = ctx.shard_photos[s]
                    .iter()
                    .filter(|&&p| !ev.is_selected(p) && ev.fits(p, ctx.budget))
                    .map(|&p| Entry {
                        key: rule.key(ctx.seed[p.index()], inst.cost(p)),
                        photo: p,
                        epoch: 0,
                    })
                    .collect();
                StreamState::Heap(BinaryHeap::from(entries))
            };
            Stream {
                state,
                candidate: None,
                pending: None,
                rec: Vec::new(),
                pq_pops: 0,
                went_live: false,
            }
        })
        .collect();

    let mut merge: BinaryHeap<MergeEntry> = BinaryHeap::new();
    for (s, stream) in streams.iter_mut().enumerate() {
        stream.settle(ctx, s, &ev, &ver, rule);
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
        let pending = streams[s].pending.take();
        let fit = ev.fits(top.photo, ctx.budget);
        if Some(s) == ctx.pool {
            if fit {
                lazy_accepts += 1;
                ev.add(top.photo);
            }
        } else {
            streams[s].rec.push(TEvent::Cand {
                photo: top.photo,
                key: top.key,
                accepted: fit,
            });
            match pending {
                Some(recorded) => {
                    // Replay accepts are plain adds: coverage changes stay
                    // inside this shard, and no stream of this shard reads
                    // staleness stamps while it replays.
                    if fit {
                        lazy_accepts += 1;
                        ev.add(top.photo);
                    }
                    if fit != recorded {
                        streams[s].go_live(ctx, s, &ev, &ver, rule);
                    }
                }
                None => {
                    if fit {
                        lazy_accepts += 1;
                        changed.clear();
                        ev.add_tracked(top.photo, |q, j| changed.push((q, j)));
                        propagate_changes(inst, &changed, &mut ver);
                    }
                }
            }
        }
        streams[s].settle(ctx, s, &ev, &ver, rule);
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
    let went_live = streams.iter().filter(|s| s.went_live).count();
    let outcome = GreedyOutcome {
        score: ev.score(),
        cost: ev.cost(),
        selected: ev.selected_ids().to_vec(),
        stats: RunStats {
            gain_evals: st.gain_evals - base_stats.gain_evals,
            sim_ops: st.sim_ops - base_stats.sim_ops,
            pq_pops,
            lazy_accepts,
            elapsed: start.elapsed(),
        },
    };
    RuleRun {
        outcome,
        rec: streams.into_iter().map(|s| s.rec).collect(),
        replayed,
        live,
        went_live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::main_algorithm_sharded;
    use par_core::fixtures::{random_instance, RandomInstanceConfig, SplitMix64};
    use par_core::{MemberRef, PhotoAdd, QueryAdd, SubsetId};

    /// Resolves and asserts bit-identity with a from-scratch Algorithm 1 on
    /// the resident instance.
    fn assert_matches_scratch(inc: &mut IncrementalSolver) {
        let scratch = main_algorithm_sharded(inc.instance());
        let out = inc.resolve();
        assert_eq!(out.uc.selected, scratch.uc.selected, "UC selection");
        assert_eq!(out.uc.score.to_bits(), scratch.uc.score.to_bits());
        assert_eq!(out.uc.cost, scratch.uc.cost);
        assert_eq!(out.cb.selected, scratch.cb.selected, "CB selection");
        assert_eq!(out.cb.score.to_bits(), scratch.cb.score.to_bits());
        assert_eq!(out.cb.cost, scratch.cb.cost);
        assert_eq!(out.winner, scratch.winner);
        assert_eq!(out.best.selected, scratch.best.selected);
        assert_eq!(out.best.score.to_bits(), scratch.best.score.to_bits());
    }

    fn fixture(seed: u64) -> Instance {
        random_instance(seed, &RandomInstanceConfig::default()).sparsify(0.85)
    }

    /// A mixed churn delta in the style of the par-core delta tests.
    fn churn_delta(inst: &Instance, round: usize, rng: &mut SplitMix64) -> EpochDelta {
        let n = inst.num_photos();
        let mut delta = EpochDelta::default();
        match round % 6 {
            0 => delta.remove_photos = vec![PhotoId(rng.next_below(n) as u32)],
            1 => {
                let a = rng.next_below(n) as u32;
                let b = rng.next_below(n) as u32;
                if a != b {
                    delta.add_queries = vec![QueryAdd {
                        label: format!("drift{round}"),
                        weight: 0.75,
                        members: vec![
                            MemberRef::Existing(PhotoId(a)),
                            MemberRef::Existing(PhotoId(b)),
                        ],
                        relevance: vec![],
                        pairs: vec![(0, 1, 0.55)],
                    }];
                }
            }
            2 => {
                delta.add_photos = vec![PhotoAdd {
                    name: format!("arrival{round}"),
                    cost: 200_000 + 1_000 * round as u64,
                    required: false,
                }];
                delta.add_queries = vec![QueryAdd {
                    label: format!("arrival-q{round}"),
                    weight: 0.6,
                    members: vec![
                        MemberRef::New(0),
                        MemberRef::Existing(PhotoId(rng.next_below(n) as u32)),
                    ],
                    relevance: vec![],
                    pairs: vec![(0, 1, 0.4)],
                }];
            }
            3 => {
                if inst.num_subsets() > 1 {
                    delta.retire_queries =
                        vec![SubsetId(rng.next_below(inst.num_subsets()) as u32)];
                }
            }
            4 => {
                let p = PhotoId(rng.next_below(n) as u32);
                if inst.required().contains(&p) {
                    delta.unrequire = vec![p];
                } else {
                    delta.require = vec![p];
                }
            }
            _ => {
                let lo = inst.required_cost();
                let hi = inst.total_cost().max(lo + 1);
                let frac = 3 + rng.next_below(5) as u64; // 30%..70% of the span
                delta.set_budget = Some(lo + (hi - lo) * frac / 10);
            }
        }
        delta
    }

    #[test]
    fn first_and_repeated_resolves_match_from_scratch() {
        for seed in 0..4 {
            let mut inc = IncrementalSolver::new(fixture(seed));
            assert_matches_scratch(&mut inc); // all-live first epoch
            let first = *inc.last_report();
            assert_eq!(first.replayed_streams, 0);
            // A second resolve with no delta replays every non-pool stream
            // and pays no seed sweep beyond the S₀ replay.
            assert_matches_scratch(&mut inc);
            let second = *inc.last_report();
            assert_eq!(second.live_streams, 0);
            assert_eq!(second.went_live, 0, "identical epoch cannot diverge");
            assert!(
                second.gain_evals < first.gain_evals,
                "replay must beat the live run: {} vs {}",
                second.gain_evals,
                first.gain_evals
            );
        }
    }

    #[test]
    fn epoch_chains_match_from_scratch_every_round() {
        for seed in [5, 11, 23] {
            let mut inc = IncrementalSolver::new(fixture(seed));
            let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00);
            inc.resolve();
            for round in 0..12 {
                let delta = churn_delta(inc.instance(), round, &mut rng);
                if delta.is_empty() {
                    continue;
                }
                if inc.apply_delta(&delta).is_err() {
                    continue; // e.g. a budget cut below the required cost
                }
                assert_matches_scratch(&mut inc);
            }
        }
    }

    #[test]
    fn budget_only_epochs_replay_every_stream() {
        let mut inc = IncrementalSolver::new(fixture(7));
        inc.resolve();
        let budget = inc.instance().budget();
        let lo = inc.instance().required_cost();
        // Shrinking budgets: transcripts stay valid (slack only falls) and
        // every non-pool stream starts in replay mode.
        for cut in [budget * 9 / 10, budget * 7 / 10, lo.max(budget / 2)] {
            let delta = EpochDelta {
                set_budget: Some(cut),
                ..Default::default()
            };
            if inc.apply_delta(&delta).is_err() {
                continue;
            }
            assert_matches_scratch(&mut inc);
            assert_eq!(inc.last_report().live_streams, 0, "budget {cut}");
        }
    }

    #[test]
    fn budget_growth_stays_exact() {
        // Growing slack can expose photos a transcript never saw; the
        // build-time demotion must keep the result bit-identical.
        let mut inc = IncrementalSolver::new(
            random_instance(
                13,
                &RandomInstanceConfig {
                    budget_fraction: 0.2,
                    ..Default::default()
                },
            )
            .sparsify(0.85),
        );
        inc.resolve();
        let total = inc.instance().total_cost();
        for frac in [4u64, 6, 8, 10] {
            let delta = EpochDelta {
                set_budget: Some(total * frac / 10),
                ..Default::default()
            };
            inc.apply_delta(&delta).unwrap();
            assert_matches_scratch(&mut inc);
        }
    }

    #[test]
    fn rejected_deltas_leave_the_solver_resident() {
        let mut inc = IncrementalSolver::new(fixture(3));
        inc.resolve();
        let n = inc.instance().num_photos();
        let bad = EpochDelta {
            remove_photos: vec![PhotoId(n as u32 + 7)],
            ..Default::default()
        };
        assert!(inc.apply_delta(&bad).is_err());
        // The resident state is untouched: a plain re-resolve still matches.
        assert_matches_scratch(&mut inc);
        assert_eq!(inc.last_report().live_streams, 0);
    }

    #[test]
    fn small_deltas_replay_most_streams() {
        // A single-photo removal dirties one component; everything else
        // must replay.
        let mut inc = IncrementalSolver::new(fixture(19));
        inc.resolve();
        let delta = EpochDelta {
            remove_photos: vec![PhotoId(0)],
            ..Default::default()
        };
        let stats = inc.apply_delta(&delta).unwrap();
        assert!(stats.dirty_shards <= 1);
        assert_matches_scratch(&mut inc);
        let report = *inc.last_report();
        if report.num_shards > 2 {
            assert!(
                report.replayed_streams > report.live_streams,
                "expected mostly replay: {report:?}"
            );
        }
    }
}
