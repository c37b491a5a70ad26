//! Epoch-resident archive sessions: warm-started sharded CELF streams.
//!
//! A photo archive is not solved once: photos arrive and leave, query logs
//! drift, budgets change. [`ArchiveSession`] keeps an archive's instance,
//! its component labeling and its solve state alive across epochs. Each
//! epoch, an [`EpochDelta`] is applied through [`par_core::delta`] — which
//! maintains the component labeling incrementally and marks exactly the
//! touched components dirty — and [`ArchiveSession::resolve`] re-runs
//! Algorithm 1 on the component-sharded coordinator of [`crate::sharded`],
//! prepared with the resident labels and last epoch's stream transcripts,
//! so **clean shards replay their recorded transcripts** instead of
//! re-running their CELF heaps (the replay rules are in the
//! [`crate::sharded`] docs). The headline invariant, pinned by the goldens
//! and proptests in `tests/`: every epoch's [`MainOutcome`] is
//! **bit-identical** to [`main_algorithm_sharded`](crate::main_algorithm_sharded)
//! on the post-delta instance — same photos, same order, same `f64` score
//! bits.
//!
//! This file holds the epoch bookkeeping around that coordinator: applying
//! deltas, remapping the carried transcripts, the slack guard, the epoch
//! counter and the [`EpochReport`].
//!
//! Failure isolation mirrors `phocus serve-batch`: a delta that does not
//! apply (unknown id, budget below the required set, …) is rejected
//! atomically — the session keeps its instance, labels and stream caches,
//! and the next delta applies against the unchanged state.
//!
//! # Why a clean shard's transcript still holds
//!
//! A clean shard's gains are bit-stable across the delta: the photo set,
//! required flags, memberships (in order), fused `W·R` weights and stored
//! similarity structure all survive verbatim (see `par_core::delta` — no
//! renormalization, order-preserving compaction), and a marginal gain reads
//! only intra-component state. The recorded keys are therefore still exact
//! as long as the run unfolds the same way, which the replay re-verifies
//! event by event. The singleton pool keeps no transcript; its photos' seed
//! gains are state-independent, so they are cached per photo instead.
//!
//! # Both rules at once
//!
//! The UC and CB runs of an epoch read the same prepared state — the
//! post-`S₀` evaluator, the seed sweep, the carried transcripts — and write
//! nothing the other reads: each clones its own evaluator (and with it its
//! own counters) and records its own transcripts. [`ArchiveSession::resolve`]
//! therefore runs them through [`par_exec::join`], UC on the caller and CB
//! on a pool worker, falling back to UC-then-CB at one installed thread.
//! Outcomes, transcripts and every counter are the same on either path.
//!
//! # Cache invalidation
//!
//! [`ArchiveSession::apply_delta`] remaps the caches through the delta's
//! id compaction: transcripts survive for clean shards (dirty shards and
//! shards whose photos were touched re-run live), per-photo pool gains
//! survive for clean photos. One global guard remains: stream construction
//! filters by affordability at the post-`S₀` state, so if the budget slack
//! `B − C(S₀)` *grew* since the transcripts were recorded, a photo absent
//! from a transcript might fit now; any replay shard containing such a photo
//! is demoted to live before the solver is prepared.

use crate::main_alg::{pick_winner, MainOutcome};
use crate::sharded::{RuleCache, ShardedSolver, TEvent};
use crate::GreedyRule;
use par_core::{shard_labels, EpochDelta, Instance, PhotoId, ShardLabels};

/// What a delta did to the resident instance, reported by
/// [`ArchiveSession::last_delta_stats`].
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

/// How an epoch's [`ArchiveSession::resolve`] split its work between
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

/// One epoch's solve: the Algorithm 1 outcome plus the replay/live split
/// that produced it.
#[derive(Debug, Clone)]
pub struct EpochSolve {
    /// 0-based epoch index (0 = the initial solve).
    pub epoch: usize,
    /// The Algorithm 1 outcome — bit-identical to a from-scratch sharded
    /// solve of the current instance.
    pub outcome: MainOutcome,
    /// Replay/live stream counts and gain-evaluation work for this epoch.
    pub report: EpochReport,
}

/// A resident archive session: an [`Instance`], its component labeling and
/// per-shard stream transcripts, advanced epoch by epoch via
/// [`EpochDelta`]s.
///
/// ```
/// use par_algo::ArchiveSession;
/// use par_core::fixtures::{figure1_instance, MB};
/// use par_core::EpochDelta;
///
/// let mut session = ArchiveSession::new(figure1_instance(4 * MB));
/// let first = session.resolve(); // identical to main_algorithm_sharded
/// assert_eq!(first.epoch, 0);
///
/// // A budget cut arrives; the chainable form applies and re-solves,
/// // replaying clean streams with the bits of a from-scratch solve at 3 MB.
/// let delta = EpochDelta { set_budget: Some(3 * MB), ..Default::default() };
/// let second = session.apply_delta(&delta)?.resolve();
/// assert_eq!(second.epoch, 1);
/// assert!(second.outcome.best.cost <= 3 * MB);
/// # Ok::<(), par_core::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArchiveSession {
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
    epoch: usize,
    last_delta: Option<DeltaStats>,
}

impl ArchiveSession {
    /// Takes residence over `inst`, deriving its component labeling with
    /// one [`shard_labels`] pass. No solve happens yet: the first
    /// [`resolve`](Self::resolve) runs every stream live (there is nothing
    /// to replay yet).
    pub fn new(inst: Instance) -> Self {
        let labels = shard_labels(&inst);
        let num_photos = inst.num_photos();
        let num_shards = labels.num_shards();
        ArchiveSession {
            inst,
            labels,
            // phocus-lint: allow(alloc-hot) — constructor, not the pop loop; reached only via go-live rebuild
            caches: (0..num_shards).map(|_| None).collect(),
            pool_gain: vec![None; num_photos], // phocus-lint: allow(alloc-hot) — constructor, once per session
            prev_slack: None,
            epoch: 0,
            last_delta: None,
        }
    }

    /// The resident (post-all-deltas) instance.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// 0-based index of the epoch the *next* [`resolve`](Self::resolve)
    /// will report.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Dirty-marking statistics of the most recent successful delta, if any.
    pub fn last_delta_stats(&self) -> Option<DeltaStats> {
        self.last_delta
    }

    /// Applies one epoch's delta to the resident instance, carrying every
    /// cache that survives it: transcripts of clean shards (remapped to
    /// post-delta photo ids), pool seed gains of clean photos. Returns
    /// `&mut self` so a delta and its re-solve chain naturally:
    /// `session.apply_delta(&d)?.resolve()`.
    ///
    /// On error the session is left untouched — same instance, same warm
    /// caches, same [`last_delta_stats`](Self::last_delta_stats) — because
    /// deltas are validated against the pre-delta instance before anything
    /// is mutated, so callers can isolate a bad epoch and continue with the
    /// next one.
    pub fn apply_delta(&mut self, delta: &EpochDelta) -> par_core::Result<&mut Self> {
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
        self.last_delta = Some(stats);
        Ok(self)
    }

    /// Runs Algorithm 1 on the resident instance: both greedy rules at once
    /// through the sharded coordinator, clean shards replaying their
    /// transcripts. The outcome is bit-identical to
    /// [`main_algorithm_sharded`](crate::main_algorithm_sharded) on
    /// [`instance`](Self::instance), including the winner selection.
    /// Re-records every shard's transcript for the next epoch and advances
    /// the epoch counter.
    pub fn resolve(&mut self) -> EpochSolve {
        let inst = &self.inst;
        let labels = &self.labels;
        let num_shards = labels.num_shards();
        debug_assert_eq!(self.caches.len(), num_shards);

        // Streams are built over photos affordable at the post-`S₀` state.
        // If that slack grew since the transcripts were recorded, a replay
        // shard may hold a photo its transcript has never seen — demote it
        // to live before the prepare, whose seed sweep then covers it.
        let slack = inst.budget().saturating_sub(inst.required_cost());
        if let Some(prev) = self.prev_slack.filter(|&prev| slack > prev) {
            for p in (0..inst.num_photos() as u32).map(PhotoId) {
                let c = inst.cost(p);
                if c > prev && c <= slack && !inst.is_required(p) {
                    self.caches[labels.shard_of(p)] = None;
                }
            }
        }

        let solver = ShardedSolver::resume(inst, labels, &self.caches, &mut self.pool_gain);
        // The two rules share only read-only state and each clones its own
        // evaluator (with its own counters), so they run at once.
        let (uc, cb) = par_exec::join(
            || solver.run(GreedyRule::UnitCost, inst.budget(), None),
            || solver.run(GreedyRule::CostBenefit, inst.budget(), None),
        );

        // Each rule runs one stream per shard; the pool's stream is neither
        // replayed nor live.
        let replayed = self.caches.iter().filter(|c| c.is_some()).count();
        let live = num_shards - replayed - usize::from(labels.singleton_pool().is_some());
        let report = EpochReport {
            num_shards,
            replayed_streams: 2 * replayed,
            live_streams: 2 * live,
            went_live: uc.went_live + cb.went_live,
            gain_evals: solver.prepare_gain_evals()
                + uc.outcome.stats.gain_evals
                + cb.outcome.stats.gain_evals,
        };
        self.prev_slack = Some(slack);
        self.caches = uc
            .transcripts
            .into_iter()
            .zip(cb.transcripts)
            .map(|(u, c)| Some([u?, c?]))
            .collect();
        let epoch = self.epoch;
        self.epoch += 1;
        EpochSolve {
            epoch,
            outcome: pick_winner(uc.outcome, cb.outcome),
            report,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::main_algorithm_sharded;
    use par_core::fixtures::{random_instance, RandomInstanceConfig, SplitMix64};
    use par_core::{MemberRef, PhotoAdd, QueryAdd, SubsetId};

    /// Resolves and asserts bit-identity with a from-scratch Algorithm 1 on
    /// the resident instance, and that the solve reports the epoch the
    /// session announced before advancing it by one. Returns the report.
    fn assert_matches_scratch(inc: &mut ArchiveSession) -> EpochReport {
        let scratch = main_algorithm_sharded(inc.instance());
        let epoch = inc.epoch();
        let EpochSolve {
            epoch: reported,
            outcome: out,
            report,
        } = inc.resolve();
        assert_eq!(reported, epoch, "resolve reports the announced epoch");
        assert_eq!(inc.epoch(), epoch + 1, "resolve advances the epoch");
        assert_eq!(out.uc.selected, scratch.uc.selected, "UC selection");
        assert_eq!(out.uc.score.to_bits(), scratch.uc.score.to_bits());
        assert_eq!(out.uc.cost, scratch.uc.cost);
        assert_eq!(out.cb.selected, scratch.cb.selected, "CB selection");
        assert_eq!(out.cb.score.to_bits(), scratch.cb.score.to_bits());
        assert_eq!(out.cb.cost, scratch.cb.cost);
        assert_eq!(out.winner, scratch.winner);
        assert_eq!(out.best.selected, scratch.best.selected);
        assert_eq!(out.best.score.to_bits(), scratch.best.score.to_bits());
        report
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
            let mut inc = ArchiveSession::new(fixture(seed));
            assert_eq!(inc.epoch(), 0, "a new session announces epoch 0");
            let first = assert_matches_scratch(&mut inc); // all-live first epoch
            assert_eq!(first.replayed_streams, 0);
            // A second resolve with no delta replays every non-pool stream
            // and pays no seed sweep beyond the S₀ replay.
            let second = assert_matches_scratch(&mut inc);
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
            let mut inc = ArchiveSession::new(fixture(seed));
            let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00);
            assert_eq!(inc.resolve().epoch, 0);
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
        let mut inc = ArchiveSession::new(fixture(7));
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
            let report = assert_matches_scratch(&mut inc);
            assert_eq!(report.live_streams, 0, "budget {cut}");
        }
    }

    #[test]
    fn budget_growth_stays_exact() {
        // Growing slack can expose photos a transcript never saw; the
        // build-time demotion must keep the result bit-identical.
        let mut inc = ArchiveSession::new(
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
        let mut inc = ArchiveSession::new(fixture(3));
        inc.resolve();
        let n = inc.instance().num_photos();
        let bad = EpochDelta {
            remove_photos: vec![PhotoId(n as u32 + 7)],
            ..Default::default()
        };
        assert!(inc.apply_delta(&bad).is_err());
        assert_eq!(inc.last_delta_stats(), None, "no delta has applied yet");
        // The resident state is untouched: a plain re-resolve still matches.
        let report = assert_matches_scratch(&mut inc);
        assert_eq!(report.live_streams, 0);
        // A rejected delta after an applied one keeps the applied one's stats.
        let keep = EpochDelta {
            set_budget: Some(inc.instance().budget()),
            ..Default::default()
        };
        let applied = inc.apply_delta(&keep).unwrap().last_delta_stats();
        assert!(applied.is_some());
        assert!(inc.apply_delta(&bad).is_err());
        assert_eq!(inc.last_delta_stats(), applied);
        assert_matches_scratch(&mut inc);
    }

    #[test]
    fn small_deltas_replay_most_streams() {
        // A single-photo removal dirties one component; everything else
        // must replay.
        let mut inc = ArchiveSession::new(fixture(19));
        inc.resolve();
        let delta = EpochDelta {
            remove_photos: vec![PhotoId(0)],
            ..Default::default()
        };
        let stats = inc.apply_delta(&delta).unwrap().last_delta_stats().unwrap();
        assert!(stats.dirty_shards <= 1);
        let report = assert_matches_scratch(&mut inc);
        if report.num_shards > 2 {
            assert!(
                report.replayed_streams > report.live_streams,
                "expected mostly replay: {report:?}"
            );
        }
    }
}
