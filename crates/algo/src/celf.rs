//! CELF-style lazy greedy (Algorithm 2 of the paper).
//!
//! The algorithm maintains a max-priority queue of *cached* marginal gains.
//! By submodularity a photo's gain only decreases as the solution grows, so a
//! cached value is an upper bound: when the top of the queue was recomputed
//! against the *current* solution it can be selected immediately without
//! touching any other candidate. This "lazy evaluation" is what makes the
//! scheme of Leskovec et al. hundreds of times faster than the eager greedy
//! while returning the *identical* solution.
//!
//! Two selection rules are supported (the two invocations of Algorithm 2 made
//! by Algorithm 1):
//!
//! * [`GreedyRule::UnitCost`] — pick the photo with the largest gain `δ_p`;
//! * [`GreedyRule::CostBenefit`] — pick the largest density `δ_p / C(p)`.

use crate::types::{GreedyOutcome, RunStats};
use par_core::{Evaluator, Instance, PhotoId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Selection rule used by [`lazy_greedy`] (the `type` parameter of
/// Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GreedyRule {
    /// `UC`: maximize the marginal gain, ignoring costs (costs still bound
    /// the stopping condition).
    UnitCost,
    /// `CB`: maximize marginal gain per byte.
    CostBenefit,
}

impl GreedyRule {
    /// The priority key for a photo with gain `delta` and cost `cost`.
    #[inline]
    pub(crate) fn key(self, delta: f64, cost: u64) -> f64 {
        match self {
            GreedyRule::UnitCost => delta,
            GreedyRule::CostBenefit => delta / cost as f64,
        }
    }
}

/// A priority-queue entry: cached key, photo, and the solution size at which
/// the key was computed (entries from older solution states are stale).
///
/// Shared with the component-sharded driver in [`crate::sharded`], whose
/// per-shard streams must order entries exactly as the global heap does.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub(crate) key: f64,
    pub(crate) photo: PhotoId,
    pub(crate) epoch: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.photo == other.photo
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on key; ties broken by photo id for determinism.
        self.key
            .total_cmp(&other.key)
            .then_with(|| other.photo.cmp(&self.photo))
    }
}

/// Runs Algorithm 2 (`LazyGreedy(type)`) on `inst` with its budget.
///
/// Starts from `S₀`, then repeatedly selects the affordable photo maximizing
/// the rule's key until nothing fits. Returns the selection (including `S₀`),
/// its score on `inst`, cost, and instrumentation.
pub fn lazy_greedy(inst: &Instance, rule: GreedyRule) -> GreedyOutcome {
    lazy_greedy_from(inst, inst.required(), rule)
}

/// [`lazy_greedy`] resuming from an arbitrary initial selection (which must
/// include `S₀` for the result to be policy-feasible). Used by warm-started
/// and repair-style callers, e.g. the compression module's prune-and-refill
/// pass.
pub fn lazy_greedy_from(inst: &Instance, initial: &[PhotoId], rule: GreedyRule) -> GreedyOutcome {
    let budget = inst.budget();
    let mut ev = Evaluator::new(inst);
    for &p in inst.required() {
        ev.add(p);
    }
    for &p in initial {
        ev.add(p);
    }
    let mut pq_pops = 0u64;
    let mut lazy_accepts = 0u64;

    // Step 0 of Figure 3: every candidate's gain against the initial
    // solution. Seeding the heap with computed epoch-0 keys is equivalent to
    // the classic ∞-key seeding (every ∞ entry pops and is recomputed at
    // epoch 0 before any finite entry can surface), but the whole scan is
    // one embarrassingly-parallel batch. Unaffordable photos are dropped
    // without a gain query, matching the ∞-drain's `fits` short-circuit.
    let candidates: Vec<PhotoId> = (0..inst.num_photos() as u32)
        .map(PhotoId)
        .filter(|&p| !ev.is_selected(p) && ev.fits(p, budget))
        .collect();
    let seed_gains = ev.batch_gains(&candidates);
    let mut heap: BinaryHeap<Entry> = candidates
        .iter()
        .zip(&seed_gains)
        .map(|(&p, &delta)| Entry {
            key: rule.key(delta, inst.cost(p)),
            photo: p,
            epoch: 0,
        })
        .collect();

    let mut epoch: u32 = 0;
    while let Some(top) = heap.pop() {
        pq_pops += 1;
        let p = top.photo;
        if ev.is_selected(p) {
            continue;
        }
        if !ev.fits(p, budget) {
            // Costs only grow; p can never fit again — drop it.
            continue;
        }
        if top.epoch == epoch {
            // currₚ is true: the cached key is valid for the current
            // solution and maximal — select it (lines 13–15 of Algorithm 2).
            lazy_accepts += 1;
            ev.add(p);
            epoch += 1;
            continue;
        }
        // Recompute δₚ against the current solution (line 17) and re-insert.
        let delta = ev.gain(p);
        heap.push(Entry {
            key: rule.key(delta, inst.cost(p)),
            photo: p,
            epoch,
        });
    }

    let stats = ev.stats();
    GreedyOutcome {
        score: ev.score(),
        cost: ev.cost(),
        selected: ev.selected_ids().to_vec(),
        stats: RunStats {
            gain_evals: stats.gain_evals,
            sim_ops: stats.sim_ops,
            pq_pops,
            lazy_accepts,
        },
    }
}

/// The eager reference greedy: recomputes *every* candidate's gain in every
/// iteration. Returns the same solution as [`lazy_greedy`] (ties broken
/// identically) but with `O(n)` gain evaluations per selected photo — the
/// baseline against which the paper's ~700× lazy speedup is measured.
pub fn eager_greedy(inst: &Instance, rule: GreedyRule) -> GreedyOutcome {
    let budget = inst.budget();
    let mut ev = Evaluator::with_required(inst);
    let mut alive: Vec<PhotoId> = (0..inst.num_photos() as u32)
        .map(PhotoId)
        .filter(|&p| !ev.is_selected(p))
        .collect();

    loop {
        let mut best: Option<(f64, PhotoId)> = None;
        alive.retain(|&p| ev.fits(p, budget));
        // Whole-frontier rescan as one parallel batch; the argmax then walks
        // the results in candidate order so ties break exactly as before.
        let gains = ev.batch_gains(&alive);
        for (&p, &delta) in alive.iter().zip(&gains) {
            let key = rule.key(delta, inst.cost(p));
            // Tie-break toward the smaller photo id, matching the heap order.
            let better = match best {
                None => true,
                Some((bk, bp)) => key > bk || (key == bk && p < bp),
            };
            if better {
                best = Some((key, p));
            }
        }
        match best {
            Some((_, p)) => {
                ev.add(p);
                alive.retain(|&x| x != p);
            }
            None => break,
        }
    }

    let stats = ev.stats();
    GreedyOutcome {
        score: ev.score(),
        cost: ev.cost(),
        selected: ev.selected_ids().to_vec(),
        stats: RunStats {
            gain_evals: stats.gain_evals,
            sim_ops: stats.sim_ops,
            pq_pops: 0,
            lazy_accepts: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_core::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};
    use par_core::Solution;

    #[test]
    fn figure3_trace_unit_cost() {
        // Figure 3 of the paper: with type = UC the algorithm selects
        // p1, then p6, then p2 (photo ids 0, 5, 1).
        let inst = figure1_instance(4 * MB);
        let out = lazy_greedy(&inst, GreedyRule::UnitCost);
        assert!(out.selected.len() >= 3);
        assert_eq!(out.selected[0], PhotoId(0), "step 1 selects p1");
        assert_eq!(out.selected[1], PhotoId(5), "step 2 selects p6");
        assert_eq!(out.selected[2], PhotoId(1), "step 3 selects p2");
        assert!(out.cost <= 4 * MB);
    }

    #[test]
    fn figure3_score_after_three_steps() {
        // After p1, p6, p2 the score is 7.83 + 4.61 + 0.81 = 13.25.
        let inst = figure1_instance(3 * MB);
        let out = lazy_greedy(&inst, GreedyRule::UnitCost);
        // Budget 3MB: p1 (1.2) + p6 (1.1) + p2 (0.7) = 3.0MB exactly.
        assert_eq!(out.selected.len(), 3);
        assert!((out.score - 13.25).abs() < 0.02, "score {}", out.score);
    }

    #[test]
    fn lazy_equals_eager() {
        let cfg = RandomInstanceConfig {
            photos: 40,
            subsets: 10,
            ..Default::default()
        };
        for seed in 0..5 {
            let inst = random_instance(seed, &cfg);
            for rule in [GreedyRule::UnitCost, GreedyRule::CostBenefit] {
                let lazy = lazy_greedy(&inst, rule);
                let eager = eager_greedy(&inst, rule);
                assert_eq!(lazy.selected, eager.selected, "seed {seed}, rule {rule:?}");
                assert!((lazy.score - eager.score).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn lazy_needs_fewer_evals() {
        let cfg = RandomInstanceConfig {
            photos: 120,
            subsets: 25,
            subset_size: (3, 10),
            ..Default::default()
        };
        let inst = random_instance(3, &cfg);
        let lazy = lazy_greedy(&inst, GreedyRule::UnitCost);
        let eager = eager_greedy(&inst, GreedyRule::UnitCost);
        assert!(
            lazy.stats.gain_evals < eager.stats.gain_evals,
            "lazy {} vs eager {}",
            lazy.stats.gain_evals,
            eager.stats.gain_evals
        );
        assert!(lazy.stats.lazy_accepts > 0);
    }

    #[test]
    fn respects_budget_and_required() {
        let cfg = RandomInstanceConfig {
            photos: 30,
            subsets: 8,
            required_prob: 0.15,
            budget_fraction: 0.3,
            ..Default::default()
        };
        for seed in 0..5 {
            let inst = random_instance(seed, &cfg);
            for rule in [GreedyRule::UnitCost, GreedyRule::CostBenefit] {
                let out = lazy_greedy(&inst, rule);
                // Feasible: passes Solution validation.
                let sol = Solution::new(&inst, out.selected.clone()).unwrap();
                assert!((sol.score() - out.score).abs() < 1e-6);
                assert_eq!(sol.cost(), out.cost);
            }
        }
    }

    #[test]
    fn saturates_when_budget_covers_everything() {
        let inst = figure1_instance(u64::MAX);
        let out = lazy_greedy(&inst, GreedyRule::CostBenefit);
        assert_eq!(out.selected.len(), 7);
        assert!((out.score - inst.max_score()).abs() < 1e-9);
    }

    #[test]
    fn cost_benefit_prefers_cheap_photos() {
        // Two photos covering equal-weight subsets; the cheaper one must be
        // picked when only one fits.
        use par_core::{InstanceBuilder, UnitSimilarity};
        let mut b = InstanceBuilder::new(10);
        let cheap = b.add_photo("cheap", 10);
        let pricey = b.add_photo("pricey", 100);
        b.add_subset("qa", 1.0, vec![cheap], vec![]);
        b.add_subset("qb", 1.0, vec![pricey], vec![]);
        let inst = b.build_with_provider(&UnitSimilarity).unwrap();
        let out = lazy_greedy(&inst, GreedyRule::CostBenefit);
        assert_eq!(out.selected, vec![cheap]);
    }

    #[test]
    fn unit_cost_can_outgreed_itself_on_costs() {
        // UC ignores costs: a huge high-gain photo is taken first even when
        // two cheap photos would be better — the reason Algorithm 1 also
        // runs CB and takes the max.
        use par_core::{InstanceBuilder, UnitSimilarity};
        let mut b = InstanceBuilder::new(100);
        let big = b.add_photo("big", 100);
        let small1 = b.add_photo("s1", 10);
        let small2 = b.add_photo("s2", 10);
        b.add_subset("qa", 1.1, vec![big], vec![]);
        b.add_subset("qb", 1.0, vec![small1], vec![]);
        b.add_subset("qc", 1.0, vec![small2], vec![]);
        let inst = b.build_with_provider(&UnitSimilarity).unwrap();
        let uc = lazy_greedy(&inst, GreedyRule::UnitCost);
        let cb = lazy_greedy(&inst, GreedyRule::CostBenefit);
        assert_eq!(uc.selected, vec![big]);
        assert_eq!(cb.selected.len(), 2);
        assert!(cb.score > uc.score);
    }
}
