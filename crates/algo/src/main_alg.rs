//! Algorithm 1 of the paper: run `LazyGreedy(UC)` and `LazyGreedy(CB)` and
//! return the better of the two solutions.
//!
//! Taking the max of the unit-cost and cost-benefit greedy outputs is the
//! classical trick of Leskovec et al. that lifts the knapsack-constrained
//! guarantee to `(1 − 1/e)/2`; when all costs are equal the `UC` run alone is
//! the optimal `(1 − 1/e)` greedy of Nemhauser et al., so Algorithm 1 is
//! provably optimal for uniform costs.
//!
//! The two runs share nothing but the prepared post-`S₀` state, so
//! [`main_algorithm_sharded`] runs them at once through [`par_exec::join`]
//! (serially at one installed thread, as every `par-exec` kernel does);
//! each run clones its own evaluator, so outcomes and counters are those of
//! the sequential runs. [`main_algorithm_packed`] stays sequential: both
//! rules there draw on one [`SolveScratch`], and the fleet engine already
//! spreads tenants over the cores. The global [`main_algorithm`] oracle
//! stays sequential too.

use crate::celf::{lazy_greedy, GreedyRule};
use crate::sharded::{ShardedSolver, SolveScratch};
use crate::types::{GreedyOutcome, RunStats};
use par_core::Instance;

/// The result of [`main_algorithm`]: the winning solution plus both sub-runs
/// (the paper reports that `CB` wins roughly 90% of non-uniform-cost runs,
/// which the experiment harness verifies via these fields).
#[derive(Debug, Clone)]
pub struct MainOutcome {
    /// The better of the two runs.
    pub best: GreedyOutcome,
    /// Which rule produced the winner.
    pub winner: GreedyRule,
    /// The unit-cost run.
    pub uc: GreedyOutcome,
    /// The cost-benefit run.
    pub cb: GreedyOutcome,
}

impl MainOutcome {
    /// Aggregated instrumentation over both sub-runs.
    pub fn total_stats(&self) -> RunStats {
        self.uc.stats.merge(&self.cb.stats)
    }
}

/// Runs Algorithm 1 (`MainAlgorithm`) on `inst` with its budget, using the
/// single global CELF heap for both sub-runs.
pub fn main_algorithm(inst: &Instance) -> MainOutcome {
    let uc = lazy_greedy(inst, GreedyRule::UnitCost);
    let cb = lazy_greedy(inst, GreedyRule::CostBenefit);
    pick_winner(uc, cb)
}

/// Runs Algorithm 1 through the component-sharded solver of
/// [`crate::sharded`]: the instance's shards are labeled once and both
/// sub-runs reuse the labels, running at once on two cores when the
/// installed thread count allows. Transcripts (and score bits) are
/// identical to [`main_algorithm`]; only the instrumentation counters
/// differ.
pub fn main_algorithm_sharded(inst: &Instance) -> MainOutcome {
    let solver = ShardedSolver::new(inst);
    let (uc, cb) = par_exec::join(
        || solver.solve(GreedyRule::UnitCost),
        || solver.solve(GreedyRule::CostBenefit),
    );
    pick_winner(uc, cb)
}

/// [`main_algorithm_sharded`] with the component labeling already known,
/// drawing every prepare- and solve-time buffer from `scratch` (and
/// returning the capacity there afterwards): the fleet engine's per-tenant
/// entry point. Catalog-backed serving passes the shard labels persisted in
/// a `phocus-pack` file, so the solver skips the union-find pass entirely;
/// a text tenant passes `shard_labels(inst)`.
///
/// The labels may merge components. They must keep every stored pair, and
/// every dense or unit store of two or more members, inside one non-pool
/// shard, and pool members must share no stored pair (the contract of
/// [`ShardedSolver::new_in_with_labels`]). Under that contract the outcome
/// is bit-identical to [`main_algorithm_sharded`], whatever the scratch
/// previously held — see [`SolveScratch`].
pub fn main_algorithm_packed(
    inst: &Instance,
    labels: par_core::ShardLabels,
    scratch: &mut SolveScratch,
) -> MainOutcome {
    let solver = ShardedSolver::new_in_with_labels(inst, labels, scratch);
    let uc = solver.solve_scratch(GreedyRule::UnitCost, scratch);
    let cb = solver.solve_scratch(GreedyRule::CostBenefit, scratch);
    solver.recycle(scratch);
    pick_winner(uc, cb)
}

/// `argmax(res1, res2)` — ties go to CB, which is also the paper's
/// empirically dominant sub-algorithm. Shared with the epoch-resident
/// solver in [`crate::incremental`], which must reproduce Algorithm 1's
/// winner selection exactly.
pub(crate) fn pick_winner(uc: GreedyOutcome, cb: GreedyOutcome) -> MainOutcome {
    let (winner, best) = if uc.score > cb.score {
        (GreedyRule::UnitCost, uc.clone())
    } else {
        (GreedyRule::CostBenefit, cb.clone())
    };
    MainOutcome {
        best,
        winner,
        uc,
        cb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_core::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};
    use par_core::{exact_score, InstanceBuilder, UnitSimilarity};

    #[test]
    fn best_is_max_of_sub_runs() {
        let inst = figure1_instance(4 * MB);
        let out = main_algorithm(&inst);
        assert!(out.best.score >= out.uc.score - 1e-12);
        assert!(out.best.score >= out.cb.score - 1e-12);
        let exact = exact_score(&inst, &out.best.selected);
        assert!((exact - out.best.score).abs() < 1e-9);
    }

    #[test]
    fn uniform_costs_make_both_rules_agree() {
        let mut b = InstanceBuilder::new(2);
        let p0 = b.add_photo("a", 1);
        let p1 = b.add_photo("b", 1);
        let p2 = b.add_photo("c", 1);
        b.add_subset("q1", 3.0, vec![p0, p1], vec![]);
        b.add_subset("q2", 1.0, vec![p2], vec![]);
        let inst = b.build_with_provider(&UnitSimilarity).unwrap();
        let out = main_algorithm(&inst);
        assert_eq!(out.uc.selected, out.cb.selected);
        assert!((out.uc.score - out.cb.score).abs() < 1e-12);
    }

    #[test]
    fn dominates_each_sub_run_on_random_instances() {
        let cfg = RandomInstanceConfig::default();
        for seed in 0..10 {
            let inst = random_instance(seed, &cfg);
            let out = main_algorithm(&inst);
            assert!(out.best.score + 1e-9 >= out.uc.score.max(out.cb.score));
            assert!(out.best.cost <= inst.budget());
        }
    }

    #[test]
    fn total_stats_aggregates() {
        let inst = figure1_instance(4 * MB);
        let out = main_algorithm(&inst);
        let total = out.total_stats();
        assert_eq!(
            total.gain_evals,
            out.uc.stats.gain_evals + out.cb.stats.gain_evals
        );
    }
}
