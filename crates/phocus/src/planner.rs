//! Budget planning: the inverse question.
//!
//! The paper optimizes quality under a fixed budget; a storage planner
//! usually asks the opposite — *how much online storage do I need to keep
//! X% of the quality?* Since the greedy's achieved quality is monotone
//! nondecreasing in the budget (more room never hurts — verified by an
//! integration test), the minimal sufficient budget can be found by binary
//! search over solver runs.

use crate::error::{PhocusError, Result};
use crate::representation::{represent, RepresentationConfig};
use par_algo::{GreedyRule, ShardedSolver};
use par_datasets::Universe;

/// The outcome of a budget search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPlan {
    /// The smallest probed budget (bytes) reaching the target quality.
    pub budget: u64,
    /// The quality fraction achieved at that budget.
    pub achieved_fraction: f64,
    /// Budget as a fraction of the archive cost.
    pub budget_fraction: f64,
    /// Solver probes spent.
    pub probes: usize,
}

/// Finds (to within `tolerance` bytes) the minimal budget at which
/// Algorithm 1 achieves `target_fraction` of the maximum quality `Σ W(q)`.
///
/// Similarity stores do not depend on the budget, so the universe is
/// represented once, at the archive cost, and one prepared
/// [`ShardedSolver`] answers every probe with both greedy rules
/// ([`ShardedSolver::solve_with_budget`], bit-identical to Algorithm 1 on
/// the instance at that budget). Runs on the installed worker threads; the
/// plan is identical at every thread count.
///
/// Returns an error from representation if the universe is invalid;
/// `target_fraction` must be in `(0, 1]`. A target of exactly 1.0 returns
/// the full archive cost (only full retention scores Σ W(q)).
pub fn minimal_budget(
    universe: &Universe,
    target_fraction: f64,
    cfg: &RepresentationConfig,
    tolerance: u64,
) -> Result<BudgetPlan> {
    if !(target_fraction > 0.0 && target_fraction <= 1.0) {
        return Err(PhocusError::InvalidTarget(target_fraction));
    }
    let total = universe.total_cost();
    let tolerance = tolerance.max(1);

    let inst = represent(universe, total, cfg)?;
    let solver = ShardedSolver::new(&inst);
    let max_score = inst.max_score().max(f64::MIN_POSITIVE);
    let mut probes = 0usize;
    let mut achieved = |budget: u64| -> f64 {
        probes += 1;
        let (uc, cb) = par_exec::join(
            || solver.solve_with_budget(GreedyRule::UnitCost, budget),
            || solver.solve_with_budget(GreedyRule::CostBenefit, budget),
        );
        uc.score.max(cb.score) / max_score
    };

    // The required set is the floor of feasible budgets.
    let floor: u64 = universe
        .required
        .iter()
        .map(|&r| universe.costs[r as usize])
        .sum();
    let mut lo = floor; // quality at lo may or may not reach the target
    let mut hi = total; // always reaches every target ≤ 1
    let mut hi_fraction = 1.0;

    // Early exit: maybe the floor already suffices.
    let lo_fraction = achieved(lo.max(1));
    if lo_fraction >= target_fraction {
        return Ok(BudgetPlan {
            budget: lo.max(1),
            achieved_fraction: lo_fraction,
            budget_fraction: lo.max(1) as f64 / total.max(1) as f64,
            probes,
        });
    }

    while hi - lo > tolerance {
        let mid = lo + (hi - lo) / 2;
        let f = achieved(mid);
        if f >= target_fraction {
            hi = mid;
            hi_fraction = f;
        } else {
            lo = mid;
        }
    }

    Ok(BudgetPlan {
        budget: hi,
        achieved_fraction: hi_fraction,
        budget_fraction: hi as f64 / total.max(1) as f64,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_datasets::{generate_openimages, OpenImagesConfig};

    fn universe() -> Universe {
        generate_openimages(&OpenImagesConfig {
            name: "plan".into(),
            photos: 200,
            target_subsets: 40,
            seed: 61,
            ..Default::default()
        })
    }

    #[test]
    fn plan_reaches_target() {
        let u = universe();
        let cfg = RepresentationConfig::default();
        let plan = minimal_budget(&u, 0.8, &cfg, u.total_cost() / 200).unwrap();
        assert!(plan.achieved_fraction >= 0.8);
        assert!(plan.budget <= u.total_cost());
        assert!(plan.probes > 1);
        // Verify minimality (within tolerance): a noticeably smaller budget
        // must fall short.
        let smaller = plan.budget.saturating_sub(u.total_cost() / 20).max(1);
        let inst = represent(&u, smaller, &cfg).unwrap();
        let out = par_algo::main_algorithm(&inst);
        let f = out.best.score / inst.max_score();
        assert!(f < 0.8 + 0.02, "budget not near-minimal: {f} at {smaller}");
    }

    #[test]
    fn higher_targets_need_more_budget() {
        let u = universe();
        let cfg = RepresentationConfig::default();
        let tol = u.total_cost() / 100;
        let p50 = minimal_budget(&u, 0.5, &cfg, tol).unwrap();
        let p90 = minimal_budget(&u, 0.9, &cfg, tol).unwrap();
        assert!(p90.budget > p50.budget);
        assert!(p90.budget_fraction <= 1.0);
    }

    #[test]
    fn trivial_target_costs_little() {
        let u = universe();
        let cfg = RepresentationConfig::default();
        let plan = minimal_budget(&u, 0.05, &cfg, u.total_cost() / 100).unwrap();
        // 5% of quality needs far less than 5% of storage (greedy picks the
        // highest-value photos first).
        assert!(
            plan.budget_fraction < 0.05,
            "needed {:.3} of storage",
            plan.budget_fraction
        );
    }

    /// Reference: the same search with a fresh representation and the
    /// global Algorithm 1 oracle at every probe.
    fn per_probe_plan(
        u: &Universe,
        target: f64,
        cfg: &RepresentationConfig,
        tol: u64,
    ) -> BudgetPlan {
        let total = u.total_cost();
        let mut probes = 0;
        let mut achieved = |budget: u64| {
            probes += 1;
            let inst = represent(u, budget, cfg).unwrap();
            par_algo::main_algorithm(&inst).best.score / inst.max_score().max(f64::MIN_POSITIVE)
        };
        let floor: u64 = u.required.iter().map(|&r| u.costs[r as usize]).sum();
        let (mut lo, mut hi, mut hi_fraction) = (floor, total, 1.0);
        let lo_fraction = achieved(lo.max(1));
        if lo_fraction >= target {
            let budget = lo.max(1);
            return BudgetPlan {
                budget,
                achieved_fraction: lo_fraction,
                budget_fraction: budget as f64 / total as f64,
                probes,
            };
        }
        while hi - lo > tol {
            let mid = lo + (hi - lo) / 2;
            let f = achieved(mid);
            if f >= target {
                (hi, hi_fraction) = (mid, f);
            } else {
                lo = mid;
            }
        }
        BudgetPlan {
            budget: hi,
            achieved_fraction: hi_fraction,
            budget_fraction: hi as f64 / total as f64,
            probes,
        }
    }

    #[test]
    fn one_representation_plans_like_one_per_probe() {
        for seed in [61, 62, 63] {
            let mut u = generate_openimages(&OpenImagesConfig {
                name: "plan".into(),
                photos: 120,
                target_subsets: 25,
                seed,
                ..Default::default()
            });
            u.required = vec![0, 5];
            let tol = u.total_cost() / 100;
            for cfg in [RepresentationConfig::default(), RepresentationConfig::phocus(0.6)] {
                for target in [0.05, 0.3, 0.5, 0.7, 0.9, 1.0] {
                    let plan = minimal_budget(&u, target, &cfg, tol).unwrap();
                    let reference = per_probe_plan(&u, target, &cfg, tol);
                    assert_eq!(plan.budget, reference.budget, "seed {seed} target {target}");
                    assert_eq!(plan.probes, reference.probes);
                    assert_eq!(
                        plan.achieved_fraction.to_bits(),
                        reference.achieved_fraction.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn required_floor_is_respected() {
        let mut u = universe();
        u.required = vec![0, 1, 2, 3];
        let cfg = RepresentationConfig::default();
        let floor: u64 = u.required.iter().map(|&r| u.costs[r as usize]).sum();
        let plan = minimal_budget(&u, 0.01, &cfg, 1_000).unwrap();
        assert!(plan.budget >= floor);
    }
}
