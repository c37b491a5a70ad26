//! Swap-based local search: a post-optimization pass over any feasible
//! solution.
//!
//! The greedy's only weakness is commitment — it never revisits a choice.
//! This pass repeatedly tries exchanging one selected photo for one or
//! two unselected photos (classic 1-swap with knapsack feasibility),
//! accepting strictly improving exchanges until a local optimum or an
//! iteration cap. It never decreases the objective, always preserves
//! feasibility and `S₀`, and in practice closes part of the remaining gap
//! to optimal on adversarial instances (see the ablation bench).

use crate::types::{GreedyOutcome, RunStats};
use par_core::{exact_score, Evaluator, Instance, PhotoId};

/// Configuration for [`swap_local_search`].
#[derive(Debug, Clone)]
pub struct LocalSearchConfig {
    /// Maximum improving swaps to apply.
    pub max_swaps: usize,
    /// Minimum relative improvement for a swap to be accepted (guards
    /// against float-noise cycling).
    pub min_relative_gain: f64,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig {
            max_swaps: 64,
            min_relative_gain: 1e-6,
        }
    }
}

/// Improves `initial` by 1-out/1-in swaps. Returns the improved solution
/// (`stats.pq_pops` counts accepted swaps).
///
/// The candidate exploration runs on one incremental [`Evaluator`] using
/// `remove`/`add` with undo — no per-candidate rebuilds — so a full sweep is
/// `O(|S| · n · deg)`.
pub fn swap_local_search(
    inst: &Instance,
    initial: &[PhotoId],
    cfg: &LocalSearchConfig,
) -> GreedyOutcome {
    let budget = inst.budget();
    let mut ev = Evaluator::new(inst);
    for &p in initial {
        ev.add(p);
    }
    let mut swaps = 0u64;

    'outer: while swaps < cfg.max_swaps as u64 {
        let candidates_out: Vec<PhotoId> = ev
            .selected_ids()
            .iter()
            .copied()
            .filter(|&p| !inst.is_required(p))
            .collect();
        for out in candidates_out {
            let score_with_out = ev.score();
            ev.remove(out);
            let freed = ev.cost();
            let mut best: Option<(f64, PhotoId)> = None;
            let candidates_in: Vec<PhotoId> = (0..inst.num_photos() as u32)
                .map(PhotoId)
                .filter(|&p| {
                    !ev.is_selected(p) && p != out && freed + inst.cost(p) <= budget
                })
                .collect();
            // One parallel batch per removed photo; evaluated against the
            // fixed post-removal state, scanned in candidate order.
            let gains = ev.batch_gains(&candidates_in);
            for (&p, &g) in candidates_in.iter().zip(&gains) {
                let cand = ev.score() + g;
                if cand > score_with_out * (1.0 + cfg.min_relative_gain)
                    && best.map(|(b, _)| cand > b).unwrap_or(true)
                {
                    best = Some((cand, p));
                }
            }
            match best {
                Some((_, p)) => {
                    ev.add(p);
                    swaps += 1;
                    continue 'outer; // restart scan from the improved solution
                }
                None => {
                    ev.add(out); // undo: no improving replacement for `out`
                }
            }
        }
        break; // no improving swap exists: local optimum
    }

    let mut selected = ev.selected_ids().to_vec();
    selected.sort_unstable();
    let stats = ev.stats();
    GreedyOutcome {
        score: exact_score(inst, &selected),
        cost: ev.cost(),
        selected,
        stats: RunStats {
            gain_evals: stats.gain_evals,
            sim_ops: stats.sim_ops,
            pq_pops: swaps,
            lazy_accepts: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::rand_a;
    use crate::{brute_force, main_algorithm, BruteForceConfig};
    use par_core::fixtures::{random_instance, RandomInstanceConfig};
    use par_core::Solution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn never_decreases_score_and_stays_feasible() {
        let cfg = RandomInstanceConfig {
            photos: 30,
            subsets: 8,
            budget_fraction: 0.3,
            required_prob: 0.1,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        for seed in 0..6 {
            let inst = random_instance(seed, &cfg);
            let init = rand_a(&inst, &mut rng);
            let before = par_core::exact_score(&inst, &init);
            let out = swap_local_search(&inst, &init, &LocalSearchConfig::default());
            assert!(out.score + 1e-9 >= before, "seed {seed}");
            let sol = Solution::new(&inst, out.selected.clone()).unwrap();
            assert!(sol.cost() <= inst.budget());
        }
    }

    #[test]
    fn improves_random_solutions_substantially() {
        let cfg = RandomInstanceConfig {
            photos: 40,
            subsets: 12,
            budget_fraction: 0.25,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut improved = 0;
        for seed in 0..6 {
            let inst = random_instance(seed, &cfg);
            let init = rand_a(&inst, &mut rng);
            let before = par_core::exact_score(&inst, &init);
            let out = swap_local_search(&inst, &init, &LocalSearchConfig::default());
            if out.score > before * 1.02 {
                improved += 1;
            }
        }
        assert!(
            improved >= 4,
            "local search improved only {improved}/6 runs"
        );
    }

    #[test]
    fn greedy_plus_local_search_approaches_optimum() {
        let cfg = RandomInstanceConfig {
            photos: 12,
            subsets: 5,
            budget_fraction: 0.35,
            ..Default::default()
        };
        for seed in 0..6 {
            let inst = random_instance(seed, &cfg);
            let greedy = main_algorithm(&inst).best;
            let polished =
                swap_local_search(&inst, &greedy.selected, &LocalSearchConfig::default());
            let opt = brute_force(&inst, &BruteForceConfig::default())
                .unwrap()
                .score;
            assert!(polished.score + 1e-9 >= greedy.score);
            assert!(
                polished.score >= 0.9 * opt,
                "seed {seed}: polished {} vs OPT {opt}",
                polished.score
            );
        }
    }

    #[test]
    fn local_optimum_terminates() {
        let cfg = RandomInstanceConfig {
            photos: 20,
            subsets: 6,
            ..Default::default()
        };
        let inst = random_instance(11, &cfg);
        let greedy = main_algorithm(&inst).best;
        let out = swap_local_search(&inst, &greedy.selected, &LocalSearchConfig::default());
        // Running again from the local optimum changes nothing.
        let again = swap_local_search(&inst, &out.selected, &LocalSearchConfig::default());
        assert_eq!(out.selected, again.selected);
        assert_eq!(again.stats.pq_pops, 0);
    }
}
