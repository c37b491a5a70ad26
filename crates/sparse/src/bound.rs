//! Theorem 4.8: the data-dependent error bound for τ-sparsification.
//!
//! Let `O` be the optimum of the original instance and `O_τ` the optimum of
//! the τ-sparsified instance. If some feasible `S` covers, in the sparsified
//! GFL graph, right nodes of total weight `α · W_R`, then
//!
//! ```text
//! F(O_τ) ≥ OPT / (1 + 1/α)
//! ```
//!
//! The certificate set `S` is Algorithm 1 run on the τ-coverage view
//! ([`Instance::coverage_view`]): every similarity `≥ τ` becomes 1 and every
//! other one 0, so `G(S)` on the view is exactly the right-node weight `S`
//! covers in the sparsified GFL graph, and Algorithm 1 there is the
//! two-rule Budgeted-Max-Coverage greedy. It runs through the sharded
//! solver like every PAR solve, so `S` starts from `S₀` and fits the budget.
//! That feasibility is what the proof needs: it chains
//! `OPT ≤ F_τ(O) + τ·W_R` with `τ·α·W_R ≤ F_τ(S) ≤ F_τ(O_τ)`, and the last
//! step holds only for `S` feasible in the sparsified problem, `S₀`
//! included.
//!
//! Larger `τ` sparsifies more but shrinks `α`; the bound quantifies that
//! trade-off *for the given data*, which in practice is far tighter than
//! any a-priori worst case.

use par_algo::main_algorithm_sharded;
use par_core::Instance;

/// The Theorem 4.8 certificate for a concrete instance and threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsificationBound {
    /// The threshold τ the bound certifies.
    pub tau: f64,
    /// Fraction `α` of the total right-node weight covered by the
    /// certificate set, a feasible `S ⊇ S₀`.
    pub alpha: f64,
    /// The guaranteed factor `1 / (1 + 1/α) = α / (1 + α)`: the sparsified
    /// optimum retains at least this fraction of the original optimum.
    pub factor: f64,
    /// Covered right-node weight of the certificate.
    pub covered_weight: f64,
    /// Total right-node weight `W_R`.
    pub total_weight: f64,
}

/// Computes the Theorem 4.8 bound for sparsifying `inst` at threshold `tau`.
///
/// Note the certificate uses a greedy (not optimal) coverage solution, so the
/// reported `α` — and hence the factor — is itself a safe *under*-estimate.
pub fn sparsification_bound(inst: &Instance, tau: f64) -> SparsificationBound {
    // W_R = Σ_q Σ_{p∈q} W(q)·R(q,p), summed in member order.
    let total_weight: f64 = inst
        .subsets()
        .iter()
        .flat_map(|q| q.relevance.iter().map(move |&r| q.weight * r))
        .sum();
    let covered_weight = main_algorithm_sharded(&inst.coverage_view(tau)).best.score;
    let alpha = if total_weight > 0.0 {
        covered_weight / total_weight
    } else {
        0.0
    };
    let factor = if alpha > 0.0 {
        alpha / (1.0 + alpha)
    } else {
        0.0
    };
    SparsificationBound {
        tau,
        alpha,
        factor,
        covered_weight,
        total_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_algo::{brute_force, BruteForceConfig};
    use par_core::exact_score;
    use par_core::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};
    use par_exec::Parallelism;

    /// Small instances where about a quarter of the photos are in `S₀`.
    fn with_required(seed: u64) -> Instance {
        random_instance(
            seed,
            &RandomInstanceConfig {
                photos: 12,
                subsets: 5,
                subset_size: (2, 6),
                cost_range: (50, 400),
                budget_fraction: 0.35,
                required_prob: 0.25,
            },
        )
    }

    #[test]
    fn figure1_bound_is_meaningful() {
        let inst = figure1_instance(3 * MB);
        let b = sparsification_bound(&inst, 0.6);
        assert!(b.alpha > 0.0 && b.alpha <= 1.0);
        assert!(b.factor > 0.0 && b.factor < 1.0);
        assert!((b.total_weight - 14.0).abs() < 1e-9);
    }

    #[test]
    fn bound_factor_increases_with_alpha() {
        // A generous budget covers more weight → larger α → better factor.
        let small = sparsification_bound(&figure1_instance(2 * MB), 0.6);
        let large = sparsification_bound(&figure1_instance(8 * MB), 0.6);
        assert!(large.alpha >= small.alpha - 1e-12);
        assert!(large.factor >= small.factor - 1e-12);
    }

    #[test]
    fn theorem_holds_against_brute_force() {
        // F(O_τ) ≥ factor · OPT on instances small enough to solve exactly.
        let cfg = RandomInstanceConfig {
            photos: 12,
            subsets: 5,
            budget_fraction: 0.4,
            ..Default::default()
        };
        for seed in 0..6 {
            let inst = random_instance(seed, &cfg);
            for tau in [0.3, 0.5, 0.8] {
                let bound = sparsification_bound(&inst, tau);
                let opt = brute_force(&inst, &BruteForceConfig::default())
                    .unwrap()
                    .score;
                let sparse = inst.sparsify(tau);
                let opt_tau = brute_force(&sparse, &BruteForceConfig::default())
                    .unwrap()
                    .score;
                assert!(
                    opt_tau + 1e-9 >= bound.factor * opt,
                    "seed {seed}, τ={tau}: OPT_τ={opt_tau} < {} · OPT={opt}",
                    bound.factor
                );
            }
        }
    }

    #[test]
    fn tau_zero_keeps_everything() {
        let inst = figure1_instance(4 * MB);
        // With τ=0 no edges are dropped, so the certificate covers the full
        // GFL graph and α is maximal for this budget.
        let b0 = sparsification_bound(&inst, 0.0);
        let b9 = sparsification_bound(&inst, 0.9);
        assert!(b0.alpha >= b9.alpha - 1e-12);
    }

    #[test]
    fn certificate_set_is_feasible_and_contains_required_photos() {
        for seed in 0..20 {
            let inst = with_required(seed);
            for tau in [0.3, 0.6, 0.9] {
                let best = main_algorithm_sharded(&inst.coverage_view(tau)).best;
                assert!(best.cost <= inst.budget(), "seed {seed} τ={tau}");
                for p in inst.required() {
                    assert!(best.selected.contains(p), "seed {seed} τ={tau}: {p:?}");
                }
                let bound = sparsification_bound(&inst, tau);
                assert_eq!(best.score.to_bits(), bound.covered_weight.to_bits());
            }
        }
    }

    #[test]
    fn covered_weight_meets_the_greedy_guarantee_on_the_view() {
        let guarantee = (1.0 - 1.0 / std::f64::consts::E) / 2.0;
        for seed in 0..20 {
            let inst = with_required(seed);
            for tau in [0.3, 0.6, 0.9] {
                let opt = brute_force(&inst.coverage_view(tau), &BruteForceConfig::default())
                    .unwrap()
                    .score;
                let covered = sparsification_bound(&inst, tau).covered_weight;
                assert!(
                    covered + 1e-9 >= guarantee * opt,
                    "seed {seed} τ={tau}: covered {covered} < {guarantee} · {opt}"
                );
            }
        }
    }

    #[test]
    fn budget_of_required_photos_certifies_their_own_coverage() {
        for seed in 0..20 {
            let inst = with_required(seed);
            let inst = inst.with_budget(inst.required_cost()).unwrap();
            for tau in [0.3, 0.6, 0.9] {
                let bound = sparsification_bound(&inst, tau);
                let own = exact_score(&inst.coverage_view(tau), inst.required());
                assert!(
                    (bound.alpha - own / bound.total_weight).abs() < 1e-12,
                    "seed {seed} τ={tau}: α {} vs {own} / {}",
                    bound.alpha,
                    bound.total_weight
                );
            }
        }
    }

    #[test]
    fn alpha_bits_are_identical_across_thread_counts() {
        for seed in 0..10 {
            let inst = with_required(seed);
            let alpha_at = |threads: usize| {
                let prev = Parallelism::with_threads(threads).install_global();
                let alpha = sparsification_bound(&inst, 0.6).alpha;
                prev.install_global();
                alpha
            };
            assert_eq!(alpha_at(1).to_bits(), alpha_at(2).to_bits(), "seed {seed}");
        }
    }
}
