//! The PHOcus Solver facade: represent → solve → certify.

use crate::error::Result;
use crate::representation::{represent, RepresentationConfig, Sparsification};
use par_algo::{
    main_algorithm, main_algorithm_sharded, online_bound, GreedyRule, OnlineBound, RunStats,
};
use par_core::{Instance, PhotoId};
use par_datasets::Universe;
use par_exec::Parallelism;
use par_sparse::{sparsification_bound, SparsificationBound};
use std::time::{Duration, Instant};

/// Configuration of a full PHOcus run.
#[derive(Debug, Clone)]
pub struct PhocusConfig {
    /// The representation choices (contextualization, sparsification, …).
    pub representation: RepresentationConfig,
    /// Compute the Theorem 4.8 certificate when sparsifying (adds one
    /// Algorithm 1 run on the τ-coverage view, from `S₀`).
    pub certify_sparsification: bool,
    /// Worker threads for the parallel kernels (gain batches, SimHash
    /// signing, sparsification, exact scoring). Installed as the
    /// process-wide default for the duration of each run; the selection and
    /// scores are identical at every thread count.
    pub parallelism: Parallelism,
    /// Solve through the component-sharded CELF driver (default on) rather
    /// than the global one. Both settings return identical answers —
    /// selection transcript and score bits, at every thread count — so the
    /// field stays only while `phocus-bench` sets it (ROADMAP item 1).
    pub sharding: bool,
}

impl Default for PhocusConfig {
    fn default() -> Self {
        PhocusConfig {
            representation: RepresentationConfig::default(),
            certify_sparsification: false,
            parallelism: Parallelism::default(),
            sharding: true,
        }
    }
}

/// The outcome of a PHOcus run.
#[derive(Debug, Clone)]
pub struct PhocusReport {
    /// Retained photos (including `S₀`), in selection order.
    pub selected: Vec<PhotoId>,
    /// Objective value on the selection instance.
    pub score: f64,
    /// Solution cost in bytes.
    pub cost: u64,
    /// Which greedy rule won inside Algorithm 1.
    pub winner: GreedyRule,
    /// Aggregated solver instrumentation (both sub-runs).
    pub stats: RunStats,
    /// The a-posteriori online bound on the selection instance.
    pub online: OnlineBound,
    /// Theorem 4.8 certificate (present when sparsifying and requested).
    pub sparsification: Option<SparsificationBound>,
    /// Stored similarity pairs in the represented instance.
    pub stored_pairs: usize,
    /// Wall-clock time of representation.
    pub represent_time: Duration,
    /// Wall-clock time of solving.
    pub solve_time: Duration,
    /// Worker threads the run resolved to (1 = serial).
    pub threads: usize,
}

/// The PHOcus system: holds a configuration, solves universes.
#[derive(Debug, Clone, Default)]
pub struct Phocus {
    /// The run configuration.
    pub config: PhocusConfig,
}

impl Phocus {
    /// Creates a solver with the given configuration.
    pub fn new(config: PhocusConfig) -> Self {
        Phocus { config }
    }

    /// Represents the universe under `budget` and solves it.
    ///
    /// Returns a typed [`crate::PhocusError`] — never panics — when the
    /// universe cannot be represented (e.g. the required set `S₀` alone
    /// exceeds `budget`, surfacing as
    /// [`par_core::ModelError::RequiredSetOverBudget`]).
    pub fn solve(&self, universe: &Universe, budget: u64) -> Result<PhocusReport> {
        let prev = self.config.parallelism.install_global();
        let result = (|| {
            let t0 = Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported timing field only
            let inst = represent(universe, budget, &self.config.representation)?;
            let represent_time = t0.elapsed();
            Ok(self.solve_instance_inner(&inst, represent_time))
        })();
        prev.install_global();
        result
    }

    /// Solves an already-represented instance.
    pub fn solve_instance(&self, inst: &Instance, represent_time: Duration) -> PhocusReport {
        let prev = self.config.parallelism.install_global();
        let report = self.solve_instance_inner(inst, represent_time);
        prev.install_global();
        report
    }

    fn solve_instance_inner(&self, inst: &Instance, represent_time: Duration) -> PhocusReport {
        let t1 = Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported timing field only
        let outcome = if self.config.sharding {
            main_algorithm_sharded(inst)
        } else {
            main_algorithm(inst)
        };
        let solve_time = t1.elapsed();
        let online = online_bound(inst, &outcome.best.selected);
        let sparsification = match (
            self.config.certify_sparsification,
            self.config.representation.sparsification,
        ) {
            (true, Sparsification::Threshold { tau }) | (true, Sparsification::Lsh { tau, .. }) => {
                Some(sparsification_bound(inst, tau))
            }
            _ => None,
        };
        PhocusReport {
            selected: outcome.best.selected.clone(),
            score: outcome.best.score,
            cost: outcome.best.cost,
            winner: outcome.winner,
            stats: outcome.total_stats(),
            online,
            sparsification,
            stored_pairs: inst.stored_pairs(),
            represent_time,
            solve_time,
            threads: self.config.parallelism.resolve(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_datasets::{generate_openimages, OpenImagesConfig};

    fn universe() -> Universe {
        generate_openimages(&OpenImagesConfig {
            name: "S".into(),
            photos: 150,
            target_subsets: 30,
            seed: 21,
            ..Default::default()
        })
    }

    #[test]
    fn phocus_ns_solves_and_certifies() {
        let u = universe();
        let solver = Phocus::default();
        let report = solver.solve(&u, u.total_cost() / 4).unwrap();
        assert!(!report.selected.is_empty());
        assert!(report.cost <= u.total_cost() / 4);
        assert!(report.score > 0.0);
        assert!(report.online.ratio > 0.3, "ratio {}", report.online.ratio);
        assert!(report.sparsification.is_none());
    }

    #[test]
    fn phocus_with_lsh_certificate() {
        let u = universe();
        let solver = Phocus::new(PhocusConfig {
            representation: RepresentationConfig::phocus(0.6),
            certify_sparsification: true,
            ..Default::default()
        });
        let report = solver.solve(&u, u.total_cost() / 4).unwrap();
        let cert = report.sparsification.expect("certificate requested");
        assert!(cert.alpha > 0.0 && cert.factor > 0.0);
        assert_eq!(cert.tau, 0.6);
    }

    #[test]
    fn sparsified_run_stores_fewer_pairs() {
        let u = universe();
        let dense = Phocus::default().solve(&u, u.total_cost() / 4).unwrap();
        let sparse = Phocus::new(PhocusConfig {
            representation: RepresentationConfig::phocus(0.7),
            ..Default::default()
        })
        .solve(&u, u.total_cost() / 4)
        .unwrap();
        assert!(sparse.stored_pairs < dense.stored_pairs);
    }

    #[test]
    fn sharding_toggle_is_bit_identical() {
        let u = universe();
        let budget = u.total_cost() / 4;
        let solve = |sharding: bool| {
            Phocus::new(PhocusConfig {
                representation: RepresentationConfig::phocus(0.7),
                sharding,
                ..Default::default()
            })
            .solve(&u, budget)
            .unwrap()
        };
        let on = solve(true);
        let off = solve(false);
        assert_eq!(on.selected, off.selected);
        assert_eq!(on.score.to_bits(), off.score.to_bits());
        assert_eq!(on.cost, off.cost);
        assert_eq!(on.winner, off.winner);
    }

    #[test]
    fn full_budget_retains_everything() {
        let u = universe();
        let report = Phocus::default().solve(&u, u.total_cost()).unwrap();
        assert_eq!(report.selected.len(), u.num_photos());
    }
}
