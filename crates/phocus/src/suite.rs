//! The experiment suite: every algorithm of Section 5.2 run on a common
//! universe and budget, all *evaluated under the true objective* (the dense
//! contextual instance), regardless of which simplified view each baseline
//! used for selection.

// phocus-lint: allow-file(wall-clock) — the suite reports wall time for every algorithm it runs

use crate::error::Result;
use crate::representation::{non_contextual_view, represent, RepresentationConfig, Sparsification};
use par_algo::{baselines, lazy_greedy, main_algorithm_sharded, GreedyRule};
use par_core::{Instance, PhotoId, Solution};
use par_datasets::Universe;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The algorithms the suite can run (Section 5.2's comparison set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// PHOcus: contextual + LSH τ-sparsification + Algorithm 1.
    Phocus,
    /// PHOcus-NS: contextual, dense (no sparsification) + Algorithm 1.
    PhocusNs,
    /// Greedy ignoring similarity (weighted coverage view).
    GreedyNr,
    /// Greedy with non-contextual (global) similarity.
    GreedyNcs,
    /// Random additive baseline.
    RandA,
    /// Random deletive baseline.
    RandD,
}

impl Algo {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Phocus => "PHOcus",
            Algo::PhocusNs => "PHOcus-NS",
            Algo::GreedyNr => "Greedy-NR",
            Algo::GreedyNcs => "Greedy-NCS",
            Algo::RandA => "RAND-A",
            Algo::RandD => "RAND-D",
        }
    }

    /// The default comparison set of Figures 5a–5c (RAND-D omitted, as in
    /// the paper, because it tracks RAND-A).
    pub fn default_set() -> Vec<Algo> {
        vec![Algo::RandA, Algo::GreedyNr, Algo::GreedyNcs, Algo::Phocus]
    }
}

/// Configuration of a suite run.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Algorithms to run.
    pub algos: Vec<Algo>,
    /// Sparsification threshold τ for the PHOcus entry (LSH target recall
    /// 0.95; every entry otherwise represents with the default
    /// [`RepresentationConfig`]).
    pub tau: f64,
    /// Seed for the random baselines.
    pub rand_seed: u64,
    /// Number of RAND trials averaged into the reported quality.
    pub rand_trials: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            algos: Algo::default_set(),
            tau: 0.6,
            rand_seed: 0xBA5E,
            rand_trials: 5,
        }
    }
}

/// One algorithm's result within a suite run.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// The algorithm.
    pub algo: Algo,
    /// True-objective quality `G(S)` of the selection.
    pub quality: f64,
    /// Selection cost in bytes.
    pub cost: u64,
    /// Number of retained photos.
    pub retained: usize,
    /// Time spent building this entry's selection view (zero when it reuses
    /// the shared evaluation instance).
    pub represent_time: Duration,
    /// Time spent selecting.
    pub solve_time: Duration,
}

/// The outcome of a suite run on one (universe, budget) point.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// The budget used (bytes).
    pub budget: u64,
    /// `Σ_q W(q)` — the maximum attainable quality.
    pub max_score: f64,
    /// Per-algorithm results, in `algos` order.
    pub entries: Vec<SuiteEntry>,
    /// Time to build the shared dense evaluation instance.
    pub eval_represent_time: Duration,
}

/// Evaluates a selection under the true objective.
fn entry(
    algo: Algo,
    eval: &Instance,
    ids: Vec<PhotoId>,
    represent_time: Duration,
    solve_time: Duration,
) -> SuiteEntry {
    let sol = Solution::new_unchecked(eval, ids);
    SuiteEntry {
        algo,
        quality: sol.score(),
        cost: sol.cost(),
        retained: sol.len(),
        represent_time,
        solve_time,
    }
}

/// Runs the configured algorithms on `universe` under `budget`.
pub fn run_suite(universe: &Universe, budget: u64, cfg: &SuiteConfig) -> Result<SuiteResult> {
    // Shared true-objective instance: dense contextual, the default.
    let t_eval = Instant::now();
    let eval = represent(universe, budget, &RepresentationConfig::default())?;
    let eval_represent_time = t_eval.elapsed();

    let mut entries = Vec::with_capacity(cfg.algos.len());
    for &algo in &cfg.algos {
        let e = match algo {
            Algo::PhocusNs => {
                let t = Instant::now();
                let out = main_algorithm_sharded(&eval);
                entry(
                    algo,
                    &eval,
                    out.best.selected,
                    eval_represent_time,
                    t.elapsed(),
                )
            }
            Algo::Phocus => {
                let repr = RepresentationConfig {
                    sparsification: Sparsification::Lsh {
                        tau: cfg.tau,
                        target_recall: 0.95,
                        seed: cfg.rand_seed ^ 0x15AAC,
                    },
                    ..Default::default()
                };
                let t_r = Instant::now();
                let inst = represent(universe, budget, &repr)?;
                let represent_time = t_r.elapsed();
                let t_s = Instant::now();
                let out = main_algorithm_sharded(&inst);
                entry(
                    algo,
                    &eval,
                    out.best.selected,
                    represent_time,
                    t_s.elapsed(),
                )
            }
            Algo::GreedyNr => {
                let t_r = Instant::now();
                let view = eval.with_unit_sims();
                let represent_time = t_r.elapsed();
                let t_s = Instant::now();
                let ids = lazy_greedy(&view, GreedyRule::UnitCost).selected;
                entry(algo, &eval, ids, represent_time, t_s.elapsed())
            }
            Algo::GreedyNcs => {
                let t_r = Instant::now();
                let view = non_contextual_view(&eval, universe)?;
                let represent_time = t_r.elapsed();
                let t_s = Instant::now();
                let ids = lazy_greedy(&view, GreedyRule::UnitCost).selected;
                entry(algo, &eval, ids, represent_time, t_s.elapsed())
            }
            Algo::RandA | Algo::RandD => {
                let mut rng = StdRng::seed_from_u64(cfg.rand_seed);
                let trials = cfg.rand_trials.max(1);
                let t = Instant::now();
                let mut total_quality = 0.0;
                let mut total_cost = 0u64;
                let mut total_retained = 0usize;
                for _ in 0..trials {
                    let ids = if algo == Algo::RandA {
                        baselines::rand_a(&eval, &mut rng)
                    } else {
                        baselines::rand_d(&eval, &mut rng)
                    };
                    let sol = Solution::new_unchecked(&eval, ids);
                    total_quality += sol.score();
                    total_cost += sol.cost();
                    total_retained += sol.len();
                }
                SuiteEntry {
                    algo,
                    quality: total_quality / trials as f64,
                    cost: total_cost / trials as u64,
                    retained: total_retained / trials,
                    represent_time: Duration::ZERO,
                    solve_time: t.elapsed() / trials as u32,
                }
            }
        };
        entries.push(e);
    }

    Ok(SuiteResult {
        budget,
        max_score: eval.max_score(),
        entries,
        eval_represent_time,
    })
}

impl SuiteResult {
    /// The entry for an algorithm, if it ran.
    pub fn get(&self, algo: Algo) -> Option<&SuiteEntry> {
        self.entries.iter().find(|e| e.algo == algo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_datasets::{generate_openimages, OpenImagesConfig};

    fn universe() -> Universe {
        generate_openimages(&OpenImagesConfig {
            name: "suite".into(),
            photos: 200,
            target_subsets: 40,
            seed: 31,
            ..Default::default()
        })
    }

    #[test]
    fn paper_ranking_holds_at_tight_budget() {
        let u = universe();
        let budget = u.total_cost() / 8;
        let cfg = SuiteConfig::default();
        let res = run_suite(&u, budget, &cfg).unwrap();
        let q = |a: Algo| res.get(a).unwrap().quality;
        // Figure 5a's ranking: PHOcus ≥ G-NCS, G-NR ≥ RAND; PHOcus strictly
        // beats RAND.
        assert!(
            q(Algo::Phocus) >= q(Algo::GreedyNcs) * 0.98,
            "PHOcus vs NCS"
        );
        assert!(q(Algo::GreedyNcs) + 1e-9 >= q(Algo::RandA), "NCS vs RAND");
        assert!(q(Algo::GreedyNr) + 1e-9 >= q(Algo::RandA), "NR vs RAND");
        assert!(q(Algo::Phocus) > 1.3 * q(Algo::RandA), "PHOcus ≫ RAND");
    }

    #[test]
    fn full_budget_equalizes_everything() {
        let u = universe();
        let res = run_suite(&u, u.total_cost(), &SuiteConfig::default()).unwrap();
        for e in &res.entries {
            assert!(
                (e.quality - res.max_score).abs() < 1e-6,
                "{} scored {} < max {}",
                e.algo.name(),
                e.quality,
                res.max_score
            );
        }
    }

    #[test]
    fn phocus_ns_close_to_phocus() {
        let u = universe();
        let budget = u.total_cost() / 6;
        let cfg = SuiteConfig {
            algos: vec![Algo::Phocus, Algo::PhocusNs],
            ..Default::default()
        };
        let res = run_suite(&u, budget, &cfg).unwrap();
        let ph = res.get(Algo::Phocus).unwrap().quality;
        let ns = res.get(Algo::PhocusNs).unwrap().quality;
        // Figure 5e: sparsification costs at most ~5%.
        assert!(ph >= 0.9 * ns, "PHOcus {ph} vs NS {ns}");
    }

    #[test]
    fn rand_d_tracks_rand_a() {
        let u = universe();
        let budget = u.total_cost() / 4;
        let cfg = SuiteConfig {
            algos: vec![Algo::RandA, Algo::RandD],
            rand_trials: 8,
            ..Default::default()
        };
        let res = run_suite(&u, budget, &cfg).unwrap();
        let a = res.get(Algo::RandA).unwrap().quality;
        let d = res.get(Algo::RandD).unwrap().quality;
        // The paper found them "almost identical"; allow 25% band.
        assert!((a - d).abs() <= 0.25 * a.max(d), "RAND-A {a} vs RAND-D {d}");
    }
}
