//! The multi-tenant fleet engine: many PAR instances, one set of arenas.
//!
//! A photo platform does not solve one archival instance — it solves one per
//! user. Library sizes are heavy-tailed (most users hold a few dozen photos,
//! a few hold thousands), so a naive loop that allocates a fresh evaluator
//! and fresh solver state per tenant spends a large share of its time in the
//! allocator, and a naive front-to-back schedule leaves the largest library
//! straggling at the end of the batch.
//!
//! [`FleetEngine`] fixes both:
//!
//! * **Shared scratch arenas.** Every worker owns one
//!   [`par_algo::SolveScratch`] for the whole batch; each tenant's
//!   represent→solve→recycle cycle draws all evaluator and solver buffers
//!   from it and returns the capacity afterwards. The arenas are *capacity
//!   only*: every buffer is cleared and fully rewritten by the same
//!   arithmetic a fresh allocation would run, so a tenant's outcome is
//!   bit-identical whether its scratch is freshly allocated or has already
//!   served a thousand other tenants (see
//!   [`PhocusConfig`](crate::PhocusConfig) for the single-instance analogue
//!   and `DESIGN.md` §13 for the invariant).
//! * **Largest-first scheduling.** Tenants are dispatched to the persistent
//!   worker pool (via [`par_exec::par_map_dynamic`]) in descending library
//!   size, so the heavy tail starts first and small libraries backfill the
//!   idle workers — the classical LPT heuristic. Outcomes are returned in
//!   *input* order regardless of the schedule, and each outcome is a pure
//!   function of its tenant, so the batch result is independent of worker
//!   count and dispatch order.
//!
//! Failures are per-tenant: a tenant whose representation fails (e.g. its
//! required set alone exceeds its budget) yields an `Err` outcome while the
//! rest of the fleet solves normally. The `phocus serve-batch` CLI surfaces
//! this as one status line per tenant and exit code 5 when some — but not
//! all — tenants failed.

use crate::error::{PhocusError, Result};
use crate::representation::{represent, RepresentationConfig};
use par_algo::{main_algorithm_packed, main_algorithm_sharded, GreedyRule, SolveScratch};
use par_core::{shard_labels, Instance, PackedInstance, PhotoId, ShardLabels};
use par_datasets::Universe;
use par_exec::Parallelism;
use std::time::{Duration, Instant};

/// Configuration of a fleet batch run.
#[derive(Debug, Clone)]
pub struct FleetEngineConfig {
    /// Representation choices applied to every tenant.
    pub representation: RepresentationConfig,
    /// Worker threads for tenant dispatch (installed as the process-wide
    /// default for the duration of the batch, like a single PHOcus run).
    pub parallelism: Parallelism,
    /// Draw per-tenant solver state from reusable arenas (default, and the
    /// CLI's only path). Turning this off allocates fresh evaluator/solver
    /// state per tenant — the baseline the fleet bench compares against;
    /// outcomes are bit-identical either way. The field stays only while
    /// `phocus-bench` sets it (ROADMAP item 1).
    pub reuse_arenas: bool,
}

impl Default for FleetEngineConfig {
    fn default() -> Self {
        FleetEngineConfig {
            representation: RepresentationConfig::default(),
            parallelism: Parallelism::default(),
            reuse_arenas: true,
        }
    }
}

/// One unit of fleet work: a tenant's library and its byte budget.
#[derive(Debug, Clone)]
pub struct FleetTenant {
    /// The tenant's photo library.
    pub universe: Universe,
    /// The tenant's storage budget in bytes.
    pub budget: u64,
}

/// The solution for one tenant.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Retained photos (including `S₀`), in selection order.
    pub selected: Vec<PhotoId>,
    /// Objective value on the tenant's selection instance.
    pub score: f64,
    /// Solution cost in bytes.
    pub cost: u64,
    /// Which greedy rule won inside Algorithm 1.
    pub winner: GreedyRule,
}

/// Per-tenant outcome: solution or typed failure, plus the solve latency.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// The tenant's name (from its universe).
    pub name: String,
    /// Photos in the tenant's library.
    pub photos: usize,
    /// The solution, or why this tenant failed. A failed tenant never fails
    /// the batch.
    pub result: Result<TenantReport>,
    /// Wall-clock represent+solve time for this tenant.
    pub latency: Duration,
}

impl TenantOutcome {
    fn failed(tenant: &FleetTenant, error: PhocusError) -> Self {
        TenantOutcome {
            name: tenant.universe.name.clone(),
            photos: tenant.universe.num_photos(),
            result: Err(error),
            latency: Duration::ZERO,
        }
    }
}

/// One unit of catalog-backed fleet work: a tenant already represented,
/// loaded from a `phocus-pack` file with its shard labels alongside. The
/// [`FleetEngine::run_packed`] path skips text parsing, validation, the
/// representation pipeline, *and* the solver's union-find — the cold start
/// the catalog exists to eliminate.
#[derive(Debug, Clone)]
pub struct PackedTenant {
    /// Tenant name (from the catalog index).
    pub name: String,
    /// The loaded pack: instance + shard labels.
    pub packed: PackedInstance,
}

/// The fleet engine: holds a configuration, solves batches of tenants.
#[derive(Debug, Clone, Default)]
pub struct FleetEngine {
    /// The batch configuration.
    pub config: FleetEngineConfig,
}

impl FleetEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: FleetEngineConfig) -> Self {
        FleetEngine { config }
    }

    /// Solves every tenant and returns the outcomes **in input order**.
    ///
    /// Tenants are scheduled largest-first across the worker pool; each
    /// worker reuses one [`SolveScratch`] across all tenants it serves (when
    /// [`FleetEngineConfig::reuse_arenas`] is on). Outcomes are bit-identical
    /// to solving each tenant alone with [`crate::Phocus`] under the same
    /// representation.
    pub fn run(&self, tenants: &[FleetTenant]) -> Vec<TenantOutcome> {
        self.schedule(
            tenants,
            |t| t.universe.num_photos(),
            |t, scratch| {
                let t0 = Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported latency field only
                match represent(&t.universe, t.budget, &self.config.representation) {
                    Ok(inst) => self.solve(&t.universe.name, &inst, None, scratch, t0),
                    Err(e) => TenantOutcome::failed(t, e),
                }
            },
        )
    }

    /// Solves a batch of **pre-represented** tenants (catalog pack loads),
    /// outcomes in input order. Scheduling, arena reuse, and failure
    /// isolation match [`run`](Self::run); the per-tenant work drops the
    /// representation pipeline and (with arena reuse on) the component
    /// union-find, both of which the pack already paid at write time.
    /// Outcomes are bit-identical to [`run`](Self::run) over the universes
    /// the packs were built from, under the same representation.
    pub fn run_packed(&self, tenants: &[PackedTenant]) -> Vec<TenantOutcome> {
        self.schedule(
            tenants,
            |t| t.packed.instance.num_photos(),
            |t, scratch| {
                let t0 = Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported latency field only
                let packed = &t.packed;
                self.solve(&t.name, &packed.instance, Some(&packed.labels), scratch, t0)
            },
        )
    }

    /// Runs `solve` over `tenants` under the configured parallelism and
    /// returns the outcomes in input order. Largest-first (LPT): descending
    /// `size`, ties by input order, so the schedule is deterministic. Each
    /// pool participant owns one scratch for its whole stream of tenants;
    /// every outcome is a pure function of the tenant (the arena-reset
    /// invariant), so the nondeterministic work assignment cannot leak into
    /// results.
    fn schedule<T: Sync>(
        &self,
        tenants: &[T],
        size: impl Fn(&T) -> usize,
        solve: impl Fn(&T, &mut SolveScratch) -> TenantOutcome + Sync,
    ) -> Vec<TenantOutcome> {
        let prev = self.config.parallelism.install_global();
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        order.sort_by(|&a, &b| size(&tenants[b]).cmp(&size(&tenants[a])).then(a.cmp(&b)));
        let mut indexed: Vec<(usize, TenantOutcome)> =
            par_exec::par_map_dynamic(order.len(), SolveScratch::default, |scratch, k| {
                let i = order[k];
                (i, solve(&tenants[i], scratch))
            });
        indexed.sort_unstable_by_key(|&(i, _)| i);
        prev.install_global();
        indexed.into_iter().map(|(_, o)| o).collect()
    }

    /// Runs Algorithm 1 on one represented tenant — out of `scratch`, on
    /// `labels` or freshly computed ones, when arena reuse is on — and
    /// reports it with the latency since `t0`.
    fn solve(
        &self,
        name: &str,
        inst: &Instance,
        labels: Option<&ShardLabels>,
        scratch: &mut SolveScratch,
        t0: Instant,
    ) -> TenantOutcome {
        let outcome = if self.config.reuse_arenas {
            let labels = labels.map_or_else(|| shard_labels(inst), ShardLabels::clone);
            main_algorithm_packed(inst, labels, scratch)
        } else {
            main_algorithm_sharded(inst)
        };
        TenantOutcome {
            name: name.to_string(),
            photos: inst.num_photos(),
            result: Ok(TenantReport {
                selected: outcome.best.selected,
                score: outcome.best.score,
                cost: outcome.best.cost,
                winner: outcome.winner,
            }),
            latency: t0.elapsed(),
        }
    }
}

/// `fraction` of `universe`'s total byte size, clamped to at least one
/// byte so tiny archives stay representable.
pub fn fractional_budget(universe: &Universe, fraction: f64) -> u64 {
    ((universe.total_cost() as f64 * fraction) as u64).max(1)
}

/// Budgets a fleet uniformly: each tenant gets its
/// [`fractional_budget`].
pub fn budget_by_fraction(universes: Vec<Universe>, fraction: f64) -> Vec<FleetTenant> {
    universes
        .into_iter()
        .map(|universe| FleetTenant {
            budget: fractional_budget(&universe, fraction),
            universe,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_datasets::{generate_fleet, FleetConfig};

    fn small_fleet() -> Vec<FleetTenant> {
        let universes = generate_fleet(&FleetConfig {
            tenants: 8,
            min_photos: 12,
            max_photos: 200,
            seed: 11,
            ..Default::default()
        });
        budget_by_fraction(universes, 0.3)
    }

    #[test]
    fn outcomes_come_back_in_input_order() {
        let tenants = small_fleet();
        let outcomes = FleetEngine::default().run(&tenants);
        assert_eq!(outcomes.len(), tenants.len());
        for (t, o) in tenants.iter().zip(&outcomes) {
            assert_eq!(t.universe.name, o.name);
            assert_eq!(t.universe.num_photos(), o.photos);
        }
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_allocation() {
        let tenants = small_fleet();
        let with = |reuse_arenas: bool| {
            FleetEngine::new(FleetEngineConfig {
                reuse_arenas,
                ..Default::default()
            })
            .run(&tenants)
        };
        let reused = with(true);
        let fresh = with(false);
        for (a, b) in reused.iter().zip(&fresh) {
            let ra = a.result.as_ref().expect("fleet tenant solves");
            let rb = b.result.as_ref().expect("fleet tenant solves");
            assert_eq!(ra.selected, rb.selected);
            assert_eq!(ra.score.to_bits(), rb.score.to_bits());
            assert_eq!(ra.cost, rb.cost);
            assert_eq!(ra.winner, rb.winner);
        }
    }

    #[test]
    fn batch_matches_solo_solves() {
        let tenants = small_fleet();
        let outcomes = FleetEngine::default().run(&tenants);
        for (t, o) in tenants.iter().zip(&outcomes) {
            let solo = crate::Phocus::default()
                .solve(&t.universe, t.budget)
                .expect("solo solve succeeds");
            let batch = o.result.as_ref().expect("batch solve succeeds");
            assert_eq!(batch.selected, solo.selected);
            assert_eq!(batch.score.to_bits(), solo.score.to_bits());
            assert_eq!(batch.cost, solo.cost);
        }
    }

    #[test]
    fn a_failing_tenant_does_not_fail_the_batch() {
        let mut tenants = small_fleet();
        // Starve one tenant: a one-byte budget is below any required set or
        // representable solution only when photos cost more than a byte, but
        // represent() itself succeeds — so instead poison the universe with
        // an unsatisfiable required set by shrinking the budget below the
        // required photos' cost.
        let victim = 2;
        let required_cost: u64 = tenants[victim]
            .universe
            .required
            .iter()
            .map(|&i| tenants[victim].universe.costs[i as usize])
            .sum();
        if required_cost == 0 {
            // Ensure the victim actually has a required photo to starve.
            tenants[victim].universe.required.push(0);
        }
        tenants[victim].budget = 1;
        let outcomes = FleetEngine::default().run(&tenants);
        assert!(outcomes[victim].result.is_err(), "starved tenant fails");
        for (i, o) in outcomes.iter().enumerate() {
            if i != victim {
                assert!(o.result.is_ok(), "tenant {i} unaffected");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_outcomes() {
        let tenants = small_fleet();
        let with = |threads: usize| {
            FleetEngine::new(FleetEngineConfig {
                parallelism: Parallelism::with_threads(threads),
                ..Default::default()
            })
            .run(&tenants)
        };
        let serial = with(1);
        let parallel = with(4);
        for (a, b) in serial.iter().zip(&parallel) {
            let ra = a.result.as_ref().expect("solves");
            let rb = b.result.as_ref().expect("solves");
            assert_eq!(ra.selected, rb.selected);
            assert_eq!(ra.score.to_bits(), rb.score.to_bits());
        }
    }
}
