//! # phocus — the end-to-end photo-archival system
//!
//! PHOcus (Figure 4 of the paper) consists of two modules behind a user
//! interface:
//!
//! * the **Data Representation Module** ([`representation`]) prepares the PAR
//!   input: it normalizes relevance scores, derives contextualized
//!   similarities from embeddings (optionally mixing EXIF context distances
//!   and applying per-context distance normalization), and materializes the
//!   similarity stores — dense all-pairs for PHOcus-NS, or τ-sparsified via
//!   SimHash LSH for PHOcus;
//! * the **Solver** ([`solver`]) runs the two-rule CELF lazy greedy
//!   (Algorithm 1) on the represented instance and reports the retained set
//!   together with a-posteriori quality certificates (online bound,
//!   Theorem 4.8 sparsification bound).
//!
//! [`suite`] orchestrates PHOcus against every baseline of Section 5.2 under
//! a common true-objective evaluation — the engine behind the experiment
//! harness in `par-bench`. [`fleet`] scales the pipeline from one library to
//! many: a multi-tenant engine that schedules tenant solves largest-first
//! across the persistent worker pool and reuses solver arenas between
//! tenants (`phocus serve-batch`). [`ArchiveSession`] (par-algo's,
//! re-exported here) scales it through *time*: it keeps the instance and
//! warm per-component solver state resident across epochs, applying
//! [`par_core::EpochDelta`]s and replaying clean-component stream
//! transcripts (`phocus epochs`). The `phocus` binary exposes all of it on
//! the command line.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod catalog;
pub mod compression;
pub mod error;
pub mod fleet;
pub mod planner;
pub mod report;
pub mod representation;
pub mod solver;
pub mod suite;

pub use compression::{
    epsilon_free_score, expand_with_variants, multi_action_frontier, prune_and_refill,
    prune_superseded, represent_with_variants, solve_multi_action, ActionLadder, CompressionLevel,
    FrontierPoint, MultiActionSolve, VariantMap, DEFAULT_LADDER,
};
pub use catalog::{Catalog, CatalogBuilder, CatalogEntry};
pub use error::{PhocusError, Result};
pub use fleet::{
    budget_by_fraction, fractional_budget, FleetEngine, FleetEngineConfig, FleetTenant,
    PackedTenant, TenantOutcome, TenantReport,
};
pub use par_algo::{ArchiveSession, EpochSolve};
pub use par_exec::Parallelism;
pub use planner::{minimal_budget, BudgetPlan};
pub use report::render_report;
pub use representation::{non_contextual_view, represent, RepresentationConfig, Sparsification};
pub use solver::{Phocus, PhocusConfig, PhocusReport};
pub use suite::{run_suite, SuiteConfig, SuiteEntry, SuiteResult};

/// The re-exported [`ArchiveSession`] driven the way `phocus epochs` drives
/// it: par-datasets churn traces resolved against the live instance, each
/// epoch checked against a from-scratch solve.
#[cfg(test)]
mod session {
    mod tests {
        use crate::ArchiveSession;
        use par_algo::main_algorithm_sharded;
        use par_core::fixtures::{random_instance, RandomInstanceConfig};
        use par_core::{EpochDelta, Instance, PhotoId};
        use par_datasets::{generate_churn, resolve_epoch, ChurnConfig};

        fn base(seed: u64) -> Instance {
            random_instance(
                seed,
                &RandomInstanceConfig {
                    photos: 50,
                    subsets: 16,
                    subset_size: (2, 6),
                    cost_range: (100, 900),
                    budget_fraction: 0.5,
                    required_prob: 0.05,
                },
            )
        }

        #[test]
        fn churn_trace_replay_matches_from_scratch() {
            let inst = base(21);
            let trace = generate_churn(
                &inst,
                &ChurnConfig {
                    epochs: 6,
                    removal_fraction: 0.04,
                    arrivals_mean: 2.0,
                    budget_wobble: 0.1,
                    ..ChurnConfig::default()
                },
            )
            .unwrap();
            let mut session = ArchiveSession::new(inst);
            let first = session.resolve();
            assert_eq!(first.epoch, 0);
            for ops in &trace.epochs {
                let delta = resolve_epoch(ops, session.instance()).unwrap();
                let solve = session.apply_delta(&delta).unwrap().resolve();
                let scratch = main_algorithm_sharded(session.instance());
                assert_eq!(solve.outcome.best.selected, scratch.best.selected);
                assert_eq!(
                    solve.outcome.best.score.to_bits(),
                    scratch.best.score.to_bits()
                );
                assert_eq!(solve.outcome.winner, scratch.winner);
            }
            assert_eq!(session.epoch(), trace.epochs.len() + 1);
        }

        #[test]
        fn failed_delta_leaves_session_resident() {
            let mut session = ArchiveSession::new(base(33));
            session.resolve();
            let replayed_before = session.resolve().report.replayed_streams;
            let bad = EpochDelta {
                remove_photos: vec![PhotoId(10_000)],
                ..EpochDelta::default()
            };
            assert!(session.apply_delta(&bad).is_err());
            assert!(session.last_delta_stats().is_none());
            // The warm caches survived the rejected delta: everything replays.
            let after = session.resolve();
            assert_eq!(after.report.live_streams, 0);
            assert_eq!(after.report.replayed_streams, replayed_before);
        }
    }
}
