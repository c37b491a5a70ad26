//! # par-algo — approximation algorithms for the PAR problem
//!
//! Implements every solver evaluated in the paper:
//!
//! * [`lazy_greedy`] — the CELF-style lazy greedy of Leskovec et al.
//!   (Algorithm 2 of the paper) with the unit-cost (`UC`) and cost-benefit
//!   (`CB`) selection rules, plus an [`eager_greedy`] reference used to
//!   quantify the lazy-evaluation speedup;
//! * [`main_algorithm`] — Algorithm 1: run both rules, keep the better
//!   solution, for a `(1 − 1/e)/2` worst-case guarantee;
//! * [`sharded`] — a component-sharded CELF driver: one lazy stream per
//!   connected component of the photo–query graph, merged by a budget-aware
//!   coordinator, with a bit-identical transcript to [`lazy_greedy`];
//! * [`incremental`] — the epoch-resident [`ArchiveSession`], which applies
//!   [`par_core::delta`] epoch deltas and replays the cached CELF stream
//!   transcripts of clean components, bit-identical to a from-scratch
//!   sharded solve of the post-delta instance;
//! * [`sviridenko()`](sviridenko::sviridenko) — partial-enumeration greedy with the optimal
//!   `(1 − 1/e)` guarantee (Theorem 4.6), exponential in the seed size and
//!   practical only for small instances;
//! * [`brute_force()`](brute_force::brute_force) — exact branch-and-bound with a submodular
//!   fractional-knapsack upper bound (the paper's Figure 5d reference);
//! * [`baselines`] — RAND-A, RAND-D, Greedy-NR and Greedy-NCS, each
//!   *selecting* under its simplified objective but *scored* under the true
//!   one;
//! * [`online_bound()`](online_bound::online_bound) — the data-dependent a-posteriori bound of Leskovec et
//!   al., used to certify that practical performance far exceeds the
//!   worst-case guarantee;
//! * [`streaming`] — one-pass sieve solvers for streamed archives;
//! * [`local_search`] — a 1-swap polish pass for any feasible solution.
//!
//! # Example
//!
//! ```
//! use par_core::fixtures::{figure1_instance, MB};
//!
//! // The paper's Figure 1 instance under a 4 MB budget.
//! let inst = figure1_instance(4 * MB);
//! let outcome = par_algo::main_algorithm(&inst); // Algorithm 1
//! assert!(outcome.best.cost <= 4 * MB);
//!
//! // Certify the run a posteriori: how close to OPT are we provably?
//! let cert = par_algo::online_bound(&inst, &outcome.best.selected);
//! assert!(cert.ratio > 0.9); // far above the a-priori (1-1/e)/2
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod baselines;
pub mod brute_force;
pub mod celf;
pub mod error;
pub mod incremental;
pub mod local_search;
pub mod main_alg;
pub mod online_bound;
pub mod sharded;
pub mod streaming;
pub mod sviridenko;
pub mod types;

pub use baselines::{greedy_ncs, greedy_nr, greedy_select, rand_a, rand_d};
pub use brute_force::{brute_force, brute_force_anytime, BruteForceConfig};
pub use celf::{eager_greedy, lazy_greedy, lazy_greedy_from, GreedyRule};
pub use error::SolveError;
pub use incremental::{ArchiveSession, DeltaStats, EpochReport, EpochSolve};
pub use local_search::{swap_local_search, LocalSearchConfig};
pub use main_alg::{main_algorithm, main_algorithm_packed, main_algorithm_sharded, MainOutcome};
pub use online_bound::{online_bound, OnlineBound};
pub use sharded::{sharded_lazy_greedy, sharded_lazy_greedy_from, ShardedSolver, SolveScratch};
pub use streaming::{density_sieve, sieve_streaming};
pub use sviridenko::{sviridenko, SviridenkoConfig};
pub use types::{GreedyOutcome, RunStats};
