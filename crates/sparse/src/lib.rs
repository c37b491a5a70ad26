//! # par-sparse — sparsification machinery (Section 4.3 of the paper)
//!
//! τ-sparsification rounds every similarity below a threshold `τ` down to 0,
//! shrinking the neighbor lists that dominate marginal-gain evaluation. The
//! price is bounded by Theorem 4.8, whose certificate this crate computes:
//!
//! 1. [`gfl`] — the Generalized Facility Location (GFL) reformulation of a
//!    PAR instance as a weighted bipartite graph (`T_L` = photos, `T_R` =
//!    (subset, member) pairs), with `F(S) ≡ G(S)`;
//! 2. [`bound`] — Theorem 4.8: `F(O_τ) ≥ OPT / (1 + 1/α)`, i.e. solving the
//!    sparsified instance forfeits at most a `1/(1+α)` fraction of the
//!    optimum. The certificate set is Algorithm 1 on the τ-coverage view
//!    ([`par_core::Instance::coverage_view`]), whose objective is the
//!    right-node weight a set covers in the τ-sparsified GFL graph. The
//!    set contains `S₀` and fits the budget, as the proof requires, and
//!    `α` is its share of the total right-node weight.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod bound;
pub mod gfl;

pub use bound::{sparsification_bound, SparsificationBound};
pub use gfl::{GflInstance, RightNode};
