//! `phocus-bench`: end-to-end and per-layer benchmark of the PHOcus serving
//! paths. See `README.md` beside this crate for the workloads, the metrics
//! and how each layer maps to them.

#![forbid(unsafe_code)]

pub mod compare;
mod gen;
pub mod json;
pub mod run;
mod stats;
mod trace;
pub mod workloads;
