//! # par-datasets — synthetic dataset generators for the PAR experiments
//!
//! The paper evaluates on eight datasets from two sources (Table 2): five
//! slices of the public Open Images corpus (P-1K … P-100K) and three private
//! e-commerce domains (EC-Fashion, EC-Electronics, EC-Home & Garden). Neither
//! source is shippable in a reproduction, so this crate generates synthetic
//! equivalents that preserve the statistical shape the algorithms see:
//!
//! * [`openimages`] — a labeled photo corpus: Zipf-distributed label
//!   vocabulary, multi-label photos with confidence scores, per-label
//!   subsets weighted by label frequency, heavy-tailed photo sizes;
//! * [`ecommerce`] — a product catalog with templated titles, a Zipfian
//!   query log, and subsets derived by running the top-250 queries through
//!   the real BM25 engine of `par-search` (retrieval scores → relevance,
//!   query frequencies → weights) — exactly the paper's Example 5.1
//!   pipeline;
//! * [`universe`] — the common output type: photos (names, costs,
//!   embeddings, optional EXIF) plus subset definitions, *without* committed
//!   similarity stores. PHOcus's Data Representation Module turns a
//!   [`Universe`] into a solvable [`par_core::Instance`] (dense or
//!   LSH-sparsified);
//! * [`zipf`] — a seeded Zipf sampler used by both generators;
//! * [`table2`] — reproduces Table 2's dataset-statistics rows;
//! * [`churn`] — epoch churn traces for the incremental archiver: a
//!   generator evolving an instance through photo arrivals/removals and
//!   query drift, a name-based `# phocus-trace v1` text format, and a
//!   per-epoch resolver producing [`par_core::EpochDelta`]s.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod churn;
pub mod ecommerce;
pub mod error;
pub mod fleet;
pub mod io;
pub mod openimages;
pub mod recompression;
pub mod table2;
pub mod universe;
pub mod zipf;

pub use churn::{
    generate_churn, resolve_epoch, trace_from_text, trace_to_text, ChurnConfig, ChurnTrace,
    TraceOp,
};
pub use ecommerce::{generate_ecommerce, EcConfig, EcDomain};
pub use error::DatasetError;
pub use fleet::{generate_fleet, FleetConfig};
pub use io::{from_text, to_text, ParseError};
pub use openimages::{generate_openimages, OpenImagesConfig, PublicScale};
pub use recompression::RECOMPRESSION_LEVELS;
pub use table2::{table2_rows, Table2Row};
pub use universe::{SubsetDef, Universe};
pub use zipf::Zipf;
