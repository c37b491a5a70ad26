//! # par-embed — image substrate: pixels → features → embeddings → SIM
//!
//! The paper derives its similarity function from ResNet-50 embeddings of
//! real product photos and from EXIF/SIFT-based multidimensional distances
//! (Sinha et al.). Neither real photos nor a trained CNN are available to a
//! reproduction, so this crate builds the closest synthetic equivalent that
//! exercises the same code paths end to end:
//!
//! * [`image`] — procedural "product photos": small RGB rasters rendered
//!   from a category prototype plus attribute variation and noise, with a
//!   simulated JPEG byte-cost model (heavy-tailed sizes);
//! * [`features`] — genuine feature extraction over those pixels: HSV color
//!   histograms and gradient-orientation descriptors (a SIFT-lite);
//! * [`embedding`] — L2-normalized embedding vectors produced either from
//!   extracted features (the honest pipeline) or in closed form from the
//!   image spec (the fast path for 100K-photo scalability runs — documented
//!   substitution: both yield cosine geometry that clusters by category);
//! * [`exif`] — synthesized EXIF-like metadata (timestamp, geolocation,
//!   camera) for the Sinha-style context distance;
//! * [`quality`] — no-reference image quality (sharpness/exposure/noise),
//!   the quality half of Example 5.1's relevance computation;
//! * [`contextual`] — the paper's *contextualized* similarity: per-subset
//!   attention re-weighting of the embedding space plus optional per-context
//!   distance normalization (Section 5.1), exposed as a
//!   [`par_core::SimilarityProvider`].

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod contextual;
pub mod embedding;
pub mod exif;
pub mod features;
pub mod image;
pub mod quality;

pub use contextual::{
    ContextKernel, ContextVector, ContextualSimilarity, MemberRows, NonContextualSimilarity,
    PreparedContext,
};
pub use embedding::{Embedding, FeatureEmbedder, SpecEmbedder};
pub use exif::ExifData;
pub use features::{color_histogram, gradient_descriptors, FeatureVector};
pub use image::{Image, ImageSpec};
pub use quality::{assess, QualityScore};
