//! Measured per-level recompression trade-offs for multi-action ladders.
//!
//! *Reducing Storage in Large-Scale Photo Sharing Services using
//! Recompression* (PAPERS.md) measures how aggressively a stored JPEG can be
//! recompressed before perceptual quality collapses: the bulk of a photo's
//! bytes buy very little perceived quality, so the size/quality curve is
//! strongly concave — the first recompression step reclaims a third of the
//! bytes at a few percent quality loss, while a thumbnail-grade rendition
//! keeps barely half the quality at a twelfth of the size.
//!
//! This module is the dataset-side knob for that curve: a fixed anchor
//! ladder of `(size_fraction, quality)` points drawn from the paper's
//! measured operating range. `par-datasets` sits below `phocus` in the crate
//! DAG, so the levels are exposed as plain tuples; `phocus::ActionLadder`
//! turns them into validated storage actions.

/// The measured recompression ladder, strongest-first, as
/// `(size_fraction, quality)` pairs.
///
/// Each rung recompresses harder than the one before it: size fractions and
/// quality factors both decrease strictly, and every value sits in `(0, 1)`
/// (pinned by tests — the downstream `ActionLadder` validator must accept
/// these verbatim).
pub const RECOMPRESSION_LEVELS: [(f64, f64); 4] = [
    // Conservative re-encode: ~2/3 of the bytes, near-transparent quality.
    (0.65, 0.97),
    // The paper's sweet spot: roughly 40% byte savings for a quality loss
    // most viewers cannot see.
    (0.45, 0.93),
    // Aggressive re-encode: visible softening, still serves most queries.
    (0.30, 0.88),
    // Thumbnail-grade rendition: a placeholder, not a substitute.
    (0.08, 0.55),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_valid_and_strictly_graded() {
        for w in RECOMPRESSION_LEVELS.windows(2) {
            assert!(w[1].0 < w[0].0, "size fractions decrease");
            assert!(w[1].1 < w[0].1, "quality factors decrease");
        }
        for &(frac, quality) in &RECOMPRESSION_LEVELS {
            assert!(frac > 0.0 && frac < 1.0, "size fraction in (0,1)");
            assert!(quality > 0.0 && quality < 1.0, "quality in (0,1)");
            // Recompression always pays: quality per byte improves.
            assert!(quality > frac, "every rung is worth its bytes");
        }
    }
}
