//! The [`Subset`] record: a pre-defined subset `q ∈ Q` with its importance
//! weight `W(q)` and normalized relevance scores `R(q, ·)`.

use crate::{PhotoId, SubsetId};
use std::sync::Arc;

/// A pre-defined subset of photos (a landing page, album, label group, or
/// query result set), together with its importance weight and the relevance
/// score of each member photo.
///
/// Invariants enforced by [`InstanceBuilder`](crate::InstanceBuilder):
///
/// * `members` is non-empty and free of duplicates;
/// * `relevance` is parallel to `members`, strictly positive, and normalized
///   so that `Σ relevance = 1` (the paper's `Σ_{p∈q} R(q,p) = 1`);
/// * `weight` is strictly positive and finite.
#[derive(Debug, Clone, PartialEq)]
pub struct Subset {
    /// Dense identifier of this subset within its instance.
    pub id: SubsetId,
    /// Human-readable label (query text, album title, product-category name).
    /// Shared (`Arc<str>`) so per-epoch subset compaction in
    /// [`crate::delta`] aliases surviving labels instead of copying them.
    pub label: Arc<str>,
    /// Importance weight `W(q)`.
    pub weight: f64,
    /// Member photos, in the order their relevance scores are stored.
    pub members: Vec<PhotoId>,
    /// Normalized relevance `R(q, p)` parallel to `members`; sums to 1.
    /// Shared (`Arc<[f64]>`) because relevance bits survive epoch deltas and
    /// component splits verbatim — intact subsets alias the same storage
    /// across [`crate::delta`] rebuilds instead of copying it.
    pub relevance: Arc<[f64]>,
}

impl Subset {
    /// Number of member photos `|q|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the subset has no members (never true for validated instances).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Subset {
        Subset {
            id: SubsetId(0),
            label: "Bikes".into(),
            weight: 9.0,
            members: vec![PhotoId(0), PhotoId(1), PhotoId(2)],
            relevance: vec![0.5, 0.3, 0.2].into(),
        }
    }

    #[test]
    fn len_reports_member_count() {
        assert_eq!(sample().len(), 3);
        assert!(!sample().is_empty());
    }
}
