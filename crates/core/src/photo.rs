//! The [`Photo`] record: identity, human-readable name, and byte cost.

use crate::PhotoId;
use std::sync::Arc;

/// A photo in the archive.
///
/// The model only needs the photo's *cost* — the disk space (in bytes)
/// required to store it — plus an identifier. The `name` field carries a
/// human-readable label (file name, product title, …) that flows into reports
/// and the user-study tooling but plays no role in optimization. It is an
/// `Arc<str>` because epoch deltas rebuild the photo table every epoch
/// ([`crate::delta`]): surviving photos share their name storage with the
/// pre-delta instance instead of deep-copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct Photo {
    /// Dense identifier of this photo within its instance.
    pub id: PhotoId,
    /// Human-readable label (file name, product title, …).
    pub name: Arc<str>,
    /// Storage cost in bytes. Must be strictly positive.
    pub cost: u64,
}

impl Photo {
    /// Creates a photo record.
    pub fn new(id: PhotoId, name: impl Into<Arc<str>>, cost: u64) -> Self {
        Photo {
            id,
            name: name.into(),
            cost,
        }
    }
}
