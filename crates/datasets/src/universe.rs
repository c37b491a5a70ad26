//! The [`Universe`]: a generated dataset *before* similarity materialization.
//!
//! A universe carries everything the paper's Data Representation Module
//! consumes — photos with names/costs/embeddings (and optional EXIF), subset
//! definitions with raw relevance scores and weights, and the policy-retained
//! set — but deliberately no similarity stores: committing to dense
//! (PHOcus-NS) or LSH-sparsified (PHOcus) similarities is the representation
//! module's job (`phocus::representation`).

use crate::error::DatasetError;
use par_embed::{Embedding, ExifData};

/// Definition of one pre-defined subset, by photo indices into the universe.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetDef {
    /// Human-readable label (query text, Open-Images label name, …).
    pub label: String,
    /// Importance weight `W(q)` (e.g. raw query/label frequency).
    pub weight: f64,
    /// Member photo indices.
    pub members: Vec<u32>,
    /// Raw (unnormalized) relevance scores parallel to `members`
    /// (e.g. label confidences or BM25 retrieval scores).
    pub relevance: Vec<f64>,
}

/// A generated photo corpus plus subset structure.
#[derive(Debug, Clone)]
pub struct Universe {
    /// Dataset name (e.g. `"P-5K"` or `"EC-Fashion"`).
    pub name: String,
    /// Photo names (file names / product titles).
    pub names: Vec<String>,
    /// Photo costs in bytes.
    pub costs: Vec<u64>,
    /// Global embeddings, one per photo.
    pub embeddings: Vec<Embedding>,
    /// Optional EXIF-like metadata, one per photo.
    pub exif: Option<Vec<ExifData>>,
    /// Pre-defined subset definitions.
    pub subsets: Vec<SubsetDef>,
    /// Indices of policy-retained photos (`S₀`).
    pub required: Vec<u32>,
}

impl Universe {
    /// Number of photos.
    pub fn num_photos(&self) -> usize {
        self.names.len()
    }

    /// Number of subsets.
    pub fn num_subsets(&self) -> usize {
        self.subsets.len()
    }

    /// Total archive cost in bytes. Saturates instead of wrapping on
    /// un-validated universes; [`Universe::validate`] rejects any corpus
    /// whose true total exceeds `u64`.
    pub fn total_cost(&self) -> u64 {
        self.costs.iter().fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// Mean subset size.
    pub fn mean_subset_size(&self) -> f64 {
        if self.subsets.is_empty() {
            0.0
        } else {
            self.subsets.iter().map(|s| s.members.len()).sum::<usize>() as f64
                / self.subsets.len() as f64
        }
    }

    /// Validates internal consistency (indices in range, parallel arrays,
    /// embeddings of one dimension ≥ 1, non-empty subsets, finite positive
    /// weights/relevances, no cost-sum overflow). Generators call this before returning; [`crate::from_text`]
    /// calls it on every parsed file, so malformed input surfaces as a typed
    /// [`DatasetError`] instead of a panic deeper in the pipeline.
    pub fn validate(&self) -> Result<(), DatasetError> {
        let invalid = |msg: String| Err(DatasetError::InvalidUniverse(msg));
        let n = self.num_photos();
        if self.costs.len() != n || self.embeddings.len() != n {
            return invalid("parallel photo arrays disagree in length".into());
        }
        if let Some(exif) = &self.exif {
            if exif.len() != n {
                return invalid("EXIF array length mismatch".into());
            }
        }
        // Every similarity kernel pairs coordinates up to one shared
        // dimensionality; a ragged or empty embedding has none.
        if let Some(dim) = self.embeddings.first().map(Embedding::dim) {
            if dim == 0 {
                return invalid("embeddings have dimension 0".into());
            }
            if let Some((i, e)) = self
                .embeddings
                .iter()
                .enumerate()
                .find(|(_, e)| e.dim() != dim)
            {
                return invalid(format!(
                    "embedding {i} has dimension {} but embedding 0 has {dim}",
                    e.dim()
                ));
            }
        }
        let mut total: u64 = 0;
        for &c in &self.costs {
            total = match total.checked_add(c) {
                Some(t) => t,
                None => return Err(DatasetError::CostOverflow),
            };
        }
        for (i, s) in self.subsets.iter().enumerate() {
            if s.members.is_empty() {
                return invalid(format!("subset {i} ({}) is empty", s.label));
            }
            if s.members.len() != s.relevance.len() {
                return invalid(format!("subset {i} relevance length mismatch"));
            }
            if s.weight <= 0.0 || !s.weight.is_finite() {
                return invalid(format!("subset {i} has invalid weight {}", s.weight));
            }
            let mut seen = std::collections::HashSet::new();
            for &m in &s.members {
                if m as usize >= n {
                    return invalid(format!("subset {i} references photo {m} ≥ {n}"));
                }
                if !seen.insert(m) {
                    return invalid(format!("subset {i} repeats photo {m}"));
                }
            }
            for &r in &s.relevance {
                if r <= 0.0 || !r.is_finite() {
                    return invalid(format!("subset {i} has invalid relevance {r}"));
                }
            }
        }
        for &r in &self.required {
            if r as usize >= n {
                return invalid(format!("required photo {r} out of range"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_embed::Embedding;

    fn tiny() -> Universe {
        Universe {
            name: "tiny".into(),
            names: vec!["a".into(), "b".into()],
            costs: vec![10, 20],
            embeddings: vec![
                Embedding::new(vec![1.0, 0.0]),
                Embedding::new(vec![0.0, 1.0]),
            ],
            exif: None,
            subsets: vec![SubsetDef {
                label: "q".into(),
                weight: 2.0,
                members: vec![0, 1],
                relevance: vec![1.0, 3.0],
            }],
            required: vec![0],
        }
    }

    #[test]
    fn valid_universe_passes() {
        assert!(tiny().validate().is_ok());
        assert_eq!(tiny().num_photos(), 2);
        assert_eq!(tiny().total_cost(), 30);
        assert!((tiny().mean_subset_size() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_bad_member_index() {
        let mut u = tiny();
        u.subsets[0].members[1] = 9;
        assert!(u.validate().is_err());
    }

    #[test]
    fn detects_duplicate_member() {
        let mut u = tiny();
        u.subsets[0].members[1] = 0;
        assert!(u.validate().is_err());
    }

    #[test]
    fn detects_negative_relevance() {
        let mut u = tiny();
        u.subsets[0].relevance[0] = -1.0;
        assert!(u.validate().is_err());
    }

    #[test]
    fn detects_ragged_and_empty_embeddings() {
        let mut u = tiny();
        u.embeddings[1] = Embedding::new(vec![0.0, 1.0, 0.5]);
        let err = u.validate().unwrap_err().to_string();
        assert!(err.contains("embedding 1 has dimension 3"), "{err}");
        u.embeddings = vec![Embedding::new(Vec::new()), Embedding::new(Vec::new())];
        assert!(matches!(
            u.validate(),
            Err(DatasetError::InvalidUniverse(_))
        ));
    }

    #[test]
    fn detects_out_of_range_required() {
        let mut u = tiny();
        u.required = vec![5];
        assert!(u.validate().is_err());
    }
}
