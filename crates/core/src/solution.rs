//! Feasibility-checked [`Solution`]s and coverage statistics.

use crate::{exact_score, Instance, ModelError, PhotoId, Result};

/// A candidate solution to a PAR instance: the set of photos to retain.
///
/// Construct via [`Solution::new`] (validates feasibility: `S₀ ⊆ S` and
/// `C(S) ≤ B`) or [`Solution::new_unchecked`] for intermediate values.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    photos: Vec<PhotoId>,
    cost: u64,
    score: f64,
}

impl Solution {
    /// Builds and validates a solution, computing its cost and exact score.
    ///
    /// Returns an error if a required photo is missing or the budget is
    /// exceeded. Duplicate ids are deduplicated.
    pub fn new(inst: &Instance, mut photos: Vec<PhotoId>) -> Result<Self> {
        photos.sort_unstable();
        photos.dedup();
        for &p in &photos {
            if p.index() >= inst.num_photos() {
                return Err(ModelError::UnknownPhoto(p));
            }
        }
        let selected: Vec<bool> = {
            let mut v = vec![false; inst.num_photos()];
            for &p in &photos {
                v[p.index()] = true;
            }
            v
        };
        for &r in inst.required() {
            if !selected[r.index()] {
                return Err(ModelError::MissingRequiredPhoto(r));
            }
        }
        let mut cost: u64 = 0;
        for &p in &photos {
            cost = cost
                .checked_add(inst.cost(p))
                .ok_or(ModelError::CostOverflow)?;
        }
        if cost > inst.budget() {
            return Err(ModelError::OverBudget {
                cost,
                budget: inst.budget(),
            });
        }
        let score = exact_score(inst, &photos);
        Ok(Solution {
            photos,
            cost,
            score,
        })
    }

    /// Builds a solution without feasibility checks (used for baselines that
    /// may be evaluated on views, or for reporting infeasible references).
    /// The score is still computed exactly against `inst`.
    pub fn new_unchecked(inst: &Instance, mut photos: Vec<PhotoId>) -> Self {
        photos.sort_unstable();
        photos.dedup();
        // Deduplicated ids of a validated instance sum to at most the
        // checked total cost, so this cannot overflow; saturate anyway
        // rather than wrap, since this constructor skips validation.
        let cost = photos
            .iter()
            .fold(0u64, |acc, &p| acc.saturating_add(inst.cost(p)));
        let score = exact_score(inst, &photos);
        Solution {
            photos,
            cost,
            score,
        }
    }

    /// The retained photos, sorted by id.
    #[inline]
    pub fn photos(&self) -> &[PhotoId] {
        &self.photos
    }

    /// Number of retained photos.
    #[inline]
    pub fn len(&self) -> usize {
        self.photos.len()
    }

    /// Whether the solution retains no photos.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.photos.is_empty()
    }

    /// Total cost `C(S)` in bytes.
    #[inline]
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Exact objective value `G(S)`.
    #[inline]
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Whether photo `p` is retained (binary search).
    pub fn contains(&self, p: PhotoId) -> bool {
        self.photos.binary_search(&p).is_ok()
    }

    /// Computes per-subset coverage statistics.
    pub fn coverage(&self, inst: &Instance) -> CoverageStats {
        let mut selected = vec![false; inst.num_photos()];
        for &p in &self.photos {
            selected[p.index()] = true;
        }
        let mut covered = 0usize;
        let mut fully_retained = 0usize;
        for q in inst.subsets() {
            let sel = q.members.iter().filter(|m| selected[m.index()]).count();
            if sel > 0 {
                covered += 1;
            }
            if sel == q.members.len() {
                fully_retained += 1;
            }
        }
        CoverageStats {
            subsets: inst.num_subsets(),
            covered,
            fully_retained,
        }
    }
}

/// Per-subset coverage statistics of a solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageStats {
    /// Total number of pre-defined subsets.
    pub subsets: usize,
    /// Subsets with at least one retained member.
    pub covered: usize,
    /// Subsets whose members are all retained (score exactly 1).
    pub fully_retained: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_instance, MB};

    #[test]
    fn solution_validates_budget() {
        let inst = figure1_instance(2 * MB);
        // p1 (1.2MB) + p3 (2.1MB) over budget.
        let err = Solution::new(&inst, vec![PhotoId(0), PhotoId(2)]);
        assert!(matches!(err, Err(ModelError::OverBudget { .. })));
        let ok = Solution::new(&inst, vec![PhotoId(0), PhotoId(1)]).unwrap();
        assert_eq!(ok.cost(), 1_900_000);
    }

    #[test]
    fn solution_requires_s0() {
        let inst = figure1_instance(10 * MB);
        // Figure 1 has no required photos; simulate with a derived instance.
        // (Required-set tests live in instance.rs; here check the happy path.)
        let sol = Solution::new(&inst, vec![PhotoId(5)]).unwrap();
        assert!(sol.contains(PhotoId(5)));
        assert!(!sol.contains(PhotoId(0)));
    }

    #[test]
    fn score_matches_exact() {
        let inst = figure1_instance(u64::MAX);
        let sol = Solution::new(&inst, vec![PhotoId(0), PhotoId(5)]).unwrap();
        // p1 covers q1: 9·(0.5 + 0.3·0.7 + 0.2·0.8) = 7.83.
        // p6 covers q2: 0.3·0.4 + 0.4·0.7 + 0.3·1 = 0.7; q3: 3; q4: 0.7+0.3·0.7=0.91.
        // Similarities are stored as f32, so allow a small tolerance.
        assert!((sol.score() - (7.83 + 0.7 + 3.0 + 0.91)).abs() < 1e-6);
    }

    #[test]
    fn coverage_stats() {
        let inst = figure1_instance(u64::MAX);
        let sol = Solution::new(&inst, vec![PhotoId(5)]).unwrap();
        let cov = sol.coverage(&inst);
        assert_eq!(cov.subsets, 4);
        // p6 is in q2, q3, q4.
        assert_eq!(cov.covered, 3);
        assert_eq!(cov.fully_retained, 1); // q3 = {p6}
    }

    #[test]
    fn dedup_and_sort() {
        let inst = figure1_instance(u64::MAX);
        let sol = Solution::new(&inst, vec![PhotoId(3), PhotoId(1), PhotoId(3)]).unwrap();
        assert_eq!(sol.photos(), &[PhotoId(1), PhotoId(3)]);
        assert_eq!(sol.len(), 2);
    }
}
