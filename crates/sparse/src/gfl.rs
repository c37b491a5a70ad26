//! The Generalized Facility Location (GFL) formulation of a PAR instance
//! (Section 4.3, Figure 2 of the paper).
//!
//! The bipartite graph has left nodes `T_L = P` (weight = photo cost) and
//! right nodes `T_R = {(q, p) | p ∈ q}` (weight `w_R(q,p) = W(q)·R(q,p)`).
//! For every context `q` and members `p₁, p₂ ∈ q` there are edges
//! `p₁ → (q, p₂)` and `p₂ → (q, p₁)` of weight `SIM(q, p₁, p₂)`, plus the
//! unit self-edge `p → (q, p)`. The GFL objective
//!
//! ```text
//! F(S) = Σ_{(q,p) ∈ T_R} max_{edge (s, (q,p)), s ∈ S} weight(s, (q,p))
//! ```
//!
//! equals the PAR objective `G(S)` for every `S` (verified by tests); with
//! all weights 1 the formulation collapses to classical Facility Location —
//! the special case whose sparsification bounds the paper generalizes.

use par_core::{ContextSim, Instance, PhotoId, SubsetId};

/// A right node of the GFL bipartite graph: the pair `(q, p)` with weight
/// `W(q) · R(q, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RightNode {
    /// The context subset `q`.
    pub subset: SubsetId,
    /// Local index of `p` within `q`'s member list.
    pub local: u32,
    /// Node weight `W(q) · R(q, p)`.
    pub weight: f64,
}

/// The GFL formulation of a PAR instance.
#[derive(Debug, Clone)]
pub struct GflInstance {
    /// Left-node (photo) weights: storage costs in bytes.
    pub left_weights: Vec<u64>,
    /// Right nodes `(q, p)` with their weights.
    pub right: Vec<RightNode>,
    /// `edges[p]` lists `(right_index, weight)` for every edge incident to
    /// left node `p`, including the unit self-edge.
    pub edges: Vec<Vec<(u32, f32)>>,
    /// Budget on the total weight of selected left nodes.
    pub budget: u64,
}

impl GflInstance {
    /// Builds the GFL graph from a PAR instance, using the instance's stored
    /// (possibly sparsified) similarities as edge weights. Zero-weight edges
    /// are omitted — exactly mirroring sparse similarity storage.
    pub fn from_instance(inst: &Instance) -> Self {
        let n = inst.num_photos();
        let mut right = Vec::new();
        let mut edges: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n];
        for q in inst.subsets() {
            let sim = inst.sim(q.id);
            for (local, (&p, &r)) in q.members.iter().zip(q.relevance.iter()).enumerate() {
                // phocus-lint: allow(cast-bounds) — right nodes = member_total, ≤ u32::MAX at pack time
                let right_idx = right.len() as u32;
                right.push(RightNode {
                    subset: q.id,
                    local: local as u32,
                    weight: q.weight * r,
                });
                // Self edge of weight 1.
                edges[p.index()].push((right_idx, 1.0));
                // Edges from each co-member with nonzero similarity. The
                // CSR store holds only nonzero entries, so its rows map to
                // edges directly without the zero filter.
                if let ContextSim::Sparse(sp) = sim {
                    let (ids, sims) = sp.neighbors(local);
                    for (&j, &s) in ids.iter().zip(sims) {
                        edges[q.members[j as usize].index()].push((right_idx, s));
                    }
                } else {
                    sim.for_neighbors(local, |j, s| {
                        if s > 0.0 {
                            edges[q.members[j].index()].push((right_idx, s as f32));
                        }
                    });
                }
            }
        }
        GflInstance {
            left_weights: inst.photos().iter().map(|p| p.cost).collect(),
            right,
            edges,
            budget: inst.budget(),
        }
    }

    /// Number of left nodes (photos).
    pub fn num_left(&self) -> usize {
        self.left_weights.len()
    }

    /// Number of right nodes (subset memberships).
    pub fn num_right(&self) -> usize {
        self.right.len()
    }

    /// Total right-node weight `W_R = Σ w_R(q,p)` — equals `Σ_q W(q)` since
    /// relevance is normalized per subset.
    pub fn total_right_weight(&self) -> f64 {
        self.right.iter().map(|r| r.weight).sum()
    }

    /// The GFL objective `F(S)` for a set of left nodes.
    pub fn score(&self, set: &[PhotoId]) -> f64 {
        let mut best = vec![0.0f64; self.right.len()];
        for &p in set {
            for &(ri, w) in &self.edges[p.index()] {
                let w = w as f64;
                if w > best[ri as usize] {
                    best[ri as usize] = w;
                }
            }
        }
        self.right
            .iter()
            .zip(&best)
            .map(|(r, &b)| r.weight * b)
            .sum()
    }

    /// Drops every non-self edge with weight `< tau` — the τ-sparsified GFL
    /// graph of Theorem 4.8. The right-node weight a set reaches here is
    /// what [`Instance::coverage_view`] scores.
    pub fn sparsify(&self, tau: f64) -> GflInstance {
        // Per-left-node edge filtering is independent; each filtered list
        // lands at its own index, identical to the serial pass.
        let edges = par_exec::par_map_slice(&self.edges, |l| {
            l.iter()
                .copied()
                .filter(|&(_, w)| w as f64 >= tau)
                .collect()
        });
        GflInstance {
            left_weights: self.left_weights.clone(),
            right: self.right.clone(),
            edges,
            budget: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_core::exact_score;
    use par_core::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};

    #[test]
    fn figure1_gfl_shape_matches_figure2() {
        let inst = figure1_instance(4 * MB);
        let gfl = GflInstance::from_instance(&inst);
        assert_eq!(gfl.num_left(), 7);
        // T_R: q1 has 3 members, q2 has 3, q3 has 1, q4 has 2 → 9 nodes.
        assert_eq!(gfl.num_right(), 9);
        // w_R((q1,p1)) = 9 · 0.5 = 4.5.
        let r0 = gfl.right[0];
        assert_eq!(r0.subset, SubsetId(0));
        assert!((r0.weight - 4.5).abs() < 1e-12);
        // W_R = Σ W(q) = 14.
        assert!((gfl.total_right_weight() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn gfl_objective_equals_par_objective() {
        let inst = figure1_instance(u64::MAX);
        let gfl = GflInstance::from_instance(&inst);
        let sets: Vec<Vec<PhotoId>> = vec![
            vec![],
            vec![PhotoId(0)],
            vec![PhotoId(0), PhotoId(5)],
            vec![PhotoId(1), PhotoId(3), PhotoId(6)],
            (0..7).map(PhotoId).collect(),
        ];
        for set in sets {
            let g = exact_score(&inst, &set);
            let f = gfl.score(&set);
            assert!((g - f).abs() < 1e-9, "G={g} F={f} for {set:?}");
        }
    }

    #[test]
    fn gfl_equivalence_on_random_instances() {
        let cfg = RandomInstanceConfig::default();
        for seed in 0..5 {
            let inst = random_instance(seed, &cfg);
            let gfl = GflInstance::from_instance(&inst);
            let set: Vec<PhotoId> = (0..inst.num_photos() as u32)
                .filter(|i| i % 3 == 0)
                .map(PhotoId)
                .collect();
            let g = exact_score(&inst, &set);
            let f = gfl.score(&set);
            assert!((g - f).abs() < 1e-6, "seed {seed}: G={g} F={f}");
        }
    }

    #[test]
    fn sparsify_keeps_self_edges() {
        let inst = figure1_instance(u64::MAX);
        let gfl = GflInstance::from_instance(&inst).sparsify(0.75);
        // Every photo still covers its own right nodes.
        for (p, edges) in gfl.edges.iter().enumerate() {
            let self_edges = edges.iter().filter(|&&(_, w)| w == 1.0).count();
            assert!(
                self_edges >= inst.memberships(PhotoId(p as u32)).len(),
                "photo {p} lost self edges"
            );
        }
        // SIM(q1,p1,p2)=0.7 < 0.75 is dropped; SIM(q1,p1,p3)=0.8 kept.
        let score_p1 = gfl.score(&[PhotoId(0)]);
        // p1 covers (q1,p1)=4.5·1 and (q1,p3)=1.8·0.8; (q1,p2) dropped.
        assert!((score_p1 - (4.5 + 1.8 * 0.8)).abs() < 1e-6, "{score_p1}");
    }
}
