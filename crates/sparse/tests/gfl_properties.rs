//! Property tests for the GFL formulation: the bipartite objective equals
//! the PAR objective on arbitrary instances and arbitrary selections,
//! sparsification commutes with the conversion, and the τ-coverage view
//! scores what a set reaches in the sparsified graph.

use par_core::fixtures::{random_instance, RandomInstanceConfig, SplitMix64};
use par_core::{exact_score, PhotoId};
use par_sparse::GflInstance;
use proptest::prelude::*;

fn instance_strategy() -> impl Strategy<Value = (par_core::Instance, u64)> {
    (any::<u64>(), 8usize..40, 3usize..10).prop_map(|(seed, photos, subsets)| {
        let cfg = RandomInstanceConfig {
            photos,
            subsets,
            subset_size: (1, photos.min(7)),
            cost_range: (10, 300),
            budget_fraction: 0.5,
            required_prob: 0.0,
        };
        (random_instance(seed, &cfg), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gfl_objective_equals_par_objective((inst, seed) in instance_strategy()) {
        let gfl = GflInstance::from_instance(&inst);
        let mut rng = SplitMix64::new(seed ^ 0x6F1);
        let set: Vec<PhotoId> = (0..inst.num_photos() as u32)
            .map(PhotoId)
            .filter(|_| rng.next_f64() < 0.4)
            .collect();
        let g = exact_score(&inst, &set);
        let f = gfl.score(&set);
        prop_assert!((g - f).abs() < 1e-6, "G={g} F={f}");
    }

    #[test]
    fn sparsify_commutes_with_gfl((inst, seed) in instance_strategy()) {
        // GFL(sparsify(inst)) and sparsify(GFL(inst)) score identically.
        let tau = 0.5;
        let via_instance = GflInstance::from_instance(&inst.sparsify(tau));
        let via_graph = GflInstance::from_instance(&inst).sparsify(tau);
        let mut rng = SplitMix64::new(seed ^ 0x6F2);
        let set: Vec<PhotoId> = (0..inst.num_photos() as u32)
            .map(PhotoId)
            .filter(|_| rng.next_f64() < 0.4)
            .collect();
        let a = via_instance.score(&set);
        let b = via_graph.score(&set);
        prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn total_right_weight_is_weight_sum((inst, _seed) in instance_strategy()) {
        let gfl = GflInstance::from_instance(&inst);
        prop_assert!((gfl.total_right_weight() - inst.max_score()).abs() < 1e-9);
        // Full selection attains the total weight.
        let all: Vec<PhotoId> = (0..inst.num_photos() as u32).map(PhotoId).collect();
        prop_assert!((gfl.score(&all) - gfl.total_right_weight()).abs() < 1e-6);
    }

    #[test]
    fn coverage_view_scores_the_sparsified_graph_coverage((inst, seed) in instance_strategy()) {
        let mut rng = SplitMix64::new(seed ^ 0x6F3);
        for store in [inst.clone(), inst.sparsify(0.5), inst.with_unit_sims()] {
            let gfl = GflInstance::from_instance(&store);
            for tau in [0.0, 0.3, 0.8, 1.0] {
                let set: Vec<PhotoId> = (0..store.num_photos() as u32)
                    .map(PhotoId)
                    .filter(|_| rng.next_f64() < 0.4)
                    .collect();
                let graph = gfl.sparsify(tau);
                let mut reached = vec![false; graph.num_right()];
                for p in &set {
                    for &(ri, _) in &graph.edges[p.index()] {
                        reached[ri as usize] = true;
                    }
                }
                let w: f64 = graph
                    .right
                    .iter()
                    .zip(&reached)
                    .filter(|(_, &r)| r)
                    .map(|(node, _)| node.weight)
                    .sum();
                let covered = exact_score(&store.coverage_view(tau), &set);
                prop_assert!(
                    (covered - w).abs() <= 1e-9 * w.max(1.0),
                    "τ={tau}: view {covered} vs graph {w}"
                );
            }
        }
    }
}
