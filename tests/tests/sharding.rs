//! Property tests for the component-sharded solver: the shard labels are a
//! true partition of the photo–query graph, and the sharded CELF driver's
//! transcript is bit-identical to the global lazy greedy on random instances
//! under both greedy rules.

use par_algo::{lazy_greedy, sharded_lazy_greedy, GreedyRule};
use par_core::fixtures::{random_instance, RandomInstanceConfig};
use par_core::{shard_labels, ContextSim, Instance};
use proptest::prelude::*;

fn instance_strategy() -> impl Strategy<Value = Instance> {
    // The vendored proptest shim drives everything from integer ranges:
    // budget_pct becomes the budget fraction, and sparsity picks dense /
    // τ=0.6 / τ=0.85 similarity stores (only sparse queries can span
    // several shards).
    (any::<u64>(), 30usize..120, 5usize..25, 15u64..80, 0u32..3).prop_map(
        |(seed, photos, subsets, budget_pct, sparsity)| {
            let inst = random_instance(
                seed,
                &RandomInstanceConfig {
                    photos,
                    subsets,
                    subset_size: (2, 12),
                    budget_fraction: budget_pct as f64 / 100.0,
                    required_prob: 0.03,
                    ..Default::default()
                },
            );
            match sparsity {
                0 => inst,
                1 => inst.sparsify(0.6),
                _ => inst.sparsify(0.85),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decomposition_is_a_true_partition(inst in instance_strategy()) {
        let labels = shard_labels(&inst);
        let n = inst.num_photos();
        prop_assert_eq!(labels.photo_shards().len(), n);

        // Labels run 0..num_shards in first-seen order by photo id.
        let mut next = 0u32;
        for &s in labels.photo_shards() {
            prop_assert!(s <= next, "label {} appears before label {}", s, next);
            next = next.max(s + 1);
        }
        prop_assert_eq!(next as usize, labels.num_shards());

        // No stored similarity pair crosses shards, and every dense or unit
        // query sits in one shard. A photo is edgeless when no query links
        // it to another photo.
        let mut has_edge = vec![false; n];
        for q in inst.subsets() {
            if let ContextSim::Sparse(sp) = inst.sim(q.id) {
                for (pos, &m) in q.members.iter().enumerate() {
                    for &j in sp.neighbors(pos).0 {
                        let other = q.members[j as usize];
                        prop_assert_eq!(
                            labels.shard_of(other),
                            labels.shard_of(m),
                            "stored edge crosses shards"
                        );
                        has_edge[m.index()] = true;
                        has_edge[other.index()] = true;
                    }
                }
            } else if let Some((&first, rest)) = q.members.split_first() {
                let s = labels.shard_of(first);
                for &m in rest {
                    prop_assert_eq!(labels.shard_of(m), s, "dense query split");
                    has_edge[m.index()] = true;
                    has_edge[first.index()] = true;
                }
            }
        }

        // With at least two edgeless photos, the pool holds exactly those.
        let edgeless: Vec<usize> = (0..n).filter(|&p| !has_edge[p]).collect();
        match labels.singleton_pool() {
            Some(pool) => {
                let pooled: Vec<usize> = (0..n)
                    .filter(|&p| labels.photo_shards()[p] as usize == pool)
                    .collect();
                prop_assert!(edgeless.len() >= 2);
                prop_assert_eq!(pooled, edgeless);
            }
            None => prop_assert!(edgeless.len() < 2, "{} edgeless photos, no pool", edgeless.len()),
        }
    }

    #[test]
    fn sharded_transcript_equals_global_lazy_greedy(inst in instance_strategy()) {
        for rule in [GreedyRule::CostBenefit, GreedyRule::UnitCost] {
            let global = lazy_greedy(&inst, rule);
            let sharded = sharded_lazy_greedy(&inst, rule);
            prop_assert_eq!(&sharded.selected, &global.selected, "selection order diverged");
            prop_assert_eq!(
                sharded.score.to_bits(),
                global.score.to_bits(),
                "score bits diverged: {} vs {}", sharded.score, global.score
            );
            prop_assert_eq!(sharded.cost, global.cost);
        }
    }
}
