//! Multi-action (keep / recompress@ℓ / delete) determinism contracts.
//!
//! The variant expansion promotes PAR's ground set to photo × action; these
//! tests pin the properties that make running it on the component-sharded
//! solver sound:
//!
//! 1. variants share their parent's embedding, so every variant lands in
//!    its parent's connected component — the decomposition never splits a
//!    variant family;
//! 2. on expanded instances the sharded solver's transcript is bit-identical
//!    to the global one, under the serial build and at 1/2/8 worker threads;
//! 3. the degenerate (empty) ladder reproduces remove-only archival exactly,
//!    bit for bit;
//! 4. on the inputs of `ci.sh`'s compress gate, both solver steps of
//!    `phocus compress` — Algorithm 1 and the refill from the pruned
//!    selection — match the global solver.

use par_algo::{
    lazy_greedy, lazy_greedy_from, main_algorithm, main_algorithm_sharded,
    sharded_lazy_greedy_from, GreedyRule, ShardedSolver,
};
use par_core::{shard_labels, Instance};
use par_exec::Parallelism;
use par_datasets::{generate_openimages, OpenImagesConfig, PublicScale, Universe};
use phocus::{
    expand_with_variants, prune_superseded, represent, represent_with_variants,
    solve_multi_action, ActionLadder, RepresentationConfig, Sparsification, VariantMap,
};

fn universe(photos: usize, seed: u64) -> Universe {
    generate_openimages(&OpenImagesConfig {
        name: format!("ma{seed}"),
        photos,
        target_subsets: photos / 5,
        seed,
        ..Default::default()
    })
}

/// A τ-sparsified expanded instance: sparsification keeps the component
/// structure non-trivial, which is what makes the sharded-vs-global
/// comparison meaningful.
fn expanded_instance(u: &Universe, ladder: &ActionLadder, budget_div: u64) -> (Instance, VariantMap) {
    let (x, map) = expand_with_variants(u, ladder);
    let cfg = RepresentationConfig {
        sparsification: Sparsification::Threshold { tau: 0.9 },
        ..Default::default()
    };
    let inst = represent_with_variants(&x, &map, ladder, u.total_cost() / budget_div, &cfg)
        .expect("representation");
    (inst, map)
}

#[test]
fn variants_land_in_their_parents_shard() {
    let u = universe(150, 11);
    let (inst, map) = expanded_instance(&u, &ActionLadder::standard(), 8);
    let labels = shard_labels(&inst);
    for i in 0..inst.num_photos() {
        let parent = map.parent[i] as usize;
        assert_eq!(
            labels.shard_of(par_core::PhotoId(i as u32)),
            labels.shard_of(par_core::PhotoId(parent as u32)),
            "variant {i} split from parent {parent}"
        );
    }
    assert!(
        labels.num_shards() > 1,
        "trivial decomposition — the co-location check proved nothing"
    );
}

#[test]
fn expanded_transcripts_are_bit_identical_sharded_vs_global() {
    for (seed, div) in [(11u64, 8u64), (23, 14)] {
        let u = universe(150, seed);
        let (inst, _) = expanded_instance(&u, &ActionLadder::standard(), div);
        for rule in [GreedyRule::CostBenefit, GreedyRule::UnitCost] {
            let global = lazy_greedy(&inst, rule);
            let sharded = ShardedSolver::new(&inst).solve(rule);
            assert_eq!(sharded.selected, global.selected, "selection diverged ({rule:?})");
            assert_eq!(
                sharded.score.to_bits(),
                global.score.to_bits(),
                "score bits diverged ({rule:?})"
            );
        }
        let global = main_algorithm(&inst);
        let sharded = main_algorithm_sharded(&inst);
        assert_eq!(sharded.best.selected, global.best.selected);
        assert_eq!(sharded.best.score.to_bits(), global.best.score.to_bits());
        assert_eq!(sharded.winner, global.winner, "winning rule diverged");
    }
}

#[test]
fn expanded_solves_are_identical_at_1_2_8_threads() {
    let u = universe(150, 11);
    let ladder = ActionLadder::standard();
    let budget = u.total_cost() / 8;
    let cfg = RepresentationConfig {
        sparsification: Sparsification::Threshold { tau: 0.9 },
        ..Default::default()
    };
    let mut transcripts = Vec::new();
    for threads in [1usize, 2, 8] {
        let prev = Parallelism::with_threads(threads).install_global();
        let solve = solve_multi_action(&u, budget, &ladder, &cfg).expect("solve");
        prev.install_global();
        transcripts.push((threads, solve.selected, solve.score.to_bits()));
    }
    let (_, sel0, bits0) = &transcripts[0];
    for (threads, sel, bits) in &transcripts[1..] {
        assert_eq!(sel, sel0, "selection diverged at {threads} threads");
        assert_eq!(bits, bits0, "score bits diverged at {threads} threads");
    }
}

#[test]
fn empty_ladder_reproduces_remove_only_exactly() {
    let u = universe(150, 11);
    let budget = u.total_cost() / 8;
    let cfg = RepresentationConfig {
        sparsification: Sparsification::Threshold { tau: 0.9 },
        ..Default::default()
    };
    let base = represent(&u, budget, &cfg).expect("representation");
    let ma = solve_multi_action(&u, budget, &ActionLadder::delete_only(), &cfg).expect("solve");
    assert_eq!(ma.kept_compressed, 0);
    for (solver, remove_only) in [
        ("sharded", main_algorithm_sharded(&base)),
        ("global", main_algorithm(&base)),
    ] {
        assert_eq!(ma.selected, remove_only.best.selected, "{solver}");
        assert_eq!(ma.score.to_bits(), remove_only.best.score.to_bits(), "{solver}");
    }
}

/// The compress gate's inputs: p1k at seed 42, a 1 MB budget, the
/// `0.85:0.35,0.55:0.10` ladder and the dense default representation.
#[test]
fn compress_gate_inputs_solve_like_the_global_solver() {
    let u = generate_openimages(&PublicScale::P1K.config(42));
    let ladder = ActionLadder::parse("0.85:0.35,0.55:0.10").expect("ladder");
    let budget = 1_000_000;
    let cfg = RepresentationConfig::default();
    let (x, map) = expand_with_variants(&u, &ladder);
    let inst = represent_with_variants(&x, &map, &ladder, budget, &cfg).expect("representation");

    let global = main_algorithm(&inst);
    let sharded = main_algorithm_sharded(&inst);
    assert_eq!(sharded.best.selected, global.best.selected, "Algorithm 1 selection");
    assert_eq!(sharded.best.score.to_bits(), global.best.score.to_bits(), "Algorithm 1 score");
    assert_eq!(sharded.winner, global.winner, "Algorithm 1 winner");

    // The repair refills from the pruned Algorithm 1 selection.
    let pruned = prune_superseded(&map, &ladder, &sharded.best.selected);
    assert!(pruned.len() < sharded.best.selected.len(), "the prune must drop renditions here");
    let global = lazy_greedy_from(&inst, &pruned, GreedyRule::CostBenefit);
    let sharded = sharded_lazy_greedy_from(&inst, &pruned, GreedyRule::CostBenefit);
    assert_eq!(sharded.selected, global.selected, "refill selection");
    assert_eq!(sharded.score.to_bits(), global.score.to_bits(), "refill score");

    // That refill is the headline's answer.
    let ma = solve_multi_action(&u, budget, &ladder, &cfg).expect("solve");
    assert_eq!(ma.selected, prune_superseded(&map, &ladder, &sharded.selected));
}
