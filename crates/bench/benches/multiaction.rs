//! Multi-action solver benchmarks: the numbers behind `BENCH_multiaction.json`.
//!
//! Variant expansion promotes PAR's ground set from photos to photo ×
//! action (keep / recompress@ℓ / delete), multiplying the instance by
//! `1 + |ladder|` while keeping every variant in its parent's connected
//! component (variants share the parent's embedding, so their stored pairs
//! sit at cosine 1). The component decomposition therefore survives the
//! expansion intact, and the sharded CELF driver applies unchanged — these
//! benches measure what that is worth on expanded instances.
//!
//! Mirrors `benches/shard.rs`: `global` is [`lazy_greedy`] on the expanded
//! instance; `sharded` is [`ShardedSolver::solve`] on a solver prepared
//! once per instance (preparation timed as its own `prepare` row). Both
//! sides run under an installed *serial* `Parallelism` and are asserted
//! transcript-identical before timing.
//!
//! Instances: the P-10K public slice expanded through the built-in
//! two-rung ladder, τ-sparsified — `t95` = τ=0.95, B = C(P)/5 and
//! `t92` = τ=0.92, B = C(P)/10.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use par_algo::{lazy_greedy, GreedyRule, ShardedSolver};
use par_bench::{dataset, DatasetId, Scale};
use par_core::Instance;
use par_exec::Parallelism;
use phocus::{
    expand_with_variants, represent_with_variants, ActionLadder, RepresentationConfig,
    Sparsification,
};

/// A τ-sparsified expanded P-10K instance with budget `C(P)/budget_div`
/// (budget relative to the *original* archive, as `phocus compress` runs it).
fn expanded_10k(ladder: &ActionLadder, tau: f64, budget_div: u64) -> Instance {
    let u = dataset(DatasetId::P10K, Scale::Scaled);
    let budget = u.total_cost() / budget_div;
    let (x, map) = expand_with_variants(&u, ladder);
    represent_with_variants(
        &x,
        &map,
        ladder,
        budget,
        &RepresentationConfig {
            sparsification: Sparsification::Threshold { tau },
            ..Default::default()
        },
    )
    .unwrap()
}

fn bench_multiaction_solver(c: &mut Criterion) {
    let prev = Parallelism::serial().install_global();
    let ladder = ActionLadder::standard();
    let mut group = c.benchmark_group("multiaction_solver");
    group.sample_size(20);
    for (label, tau, budget_div) in [("t95", 0.95, 5), ("t92", 0.92, 10)] {
        let inst = expanded_10k(&ladder, tau, budget_div);
        let solver = ShardedSolver::new(&inst);
        eprintln!(
            "multiaction_solver/{label}: {} actions, {} queries, {} components",
            inst.num_photos(),
            inst.num_subsets(),
            solver.labels().num_shards()
        );
        // The contract the multiaction integration tests pin, re-checked on
        // the exact instances being timed: bit-identical transcripts.
        for rule in [GreedyRule::CostBenefit, GreedyRule::UnitCost] {
            let global = lazy_greedy(&inst, rule);
            let sharded = solver.solve(rule);
            assert_eq!(sharded.selected, global.selected);
            assert_eq!(sharded.score.to_bits(), global.score.to_bits());
        }
        group.bench_function(BenchmarkId::new("prepare", label), |b| {
            b.iter(|| std::hint::black_box(ShardedSolver::new(&inst).labels().num_shards()))
        });
        for (rule, name) in [
            (GreedyRule::CostBenefit, "cb"),
            (GreedyRule::UnitCost, "uc"),
        ] {
            group.bench_function(BenchmarkId::new("global", format!("{label}_{name}")), |b| {
                b.iter(|| std::hint::black_box(lazy_greedy(&inst, rule).score))
            });
            group.bench_function(
                BenchmarkId::new("sharded", format!("{label}_{name}")),
                |b| b.iter(|| std::hint::black_box(solver.solve(rule).score)),
            );
        }
    }
    group.finish();
    prev.install_global();
}

criterion_group!(multiaction_benches, bench_multiaction_solver);
criterion_main!(multiaction_benches);
