//! Multi-tenant fleet benchmarks: the numbers behind `BENCH_fleet.json`.
//!
//! A serve-batch deployment solves one PAR instance per tenant. The fleet
//! engine pulls two throughput levers over the naive per-tenant loop:
//!
//! * **hoisted similarity kernels** — the dense representation prepares each
//!   context once (squared attention weights, per-member norm terms) so the
//!   `O(|q|²)` pair loop pays only a dot accumulation, where the generic
//!   provider path recomputes weights and both self-norms per pair;
//! * **arena reuse** — every worker keeps one [`SolveScratch`] for its whole
//!   stream of tenants, so evaluator/solver buffers are recycled capacity
//!   instead of fresh heap allocations.
//!
//! Outcomes are bit-identical either way (the arena-reset invariant and the
//! kernel bit-identity tests, DESIGN.md §13) — this file asserts it outside
//! the timed loops.
//!
//! Groups:
//!
//! * `fleet_batch` — end-to-end serve-batch throughput through
//!   [`FleetEngine`] with arenas on (`reuse`) and off (`fresh`), against the
//!   `naive` baseline: the pre-engine way to serve a fleet — a loop of
//!   single-tenant pipelines with per-pair provider dispatch in the
//!   similarity build, fresh solver allocations, and the unconditional
//!   online-bound certificate each solve pays. The `instances_per_sec`
//!   headline and the engine-vs-naive speedup row come from these rows.
//! * `fleet_solver` — the isolated arena effect: the same pre-represented
//!   tenant instances solved back-to-back, `fresh` allocating per tenant
//!   (`main_algorithm_sharded`) vs `reuse` drawing from one shared scratch
//!   (`main_algorithm_packed` on freshly computed labels).
//! * `fleet_scaling` — the end-to-end batch at 1/2/4 worker threads
//!   (tenants dispatch largest-first across the persistent pool).
//!
//! The latency distribution (p50/p99 per-tenant solve latency) is printed
//! to stderr by `fleet_latency` from a real engine run — percentiles come
//! from per-tenant wall clocks, not from criterion's per-iteration mean.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use par_algo::{main_algorithm_packed, main_algorithm_sharded, online_bound, SolveScratch};
use par_core::{shard_labels, Instance, InstanceBuilder, PhotoId};
use par_datasets::{generate_fleet, FleetConfig};
use par_embed::{ContextVector, ContextualSimilarity};
use par_exec::Parallelism;
use phocus::{
    budget_by_fraction, represent, FleetEngine, FleetEngineConfig, FleetTenant,
    RepresentationConfig,
};

/// The benchmark fleet: Zipf-heavy library sizes over a shared vocabulary.
fn fleet_tenants() -> Vec<FleetTenant> {
    let universes = generate_fleet(&FleetConfig {
        tenants: 192,
        min_photos: 12,
        max_photos: 240,
        seed: 42,
        ..Default::default()
    });
    budget_by_fraction(universes, 0.25)
}

/// Pre-represented instances, so `fleet_solver` times nothing but solving.
fn represented(tenants: &[FleetTenant]) -> Vec<Instance> {
    tenants
        .iter()
        .map(|t| represent(&t.universe, t.budget, &RepresentationConfig::default()).unwrap())
        .collect()
}

/// One tenant through the pre-engine serving pipeline: the dense contextual
/// representation materialized with per-pair provider dispatch (weights and
/// both self-norms recomputed for every pair — no hoisted kernel), a fresh
/// sharded solve, and the online-bound certificate every single-tenant
/// `Phocus::solve` pays. Returns the winning score for the equivalence
/// assertion.
fn naive_solve(t: &FleetTenant) -> f64 {
    let u = &t.universe;
    let dim = u.embeddings.first().map(|e| e.dim()).unwrap_or(1);
    let contexts: Vec<ContextVector> = u
        .subsets
        .iter()
        .map(|s| ContextVector::from_label(dim, &s.label))
        .collect();
    let provider = ContextualSimilarity::new(u.embeddings.clone(), contexts);
    let mut b = InstanceBuilder::new(t.budget);
    for (name, &cost) in u.names.iter().zip(&u.costs) {
        b.add_photo(name.clone(), cost);
    }
    for &r in &u.required {
        b.require(PhotoId(r));
    }
    for s in &u.subsets {
        b.add_subset(
            s.label.clone(),
            s.weight,
            s.members.iter().map(|&m| PhotoId(m)).collect(),
            s.relevance.clone(),
        );
    }
    let inst = b.build_with_provider(&provider).expect("bench tenant builds");
    let outcome = main_algorithm_sharded(&inst);
    let bound = online_bound(&inst, &outcome.best.selected);
    assert!(bound.ratio > 0.0);
    outcome.best.score
}

fn bench_fleet_batch(c: &mut Criterion) {
    let tenants = fleet_tenants();
    let engine = FleetEngine::new(FleetEngineConfig {
        parallelism: Parallelism::serial(),
        ..Default::default()
    });
    // The comparison is only honest if both pipelines produce the same
    // answers: the engine's kernelized represent + arena-reused solve must
    // match the naive per-pair/fresh-alloc pipeline bit for bit.
    let engine_scores: Vec<u64> = engine
        .run(&tenants)
        .into_iter()
        .map(|o| o.result.expect("bench tenant solves").score.to_bits())
        .collect();
    let naive_scores: Vec<u64> = tenants.iter().map(|t| naive_solve(t).to_bits()).collect();
    assert_eq!(engine_scores, naive_scores, "pipelines must agree bitwise");

    let mut group = c.benchmark_group("fleet_batch");
    group.sample_size(10);
    for (label, reuse_arenas) in [("reuse", true), ("fresh", false)] {
        let engine = FleetEngine::new(FleetEngineConfig {
            parallelism: Parallelism::serial(),
            reuse_arenas,
            ..Default::default()
        });
        group.bench_function(BenchmarkId::new(label, "batch192"), |b| {
            b.iter(|| std::hint::black_box(engine.run(&tenants).len()))
        });
    }
    group.bench_function(BenchmarkId::new("naive", "batch192"), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for t in &tenants {
                acc += naive_solve(t);
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

fn bench_fleet_solver(c: &mut Criterion) {
    let prev = Parallelism::serial().install_global();
    let tenants = fleet_tenants();
    let instances = represented(&tenants);
    eprintln!(
        "fleet_solver: {} tenants, {} photos total",
        instances.len(),
        instances.iter().map(Instance::num_photos).sum::<usize>()
    );
    let mut group = c.benchmark_group("fleet_solver");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("reuse", "batch192"), |b| {
        b.iter(|| {
            let mut scratch = SolveScratch::default();
            let mut acc = 0.0f64;
            for inst in &instances {
                let labels = shard_labels(inst);
                acc += main_algorithm_packed(inst, labels, &mut scratch).best.score;
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function(BenchmarkId::new("fresh", "batch192"), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for inst in &instances {
                acc += main_algorithm_sharded(inst).best.score;
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
    prev.install_global();
}

fn bench_fleet_scaling(c: &mut Criterion) {
    let tenants = fleet_tenants();
    let mut group = c.benchmark_group("fleet_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let engine = FleetEngine::new(FleetEngineConfig {
            parallelism: Parallelism::with_threads(threads),
            ..Default::default()
        });
        group.bench_function(BenchmarkId::new("reuse", format!("t{threads}")), |b| {
            b.iter(|| std::hint::black_box(engine.run(&tenants).len()))
        });
    }
    group.finish();
}

/// Prints the per-tenant solve-latency distribution of one real engine run;
/// the p50/p99 rows of `BENCH_fleet.json` are read off this line.
fn bench_fleet_latency(c: &mut Criterion) {
    let tenants = fleet_tenants();
    let engine = FleetEngine::new(FleetEngineConfig {
        parallelism: Parallelism::serial(),
        ..Default::default()
    });
    let outcomes = engine.run(&tenants);
    let mut lat_ns: Vec<u128> = outcomes.iter().map(|o| o.latency.as_nanos()).collect();
    lat_ns.sort_unstable();
    let pct = |p: usize| lat_ns[(lat_ns.len() * p / 100).min(lat_ns.len() - 1)];
    eprintln!(
        "fleet_latency: tenants={} p50_ns={} p90_ns={} p99_ns={} max_ns={}",
        lat_ns.len(),
        pct(50),
        pct(90),
        pct(99),
        lat_ns[lat_ns.len() - 1]
    );
    // Anchor a criterion row on the median-sized tenant so the latency
    // group also leaves a machine-readable trace in CRITERION_JSON.
    let mut order: Vec<usize> = (0..tenants.len()).collect();
    order.sort_by_key(|&i| tenants[i].universe.num_photos());
    let median = &tenants[order[order.len() / 2]];
    let inst = represented(std::slice::from_ref(median));
    let mut group = c.benchmark_group("fleet_latency");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("median_tenant", "solve"), |b| {
        let mut scratch = SolveScratch::default();
        b.iter(|| {
            let labels = shard_labels(&inst[0]);
            let outcome = main_algorithm_packed(&inst[0], labels, &mut scratch);
            std::hint::black_box(outcome.best.score)
        })
    });
    group.finish();
}

criterion_group!(
    fleet_benches,
    bench_fleet_batch,
    bench_fleet_solver,
    bench_fleet_scaling,
    bench_fleet_latency
);
criterion_main!(fleet_benches);
