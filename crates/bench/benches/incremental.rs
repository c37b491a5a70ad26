//! Incremental-archiver benchmarks: the numbers behind
//! `BENCH_incremental.json`.
//!
//! An archive is not solved once — epochs of churn (photo arrivals and
//! removals, query drift, budget wobble) arrive against a live solution.
//! The epoch-resident [`ArchiveSession`] applies each [`EpochDelta`]
//! with incremental component-label maintenance, re-solves only the shards
//! the delta dirtied, and replays the cached CELF stream transcripts of the
//! clean shards — bit-identical to a from-scratch sharded solve of the
//! post-delta instance (asserted here outside the timed loops, and pinned
//! by the determinism goldens in the integration suite).
//!
//! Groups:
//!
//! * `incremental_resolve` — one warm solver carried through an 8-epoch
//!   churn trace (`apply_delta` + `resolve` per epoch) vs a from-scratch
//!   `main_algorithm_sharded` of every post-delta instance, at 0.1% / 1% /
//!   10% churn per epoch. The headline re-solve speedups and the
//!   `bench_guard` floor rows come from these pairs.
//!
//! * `resolve_epoch` — name resolution of the 8 epochs at 1% churn, each
//!   against its pre-delta instance: `before` is the full-archive resolver
//!   (kept verbatim below), which hashes every photo name and query label
//!   of the archive into two maps; `after` is [`resolve_epoch`], which
//!   looks up only the names an epoch references. Both must produce equal
//!   deltas before anything is timed.
//! * `epoch_step` — one served epoch (`resolve_epoch` → `apply_delta` →
//!   `resolve`) over the same chain at `Parallelism` 1 (`t1`) and 2 (`t2`),
//!   where the two greedy rules run at once. Both must produce equal
//!   outcomes and epoch reports before anything is timed.
//!
//! Per-churn stream/work statistics (replayed vs live streams, gain
//! evaluations incremental vs scratch) are printed to stderr from the
//! equivalence pass; the JSON notes quote them.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use par_algo::{main_algorithm_sharded, ArchiveSession, EpochReport, MainOutcome};
use par_core::{EpochDelta, Instance, MemberRef, PhotoAdd, PhotoId, QueryAdd, SubsetId};
use par_datasets::{
    generate_churn, generate_fleet, resolve_epoch, ChurnConfig, DatasetError, FleetConfig,
    SubsetDef, TraceOp, Universe,
};
use par_exec::Parallelism;
use phocus::{represent, RepresentationConfig, Sparsification};
use std::collections::HashMap;
use std::time::Duration;

const EPOCHS: usize = 8;

/// The benchmark archive: 96 tenant libraries of the fleet generator merged
/// into one multi-library archive (photo names and query labels prefixed
/// per tenant), represented under the production PHOcus configuration
/// (τ-sparsified via LSH). Queries never cross libraries, so the photo–
/// query coupling graph has hundreds of small components plus the residual
/// singleton pool — the many-component regime component-sharded and
/// incremental solving are built for. A single monolithic corpus under the
/// dense PHOcus-NS representation couples nearly everything into one giant
/// component, where *no* incremental scheme can beat from-scratch.
fn merged_fleet() -> Universe {
    let universes = generate_fleet(&FleetConfig {
        tenants: 96,
        min_photos: 12,
        max_photos: 240,
        seed: 42,
        ..Default::default()
    });
    let mut out = Universe {
        name: "fleet-archive".into(),
        names: Vec::new(),
        costs: Vec::new(),
        embeddings: Vec::new(),
        exif: None,
        subsets: Vec::new(),
        required: Vec::new(),
    };
    for (t, u) in universes.iter().enumerate() {
        let off = out.names.len() as u32;
        out.names.extend(u.names.iter().map(|n| format!("t{t:03}/{n}")));
        out.costs.extend_from_slice(&u.costs);
        out.embeddings.extend(u.embeddings.iter().cloned());
        for s in &u.subsets {
            out.subsets.push(SubsetDef {
                label: format!("t{t:03}/{}", s.label),
                weight: s.weight,
                members: s.members.iter().map(|&m| m + off).collect(),
                relevance: s.relevance.clone(),
            });
        }
        out.required.extend(u.required.iter().map(|&r| r + off));
    }
    out
}

fn base_instance() -> Instance {
    let universe = merged_fleet();
    let budget = (universe.total_cost() as f64 * 0.25) as u64;
    let representation = RepresentationConfig {
        sparsification: Sparsification::Lsh {
            tau: 0.6,
            target_recall: 0.95,
            seed: 42,
        },
        ..Default::default()
    };
    represent(&universe, budget, &representation).expect("bench corpus builds")
}

/// The per-epoch trace operations, deltas and post-delta instance chain for
/// one churn level.
fn chain(
    base: &Instance,
    churn: f64,
    seed: u64,
) -> (Vec<Vec<TraceOp>>, Vec<EpochDelta>, Vec<Instance>) {
    let n = base.num_photos() as f64;
    // `churn` is the total per-epoch membership turnover: half of it photos
    // leaving, half arriving, so a "1% churn" epoch touches ~1% of the
    // archive's photos in total.
    let trace = generate_churn(
        base,
        &ChurnConfig {
            epochs: EPOCHS,
            removal_fraction: churn / 2.0,
            arrivals_mean: (churn * n / 2.0).max(1.0),
            drift_mean: 1.0,
            // Budget held constant: a budget change shifts the affordability
            // slack of *every* shard, which is a different (and worse-case)
            // workload than membership churn — the correctness suite covers
            // it; these rows isolate churn-proportional re-solve cost.
            budget_wobble: 0.0,
            seed,
            ..Default::default()
        },
    )
    .expect("bench trace generates");
    let mut deltas = Vec::with_capacity(EPOCHS);
    let mut instances = Vec::with_capacity(EPOCHS);
    let mut cur = base.clone();
    for ops in &trace.epochs {
        let delta = resolve_epoch(ops, &cur).expect("bench trace resolves");
        cur = par_core::apply_delta(&cur, &delta)
            .expect("bench trace applies")
            .instance;
        deltas.push(delta);
        instances.push(cur.clone());
    }
    (trace.epochs, deltas, instances)
}

fn bench_incremental_resolve(c: &mut Criterion) {
    let prev = Parallelism::serial().install_global();
    let base = base_instance();
    eprintln!(
        "incremental_resolve: base corpus {} photos, {} subsets",
        base.num_photos(),
        base.num_subsets()
    );
    let mut group = c.benchmark_group("incremental_resolve");
    group.sample_size(10);
    for (label, churn) in [
        ("churn0.1pct", 0.001),
        ("churn1pct", 0.01),
        ("churn10pct", 0.10),
    ] {
        let (_, deltas, instances) = chain(&base, churn, 7);

        // The comparison is only honest if both paths produce the same
        // answers: every epoch of the warm solver must match a from-scratch
        // sharded solve of the post-delta instance bit for bit. The pass
        // also collects the work statistics quoted in the JSON notes.
        let mut session = ArchiveSession::new(base.clone());
        session.resolve();
        let (mut replayed, mut live, mut inc_evals, mut scratch_evals) = (0u64, 0u64, 0u64, 0u64);
        for (delta, inst) in deltas.iter().zip(&instances) {
            let epoch = session
                .apply_delta(delta)
                .expect("bench delta applies")
                .resolve();
            let (inc, report) = (epoch.outcome, epoch.report);
            let scratch = main_algorithm_sharded(inst);
            assert_eq!(
                inc.best.selected, scratch.best.selected,
                "incremental and from-scratch solves must agree"
            );
            assert_eq!(inc.best.score.to_bits(), scratch.best.score.to_bits());
            assert_eq!(inc.winner, scratch.winner);
            replayed += report.replayed_streams as u64;
            live += report.live_streams as u64;
            inc_evals += report.gain_evals;
            scratch_evals += scratch.total_stats().gain_evals;
        }
        eprintln!(
            "incremental_resolve/{label}: {EPOCHS} epochs, streams replayed={replayed} \
             live={live}, gain_evals incremental={inc_evals} scratch={scratch_evals}"
        );

        // Timed pairs: the warm solver (cloned per iteration — the clone is
        // a buffer copy, charged to the incremental side) vs from-scratch.
        // Both sides receive the *deltas*: an epoch server of either kind
        // must construct the post-delta instance, so the scratch side pays
        // the same `EpochDelta::apply` (with resident labels — the cheapest
        // from-scratch baseline) and the pair isolates the solve path.
        let mut warm = ArchiveSession::new(base.clone());
        warm.resolve();
        group.bench_function(BenchmarkId::new("incremental", label), |b| {
            b.iter(|| {
                let mut s = warm.clone();
                let mut acc = 0.0f64;
                for delta in &deltas {
                    s.apply_delta(delta).expect("bench delta applies");
                    acc += s.resolve().outcome.best.score;
                }
                black_box(acc)
            })
        });
        let base_labels = par_core::shard_labels(&base);
        group.bench_function(BenchmarkId::new("scratch", label), |b| {
            b.iter(|| {
                let mut cur = base.clone();
                let mut labels = base_labels.clone();
                let mut acc = 0.0f64;
                for delta in &deltas {
                    let applied = delta.apply(&cur, &labels).expect("bench delta applies");
                    cur = applied.instance;
                    labels = applied.labels;
                    acc += main_algorithm_sharded(&cur).best.score;
                }
                black_box(acc)
            })
        });
    }
    group.finish();
    prev.install_global();
}

/// The name table `resolve_epoch` built before it looked up only the names
/// an epoch references: every photo name and query label of the instance.
/// `None` marks a name that occurs more than once. Kept verbatim as the
/// `resolve_epoch/*/before` side.
struct FullNameMaps<'a> {
    photos: HashMap<&'a str, Option<PhotoId>>,
    subsets: HashMap<&'a str, Option<SubsetId>>,
}

impl<'a> FullNameMaps<'a> {
    fn new(inst: &'a Instance) -> Self {
        let mut photos: HashMap<&str, Option<PhotoId>> = HashMap::new();
        for p in inst.photos() {
            photos
                .entry(&*p.name)
                .and_modify(|e| *e = None)
                .or_insert(Some(p.id));
        }
        let mut subsets: HashMap<&str, Option<SubsetId>> = HashMap::new();
        for s in inst.subsets() {
            subsets
                .entry(&*s.label)
                .and_modify(|e| *e = None)
                .or_insert(Some(s.id));
        }
        FullNameMaps { photos, subsets }
    }

    fn photo(&self, name: &str) -> Result<PhotoId, DatasetError> {
        match self.photos.get(name) {
            Some(Some(id)) => Ok(*id),
            Some(None) => Err(resolve_err(format!("photo name `{name}` is ambiguous"))),
            None => Err(resolve_err(format!("unknown photo name `{name}`"))),
        }
    }

    fn subset(&self, label: &str) -> Result<SubsetId, DatasetError> {
        match self.subsets.get(label) {
            Some(Some(id)) => Ok(*id),
            Some(None) => Err(resolve_err(format!("query label `{label}` is ambiguous"))),
            None => Err(resolve_err(format!("unknown query label `{label}`"))),
        }
    }
}

fn resolve_err(msg: String) -> DatasetError {
    DatasetError::TraceResolve(msg)
}

/// `resolve_epoch` over [`FullNameMaps`], as it was before it resolved only
/// referenced names.
fn full_archive_resolve_epoch(
    ops: &[TraceOp],
    inst: &Instance,
) -> Result<EpochDelta, DatasetError> {
    let maps = FullNameMaps::new(inst);
    let mut delta = EpochDelta::default();
    // Photos added earlier in this same epoch, by name → add_photos index.
    let mut fresh: HashMap<&str, usize> = HashMap::new();
    for op in ops {
        match op {
            TraceOp::AddPhoto {
                name,
                cost,
                required,
            } => {
                if fresh.insert(name.as_str(), delta.add_photos.len()).is_some() {
                    return Err(resolve_err(format!(
                        "photo name `{name}` added twice in one epoch"
                    )));
                }
                delta.add_photos.push(PhotoAdd {
                    name: name.clone(),
                    cost: *cost,
                    required: *required,
                });
            }
            TraceOp::RemovePhoto { name } => delta.remove_photos.push(maps.photo(name)?),
            TraceOp::AddQuery {
                label,
                weight,
                members,
                pairs,
            } => {
                let mut refs = Vec::with_capacity(members.len());
                let mut relevance = Vec::with_capacity(members.len());
                for (name, rel) in members {
                    let m = match fresh.get(name.as_str()) {
                        Some(&k) => MemberRef::New(k),
                        None => MemberRef::Existing(maps.photo(name)?),
                    };
                    refs.push(m);
                    relevance.push(*rel);
                }
                delta.add_queries.push(QueryAdd {
                    label: label.clone(),
                    weight: *weight,
                    members: refs,
                    relevance,
                    pairs: pairs.clone(),
                });
            }
            TraceOp::RetireQuery { label } => delta.retire_queries.push(maps.subset(label)?),
            TraceOp::Require { name } => delta.require.push(maps.photo(name)?),
            TraceOp::Unrequire { name } => delta.unrequire.push(maps.photo(name)?),
            TraceOp::Budget { bytes } => delta.set_budget = Some(*bytes),
        }
    }
    Ok(delta)
}

/// Serves every epoch of `ops` on a clone of `warm` — `resolve_epoch` →
/// `apply_delta` → `resolve` — and returns what each epoch answered.
fn serve_chain(warm: &ArchiveSession, ops: &[Vec<TraceOp>]) -> Vec<(MainOutcome, EpochReport)> {
    let mut s = warm.clone();
    ops.iter()
        .map(|epoch| {
            let delta = resolve_epoch(epoch, s.instance()).expect("bench trace resolves");
            let solve = s
                .apply_delta(&delta)
                .expect("bench delta applies")
                .resolve();
            (solve.outcome, solve.report)
        })
        .collect()
}

fn bench_epoch_serving(c: &mut Criterion) {
    let base = base_instance();
    let (ops, _, instances) = chain(&base, 0.01, 7);
    let pre: Vec<&Instance> = std::iter::once(&base).chain(&instances).take(ops.len()).collect();

    // Name resolution: both resolvers must agree on every epoch first.
    for (epoch, inst) in ops.iter().zip(&pre) {
        let before = full_archive_resolve_epoch(epoch, inst).expect("bench trace resolves");
        let after = resolve_epoch(epoch, inst).expect("bench trace resolves");
        assert_eq!(before, after, "both resolvers must produce the same delta");
    }
    // Both groups alternate their two sides over several rounds with long
    // windows: on a shared 2-core host one short window per side is at the
    // mercy of whatever else runs.
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0");
    let rounds = if quick { 1 } else { 3 };
    let mut group = c.benchmark_group("resolve_epoch");
    if !quick {
        group.measurement_time(Duration::from_secs(2));
    }
    for round in 1..=rounds {
        let id = |side: &str| BenchmarkId::new(format!("churn1pct/{side}"), format!("r{round}"));
        group.bench_function(id("before"), |b| {
            b.iter(|| {
                for (epoch, inst) in ops.iter().zip(&pre) {
                    black_box(full_archive_resolve_epoch(epoch, inst).expect("bench trace resolves"));
                }
            })
        });
        group.bench_function(id("after"), |b| {
            b.iter(|| {
                for (epoch, inst) in ops.iter().zip(&pre) {
                    black_box(resolve_epoch(epoch, inst).expect("bench trace resolves"));
                }
            })
        });
    }
    group.finish();

    // One served epoch at 1 and 2 threads: the answers, bit for bit, and
    // the epoch reports must agree before either side is timed.
    let mut warm = ArchiveSession::new(base);
    warm.resolve();
    let served = [1usize, 2].map(|t| {
        let prev = Parallelism::with_threads(t).install_global();
        let out = serve_chain(&warm, &ops);
        prev.install_global();
        out
    });
    for ((a, ra), (b, rb)) in served[0].iter().zip(&served[1]) {
        assert_eq!(a.uc.selected, b.uc.selected, "UC selection");
        assert_eq!(a.cb.selected, b.cb.selected, "CB selection");
        assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
        assert_eq!(a.winner, b.winner);
        assert_eq!(ra, rb, "epoch report");
    }
    let mut group = c.benchmark_group("epoch_step");
    for round in 1..=rounds {
        for (label, threads) in [("t1", 1usize), ("t2", 2)] {
            let prev = Parallelism::with_threads(threads).install_global();
            let id = BenchmarkId::new(format!("churn1pct/{label}"), format!("r{round}"));
            group.bench_function(id, |b| b.iter(|| black_box(serve_chain(&warm, &ops).len())));
            prev.install_global();
        }
    }
    group.finish();
}

criterion_group!(incremental_benches, bench_incremental_resolve, bench_epoch_serving);
criterion_main!(incremental_benches);
