//! LSH benchmarks: SimHash pair discovery vs exhaustive all-pairs cosine —
//! the "roughly linear time" claim of Section 4.3 — and the representation
//! kernels behind `BENCH_lsh.json`.
//!
//! The kernel rows time each stage of the per-context LSH path on the
//! largest contexts of the P-10K public slice (contextual embeddings at the
//! production blend, the capped 9×20 plan, τ = 0.6), under an installed
//! serial `Parallelism`, as interleaved `before`/`after` pairs:
//!
//! * `sign` — row-major plane-by-plane signing vs [`SimHasher::sign`] over
//!   transposed planes;
//! * `candidates` — a per-band `HashMap` index whose colliding pairs are
//!   sort-deduplicated vs [`LshIndex`]'s sorted runs (build + enumeration);
//! * `verify` — a fused per-pair cosine vs [`verify_candidates`] (norms and
//!   f64 coordinates hoisted);
//! * `from_pairs` — the doubled-list sort-and-dedup CSR build vs the counting
//!   [`SparseSim::from_pairs`].
//!
//! The `before` kernels are the previous implementations, kept here verbatim
//! in behaviour, and every one is asserted bit-identical to its `after`
//! before anything is timed. `represent/p10k` times the whole
//! representation of the P-10K slice at the installed default parallelism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use par_bench::{dataset, DatasetId, Scale};
use par_core::{SparseSim, SubsetId};
use par_embed::{ContextVector, Embedding, ImageSpec, SpecEmbedder};
use par_exec::Parallelism;
use par_lsh::{cosine, similar_pairs, verify_candidates, LshIndex, LshPlan, Signature, SimHasher};
use phocus::{represent, RepresentationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn vectors(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let embedder = SpecEmbedder::new(64, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cache = std::collections::HashMap::new();
    (0..n)
        .map(|i| {
            let spec = ImageSpec::new(
                rng.gen_range(0..(n as u32 / 20).max(2)),
                [rng.gen(), rng.gen(), rng.gen(), rng.gen()],
                i as u64,
            );
            embedder.embed_cached(&spec, &mut cache).as_slice().to_vec()
        })
        .collect()
}

fn exhaustive_pairs(vecs: &[Vec<f32>], tau: f64) -> usize {
    let mut count = 0;
    for i in 0..vecs.len() {
        for j in 0..i {
            if cosine(&vecs[i], &vecs[j]) >= tau {
                count += 1;
            }
        }
    }
    count
}

fn bench_pair_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_discovery");
    group.sample_size(10);
    for n in [500usize, 1000, 2000] {
        let vecs = vectors(n, 42);
        group.bench_with_input(BenchmarkId::new("lsh", n), &vecs, |b, v| {
            b.iter(|| similar_pairs(std::hint::black_box(v), 0.8, 0.95, 7).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("exhaustive", n), &vecs, |b, v| {
            b.iter(|| exhaustive_pairs(std::hint::black_box(v), 0.8))
        });
    }
    group.finish();
}

fn bench_signing(c: &mut Criterion) {
    let vecs = vectors(1000, 3);
    let hasher = SimHasher::new(64, 128, 5);
    c.bench_function("simhash_sign/1000x64d/128bit", |b| {
        b.iter(|| {
            for v in &vecs {
                std::hint::black_box(hasher.sign(v));
            }
        })
    });
}

// ---------------------------------------------------------------------------
// The previous kernels (`before` rows).

/// Plane-by-plane signing over row-major hyperplanes.
fn sign_row_major(planes: &[Vec<f32>], v: &[f32]) -> Vec<u64> {
    let mut bits = vec![0u64; planes.len().div_ceil(64)];
    for (b, row) in planes.iter().enumerate() {
        let dot: f32 = row.iter().zip(v).map(|(p, x)| p * x).sum();
        if dot >= 0.0 {
            bits[b / 64] |= 1 << (b % 64);
        }
    }
    bits
}

/// Per-band `HashMap` buckets; every colliding pair of every bucket packed
/// into a `u64`, then sorted and deduplicated.
fn candidates_hash_index(sigs: &[Signature], plan: LshPlan) -> Vec<(u32, u32)> {
    let tables: Vec<HashMap<u64, Vec<u32>>> = (0..plan.bands)
        .map(|k| {
            let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
            for (i, sig) in sigs.iter().enumerate() {
                let mut key = 0u64;
                for r in 0..plan.rows {
                    if sig.bit(k * plan.rows + r) {
                        key |= 1 << r;
                    }
                }
                table.entry(key).or_default().push(i as u32);
            }
            table
        })
        .collect();
    let mut keys: Vec<u64> = Vec::new();
    for table in &tables {
        for bucket in table.values() {
            for (a_pos, &a) in bucket.iter().enumerate() {
                for &b in &bucket[a_pos + 1..] {
                    keys.push(((a.min(b) as u64) << 32) | a.max(b) as u64);
                }
            }
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| ((k >> 32) as u32, k as u32))
        .collect()
}

fn candidates_sorted_runs(sigs: &[Signature], plan: LshPlan) -> Vec<(u32, u32)> {
    let index = LshIndex::build(sigs, plan.rows, plan.bands);
    let mut out = Vec::new();
    index.for_candidate_pairs(|i, j| out.push((i, j)));
    out
}

/// The exact cosine as one fused loop over coordinates.
fn cosine_fused(a: &[f32], b: &[f32]) -> f64 {
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
    }
}

fn verify_per_pair(
    vectors: &[Embedding],
    candidates: &[(u32, u32)],
    tau: f64,
) -> Vec<(u32, u32, f64)> {
    candidates
        .iter()
        .map(|&(i, j)| {
            let c = cosine_fused(
                vectors[i as usize].as_slice(),
                vectors[j as usize].as_slice(),
            );
            (i, j, c)
        })
        .filter(|&(_, _, c)| c >= tau)
        .collect()
}

/// CSR arenas from the doubled pair list, sorted by (row, col) with
/// similarity descending and deduplicated.
fn csr_sort_build(n: usize, pairs: &[(u32, u32, f64)]) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
    let mut entries: Vec<(u32, u32, f32)> = Vec::new();
    for &(i, j, s) in pairs {
        if i == j || s == 0.0 {
            continue;
        }
        entries.push((i, j, s as f32));
        entries.push((j, i, s as f32));
    }
    entries.sort_unstable_by(|a, b| {
        (a.0, a.1)
            .cmp(&(b.0, b.1))
            .then_with(|| b.2.total_cmp(&a.2))
    });
    entries.dedup_by_key(|e| (e.0, e.1));
    let mut offsets = vec![0u32; n + 1];
    for &(i, _, _) in &entries {
        offsets[i as usize + 1] += 1;
    }
    for k in 1..=n {
        offsets[k] += offsets[k - 1];
    }
    let neighbor_idx = entries.iter().map(|e| e.1).collect();
    let sim = entries.iter().map(|e| e.2).collect();
    (offsets, neighbor_idx, sim)
}

fn csr_arenas(s: &SparseSim) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
    let mut offsets = vec![0u32];
    let (mut ids, mut sims) = (Vec::new(), Vec::new());
    for i in 0..s.len() {
        let (row_ids, row_sims) = s.neighbors(i);
        ids.extend_from_slice(row_ids);
        sims.extend_from_slice(row_sims);
        offsets.push(ids.len() as u32);
    }
    (offsets, ids, sims)
}

// ---------------------------------------------------------------------------
// Kernel rows.

const TAU: f64 = 0.6;
const PLAN: LshPlan = LshPlan { rows: 9, bands: 20 };
/// The largest contexts of the slice that the kernel rows run over.
const CONTEXTS: usize = 4;

/// One context's inputs at every stage, computed with the new kernels.
struct Context {
    vectors: Vec<Embedding>,
    signatures: Vec<Signature>,
    candidates: Vec<(u32, u32)>,
    pairs: Vec<(u32, u32, f64)>,
}

fn largest_contexts(u: &par_datasets::Universe, hasher: &SimHasher) -> Vec<Context> {
    let dim = hasher.dim();
    let blend = RepresentationConfig::default().blend;
    let mut by_size: Vec<&par_datasets::SubsetDef> = u.subsets.iter().collect();
    by_size.sort_by_key(|s| std::cmp::Reverse(s.members.len()));
    by_size
        .into_iter()
        .take(CONTEXTS)
        .map(|s| {
            let ctx = ContextVector::from_label(dim, &s.label);
            let vectors: Vec<Embedding> = s
                .members
                .iter()
                .map(|&p| ctx.contextual_embedding(&u.embeddings[p as usize], blend))
                .collect();
            let signatures = hasher.sign_batch(&vectors);
            let candidates = candidates_sorted_runs(&signatures, PLAN);
            let pairs = verify_candidates(&vectors, &candidates, TAU);
            Context {
                vectors,
                signatures,
                candidates,
                pairs,
            }
        })
        .collect()
}

/// Every `before` kernel reproduces its `after` kernel bit for bit on the
/// contexts being timed.
fn assert_bit_identical(ctxs: &[Context], hasher: &SimHasher, planes: &[Vec<f32>]) {
    for c in ctxs {
        for (v, sig) in c.vectors.iter().zip(&c.signatures) {
            let old = sign_row_major(planes, v.as_slice());
            for b in 0..sig.len() {
                assert_eq!(sig.bit(b), old[b / 64] >> (b % 64) & 1 == 1, "sign bit {b}");
            }
            assert_eq!(hasher.sign(v.as_slice()), *sig);
        }
        assert_eq!(candidates_hash_index(&c.signatures, PLAN), c.candidates);
        let old = verify_per_pair(&c.vectors, &c.candidates, TAU);
        assert_eq!(old.len(), c.pairs.len());
        for (a, b) in old.iter().zip(&c.pairs) {
            assert_eq!((a.0, a.1, a.2.to_bits()), (b.0, b.1, b.2.to_bits()));
        }
        let n = c.vectors.len();
        let new = SparseSim::from_pairs(SubsetId(0), n, c.pairs.iter().copied()).unwrap();
        assert_eq!(csr_sort_build(n, &c.pairs), csr_arenas(&new));
    }
}

fn bench_representation_kernels(c: &mut Criterion) {
    let prev = Parallelism::serial().install_global();
    let u = dataset(DatasetId::P10K, Scale::Scaled);
    let hasher = SimHasher::new(u.embeddings[0].dim(), PLAN.total_bits(), 42);
    let planes: Vec<Vec<f32>> = (0..hasher.bits())
        .map(|b| hasher.plane(b).collect())
        .collect();
    let ctxs = largest_contexts(&u, &hasher);
    assert_bit_identical(&ctxs, &hasher, &planes);
    let members: usize = ctxs.iter().map(|c| c.vectors.len()).sum();
    let candidates: usize = ctxs.iter().map(|c| c.candidates.len()).sum();
    let kept: usize = ctxs.iter().map(|c| c.pairs.len()).sum();
    eprintln!(
        "lsh_kernels: {CONTEXTS} contexts, {members} members, {candidates} candidates, {kept} pairs >= {TAU}"
    );
    let rounds = if std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0") {
        1
    } else {
        3
    };
    let mut group = c.benchmark_group("lsh_kernels");
    for round in 1..=rounds {
        let id = |kernel: &str, side: &str| {
            BenchmarkId::new(format!("{kernel}/{side}"), format!("r{round}"))
        };
        group.bench_function(id("sign", "before"), |b| {
            b.iter(|| {
                for c in &ctxs {
                    for v in &c.vectors {
                        std::hint::black_box(sign_row_major(&planes, v.as_slice()));
                    }
                }
            })
        });
        group.bench_function(id("sign", "after"), |b| {
            b.iter(|| {
                for c in &ctxs {
                    std::hint::black_box(hasher.sign_batch(&c.vectors));
                }
            })
        });
        group.bench_function(id("candidates", "before"), |b| {
            b.iter(|| {
                for c in &ctxs {
                    std::hint::black_box(candidates_hash_index(&c.signatures, PLAN));
                }
            })
        });
        group.bench_function(id("candidates", "after"), |b| {
            b.iter(|| {
                for c in &ctxs {
                    std::hint::black_box(candidates_sorted_runs(&c.signatures, PLAN));
                }
            })
        });
        group.bench_function(id("verify", "before"), |b| {
            b.iter(|| {
                for c in &ctxs {
                    std::hint::black_box(verify_per_pair(&c.vectors, &c.candidates, TAU));
                }
            })
        });
        group.bench_function(id("verify", "after"), |b| {
            b.iter(|| {
                for c in &ctxs {
                    std::hint::black_box(verify_candidates(&c.vectors, &c.candidates, TAU));
                }
            })
        });
        group.bench_function(id("from_pairs", "before"), |b| {
            b.iter(|| {
                for c in &ctxs {
                    std::hint::black_box(csr_sort_build(c.vectors.len(), &c.pairs));
                }
            })
        });
        group.bench_function(id("from_pairs", "after"), |b| {
            b.iter(|| {
                for c in &ctxs {
                    let pairs = c.pairs.iter().copied();
                    std::hint::black_box(
                        SparseSim::from_pairs(SubsetId(0), c.vectors.len(), pairs).unwrap(),
                    );
                }
            })
        });
    }
    group.finish();
    prev.install_global();
}

/// The whole representation of the P-10K slice, LSH at τ = 0.6.
fn bench_represent(c: &mut Criterion) {
    let u = dataset(DatasetId::P10K, Scale::Scaled);
    let budget = u.total_cost() / 10;
    let cfg = RepresentationConfig::phocus(TAU);
    let mut group = c.benchmark_group("lsh_represent");
    group.sample_size(10);
    group.bench_function("represent/p10k", |b| {
        b.iter(|| std::hint::black_box(represent(&u, budget, &cfg).unwrap().stored_pairs()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pair_discovery,
    bench_signing,
    bench_representation_kernels,
    bench_represent
);
criterion_main!(benches);
