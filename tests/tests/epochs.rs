//! Cross-crate guarantees of the incremental archiver (`par-core` deltas,
//! `par-algo` archive sessions, `par-datasets` churn traces).
//!
//! Three layers of proof:
//!
//! 1. **Partition property**: for any instance and any churn-generated
//!    epoch delta, the incrementally maintained [`ShardLabels`] equal a
//!    from-scratch [`shard_labels`] of the post-delta instance — same
//!    partition, same shard numbering, same singleton pool.
//! 2. **Replay property**: a warm [`ArchiveSession`] carried through a
//!    churn trace produces, at every epoch, the *bit-identical* outcome of
//!    [`main_algorithm_sharded`] on the post-delta instance — selections,
//!    score bits, and winner rule — under serial, 2- and 8-thread pools.
//! 3. **Pinned goldens**: full epoch-chain transcripts are hashed and
//!    pinned as constants, so serial and parallel builds (and every thread
//!    count) are checked against the same bytes across compilations.
//! 4. **Counters**: every [`EpochReport`] and both rules' work counters are
//!    the same at every pool size, with the two rules running at once.

use par_algo::{main_algorithm_sharded, ArchiveSession, EpochReport, GreedyRule, MainOutcome};
use par_core::fixtures::{random_instance, RandomInstanceConfig};
use par_core::{shard_labels, Instance, PhotoId};
use par_datasets::{generate_churn, resolve_epoch, ChurnConfig};
use par_exec::Parallelism;
use proptest::prelude::*;

/// FNV-1a, 64-bit: tiny, stable, dependency-free transcript hashing
/// (same scheme as the determinism suite).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// A base instance with several components: sparsified similarities keep
/// the coupling graph fragmented so clean-shard replay actually triggers.
fn base_instance(seed: u64, photos: usize, subsets: usize, budget_pct: u64) -> Instance {
    random_instance(
        seed,
        &RandomInstanceConfig {
            photos,
            subsets,
            subset_size: (2, 8),
            budget_fraction: budget_pct as f64 / 100.0,
            required_prob: 0.04,
            ..Default::default()
        },
    )
    .sparsify(0.6)
}

fn churn_config(epochs: usize, seed: u64) -> ChurnConfig {
    ChurnConfig {
        epochs,
        removal_fraction: 0.05,
        arrivals_mean: 2.0,
        drift_mean: 1.0,
        budget_wobble: 0.1,
        seed,
        ..ChurnConfig::default()
    }
}

fn instance_strategy() -> impl Strategy<Value = (Instance, u64)> {
    (any::<u64>(), 30usize..110, 6usize..22, 20u64..80).prop_map(
        |(seed, photos, subsets, budget_pct)| {
            (
                base_instance(seed, photos, subsets, budget_pct),
                seed ^ 0xC4A2_11ED,
            )
        },
    )
}

/// Asserts two labelings are the same partition with the same numbering.
fn assert_labels_equal(
    incremental: &par_core::ShardLabels,
    scratch: &par_core::ShardLabels,
    n: usize,
    context: &str,
) {
    assert_eq!(
        incremental.num_shards(),
        scratch.num_shards(),
        "{context}: shard count diverged"
    );
    assert_eq!(
        incremental.singleton_pool(),
        scratch.singleton_pool(),
        "{context}: singleton pool diverged"
    );
    for p in 0..n as u32 {
        assert_eq!(
            incremental.shard_of(PhotoId(p)),
            scratch.shard_of(PhotoId(p)),
            "{context}: photo {p} labeled differently"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental label maintenance is indistinguishable from re-running
    /// the from-scratch decomposition on the post-delta instance — for
    /// every epoch of a generated churn trace, chained.
    #[test]
    fn incremental_labels_equal_from_scratch_labels((base, seed) in instance_strategy()) {
        let trace = generate_churn(&base, &churn_config(3, seed)).unwrap();
        let mut inst = base;
        let mut labels = shard_labels(&inst);
        for (e, ops) in trace.epochs.iter().enumerate() {
            let delta = resolve_epoch(ops, &inst).unwrap();
            let applied = delta.apply(&inst, &labels).unwrap();
            let scratch = shard_labels(&applied.instance);
            assert_labels_equal(
                &applied.labels,
                &scratch,
                applied.instance.num_photos(),
                &format!("epoch {e}"),
            );
            inst = applied.instance;
            labels = applied.labels;
        }
    }

    /// The warm session's replayed epoch solves are byte-equal to fresh
    /// sharded solves of every post-delta instance, and stay byte-equal
    /// under worker pools of 2 and 8 threads (the pool must be invisible
    /// in results, clean-shard replay included).
    #[test]
    fn replayed_streams_match_fresh_solves_at_all_thread_counts(
        (base, seed) in instance_strategy()
    ) {
        let trace = generate_churn(&base, &churn_config(2, seed)).unwrap();
        let mut transcripts: Vec<Vec<(Vec<PhotoId>, u64, bool)>> = Vec::new();
        for threads in [0usize, 2, 8] {
            let prev = match threads {
                0 => Parallelism::serial().install_global(),
                t => Parallelism::with_threads(t).install_global(),
            };
            let mut session = ArchiveSession::new(base.clone());
            session.resolve();
            let mut transcript = Vec::new();
            for ops in &trace.epochs {
                let delta = resolve_epoch(ops, session.instance()).unwrap();
                let inc = session.apply_delta(&delta).unwrap().resolve().outcome;
                let fresh = main_algorithm_sharded(session.instance());
                prop_assert_eq!(&inc.best.selected, &fresh.best.selected);
                prop_assert_eq!(inc.best.score.to_bits(), fresh.best.score.to_bits());
                prop_assert_eq!(inc.winner, fresh.winner);
                transcript.push((
                    inc.best.selected.clone(),
                    inc.best.score.to_bits(),
                    inc.winner == GreedyRule::UnitCost,
                ));
            }
            transcripts.push(transcript);
            prev.install_global();
        }
        prop_assert_eq!(&transcripts[0], &transcripts[1], "2-thread pool changed epoch bytes");
        prop_assert_eq!(&transcripts[0], &transcripts[2], "8-thread pool changed epoch bytes");
    }
}

/// Fixed fixtures for the pinned epoch goldens: shapes chosen so the chains
/// exercise replay-heavy epochs (few dirty shards), go-live rebuilds, and
/// budget wobble.
fn golden_fixtures() -> [(u64, usize, usize, u64); 3] {
    // (seed, photos, subsets, budget_pct)
    [
        (0xE90C_0001, 60, 18, 50),
        (0xE90C_0002, 110, 30, 25),
        (0xE90C_0003, 80, 14, 65),
    ]
}

/// Carries a warm session through a 5-epoch churn trace, folding every
/// epoch's outcome — selections, score/cost bits, winner, replay/live
/// stream split — into one hash. The replay instrumentation is part of the
/// transcript on purpose: a regression that silently demotes replayed
/// shards to live solves changes the hash even though outcomes agree.
fn epoch_transcript_hash(seed: u64, photos: usize, subsets: usize, budget_pct: u64) -> u64 {
    let mut h = Fnv::new();
    let base = base_instance(seed, photos, subsets, budget_pct);
    let trace = generate_churn(&base, &churn_config(5, seed ^ 0x00D5)).unwrap();
    let mut session = ArchiveSession::new(base);
    let first = session.resolve().outcome;
    for &p in &first.best.selected {
        h.u32(p.0);
    }
    h.f64(first.best.score);
    for ops in &trace.epochs {
        let delta = resolve_epoch(ops, session.instance()).unwrap();
        let epoch = session.apply_delta(&delta).unwrap().resolve();
        let (outcome, report) = (epoch.outcome, epoch.report);
        for &p in &outcome.best.selected {
            h.u32(p.0);
        }
        h.f64(outcome.best.score);
        h.u64(outcome.best.cost);
        h.u32(matches!(outcome.winner, GreedyRule::UnitCost) as u32);
        h.u64(report.replayed_streams as u64);
        h.u64(report.live_streams as u64);
    }
    h.0
}

/// The pinned epoch-chain transcript hashes. Regenerate by running this
/// test with `PRINT_TRANSCRIPTS=1 cargo test -p integration-tests epochs
/// -- --nocapture`.
const EPOCH_GOLDEN: [u64; 3] = [
    0x545e2ba7fb12892e,
    0xc45f23600663a21b,
    0x9a72a763907e9e0f,
];

/// The epoch chains must produce the same bytes at every pool size, and
/// those bytes are pinned: running the suite with `--features parallel`
/// and with `--no-default-features` checks both builds against the same
/// constants.
#[test]
fn epoch_chains_share_pinned_goldens_at_all_thread_counts() {
    for threads in [1usize, 2, 8] {
        let prev = Parallelism::with_threads(threads).install_global();
        for (k, (seed, photos, subsets, budget_pct)) in golden_fixtures().iter().enumerate() {
            let hash = epoch_transcript_hash(*seed, *photos, *subsets, *budget_pct);
            if std::env::var("PRINT_TRANSCRIPTS").is_ok() {
                if threads == 1 {
                    println!("epoch fixture {k}: 0x{hash:016x}");
                }
                continue;
            }
            assert_eq!(
                hash, EPOCH_GOLDEN[k],
                "fixture {k}: epoch transcript drifted under pool threads={threads} \
                 (build features: parallel={})",
                par_exec::parallel_enabled()
            );
        }
        prev.install_global();
    }
}

/// Both rules' work counters — everything in `RunStats` but the wall clock.
fn work(out: &MainOutcome) -> [[u64; 4]; 2] {
    [&out.uc.stats, &out.cb.stats]
        .map(|st| [st.gain_evals, st.sim_ops, st.pq_pops, st.lazy_accepts])
}

/// Counters are part of the determinism contract: with the two rules of
/// Algorithm 1 running at once, an epoch chain's `EpochReport`s and both
/// rules' work counters — of every warm epoch and of a from-scratch
/// `main_algorithm_sharded` solve of every epoch's instance — are the same
/// at pool sizes 1, 2 and 8.
#[test]
fn counters_are_identical_across_thread_counts() {
    type EpochCounters = (EpochReport, [[u64; 4]; 2], [[u64; 4]; 2]);
    let mut runs: Vec<Vec<EpochCounters>> = Vec::new();
    for threads in [1usize, 2, 8] {
        let prev = Parallelism::with_threads(threads).install_global();
        let mut counters = Vec::new();
        for (seed, photos, subsets, budget_pct) in golden_fixtures() {
            let base = base_instance(seed, photos, subsets, budget_pct);
            let trace = generate_churn(&base, &churn_config(5, seed ^ 0x00D5)).unwrap();
            let mut session = ArchiveSession::new(base);
            let first = session.resolve();
            let scratch = main_algorithm_sharded(session.instance());
            // Epoch 0 has nothing to replay: every stream runs live, doing
            // exactly the one-shot sharded solve's work.
            assert_eq!(
                work(&first.outcome),
                work(&scratch),
                "epoch 0 work (threads={threads})"
            );
            counters.push((first.report, work(&first.outcome), work(&scratch)));
            for ops in &trace.epochs {
                let delta = resolve_epoch(ops, session.instance()).unwrap();
                let warm = session.apply_delta(&delta).unwrap().resolve();
                let scratch = main_algorithm_sharded(session.instance());
                counters.push((warm.report, work(&warm.outcome), work(&scratch)));
            }
        }
        runs.push(counters);
        prev.install_global();
    }
    assert!(runs[0].iter().any(|c| c.0.replayed_streams > 0), "the chains replay");
    assert!(
        runs[0].iter().any(|c| c.0.went_live > 0),
        "some replayed stream diverges and goes live"
    );
    assert_eq!(runs[0], runs[1], "2-thread pool changed the counters");
    assert_eq!(runs[0], runs[2], "8-thread pool changed the counters");
}
