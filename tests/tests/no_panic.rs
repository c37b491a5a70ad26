//! The no-panic fuzz gate.
//!
//! Every external input path — text-format bytes, hand-built universes with
//! adversarial numerics, raw similarity pairs, and `phocus-pack` binary
//! images — must surface as a typed error or a valid result; a panic
//! anywhere in `from_text → represent → solve` or in `unpack_instance` is a
//! bug. The generators are seeded, so CI runs a fixed, reproducible corpus
//! (see `ci.sh`).

use par_algo::{main_algorithm, main_algorithm_packed, SolveScratch};
use par_core::fixtures::{random_instance, RandomInstanceConfig};
use par_core::pack::kind;
use par_core::{
    fnv1a64, pack_instance, shard_labels, unpack_instance, Instance, InstanceBuilder, ModelError,
    PackError, PhotoId, SparseSim, SubsetId, UnitSimilarity,
};
use par_datasets::{from_text, to_text, DatasetError, SubsetDef, Universe};
use par_embed::Embedding;
use phocus::{ActionLadder, CatalogBuilder, CompressionLevel, Phocus, PhocusError};
use proptest::prelude::*;

/// SplitMix64 — a local deterministic stream so each case can draw an
/// unbounded number of values from one generated seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fragments the text fuzzer splices together: valid records, truncated
/// records, hostile numerics, and separator soup.
const FRAGMENTS: &[&str] = &[
    "# phocus-universe v1\n",
    "name\tfuzz\n",
    "photo\t0\t100\ta\n",
    "photo\t1\t200\tb\n",
    "photo\t0\t18446744073709551615\tmax\n",
    "photo\t0\t0\tzero-cost\n",
    "photo\t99999999\t1\tsparse-id\n",
    "photo\t0\n",
    "photo\t-1\t5\tneg\n",
    "embedding\t0\t1.0\t0.0\n",
    "embedding\t1\t0.0\t1.0\n",
    "embedding\t0\tNaN\tinf\n",
    "embedding\t0\n",
    "embedding\tx\t1.0\n",
    "subset\tq\t1.5\t0:1\t1:2\n",
    "subset\tq\tNaN\t0:1\n",
    "subset\tq\t-inf\t0:1\n",
    "subset\tq\t1e308\t0:NaN\n",
    "subset\tq\t2.0\t5:1\n",
    "subset\tq\t2.0\t0:1\t0:1\n",
    "subset\tq\t2.0\n",
    "subset\tq\t1.0\t0:0\n",
    "required\t0\n",
    "required\t7\t-3\n",
    "exif\t0\t12345\t1.5\t2.5\tcam\n",
    "exif\t0\tbad\n",
    "frobnicate\t1\n",
    "\n",
    "\t",
    ":",
    "0",
    "NaN",
    "photo",
    "subset\t",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary splices of format fragments: `from_text` must return
    /// `Ok`/`Err`, never panic, and any `Ok` universe must re-validate.
    #[test]
    fn from_text_never_panics_on_fragment_soup(seed in any::<u64>(), len in 1usize..24) {
        let mut s = seed;
        let mut text = String::new();
        for _ in 0..len {
            text.push_str(FRAGMENTS[(splitmix(&mut s) % FRAGMENTS.len() as u64) as usize]);
        }
        if let Ok(u) = from_text(&text) {
            u.validate().expect("from_text output must be valid");
        }
    }

    /// Raw byte soup (lossily decoded): the parser sees genuinely arbitrary
    /// lines, not just recombined fragments.
    #[test]
    fn from_text_never_panics_on_byte_soup(seed in any::<u64>(), len in 0usize..200) {
        let mut s = seed;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            // Bias toward the format's structural bytes so parsing gets past
            // the first field often enough to exercise deep paths.
            let b = match splitmix(&mut s) % 8 {
                0 => b'\t',
                1 => b'\n',
                2..=4 => b"0123456789.:-+eE"[(splitmix(&mut s) % 16) as usize],
                _ => (splitmix(&mut s) % 256) as u8,
            };
            bytes.push(b);
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = from_text(&text);
    }
}

/// A small well-formed universe the adversarial cases corrupt.
fn base_universe(n: usize) -> Universe {
    let dim = 4;
    Universe {
        name: "adversarial".into(),
        names: (0..n).map(|i| format!("p{i}")).collect(),
        costs: (0..n).map(|i| 50 + 10 * i as u64).collect(),
        embeddings: (0..n)
            .map(|i| {
                let mut v = vec![0.25f32; dim];
                v[i % dim] = 1.0;
                Embedding::new(v)
            })
            .collect(),
        exif: None,
        subsets: vec![
            SubsetDef {
                label: "q0".into(),
                weight: 2.0,
                members: (0..n as u32 / 2).collect(),
                relevance: vec![1.0; n / 2],
            },
            SubsetDef {
                label: "q1".into(),
                weight: 1.0,
                members: (n as u32 / 2..n as u32).collect(),
                relevance: vec![1.0; n - n / 2],
            },
        ],
        required: vec![0],
    }
}

/// Every way this harness knows to corrupt a universe.
fn corrupt(u: &mut Universe, case: u64, raw: u64) {
    match case % 14 {
        0 => u.subsets[0].weight = f64::NAN,
        1 => u.subsets[0].weight = f64::INFINITY,
        2 => u.subsets[1].weight = f64::NEG_INFINITY,
        3 => u.subsets[0].weight = 0.0,
        4 => u.subsets[0].relevance[0] = f64::NAN,
        5 => {
            let i = raw as usize % u.costs.len();
            u.costs[i] = 0;
        }
        6 => {
            // The per-photo costs are fine; their sum overflows u64.
            for c in &mut u.costs {
                *c = u64::MAX / 2;
            }
        }
        7 => {
            u.subsets[0].members.clear();
            u.subsets[0].relevance.clear();
        }
        8 => u.subsets[1].members[0] = u.num_photos() as u32 + raw as u32 % 1000,
        9 => u.required = vec![u.num_photos() as u32],
        10 => u.subsets[0].relevance.pop().map_or((), drop),
        11 => u.subsets[1].members[0] = u.subsets[1].members[1 % u.subsets[1].members.len()],
        12 => u.subsets[0].relevance[0] = -1.0,
        13 => {
            // Ragged embeddings: one photo's vector has another dimension.
            let i = raw as usize % u.embeddings.len();
            let dim = u.embeddings[i].dim() + 1 + raw as usize % 3;
            u.embeddings[i] = Embedding::new(vec![0.5; dim]);
        }
        _ => unreachable!(),
    }
}

/// A universe whose embeddings disagree in dimension is rejected as invalid
/// data when parsed, not left to panic in a similarity kernel.
#[test]
fn ragged_embeddings_are_rejected_at_parse() {
    for raw in 0..12u64 {
        let mut u = base_universe(6);
        corrupt(&mut u, 13, raw);
        match from_text(&to_text(&u)) {
            Err(DatasetError::InvalidUniverse(msg)) => assert!(msg.contains("dimension"), "{msg}"),
            other => panic!("ragged embeddings must be InvalidUniverse, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Adversarial universes through the full pipeline: serialization must
    /// not panic, parsing must reject or the solver must succeed or return
    /// a typed error — no panic anywhere.
    #[test]
    fn corrupted_pipeline_is_typed_or_valid(case in any::<u64>(), raw in any::<u64>(), n in 4usize..12) {
        let mut u = base_universe(n);
        corrupt(&mut u, case, raw);
        // to_text must serialize even hostile numerics (NaN/inf render as
        // their Display forms and round-trip through f64::from_str).
        let text = to_text(&u);
        match from_text(&text) {
            Err(_) => {} // typed rejection: the desired outcome for most cases
            Ok(parsed) => {
                // Zero-cost photos survive universe validation by design; the
                // instance builder inside represent() must reject them (or
                // solve must succeed) — never panic.
                let total = parsed.total_cost();
                for budget in [1, total / 2 + 1, total, u64::MAX] {
                    match Phocus::default().solve(&parsed, budget) {
                        Ok(report) => {
                            assert!(report.cost <= budget);
                            assert!(report.score.is_finite());
                        }
                        Err(e) => {
                            // Typed, displayable, and source-chained.
                            assert!(!e.to_string().is_empty());
                        }
                    }
                }
            }
        }
    }

    /// The builder path with hostile parameters: typed error or valid
    /// instance, decided entirely by validation.
    #[test]
    fn builder_never_panics(seed in any::<u64>(), n in 1usize..8) {
        let mut s = seed;
        let mut b = InstanceBuilder::new(splitmix(&mut s) % 10_000);
        for i in 0..n {
            // Costs include 0 (invalid) and huge values (sum may overflow).
            let cost = match splitmix(&mut s) % 4 {
                0 => 0,
                1 => u64::MAX / 2,
                _ => 1 + splitmix(&mut s) % 500,
            };
            b.add_photo(format!("p{i}"), cost);
        }
        let weight = match splitmix(&mut s) % 5 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => -1.0,
            3 => 0.0,
            _ => 1.5,
        };
        // Member ids intentionally range past the photo count.
        let members: Vec<PhotoId> = (0..1 + splitmix(&mut s) % 6)
            .map(|_| PhotoId((splitmix(&mut s) % (n as u64 + 3)) as u32))
            .collect();
        let relevance: Vec<f64> = members
            .iter()
            .map(|_| match splitmix(&mut s) % 4 {
                0 => f64::NAN,
                1 => -2.0,
                _ => 1.0,
            })
            .collect();
        b.add_subset("q", weight, members, relevance);
        if splitmix(&mut s).is_multiple_of(2) {
            b.require(PhotoId((splitmix(&mut s) % (n as u64 + 2)) as u32));
        }
        let _ = b.build_with_provider(&UnitSimilarity);
    }

    /// Raw similarity pairs with out-of-range indices and non-[0,1] values:
    /// `SparseSim::from_pairs` must reject with the matching typed error.
    #[test]
    fn sparse_pairs_are_typed(seed in any::<u64>(), n in 1usize..10, m in 0usize..12) {
        let mut s = seed;
        let mut pairs = Vec::with_capacity(m);
        for _ in 0..m {
            let i = (splitmix(&mut s) % (n as u64 * 2)) as u32;
            let j = (splitmix(&mut s) % (n as u64 * 2)) as u32;
            let sim = match splitmix(&mut s) % 6 {
                0 => f64::NAN,
                1 => -0.5,
                2 => 1.5,
                3 => f64::INFINITY,
                _ => (splitmix(&mut s) % 1000) as f64 / 1000.0,
            };
            pairs.push((i, j, sim));
        }
        match SparseSim::from_pairs(SubsetId(0), n, pairs.clone()) {
            Ok(sim) => {
                assert_eq!(sim.len(), n);
                // Only in-range, in-[0,1] pairs can have survived.
                for (i, j, s) in pairs {
                    if i != j && (i as usize) < n && (j as usize) < n && (0.0..=1.0).contains(&s) {
                        assert!(sim.sim(i as usize, j as usize) >= 0.0);
                    }
                }
            }
            Err(ModelError::PairIndexOutOfRange { index, members, .. }) => {
                assert!(index as usize >= members);
            }
            Err(ModelError::InvalidSimilarity { value, .. }) => {
                assert!(!(0.0..=1.0).contains(&value) || value.is_nan());
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// The pack-reader fuzz gate: `unpack_instance` over corrupted binary images.
// ---------------------------------------------------------------------------

/// Pack layout constants mirrored from `par_core::pack` (the format spec in
/// DESIGN.md §15): 16-byte header, 32-byte table entries, 9 sections.
const PACK_HEADER: usize = 16;
const PACK_ENTRY: usize = 32;
const PACK_SECTIONS: usize = 9;

/// A small but structurally complete valid pack (sparse similarities, a
/// required photo, multiple components) the corruption cases start from.
fn base_pack() -> Vec<u8> {
    let inst = random_instance(
        7,
        &RandomInstanceConfig {
            photos: 30,
            subsets: 10,
            subset_size: (2, 5),
            cost_range: (100, 900),
            budget_fraction: 0.5,
            required_prob: 0.1,
        },
    );
    pack_instance(&inst).expect("fixture packs")
}

/// Byte range `[offset, offset + len)` of table entry `i`'s payload.
fn pack_section_bounds(bytes: &[u8], i: usize) -> (usize, usize) {
    let e = PACK_HEADER + i * PACK_ENTRY;
    let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
    (offset, len)
}

/// Recomputes table entry `i`'s checksum over its (possibly tampered)
/// payload, so corruption reaches the decode layer instead of dying at the
/// checksum comparison.
fn pack_fix_checksum(bytes: &mut [u8], i: usize) {
    let (offset, len) = pack_section_bounds(bytes, i);
    let sum = fnv1a64(&bytes[offset..offset + len]);
    let e = PACK_HEADER + i * PACK_ENTRY;
    bytes[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
}

/// Structured corruption that the reader is *guaranteed* to reject: every
/// mode breaks an invariant the format checks explicitly.
fn corrupt_pack_structurally(bytes: &mut Vec<u8>, mode: u64, raw: u64) {
    match mode % 8 {
        // Truncation strictly inside the image (a full-length "truncation"
        // would be a no-op).
        0 => {
            let cut = raw as usize % bytes.len();
            bytes.truncate(cut);
        }
        // Version skew.
        1 => bytes[8..12].copy_from_slice(&(2 + (raw as u32) % 1000).to_le_bytes()),
        // A section count far past MAX_SECTIONS: the reader must reject it
        // before sizing anything from it.
        2 => bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes()),
        // Magic corruption.
        3 => bytes[raw as usize % 8] ^= 0xFF,
        // Table offset pointing past EOF.
        4 => {
            let e = PACK_HEADER + (raw as usize % PACK_SECTIONS) * PACK_ENTRY;
            bytes[e + 8..e + 16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        }
        // Inflated section length (also exercises offset+len overflow).
        5 => {
            let e = PACK_HEADER + (raw as usize % PACK_SECTIONS) * PACK_ENTRY;
            bytes[e + 16..e + 24].copy_from_slice(&u64::MAX.to_le_bytes());
        }
        // Duplicate section kind: stamp entry 0's kind onto a later entry.
        6 => {
            let e = PACK_HEADER + (1 + raw as usize % (PACK_SECTIONS - 1)) * PACK_ENTRY;
            let kind0: [u8; 4] = bytes[PACK_HEADER..PACK_HEADER + 4].try_into().unwrap();
            bytes[e..e + 4].copy_from_slice(&kind0);
        }
        // Overlapping sections: pull a later entry's offset back onto its
        // predecessor's.
        7 => {
            let e = PACK_HEADER + (1 + raw as usize % (PACK_SECTIONS - 1)) * PACK_ENTRY;
            let prev: [u8; 8] = bytes[e - PACK_ENTRY + 8..e - PACK_ENTRY + 16]
                .try_into()
                .unwrap();
            bytes[e + 8..e + 16].copy_from_slice(&prev);
        }
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Every structural corruption mode yields a typed [`par_core::PackError`]
    /// — never a panic, never an `Ok`.
    #[test]
    fn pack_reader_rejects_structural_corruption(mode in any::<u64>(), raw in any::<u64>()) {
        let mut bytes = base_pack();
        corrupt_pack_structurally(&mut bytes, mode, raw);
        let err = unpack_instance(&bytes).expect_err("corrupted pack must not load");
        prop_assert!(!err.to_string().is_empty());
    }

    /// Arbitrary bit flips anywhere in the image: the reader either rejects
    /// with a typed error or (for bytes the format ignores, e.g. reserved
    /// table fields) loads a valid instance — it never panics.
    #[test]
    fn pack_reader_never_panics_on_bit_flips(seed in any::<u64>(), flips in 1usize..8) {
        let mut bytes = base_pack();
        let mut s = seed;
        for _ in 0..flips {
            let i = (splitmix(&mut s) % bytes.len() as u64) as usize;
            bytes[i] ^= 1 << (splitmix(&mut s) % 8);
        }
        if let Ok(loaded) = unpack_instance(&bytes) {
            // Whatever survived must still be internally consistent enough
            // to answer basic shape queries.
            let _ = loaded.instance.num_photos();
            let _ = loaded.labels.num_shards();
        }
    }

    /// Payload tampering with the checksum *fixed up afterwards*, so the
    /// corruption reaches the decode layer's bounds and cross-section
    /// validation rather than dying at the checksum comparison. Typed error
    /// or valid load; no panic, no unbounded allocation.
    #[test]
    fn pack_reader_survives_checksummed_payload_tampering(
        sec in 0usize..PACK_SECTIONS, seed in any::<u64>(), flips in 1usize..6,
    ) {
        let mut bytes = base_pack();
        let (offset, len) = pack_section_bounds(&bytes, sec);
        prop_assume!(len > 0);
        let mut s = seed;
        for _ in 0..flips {
            let i = offset + (splitmix(&mut s) % len as u64) as usize;
            bytes[i] ^= 1 << (splitmix(&mut s) % 8);
        }
        pack_fix_checksum(&mut bytes, sec);
        let loaded = unpack_instance(&bytes);
        // MEMBERSHIP and WR hold derived data the reader never decodes: a
        // load past their (repaired) checksums is the untampered load.
        if [kind::MEMBERSHIP, kind::WR].contains(&(sec as u32 + 1)) {
            assert_loads_as_original(loaded, &base_pack());
        }
    }

    /// Raw byte soup, optionally behind a valid header+table prefix so the
    /// decode layers are reached often, not just the header checks.
    #[test]
    fn pack_reader_never_panics_on_byte_soup(
        seed in any::<u64>(), len in 0usize..600, keep_prefix in any::<bool>(),
    ) {
        let mut s = seed;
        let mut bytes = if keep_prefix {
            let mut b = base_pack();
            b.truncate(PACK_HEADER + PACK_SECTIONS * PACK_ENTRY);
            b
        } else {
            Vec::new()
        };
        for _ in 0..len {
            bytes.push((splitmix(&mut s) % 256) as u8);
        }
        let _ = unpack_instance(&bytes);
    }
}

/// A hostile META section claiming ~4 billion photos must die at the
/// element-count-vs-remaining-bytes cap check — a typed error, not an OOM
/// attempt. (The checksum is fixed up so the claim reaches the decoder.)
#[test]
fn pack_reader_caps_allocations_before_trusting_counts() {
    let mut bytes = base_pack();
    // META is the first section; its second u64 is `num_photos`.
    let (offset, _) = pack_section_bounds(&bytes, 0);
    bytes[offset + 8..offset + 16].copy_from_slice(&(u32::MAX as u64).to_le_bytes());
    pack_fix_checksum(&mut bytes, 0);
    let err = unpack_instance(&bytes).expect_err("hostile count must not load");
    assert!(!err.to_string().is_empty());
}

/// Asserts that `loaded` is the load of `original`: the same instance (the
/// writer re-derives every section from it, so re-packing reproduces the
/// image) and the same persisted labels.
fn assert_loads_as_original(loaded: Result<par_core::PackedInstance, PackError>, original: &[u8]) {
    let loaded = loaded.expect("tampering with derived data must not fail the load");
    let reference = unpack_instance(original).expect("original pack loads");
    let repacked = pack_instance(&loaded.instance).expect("packable");
    assert!(repacked == original, "the loaded instance differs from the untampered one");
    assert_eq!(loaded.labels, reference.labels);
}

// ---------------------------------------------------------------------------
// Checksum-valid packs whose sections disagree with each other. Each case
// edits one section, repairs its checksum, and must load as a typed error
// or give the answer the untampered pack gives — never a wrong answer.
// ---------------------------------------------------------------------------

/// The probe: sparse stores, a required set, several multi-photo shards and
/// a singleton pool.
fn probe() -> (Instance, Vec<u8>) {
    let inst = random_instance(
        7,
        &RandomInstanceConfig {
            photos: 60,
            subsets: 15,
            required_prob: 0.15,
            ..Default::default()
        },
    )
    .sparsify(0.5);
    let bytes = pack_instance(&inst).expect("probe packs");
    (inst, bytes)
}

/// `bytes` with section `kind`'s payload rewritten by `edit` and its
/// checksum repaired. The writer emits kinds 1..=9 in table order.
fn tamper(bytes: &[u8], kind: u32, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let i = kind as usize - 1;
    let (offset, len) = pack_section_bounds(&out, i);
    edit(&mut out[offset..offset + len]);
    pack_fix_checksum(&mut out, i);
    out
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn put_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn put_u64(b: &mut [u8], at: usize, v: u64) {
    b[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Algorithm 1 on a loaded pack and its persisted labels, as catalog
/// serving runs it: the selection, score bits and cost.
fn serve(bytes: &[u8]) -> (Vec<PhotoId>, u64, u64) {
    let loaded = unpack_instance(bytes).expect("pack loads");
    let out = main_algorithm_packed(&loaded.instance, loaded.labels, &mut SolveScratch::default());
    (out.best.selected, out.best.score.to_bits(), out.best.cost)
}

fn assert_malformed(bytes: &[u8], section: u32) {
    match unpack_instance(bytes) {
        Err(PackError::Malformed { kind, .. }) if kind == section => {}
        other => panic!("expected section {section} to be malformed, got {:?}", other.map(|_| ())),
    }
}

/// A budget below `C(S₀)` would serve a set over budget.
#[test]
fn pack_budget_below_required_cost_is_refused() {
    let (inst, bytes) = probe();
    assert!(inst.required_cost() > 1);
    let tampered = tamper(&bytes, kind::META, |b| put_u64(b, 0, inst.required_cost() / 2));
    assert_malformed(&tampered, kind::META);
}

/// The reverse index is derived from MEMBERS on load, so entries pointing
/// at the wrong member change nothing.
#[test]
fn pack_membership_entries_are_derived_not_trusted() {
    let (inst, bytes) = probe();
    let mut retargeted = 0;
    let tampered = tamper(&bytes, kind::MEMBERSHIP, |b| {
        // n + 1 offsets, then one (subset, local) pair per entry.
        let mut at = (inst.num_photos() + 1) * 4;
        while retargeted < 5 && at + 8 <= b.len() {
            let size = inst.subset(SubsetId(get_u32(b, at))).members.len() as u32;
            if size >= 2 {
                put_u32(b, at + 4, (get_u32(b, at + 4) + 1) % size);
                retargeted += 1;
            }
            at += 8;
        }
    });
    assert_eq!(retargeted, 5);
    assert_loads_as_original(unpack_instance(&tampered), &bytes);
    assert_eq!(serve(&tampered), serve(&bytes));
}

/// Labels that split interacting photos would run them as independent
/// streams and serve a worse, wrong set.
#[test]
fn pack_labels_splitting_an_interaction_are_refused() {
    let (inst, bytes) = probe();
    let shards = shard_labels(&inst).num_shards();
    assert!(shards >= 3);
    let tampered = tamper(&bytes, kind::LABELS, |b| {
        for p in 0..inst.num_photos() {
            put_u32(b, 4 * p, (p % shards) as u32);
        }
    });
    assert_malformed(&tampered, kind::LABELS);
}

/// Labels that merge components still keep every interaction in one
/// shard, so they stay accepted and serve the same answer: the untampered
/// pack's, and the global `main_algorithm`'s. Inputs: several seeds, sparse,
/// dense and unit stores, and a tight budget over many required photos.
/// Merges: every non-pool shard onto one, and neighbouring non-pool shards
/// in pairs.
#[test]
fn pack_labels_merging_components_serve_the_same_answer() {
    let roomy = RandomInstanceConfig {
        photos: 80,
        subsets: 15,
        subset_size: (2, 4),
        required_prob: 0.15,
        ..Default::default()
    };
    let tight = RandomInstanceConfig {
        required_prob: 0.35,
        budget_fraction: 0.4,
        ..roomy.clone()
    };
    let mut cases = 0;
    for seed in [7u64, 8, 10, 11] {
        for cfg in [&roomy, &tight] {
            let dense = random_instance(seed, cfg);
            for inst in [dense.sparsify(0.5), dense.with_unit_sims(), dense] {
                let bytes = pack_instance(&inst).expect("probe packs");
                let labels = shard_labels(&inst);
                let pool = labels.singleton_pool().map(|p| p as u32);
                let shards = labels.photo_shards();
                let mut non_pool: Vec<u32> =
                    shards.iter().copied().filter(|&s| Some(s) != pool).collect();
                non_pool.sort_unstable();
                non_pool.dedup();
                assert!(non_pool.len() >= 3, "seed {seed}: too few shards to merge");
                let onto_first = |_: u32| non_pool[0];
                let in_pairs = |s: u32| {
                    let k = non_pool.binary_search(&s).expect("a non-pool shard");
                    non_pool[k - k % 2]
                };
                let reference = main_algorithm(&inst);
                let expected =
                    (reference.best.selected, reference.best.score.to_bits(), reference.best.cost);
                assert_eq!(serve(&bytes), expected, "seed {seed}: untampered pack");
                for merge in [&onto_first as &dyn Fn(u32) -> u32, &in_pairs] {
                    let tampered = tamper(&bytes, kind::LABELS, |b| {
                        for (p, &s) in shards.iter().enumerate() {
                            if Some(s) != pool {
                                put_u32(b, 4 * p, merge(s));
                            }
                        }
                    });
                    assert_ne!(tampered, bytes);
                    assert_eq!(serve(&tampered), expected, "seed {seed}: merged labels");
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 48);
}

/// `S₀` is stored sorted and deduplicated; the instance relies on it.
#[test]
fn pack_required_ids_out_of_order_are_refused() {
    let (inst, bytes) = probe();
    assert!(inst.required().len() >= 2);
    let tampered = tamper(&bytes, kind::REQUIRED, |b| {
        let (first, second) = (get_u32(b, 0), get_u32(b, 4));
        put_u32(b, 0, second);
        put_u32(b, 4, first);
    });
    assert_malformed(&tampered, kind::REQUIRED);
}

/// A zero cost, or costs whose sum overflows u64, would let budget tests
/// wrap. The zero case keeps META's totals consistent, so only the cost
/// check can refuse it.
#[test]
fn pack_photo_costs_zero_or_overflowing_are_refused() {
    let (inst, bytes) = probe();
    let victim = (0..inst.num_photos())
        .find(|&p| !inst.is_required(PhotoId(p as u32)))
        .expect("probe has an optional photo");
    let old = inst.photos()[victim].cost;
    let zero = tamper(&bytes, kind::PHOTOS, |b| put_u64(b, 8 * victim, 0));
    let zero = tamper(&zero, kind::META, |b| put_u64(b, 48, get_u64(b, 48) - old));
    assert_malformed(&zero, kind::PHOTOS);
    let huge = tamper(&bytes, kind::PHOTOS, |b| put_u64(b, 8 * (victim + 1), u64::MAX));
    assert_malformed(&huge, kind::PHOTOS);
}

/// A catalog pack cut at every offset: `Catalog::load` must return a typed
/// error for each prefix, and since no prefix is the indexed file, that
/// error is the whole-file mismatch, whatever the cut broke in the pack.
#[test]
fn catalog_load_rejects_every_truncation_of_a_pack() {
    let dir = std::env::temp_dir().join(format!("phocus-no-panic-truncate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bytes = base_pack();
    let mut builder = CatalogBuilder::create(&dir).expect("catalog dir");
    builder.add_pack("t", &bytes, 30, 1).expect("pack written");
    let catalog = builder.finish().expect("index written");
    let entry = &catalog.entries()[0];
    let path = dir.join(&entry.pack);
    assert!(catalog.load(entry).is_ok());
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).expect("rewrite pack");
        match catalog.load(entry) {
            Err(PhocusError::Catalog { .. }) => {}
            other => panic!("cut at {cut}: expected a catalog checksum error, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The empty image and the bare header are the smallest corrupt packs.
#[test]
fn pack_reader_rejects_trivial_images() {
    assert!(unpack_instance(&[]).is_err());
    let valid = base_pack();
    assert!(unpack_instance(&valid[..PACK_HEADER]).is_err());
    assert!(unpack_instance(&valid).is_ok());
}

/// Regression: a required set `S₀` costing more than the budget is a typed
/// `RequiredSetOverBudget`, not a panic (the seed repo asserted).
#[test]
fn required_set_over_budget_is_a_typed_error() {
    let u = base_universe(8);
    let floor: u64 = u.required.iter().map(|&r| u.costs[r as usize]).sum();
    let result = Phocus::default().solve(&u, floor - 1);
    match result {
        Err(PhocusError::Model(ModelError::RequiredSetOverBudget {
            required_cost,
            budget,
        })) => {
            assert_eq!(required_cost, floor);
            assert_eq!(budget, floor - 1);
        }
        other => panic!("expected RequiredSetOverBudget, got {other:?}"),
    }
}

/// Regression: `expand_with_variants` used to `assert!` on user-supplied
/// ladder values mid-expansion. Validation now lives in the
/// [`ActionLadder`] constructor as a typed error, so hostile ladders cannot
/// reach library code at all.
#[test]
fn hostile_ladder_values_are_typed_errors() {
    for (size_fraction, quality) in [
        (0.0, 0.5),
        (1.0, 0.5),
        (-1.0, 0.5),
        (f64::NAN, 0.5),
        (f64::INFINITY, 0.5),
        (f64::NEG_INFINITY, 0.5),
        (f64::MIN_POSITIVE, 1.0),
        (0.5, 0.0),
        (0.5, f64::NAN),
        (0.5, 1.0 + f64::EPSILON),
    ] {
        let err = ActionLadder::new(vec![CompressionLevel {
            size_fraction,
            quality,
        }])
        .expect_err("hostile level must not validate");
        let msg = err.to_string();
        assert!(
            matches!(err, PhocusError::InvalidLadder { level: 0, .. }),
            "({size_fraction}, {quality}) → {msg}"
        );
        assert!(msg.contains("ladder level"), "opaque diagnostic: {msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary f64 bit patterns never panic the ladder constructor: every
    /// input either validates (both values finite and strictly inside
    /// (0,1)) or yields a typed [`PhocusError::InvalidLadder`].
    #[test]
    fn ladder_constructor_never_panics(seed in any::<u64>(), n in 0usize..6) {
        let mut s = seed;
        let levels: Vec<CompressionLevel> = (0..n)
            .map(|_| {
                // Half raw bit soup (NaNs, infinities, denormals), half
                // small finite values straddling the (0,1) boundaries.
                let draw = |s: &mut u64| {
                    let bits = splitmix(s);
                    if bits & 1 == 0 {
                        f64::from_bits(bits)
                    } else {
                        (bits >> 32) as f64 / (u32::MAX as f64 / 2.0) - 0.5
                    }
                };
                CompressionLevel {
                    size_fraction: draw(&mut s),
                    quality: draw(&mut s),
                }
            })
            .collect();
        let in_range = |v: f64| v > 0.0 && v < 1.0;
        let all_valid = levels.iter().all(|l| in_range(l.size_fraction) && in_range(l.quality));
        match ActionLadder::new(levels) {
            Ok(ladder) => prop_assert!(all_valid || ladder.is_empty()),
            Err(e) => {
                prop_assert!(!all_valid);
                prop_assert!(matches!(e, PhocusError::InvalidLadder { .. }));
            }
        }
    }

    /// Byte-soup `--ladder` specs never panic the parser.
    #[test]
    fn ladder_spec_parsing_never_panics(seed in any::<u64>(), len in 0usize..40) {
        const CHARSET: &[u8] = b"0123456789aeEnN:.,+-_ paper";
        let mut s = seed;
        let spec: String = (0..len)
            .map(|_| CHARSET[(splitmix(&mut s) as usize) % CHARSET.len()] as char)
            .collect();
        match ActionLadder::parse(&spec) {
            Ok(_) => {}
            Err(e) => prop_assert!(matches!(e, PhocusError::InvalidLadder { .. })),
        }
    }
}

/// The typed error chain renders a readable diagnostic end to end.
#[test]
fn pipeline_errors_are_displayable_and_chained() {
    let err = from_text("subset\tq\tNaN\t0:1").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("weight") || msg.contains("NaN"), "opaque: {msg}");

    let phocus_err = PhocusError::from(err);
    assert!(std::error::Error::source(&phocus_err).is_some());
}
