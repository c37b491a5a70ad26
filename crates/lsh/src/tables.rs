//! Banded LSH tables: group signatures band by band and emit candidate
//! pairs that collide in at least one band.

use crate::simhash::Signature;

/// A banded index over a set of signatures.
///
/// Band `k` uses signature bits `[k·rows, (k+1)·rows)`. Two items are
/// *candidates* if they share a bucket in any band. Each band keeps its item
/// indices stably sorted by band key, so a bucket is one contiguous *run* of
/// that order with its members in ascending index order.
/// `for_candidate_pairs` deduplicates pairs across bands.
#[derive(Debug)]
pub struct LshIndex {
    bands: Vec<Band>,
    num_items: usize,
    max_bucket: usize,
}

/// One band of the index: the items sorted into runs of equal band key.
#[derive(Debug)]
struct Band {
    /// Item indices sorted by `(band key, index)`.
    order: Vec<u32>,
    /// For each item, the positions of `order` holding the rest of its run:
    /// its bucket-mates with larger indices.
    later: Vec<(u32, u32)>,
}

impl Band {
    fn build(signatures: &[Signature], start: usize, rows: usize) -> Band {
        // Sorting `(key, index)` orders by key with index breaking every tie,
        // which is the stable sort by key. Keys of up to 32 bits pack with
        // the index into one u64, which sorts faster than the pair.
        let (keys, order): (Vec<u64>, Vec<u32>) = if rows <= 32 {
            let mut packed: Vec<u64> = (0u32..)
                .zip(signatures)
                .map(|(i, sig)| sig.band_key(start, rows) << 32 | u64::from(i))
                .collect();
            packed.sort_unstable();
            // phocus-lint: allow(cast-bounds) — the low 32 bits hold the u32 index packed above
            packed.into_iter().map(|k| (k >> 32, k as u32)).unzip()
        } else {
            let mut keyed: Vec<(u64, u32)> = (0u32..)
                .zip(signatures)
                .map(|(i, sig)| (sig.band_key(start, rows), i))
                .collect();
            keyed.sort_unstable();
            keyed.into_iter().unzip()
        };
        // Walking backwards, a position closes its run when the next key
        // differs (or the order ends there).
        let n = order.len();
        let mut later = vec![(0u32, 0u32); n];
        let mut end = n;
        for p in (0..n).rev() {
            if p + 1 < n && keys[p] != keys[p + 1] {
                end = p + 1;
            }
            // phocus-lint: allow(cast-bounds) — p < end ≤ n ≤ u32::MAX, asserted in LshIndex::build
            later[order[p] as usize] = (p as u32 + 1, end as u32);
        }
        Band { order, later }
    }

    /// The largest run (bucket) of this band: the run an item opens spans
    /// the item itself plus its later mates.
    fn max_run(&self) -> usize {
        self.later
            .iter()
            .map(|&(from, end)| (end - from) as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

impl LshIndex {
    /// Builds the index. Signatures must have at least `rows · bands` bits.
    pub fn build(signatures: &[Signature], rows: usize, bands: usize) -> Self {
        assert!((1..=64).contains(&rows), "rows must fit a u64 band key");
        assert!(
            signatures.len() <= u32::MAX as usize,
            "item indices must fit in u32"
        );
        if let Some(s) = signatures.first() {
            assert!(
                s.len() >= rows * bands,
                "signatures too short: {} < {}",
                s.len(),
                rows * bands
            );
        }
        // Bands are independent: sort each band on its own worker. The order
        // within a band depends only on keys and indices, so the index is
        // identical to a serial build.
        let bands: Vec<Band> =
            par_exec::par_map_indexed(bands, |k| Band::build(signatures, k * rows, rows));
        let max_bucket = bands.iter().map(Band::max_run).max().unwrap_or(0);
        LshIndex {
            bands,
            num_items: signatures.len(),
            max_bucket,
        }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.num_items
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.num_items == 0
    }

    /// Calls `f(i, j)` (with `i < j`) once for every candidate pair, in
    /// ascending `(i, j)` order.
    ///
    /// For each item `a`, every band contributes the members of `a`'s run
    /// that come after `a` — exactly its bucket-mates with larger indices. A
    /// per-item stamp drops the partners several bands share, and sorting the
    /// few survivors gives `a`'s row in ascending order. No pair list over
    /// all bands is ever materialized.
    // phocus-lint: hot-kernel — enumerates every colliding pair of every LSH context
    pub fn for_candidate_pairs(&self, mut f: impl FnMut(u32, u32)) {
        let n = self.num_items;
        // phocus-lint: allow(alloc-hot) — the one scratch buffer: per-item stamps, then the row being collected
        let mut scratch = vec![0u32; 2 * n];
        let (stamp, row) = scratch.split_at_mut(n);
        for (a, item) in (0u32..).zip(0..n) {
            // Stamps hold `a + 1` (≤ n ≤ u32::MAX), so zero marks no item.
            let mut len = 0;
            for band in &self.bands {
                let (from, end) = band.later[item];
                for &b in &band.order[from as usize..end as usize] {
                    if stamp[b as usize] != a + 1 {
                        stamp[b as usize] = a + 1;
                        row[len] = b;
                        len += 1;
                    }
                }
            }
            let partners = &mut row[..len];
            partners.sort_unstable();
            for &b in partners.iter() {
                f(a, b);
            }
        }
    }

    /// The largest bucket size across all bands — a skew diagnostic: huge
    /// buckets degrade LSH toward quadratic behavior.
    pub fn max_bucket(&self) -> usize {
        self.max_bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simhash::SimHasher;

    /// Candidate pairs after deduplication, counted through the enumerator.
    fn count_pairs(idx: &LshIndex) -> usize {
        let mut n = 0;
        idx.for_candidate_pairs(|_, _| n += 1);
        n
    }

    fn cluster_vectors() -> Vec<Vec<f32>> {
        // Two well-separated clusters of 4.
        let mut v = Vec::new();
        for k in 0..4 {
            v.push(vec![1.0, 0.01 * k as f32, 0.0]);
        }
        for k in 0..4 {
            v.push(vec![-0.01 * k as f32, 0.0, 1.0]);
        }
        v
    }

    #[test]
    fn within_cluster_pairs_are_candidates() {
        let vecs = cluster_vectors();
        let h = SimHasher::new(3, 64, 5);
        let sigs: Vec<_> = vecs.iter().map(|v| h.sign(v)).collect();
        let idx = LshIndex::build(&sigs, 4, 16);
        let mut candidates = std::collections::HashSet::new();
        idx.for_candidate_pairs(|i, j| {
            candidates.insert((i, j));
        });
        // Each cluster has 6 internal pairs; nearly-identical vectors share
        // nearly-identical signatures, so all must be candidates.
        for c in 0..2u32 {
            for a in 0..4u32 {
                for b in (a + 1)..4 {
                    let pair = (c * 4 + a, c * 4 + b);
                    assert!(candidates.contains(&pair), "missing pair {pair:?}");
                }
            }
        }
    }

    #[test]
    fn pairs_are_deduplicated() {
        let vecs = [vec![1.0f32, 0.0], vec![1.0, 0.0]];
        let h = SimHasher::new(2, 64, 6);
        let sigs: Vec<_> = vecs.iter().map(|v| h.sign(v)).collect();
        // Identical vectors collide in every band; pair must appear once.
        let idx = LshIndex::build(&sigs, 4, 16);
        assert_eq!(count_pairs(&idx), 1);
    }

    #[test]
    fn empty_index() {
        let sigs: Vec<Signature> = Vec::new();
        let idx = LshIndex::build(&sigs, 4, 8);
        assert!(idx.is_empty());
        assert_eq!(count_pairs(&idx), 0);
        assert_eq!(idx.max_bucket(), 0);
    }

    #[test]
    fn max_bucket_reports_skew() {
        let vecs: Vec<Vec<f32>> = std::iter::repeat_with(|| vec![1.0f32, 0.0])
            .take(10)
            .collect();
        let h = SimHasher::new(2, 64, 8);
        let sigs: Vec<_> = vecs.iter().map(|v| h.sign(v)).collect();
        let idx = LshIndex::build(&sigs, 4, 16);
        assert_eq!(idx.max_bucket(), 10);
    }
}

/// The hash-table index the sorted-run index replaced, kept as the oracle
/// its candidate sequence and `max_bucket` are checked against.
#[cfg(test)]
mod reference {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// Per band: bucket key → item indices, inserted in index order.
    struct HashIndex {
        tables: Vec<HashMap<u64, Vec<u32>>>,
    }

    impl HashIndex {
        fn build(signatures: &[Signature], rows: usize, bands: usize) -> Self {
            let tables = (0..bands)
                .map(|k| {
                    let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
                    for (i, sig) in signatures.iter().enumerate() {
                        let key = sig.band_key(k * rows, rows);
                        table.entry(key).or_default().push(i as u32);
                    }
                    table
                })
                .collect();
            HashIndex { tables }
        }

        /// Every colliding pair of every bucket, packed, sort-deduped.
        fn candidate_pairs(&self) -> Vec<(u32, u32)> {
            let mut keys: Vec<u64> = Vec::new();
            for table in &self.tables {
                for bucket in table.values() {
                    for (a_pos, &a) in bucket.iter().enumerate() {
                        for &b in &bucket[a_pos + 1..] {
                            let (i, j) = if a < b { (a, b) } else { (b, a) };
                            keys.push(((i as u64) << 32) | j as u64);
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

        fn max_bucket(&self) -> usize {
            self.tables
                .iter()
                .flat_map(|t| t.values())
                .map(|b| b.len())
                .max()
                .unwrap_or(0)
        }
    }

    /// Signatures drawn from a few prototypes with sparse bit flips: heavy
    /// collisions in every band, plus some unrelated items.
    fn colliding_signatures(rng: &mut StdRng, n: usize, len: usize) -> Vec<Signature> {
        let words = len.div_ceil(64);
        let protos: Vec<Vec<u64>> = (0..rng.gen_range(1..5usize))
            .map(|_| (0..words).map(|_| rng.gen::<u64>()).collect())
            .collect();
        (0..n)
            .map(|_| {
                let mut bits = if rng.gen_range(0..8u32) == 0 {
                    (0..words).map(|_| rng.gen::<u64>()).collect()
                } else {
                    protos[rng.gen_range(0..protos.len())].clone()
                };
                for _ in 0..rng.gen_range(0..4usize) {
                    let b = rng.gen_range(0..len);
                    bits[b / 64] ^= 1 << (b % 64);
                }
                if !len.is_multiple_of(64) {
                    bits[words - 1] &= (1u64 << (len % 64)) - 1;
                }
                Signature { bits, len }
            })
            .collect()
    }

    fn candidates(index: &LshIndex) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        index.for_candidate_pairs(|i, j| out.push((i, j)));
        out
    }

    #[test]
    fn sorted_runs_match_hash_index_sequence_and_skew() {
        let mut rng = StdRng::seed_from_u64(0x7AB1E5);
        for case in 0..300 {
            // Every band width in 1..=64 recurs; widths that do not divide
            // 64 make bands straddle u64 words.
            let rows = 1 + case % 64;
            let bands = rng.gen_range(1..6usize);
            let len = rows * bands + rng.gen_range(0..70usize);
            let n = rng.gen_range(0..60usize);
            let sigs = colliding_signatures(&mut rng, n, len);
            let fast = LshIndex::build(&sigs, rows, bands);
            let slow = HashIndex::build(&sigs, rows, bands);
            assert_eq!(
                candidates(&fast),
                slow.candidate_pairs(),
                "rows {rows} bands {bands} n {n}"
            );
            assert_eq!(
                fast.max_bucket(),
                slow.max_bucket(),
                "rows {rows} bands {bands}"
            );
            assert_eq!(fast.len(), n);
        }
    }

    #[test]
    fn identical_signatures_form_one_run_per_band() {
        let sig = Signature {
            bits: vec![0xDEAD_BEEF_F00D_CAFE, 0x0123_4567],
            len: 100,
        };
        let sigs = vec![sig; 7];
        let fast = LshIndex::build(&sigs, 33, 3);
        let slow = HashIndex::build(&sigs, 33, 3);
        assert_eq!(candidates(&fast), slow.candidate_pairs());
        assert_eq!(candidates(&fast).len(), 21);
        assert_eq!(fast.max_bucket(), 7);
    }
}
