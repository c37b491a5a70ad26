//! Property tests pinning the CSR/SoA `SparseSim` layout to a naive
//! `Vec<Vec<(u32, f32)>>` adjacency-list reference.
//!
//! The CSR store is a pure layout change: for any input pair list it must
//! answer `sim(i, j)`, `neighbors(i)`, `degree(i)`, and `nonzero_pairs()`
//! exactly like the per-row vector representation it replaced, and the
//! two-pass CSR build inside `DenseSim::sparsify` must agree with building
//! from the surviving pairs directly. The counting build inside
//! `from_pairs` must give the same arenas whatever order the pairs arrive
//! in: canonical, row-major, reversed, shuffled, or with duplicates.

use par_core::fixtures::SplitMix64;
use par_core::{ContextSim, DenseSim, SparseSim, SubsetId};
use proptest::prelude::*;

/// Naive adjacency-list similarity store: the representation CSR replaced.
struct RefStore {
    rows: Vec<Vec<(u32, f32)>>,
}

impl RefStore {
    /// Mirrors `SparseSim::from_pairs` semantics: symmetric insertion,
    /// zero/self skipping, duplicate resolution by max.
    fn from_pairs(n: usize, pairs: &[(u32, u32, f64)]) -> Self {
        let mut rows: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n];
        let mut upsert = |i: usize, j: u32, s: f32| match rows[i].iter_mut().find(|e| e.0 == j) {
            Some(e) => e.1 = e.1.max(s),
            None => rows[i].push((j, s)),
        };
        for &(i, j, s) in pairs {
            if i == j || s == 0.0 {
                continue;
            }
            upsert(i as usize, j, s as f32);
            upsert(j as usize, i, s as f32);
        }
        for row in &mut rows {
            row.sort_unstable_by_key(|e| e.0);
        }
        RefStore { rows }
    }

    fn sim(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 1.0;
        }
        self.rows[i]
            .iter()
            .find(|e| e.0 == j as u32)
            .map_or(0.0, |e| e.1 as f64)
    }

    fn nonzero_pairs(&self) -> usize {
        self.rows.iter().map(Vec::len).sum::<usize>() / 2
    }
}

/// Random pair list with deliberate duplicates, self-loops, zeros, and exact
/// similarity ties (quantized to tenths) to stress the dedup path.
fn random_pairs(seed: u64, n: usize, count: usize) -> Vec<(u32, u32, f64)> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let i = rng.next_below(n) as u32;
            let j = rng.next_below(n) as u32;
            let s = rng.next_below(11) as f64 / 10.0;
            (i, j, s)
        })
        .collect()
}

/// Asserts that `csr` holds exactly `reference`'s rows, bit for bit.
fn assert_matches_reference(csr: &SparseSim, reference: &RefStore, what: &str) {
    assert_eq!(csr.len(), reference.rows.len(), "{what}");
    assert_eq!(csr.nonzero_pairs(), reference.nonzero_pairs(), "{what}");
    for (i, row) in reference.rows.iter().enumerate() {
        let (ids, sims) = csr.neighbors(i);
        let got: Vec<(u32, u32)> = ids
            .iter()
            .zip(sims)
            .map(|(&j, s)| (j, s.to_bits()))
            .collect();
        let want: Vec<(u32, u32)> = row.iter().map(|&(j, s)| (j, s.to_bits())).collect();
        assert_eq!(got, want, "{what}: row {i}");
    }
}

/// A random simple graph over `n` members as `(i, j, sim)` with `i < j`, in
/// ascending `(i, j)` order — the order the LSH candidate enumeration emits.
fn canonical_pairs(seed: u64, n: usize, density: usize) -> Vec<(u32, u32, f64)> {
    let mut rng = SplitMix64::new(seed);
    let mut pairs = Vec::new();
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            if rng.next_below(10) < density {
                pairs.push((i, j, (1 + rng.next_below(1000)) as f64 / 1000.0));
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn counting_build_matches_reference_in_every_input_order(
        (seed, n, density) in (any::<u64>(), 1usize..40, 0usize..11)
    ) {
        let canonical = canonical_pairs(seed, n, density);
        let reference = RefStore::from_pairs(n, &canonical);
        let build = |pairs: Vec<(u32, u32, f64)>| SparseSim::from_pairs(SubsetId(0), n, pairs).unwrap();
        let expected = build(canonical.clone());
        assert_matches_reference(&expected, &reference, "canonical");

        // Row-major `(j, i)` with `j < i`, outer loop over `i`: the order of
        // the exact small-context path.
        let mut row_major: Vec<(u32, u32, f64)> = canonical.clone();
        row_major.sort_unstable_by_key(|&(j, i, _)| (i, j));
        prop_assert_eq!(&build(row_major), &expected);

        let reversed: Vec<(u32, u32, f64)> = canonical.iter().rev().copied().collect();
        prop_assert_eq!(&build(reversed), &expected);

        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        let mut shuffled = canonical.clone();
        for k in (1..shuffled.len()).rev() {
            shuffled.swap(k, rng.next_below(k + 1));
        }
        // Flipped orientation is the same unordered pair.
        for p in shuffled.iter_mut().filter(|_| rng.next_below(2) == 0) {
            *p = (p.1, p.0, p.2);
        }
        prop_assert_eq!(&build(shuffled.clone()), &expected);

        // Duplicates with lower similarities (and exact repeats) must leave
        // the maximum in place; a higher duplicate must win.
        let mut duplicated = shuffled.clone();
        for &(i, j, s) in canonical.iter().filter(|_| rng.next_below(3) == 0) {
            duplicated.push((j, i, s / 2.0));
            duplicated.push((i, j, s));
        }
        prop_assert_eq!(&build(duplicated.clone()), &expected);
        if let Some(&(i, j, _)) = canonical.first() {
            duplicated.push((i, j, 1.0));
            let raised = build(duplicated.clone());
            assert_matches_reference(&raised, &RefStore::from_pairs(n, &duplicated), "raised duplicate");
            prop_assert_eq!(raised.sim(i as usize, j as usize), 1.0);
        }
    }

    #[test]
    fn csr_matches_adjacency_list_reference(
        (seed, n, count) in (any::<u64>(), 1usize..24, 0usize..80)
    ) {
        let pairs = random_pairs(seed, n, count);
        let reference = RefStore::from_pairs(n, &pairs);
        let csr = SparseSim::from_pairs(SubsetId(0), n, pairs).unwrap();

        prop_assert_eq!(csr.len(), n);
        prop_assert_eq!(csr.nonzero_pairs(), reference.nonzero_pairs());
        for i in 0..n {
            let (ids, sims) = csr.neighbors(i);
            prop_assert_eq!(ids.len(), csr.degree(i));
            prop_assert_eq!(ids.len(), reference.rows[i].len());
            for (k, (&j, &s)) in ids.iter().zip(sims).enumerate() {
                let (rj, rs) = reference.rows[i][k];
                prop_assert_eq!(j, rj);
                prop_assert_eq!(s.to_bits(), rs.to_bits());
            }
            for j in 0..n {
                prop_assert_eq!(csr.sim(i, j).to_bits(), reference.sim(i, j).to_bits());
            }
        }
    }

    #[test]
    fn csr_rows_are_sorted_strictly_increasing(
        (seed, n, count) in (any::<u64>(), 1usize..24, 0usize..80)
    ) {
        let pairs = random_pairs(seed, n, count);
        let csr = SparseSim::from_pairs(SubsetId(0), n, pairs).unwrap();
        for i in 0..n {
            let (ids, sims) = csr.neighbors(i);
            prop_assert_eq!(ids.len(), sims.len());
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "row {} not sorted", i);
            prop_assert!(ids.iter().all(|&j| (j as usize) < n && j as usize != i));
        }
    }

    #[test]
    fn for_neighbors_agrees_with_slice_accessors(
        (seed, n, count) in (any::<u64>(), 1usize..24, 0usize..80)
    ) {
        let pairs = random_pairs(seed, n, count);
        let sp = SparseSim::from_pairs(SubsetId(0), n, pairs).unwrap();
        let cs = ContextSim::Sparse(sp.clone());
        for i in 0..n {
            let mut visited = Vec::new();
            cs.for_neighbors(i, |j, s| visited.push((j as u32, s)));
            let (ids, sims) = sp.neighbors(i);
            prop_assert_eq!(visited.len(), ids.len());
            for ((vj, vs), (&j, &s)) in visited.iter().zip(ids.iter().zip(sims)) {
                prop_assert_eq!(*vj, j);
                prop_assert_eq!(vs.to_bits(), (s as f64).to_bits());
            }
        }
    }

    #[test]
    fn dense_sparsify_matches_from_pairs_build(
        (seed, n) in (any::<u64>(), 1usize..20)
    ) {
        // A dense matrix with quantized entries, sparsified at a few taus,
        // must equal the CSR built directly from the surviving pairs.
        let mut rng = SplitMix64::new(seed);
        let mut matrix = vec![0.0f64; n * n];
        for i in 0..n {
            matrix[i * n + i] = 1.0;
            for j in 0..i {
                let s = rng.next_below(11) as f64 / 10.0;
                matrix[i * n + j] = s;
                matrix[j * n + i] = s;
            }
        }
        let dense = DenseSim::from_matrix(SubsetId(0), n, &matrix).unwrap();
        for tau in [0.0, 0.35, 0.7, 1.0] {
            let via_dense = dense.sparsify(tau);
            let surviving: Vec<(u32, u32, f64)> = (0..n)
                .flat_map(|i| (0..i).map(move |j| (i as u32, j as u32)))
                .map(|(i, j)| (i, j, dense.sim(i as usize, j as usize)))
                .filter(|&(_, _, s)| s >= tau && s > 0.0)
                .collect();
            let via_pairs = SparseSim::from_pairs(SubsetId(0), n, surviving).unwrap();
            prop_assert_eq!(via_dense.nonzero_pairs(), via_pairs.nonzero_pairs());
            for i in 0..n {
                let (a_ids, a_sims) = via_dense.neighbors(i);
                let (b_ids, b_sims) = via_pairs.neighbors(i);
                prop_assert_eq!(a_ids, b_ids);
                for (x, y) in a_sims.iter().zip(b_sims) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}
