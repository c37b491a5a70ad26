//! Cross-crate guarantee checks: every theorem of the paper verified against
//! exact solutions on instances small enough to solve optimally.

use par_algo::{
    brute_force, main_algorithm, online_bound, sviridenko, BruteForceConfig, SviridenkoConfig,
};
use par_core::fixtures::{random_instance, RandomInstanceConfig};
use par_core::{FnSimilarity, InstanceBuilder, PhotoId, SubsetId};
use par_sparse::sparsification_bound;

const E: f64 = std::f64::consts::E;

fn small(seed: u64) -> par_core::Instance {
    random_instance(
        seed,
        &RandomInstanceConfig {
            photos: 12,
            subsets: 5,
            subset_size: (2, 6),
            cost_range: (50, 400),
            budget_fraction: 0.35,
            required_prob: 0.0,
        },
    )
}

#[test]
fn algorithm1_meets_its_guarantee() {
    // Theorem (Leskovec et al.): max(UC, CB) ≥ (1 − 1/e)/2 · OPT.
    let guarantee = (1.0 - 1.0 / E) / 2.0;
    for seed in 0..12 {
        let inst = small(seed);
        let greedy = main_algorithm(&inst).best.score;
        let opt = brute_force(&inst, &BruteForceConfig::default())
            .unwrap()
            .score;
        assert!(
            greedy + 1e-9 >= guarantee * opt,
            "seed {seed}: {greedy} < {guarantee}·{opt}"
        );
        // In practice the greedy does far better than the guarantee.
        assert!(greedy >= 0.8 * opt, "seed {seed}: only {greedy}/{opt}");
    }
}

#[test]
fn sviridenko_meets_the_optimal_guarantee() {
    // Theorem 4.6: partial enumeration achieves (1 − 1/e) · OPT.
    let guarantee = 1.0 - 1.0 / E;
    for seed in 0..8 {
        let inst = small(seed + 100);
        let sv = sviridenko(&inst, &SviridenkoConfig::default())
            .unwrap()
            .score;
        let opt = brute_force(&inst, &BruteForceConfig::default())
            .unwrap()
            .score;
        assert!(
            sv + 1e-9 >= guarantee * opt,
            "seed {seed}: {sv} < {guarantee}·{opt}"
        );
    }
}

#[test]
fn online_bound_never_undercuts_opt() {
    for seed in 0..12 {
        let inst = small(seed + 200);
        let greedy = main_algorithm(&inst).best;
        let bound = online_bound(&inst, &greedy.selected);
        let opt = brute_force(&inst, &BruteForceConfig::default())
            .unwrap()
            .score;
        assert!(
            bound.upper_bound + 1e-9 >= opt,
            "seed {seed}: UB {} < OPT {opt}",
            bound.upper_bound
        );
        // And the certified ratio is a valid lower bound on the true ratio.
        let true_ratio = greedy.score / opt.max(f64::MIN_POSITIVE);
        assert!(bound.ratio <= true_ratio + 1e-9);
    }
}

#[test]
fn theorem_4_8_sparsification_bound_holds() {
    // The second family has required photos: the bound holds only because
    // the certificate set contains S₀.
    let with_required = RandomInstanceConfig {
        photos: 12,
        subsets: 5,
        subset_size: (2, 6),
        cost_range: (50, 400),
        budget_fraction: 0.35,
        required_prob: 0.25,
    };
    let cases = (0..8)
        .map(|seed| (format!("seed {seed}"), small(seed + 300)))
        .chain((0..200).map(|seed| {
            (
                format!("S₀ seed {seed}"),
                random_instance(seed, &with_required),
            )
        }));
    for (case, inst) in cases {
        let opt = brute_force(&inst, &BruteForceConfig::default())
            .unwrap()
            .score;
        for tau in [0.25, 0.5, 0.75] {
            let cert = sparsification_bound(&inst, tau);
            let opt_tau = brute_force(&inst.sparsify(tau), &BruteForceConfig::default())
                .unwrap()
                .score;
            assert!(
                opt_tau + 1e-9 >= cert.factor * opt,
                "{case} τ={tau}: OPT_τ {opt_tau} < {} · OPT {opt}",
                cert.factor
            );
        }
    }
}

#[test]
fn theorem_4_8_certificate_starts_from_required_photos() {
    // S₀ = {a} leaves 2 of B = 10 bytes, so OPT = {a, c} = 5.01 and, once
    // SIM_H(c, h) = 0.49 falls below τ = 0.5, OPT_τ = {a, d} = 1.1. A
    // coverage set that ignored S₀ would take e alone (H's members e and
    // h, weight 9.5 of W_R = 11.1) and certify a factor of 0.461 > 1.1/5.01.
    let mut b = InstanceBuilder::new(10);
    let a = b.add_photo("a", 8);
    let c = b.add_photo("c", 2);
    let d = b.add_photo("d", 2);
    let e = b.add_photo("e", 9);
    let h = b.add_photo("h", 100);
    b.require(a);
    b.add_subset("A", 0.1, vec![a], vec![]);
    let hq = b.add_subset("H", 10.0, vec![c, e, h], vec![0.05, 0.05, 0.9]);
    b.add_subset("D", 1.0, vec![d], vec![]);
    let sim = FnSimilarity(move |q: SubsetId, x: PhotoId, y: PhotoId| {
        let pair = (x.min(y), x.max(y));
        match q == hq {
            true if pair == (c, h) => 0.49,
            true if pair == (e, h) => 0.9,
            _ => 0.0,
        }
    });
    let inst = b.build_with_provider(&sim).unwrap();
    let tau = 0.5;
    let opt = brute_force(&inst, &BruteForceConfig::default())
        .unwrap()
        .score;
    let opt_tau = brute_force(&inst.sparsify(tau), &BruteForceConfig::default())
        .unwrap()
        .score;
    assert!((opt - 5.01).abs() < 1e-6, "OPT {opt}");
    assert!((opt_tau - 1.1).abs() < 1e-9, "OPT_τ {opt_tau}");
    let cert = sparsification_bound(&inst, tau);
    assert!(
        opt_tau + 1e-9 >= cert.factor * opt,
        "OPT_τ {opt_tau} < {} · OPT {opt} (α {})",
        cert.factor,
        cert.alpha
    );
    // The certificate is S₀ ∪ {d}: it covers A and D, 1.1 of 11.1.
    assert!((cert.total_weight - 11.1).abs() < 1e-9);
    assert!((cert.covered_weight - 1.1).abs() < 1e-9);
    assert!((cert.factor - 1.1 / 12.2).abs() < 1e-9);
}

#[test]
fn sviridenko_never_loses_to_algorithm1() {
    // Partial enumeration explores a superset of the greedy's trajectory
    // seeds; on small instances it should match or beat Algorithm 1.
    for seed in 0..8 {
        let inst = small(seed + 400);
        let sv = sviridenko(&inst, &SviridenkoConfig::default())
            .unwrap()
            .score;
        let g = main_algorithm(&inst).best.score;
        assert!(sv + 1e-9 >= g, "seed {seed}: Sviridenko {sv} < greedy {g}");
    }
}

#[test]
fn required_photos_survive_every_solver() {
    let inst = random_instance(
        7,
        &RandomInstanceConfig {
            photos: 10,
            subsets: 4,
            required_prob: 0.3,
            budget_fraction: 0.6,
            ..Default::default()
        },
    );
    let solvers: Vec<Vec<par_core::PhotoId>> = vec![
        main_algorithm(&inst).best.selected,
        sviridenko(&inst, &SviridenkoConfig::default())
            .unwrap()
            .selected,
        brute_force(&inst, &BruteForceConfig::default())
            .unwrap()
            .selected,
    ];
    for sel in solvers {
        for &r in inst.required() {
            assert!(sel.contains(&r), "required {r} missing");
        }
    }
}
