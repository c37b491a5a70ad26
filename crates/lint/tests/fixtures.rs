//! Fixture-corpus tests: every rule fires on its violation fixture and
//! stays silent on the suppressed variant, so a rule (or the suppression
//! machinery) cannot silently stop working.

use par_lint::{lint_source, CrateCategory, FileKind, FileSpec};

/// Lints a fixture as ordinary library code of a non-exempt crate.
fn lint(src: &str) -> Vec<par_lint::Diagnostic> {
    lint_source(
        FileSpec {
            path: "crates/fixture/src/code.rs",
            crate_name: "par-fixture",
            category: CrateCategory::Library,
            kind: FileKind::Lib,
        },
        src,
    )
}

fn rules(diags: &[par_lint::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn float_ord_fires_and_suppresses() {
    let hits = lint(include_str!("../fixtures/float_ord_violation.rs"));
    assert_eq!(rules(&hits), ["float-ord"], "{hits:#?}");
    assert_eq!(hits[0].line, 6);
    let clean = lint(include_str!("../fixtures/float_ord_suppressed.rs"));
    assert!(clean.is_empty(), "{clean:#?}");
}

#[test]
fn hash_iter_fires_on_both_shapes_and_suppresses() {
    let hits = lint(include_str!("../fixtures/hash_iter_violation.rs"));
    assert_eq!(rules(&hits), ["hash-iter", "hash-iter"], "{hits:#?}");
    let clean = lint(include_str!("../fixtures/hash_iter_suppressed.rs"));
    assert!(clean.is_empty(), "{clean:#?}");
}

#[test]
fn wall_clock_fires_and_suppresses() {
    let hits = lint(include_str!("../fixtures/wall_clock_violation.rs"));
    assert_eq!(rules(&hits), ["wall-clock"], "{hits:#?}");
    let clean = lint(include_str!("../fixtures/wall_clock_suppressed.rs"));
    assert!(clean.is_empty(), "{clean:#?}");
}

#[test]
fn parallel_cfg_fires_and_suppresses() {
    let hits = lint(include_str!("../fixtures/parallel_cfg_violation.rs"));
    assert_eq!(rules(&hits), ["parallel-cfg"], "{hits:#?}");
    let clean = lint(include_str!("../fixtures/parallel_cfg_suppressed.rs"));
    assert!(clean.is_empty(), "{clean:#?}");
}

#[test]
fn parallel_cfg_is_exempt_in_par_exec() {
    let hits = lint_source(
        FileSpec {
            path: "crates/exec/src/pool.rs",
            crate_name: "par-exec",
            category: CrateCategory::Library,
            kind: FileKind::Lib,
        },
        include_str!("../fixtures/parallel_cfg_violation.rs"),
    );
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn no_print_fires_on_output_and_placeholders_and_suppresses() {
    let hits = lint(include_str!("../fixtures/no_print_violation.rs"));
    assert_eq!(rules(&hits), ["no-print", "no-print"], "{hits:#?}");
    assert!(hits[1].message.contains("placeholder"), "{hits:#?}");
    let clean = lint(include_str!("../fixtures/no_print_suppressed.rs"));
    assert!(clean.is_empty(), "{clean:#?}");
}

#[test]
fn no_print_is_exempt_in_bin_sources() {
    let hits = lint_source(
        FileSpec {
            path: "crates/fixture/src/bin/cli.rs",
            crate_name: "par-fixture",
            category: CrateCategory::Library,
            kind: FileKind::Bin,
        },
        include_str!("../fixtures/no_print_violation.rs"),
    );
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn no_unsafe_fires_and_suppresses() {
    let hits = lint(include_str!("../fixtures/no_unsafe_violation.rs"));
    assert_eq!(rules(&hits), ["no-unsafe"], "{hits:#?}");
    let clean = lint(include_str!("../fixtures/no_unsafe_suppressed.rs"));
    assert!(clean.is_empty(), "{clean:#?}");
}

#[test]
fn crate_root_without_forbid_attr_is_flagged() {
    let spec = |src| {
        lint_source(
            FileSpec {
                path: "crates/fixture/src/lib.rs",
                crate_name: "par-fixture",
                category: CrateCategory::Library,
                kind: FileKind::Lib,
            },
            src,
        )
    };
    let bare = spec("pub fn f() {}\n");
    assert_eq!(rules(&bare), ["no-unsafe"], "{bare:#?}");
    assert!(bare[0].message.contains("forbid(unsafe_code)"));
    let guarded = spec("#![forbid(unsafe_code)]\npub fn f() {}\n");
    assert!(guarded.is_empty(), "{guarded:#?}");
}

#[test]
fn unknown_rule_in_pragma_is_reported() {
    let hits = lint(include_str!("../fixtures/lint_meta_violation.rs"));
    assert_eq!(rules(&hits), ["lint-meta"], "{hits:#?}");
    assert!(hits[0].message.contains("no-such-rule"), "{hits:#?}");
}

#[test]
fn clean_fixture_produces_nothing() {
    let hits = lint(include_str!("../fixtures/clean.rs"));
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn alloc_hot_fires_directly_and_transitively_and_suppresses() {
    let hits = lint(include_str!("../fixtures/alloc_hot_violation.rs"));
    let hot: Vec<_> = hits.iter().filter(|d| d.rule == "alloc-hot").collect();
    assert!(hot.len() >= 2, "{hits:#?}");
    assert!(
        hot.iter().any(|d| d.message.contains("dispatch → helper")),
        "expected a transitive witness chain:\n{hits:#?}"
    );
    let clean = lint(include_str!("../fixtures/alloc_hot_suppressed.rs"));
    assert!(!rules(&clean).contains(&"alloc-hot"), "{clean:#?}");
}

#[test]
fn cast_bounds_fires_on_both_directions_and_suppresses() {
    let hits = lint(include_str!("../fixtures/cast_bounds_violation.rs"));
    let casts: Vec<_> = hits.iter().filter(|d| d.rule == "cast-bounds").collect();
    assert_eq!(casts.len(), 2, "{hits:#?}");
    assert!(casts.iter().any(|d| d.message.contains("u32")), "{hits:#?}");
    assert!(casts.iter().any(|d| d.message.contains("usize")), "{hits:#?}");
    let clean = lint(include_str!("../fixtures/cast_bounds_suppressed.rs"));
    assert!(!rules(&clean).contains(&"cast-bounds"), "{clean:#?}");
}

#[test]
fn cast_bounds_accepts_guarded_and_checked_conversions() {
    let hits = lint(include_str!("../fixtures/cast_bounds_clean.rs"));
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn reduce_order_fires_directly_and_transitively_and_suppresses() {
    let hits = lint(include_str!("../fixtures/reduce_order_violation.rs"));
    let red: Vec<_> = hits.iter().filter(|d| d.rule == "reduce-order").collect();
    assert!(red.len() >= 2, "{hits:#?}");
    assert!(
        red.iter().any(|d| d.message.contains("bump")),
        "expected the transitive callee in a witness:\n{hits:#?}"
    );
    assert!(
        red.iter().any(|d| d.message.contains("inside a `join` closure")),
        "expected the accumulation inside `join`:\n{hits:#?}"
    );
    let clean = lint(include_str!("../fixtures/reduce_order_suppressed.rs"));
    assert!(!rules(&clean).contains(&"reduce-order"), "{clean:#?}");
}

#[test]
fn lint_meta_suppresses_through_its_own_rule_list() {
    let clean = lint(include_str!("../fixtures/lint_meta_suppressed.rs"));
    assert!(!rules(&clean).contains(&"lint-meta"), "{clean:#?}");
}

/// Crate- or workspace-level rules that cannot be demonstrated in a
/// single-file fixture: `crate-dag` reads Cargo manifests and `ci-gate`
/// reads `ci.sh`. Everything else must carry the full fixture triple.
const WORKSPACE_RULES: [&str; 2] = ["crate-dag", "ci-gate"];

/// Meta-test over the corpus itself: every registered per-file rule has a
/// violation fixture that fires it, a suppressed fixture that silences it
/// with a rationale, and a clean fixture with zero findings of that rule —
/// so a rule (or its fixture) cannot rot without this test noticing.
#[test]
fn every_per_file_rule_has_a_complete_fixture_triple() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for rule in par_lint::rules::RULES {
        if WORKSPACE_RULES.contains(rule) {
            continue;
        }
        let stem = rule.replace('-', "_");
        let read = |suffix: &str| {
            let path = dir.join(format!("{stem}_{suffix}.rs"));
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
        };
        let violation = lint(&read("violation"));
        assert!(
            rules(&violation).contains(rule),
            "{rule}: violation fixture does not fire it:\n{violation:#?}"
        );
        let suppressed = lint(&read("suppressed"));
        assert!(
            !rules(&suppressed).contains(rule),
            "{rule}: suppressed fixture still fires it:\n{suppressed:#?}"
        );
        let clean = lint(&read("clean"));
        assert!(
            !rules(&clean).contains(rule),
            "{rule}: clean fixture fires it:\n{clean:#?}"
        );
    }
}
