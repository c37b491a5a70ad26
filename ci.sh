#!/usr/bin/env bash
# Full local CI: build, test both feature configurations, lint.
#
#   ./ci.sh            # everything
#
# The `parallel` feature is default-on; the --no-default-features pass
# proves the serial fallback builds and produces identical results (the
# determinism suite pins golden transcript hashes shared by both builds).
set -euo pipefail
cd "$(dirname "$0")"

# Every scratch file lives in one private directory (under $TMPDIR when set),
# so concurrent runs cannot clobber each other; it goes away on exit.
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "==> cargo build --release"
cargo build --release

# Static analysis gates the test steps: determinism (float-ord, hash-iter,
# wall-clock, reduce-order), layering (crate-dag, parallel-cfg), hygiene
# (no-print, no-unsafe), and hot-path/pack-safety (alloc-hot, cast-bounds)
# regressions fail fast with file:line spans. See DESIGN.md §12 and §17.
echo "==> phocus-lint (workspace static analysis)"
cargo run --release -q -p par-lint

# Schema drift gate: the registry the --json v2 schema exposes must match
# the checked-in rule list exactly (order included) — a rule added, renamed,
# or dropped without updating lint-rules.txt (and the consumers reading the
# JSON) fails here, not in a downstream dashboard.
echo "==> phocus-lint --json schema + rule-registry drift check"
cargo run --release -q -p par-lint -- --json > "$WORK/lint.json"
head -c 32 "$WORK/lint.json" | grep -q '^{"version":2,"rules":\[' \
  || { echo "phocus-lint --json is not schema v2" >&2; exit 1; }
cargo run --release -q -p par-lint -- rules | diff - lint-rules.txt

echo "==> cargo test (default features: parallel)"
cargo test -q

echo "==> cargo test (--no-default-features: serial fallback)"
cargo test -q --no-default-features

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo clippy --all-targets --no-default-features -- -D warnings"
cargo clippy --all-targets --no-default-features -- -D warnings

# Panic-freedom gate: library and binary code must not contain unwrap/expect/
# panic! on any path (internal invariants use assert!/unreachable! instead,
# data-dependent failures return typed errors). Tests, benches, the examples
# crate, and the vendored shims are exempt — --lib --bins skips #[cfg(test)].
# The crate list is derived from workspace metadata via `phocus-lint
# gate-crates`, so a newly added library crate is gated automatically;
# phocus-lint's ci-gate rule cross-checks this stays wired up.
PKG_FLAGS=()
for c in $(cargo run --release -q -p par-lint -- gate-crates); do
  PKG_FLAGS+=(-p "$c")
done
echo "==> clippy panic-freedom gate (library + bins)"
cargo clippy "${PKG_FLAGS[@]}" --lib --bins -- \
  -D warnings -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic

# Rustdoc gate: a doc link to a private, renamed or deleted item fails here.
echo "==> cargo doc (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> no-panic fuzz gate (fixed seeds, bounded corpus)"
cargo test -q -p integration-tests --test no_panic

echo "==> gain-kernel layout bench (quick mode, smoke)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench layout

echo "==> component-sharded solver bench (quick mode, smoke)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench shard

echo "==> multi-tenant fleet bench (quick mode, smoke + engine/naive equivalence assert)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench fleet

echo "==> incremental archiver bench (quick mode, smoke + per-epoch bit-identity assert)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench incremental

echo "==> catalog cold-start bench (quick mode, smoke + pack/text solve bit-identity assert)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench catalog

echo "==> multi-action solver bench (quick mode, smoke + sharded/global transcript assert)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench multiaction

echo "==> LSH representation kernel bench (quick mode, smoke + before/after bit-identity assert)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench lsh

# Pack determinism gate: the phocus-pack format is canonical — packing the
# same dataset twice must produce byte-identical images — and a written
# image must pass the reader's full validation (header, section table,
# checksums, cross-section bounds).
echo "==> pack determinism gate (phocus pack, two runs + cmp + --check)"
PACK_ARGS=(pack --dataset p1k --budget-mb 1)
cargo run --release -q -p phocus -- "${PACK_ARGS[@]}" --out "$WORK/pack_a.pack"
cargo run --release -q -p phocus -- "${PACK_ARGS[@]}" --out "$WORK/pack_b.pack"
cmp "$WORK/pack_a.pack" "$WORK/pack_b.pack"
cargo run --release -q -p phocus -- pack --check "$WORK/pack_a.pack"

# Catalog determinism gate: building a catalog twice from the same tenants
# must write a byte-identical index and byte-identical packs, and serving
# off it twice must print the same report (apart from the wall-clock ms=
# and inst_per_sec= fields) and write the same solution trees.
echo "==> catalog determinism gate (phocus catalog build + serve-batch --catalog, two runs each)"
CAT_DIR="$WORK/catalog_gate"
mkdir -p "$CAT_DIR"
for ds in tiny p1k ec-fashion; do
  cargo run --release -q -p phocus -- export --dataset "$ds" --out "$CAT_DIR/$ds.universe"
  echo "$CAT_DIR/$ds.universe" >> "$CAT_DIR/tenants.txt"
done
for run in a b; do
  cargo run --release -q -p phocus -- catalog build --list "$CAT_DIR/tenants.txt" \
    --out-dir "$CAT_DIR/catalog_$run" > /dev/null
done
cmp "$CAT_DIR/catalog_a/catalog.idx" "$CAT_DIR/catalog_b/catalog.idx"
for pack in "$CAT_DIR"/catalog_a/*.pack; do
  cmp "$pack" "$CAT_DIR/catalog_b/${pack##*/}"
done
for run in a b; do
  cargo run --release -q -p phocus -- serve-batch --catalog "$CAT_DIR/catalog_$run" \
    --out-dir "$CAT_DIR/solutions_$run" \
    | sed -e 's/\tms=[0-9.]*//' -e 's/\tinst_per_sec=[0-9.]*//' > "$CAT_DIR/serve_$run.txt"
done
diff "$CAT_DIR/serve_a.txt" "$CAT_DIR/serve_b.txt"
diff -r "$CAT_DIR/solutions_a" "$CAT_DIR/solutions_b"
grep -q '^batch.*tenants=3.*failed=0$' "$CAT_DIR/serve_a.txt"

# Churn-replay determinism gate: the same epoch session, replayed twice with
# --check (every epoch verified bit-identical to a from-scratch solve
# in-process), must print byte-identical reports apart from the wall-clock
# ms= field. Catches nondeterminism that only shows up across process runs
# (hash-iteration order, uninitialized reuse) which the in-process goldens
# cannot see.
echo "==> churn-replay determinism gate (phocus epochs --check, two runs)"
EPOCH_ARGS=(epochs --dataset p1k --budget-mb 1 --epochs 6 --churn 0.02 --check)
cargo run --release -q -p phocus -- "${EPOCH_ARGS[@]}" | sed 's/\tms=[0-9.]*//' > "$WORK/epochs_a.txt"
cargo run --release -q -p phocus -- "${EPOCH_ARGS[@]}" | sed 's/\tms=[0-9.]*//' > "$WORK/epochs_b.txt"
diff "$WORK/epochs_a.txt" "$WORK/epochs_b.txt"
grep -q '^session.*failed=0$' "$WORK/epochs_a.txt"

# Compress determinism gate: the same multi-action solve, headline and
# frontier, run twice must print byte-identical reports and retain the same
# actions. That the sharded solver matches the global one on these inputs —
# Algorithm 1 and the refill alike — is checked in-process by
# tests/tests/multiaction.rs (compress_gate_inputs_solve_like_the_global_solver).
echo "==> compress determinism gate (phocus compress --frontier, two runs)"
COMPRESS_ARGS=(compress --dataset p1k --budget-mb 1 --ladder 0.85:0.35,0.55:0.10 --frontier 4)
cargo run --release -q -p phocus -- "${COMPRESS_ARGS[@]}" --out "$WORK/actions_a.tsv" | grep -v '^wrote ' > "$WORK/compress_a.txt"
cargo run --release -q -p phocus -- "${COMPRESS_ARGS[@]}" --out "$WORK/actions_b.tsv" | grep -v '^wrote ' > "$WORK/compress_b.txt"
diff "$WORK/compress_a.txt" "$WORK/compress_b.txt"
diff "$WORK/actions_a.tsv" "$WORK/actions_b.tsv"
grep -q 'compressed renditions' "$WORK/compress_a.txt"

# End-to-end benchmark smoke gate: phocus-bench is its own package (it
# builds the library crates by path, outside this workspace), so the
# workspace `cargo test` never runs its smoke test. It serves every workload
# at quick size, at 1 and 2 threads, plain and traced, and checks each
# answer for feasibility and score and against the global oracle.
echo "==> phocus-bench smoke test (every workload, quick size, checked answers)"
cargo test --release -q --manifest-path phocus-bench/Cargo.toml

echo "==> bench guard (recorded BENCH_*.json baselines)"
cargo run --release -q -p par-bench --bin bench_guard

echo "CI OK"
