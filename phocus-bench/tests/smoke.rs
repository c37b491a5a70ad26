//! Smoke test: every workload at `--quick` sizes, at one and two threads,
//! plain and traced. Run with `cargo test --release` in this package.

use phocus_bench::json::{self, Value};
use phocus_bench::workloads::NAMES;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

struct Run {
    digest: String,
    metrics: Value,
    lines: Vec<String>,
}

/// Runs one quick workload in a fresh working directory.
fn run(workload: &str, threads: usize, trace: bool) -> Run {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-t{threads}-{}", u8::from(trace)));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_phocus-bench"))
        .current_dir(&cwd)
        .args([
            "--workload",
            workload,
            "--quick",
            "--seconds",
            "0.3",
            "--seed",
            "5",
        ])
        .args(["--threads", &threads.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} t{threads} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !cwd.join(".bench_tmp").exists(),
        "{workload} left its temporary directory behind"
    );
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = json::parse(lines.last().expect("a result line")).expect("result is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let digest = lines
        .iter()
        .find_map(|l| l.strip_prefix(&format!("# {workload} digest ")))
        .expect("a digest line")
        .to_string();
    Run {
        digest,
        metrics: result.get("metrics").expect("metrics").clone(),
        lines,
    }
}

fn metric(run: &Run, name: &str) -> f64 {
    run.metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_reports_every_metric_with_one_answer() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in NAMES {
        let plain = run(workload, 2, false);
        let printed: BTreeSet<String> = plain
            .metrics
            .as_object()
            .expect("metrics object")
            .keys()
            .cloned()
            .collect();
        assert_eq!(printed, end_to_end, "{workload} end-to-end metrics");
        for name in &end_to_end {
            let value = metric(&plain, name);
            assert!(
                value.is_finite() && value > 0.0,
                "{workload} {name} = {value}"
            );
            assert!(
                plain
                    .lines
                    .iter()
                    .any(|l| l.starts_with(&format!("{workload} {name} "))),
                "{workload} prints no line for {name}"
            );
        }

        let traced = run(workload, 2, true);
        let printed: BTreeSet<String> = traced
            .metrics
            .as_object()
            .expect("metrics object")
            .keys()
            .cloned()
            .collect();
        assert_eq!(printed, per_layer, "{workload} per-layer metrics");
        let unattributed = metric(&traced, "unattributed_share");
        assert!(
            unattributed <= 0.05,
            "{workload}: {unattributed} of the traced wall unattributed"
        );
        let shares: f64 = [
            "load_share",
            "prepare_share",
            "solve_share",
            "unattributed_share",
        ]
        .iter()
        .map(|m| metric(&traced, m))
        .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{workload}: shares sum to {shares}"
        );

        let serial = run(workload, 1, false);
        let serial_traced = run(workload, 1, true);
        let again = run(workload, 2, false);
        for other in [&traced, &serial, &serial_traced, &again] {
            assert_eq!(plain.digest, other.digest, "{workload}: answers differ");
        }
        assert_eq!(
            metric(&plain, "quality_ratio").to_bits(),
            metric(&serial, "quality_ratio").to_bits(),
            "{workload}: quality differs across thread counts"
        );
        for counter in ["gain_evals", "sim_ops", "pq_pops", "stored_pairs", "shards"] {
            assert_eq!(
                metric(&traced, counter),
                metric(&serial_traced, counter),
                "{workload}: {counter} differs across thread counts"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seconds", "1"],
        vec!["--workload", "fleet_text", "--trace", "2"],
        vec!["compare", "only-one-file"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_phocus-bench"))
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .args(&args)
            .output()
            .expect("benchmark starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
