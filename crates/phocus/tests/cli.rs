//! Smoke tests for the `phocus` CLI binary.

use std::process::Command;

fn phocus(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_phocus"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn demo_prints_figure1_report() {
    let out = phocus(&["demo"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Figure 1"));
    assert!(text.contains("PHOcus run report"));
    assert!(text.contains("selection order"));
}

#[test]
fn table2_lists_eight_datasets() {
    let out = phocus(&["table2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["P-1K", "P-100K", "EC-Fashion", "EC-Home & Garden"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn solve_tiny_dataset() {
    let out = phocus(&[
        "solve",
        "--dataset",
        "tiny",
        "--budget-mb",
        "3",
        "--tau",
        "0.6",
        "--seed",
        "7",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("retained"));
    assert!(text.contains("online bound"));
    assert!(text.contains("sparsification"));
}

/// `--threads` governs the whole command: the report is the same at one
/// and two threads apart from the wall-clock `time:` line.
#[test]
fn solve_report_is_identical_across_thread_counts() {
    let report = |threads: &str| {
        let out = phocus(&[
            "solve",
            "--dataset",
            "tiny",
            "--budget-mb",
            "3",
            "--seed",
            "7",
            "--threads",
            threads,
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|line| !line.starts_with("time:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = report("1");
    assert!(serial.contains("retained"), "{serial}");
    assert_eq!(serial, report("2"));
}

#[test]
fn suite_tiny_dataset() {
    let out = phocus(&[
        "suite",
        "--dataset",
        "tiny",
        "--budget-mb",
        "2",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PHOcus"));
    assert!(text.contains("RAND-A"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = phocus(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("USAGE"));
}

#[test]
fn help_prints_usage() {
    let out = phocus(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn missing_dataset_argument_errors() {
    let out = phocus(&["solve", "--budget-mb", "5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--dataset"));
}

#[test]
fn malformed_file_exits_nonzero_with_readable_message() {
    let path = std::env::temp_dir().join("phocus_cli_malformed.universe");
    std::fs::write(&path, "photo\t0\tnot-a-number\tbroken\n").unwrap();
    let out = phocus(&[
        "solve",
        "--dataset",
        &format!("file:{}", path.display()),
        "--budget-mb",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3), "bad data exits 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "diagnostic prefix: {err}");
    assert!(err.contains("line 1"), "points at the offending line: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn nan_weight_file_is_rejected_as_invalid_data() {
    let path = std::env::temp_dir().join("phocus_cli_nan.universe");
    std::fs::write(
        &path,
        "photo\t0\t100\ta\nembedding\t0\t1.0\nsubset\tq\tNaN\t0:1\n",
    )
    .unwrap();
    let out = phocus(&[
        "solve",
        "--dataset",
        &format!("file:{}", path.display()),
        "--budget-mb",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("weight"), "names the bad field: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn ragged_embedding_file_is_rejected_as_invalid_data() {
    let path = std::env::temp_dir().join("phocus_cli_ragged.universe");
    std::fs::write(
        &path,
        "photo\t0\t100\ta\nphoto\t1\t100\tb\nembedding\t0\t1.0\t0.0\n\
         embedding\t1\t0.5\t0.5\t0.5\nsubset\tq\t1\t0:1\t1:1\n",
    )
    .unwrap();
    let dataset = format!("file:{}", path.display());
    for extra in [&[][..], &["--ns"][..]] {
        let mut args = vec!["solve", "--dataset", &dataset, "--budget-mb", "1"];
        args.extend_from_slice(extra);
        let out = phocus(&args);
        assert_eq!(
            out.status.code(),
            Some(3),
            "ragged embeddings exit 3 ({extra:?})"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("dimension"), "names the problem: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_exits_with_io_code() {
    let out = phocus(&[
        "solve",
        "--dataset",
        "file:/nonexistent/phocus.universe",
        "--budget-mb",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(4), "I/O failure exits 4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/nonexistent/phocus.universe"), "names the path: {err}");
}

#[test]
fn bad_flag_value_exits_with_usage_code() {
    let out = phocus(&["solve", "--dataset", "tiny", "--budget-mb", "lots"]);
    assert_eq!(out.status.code(), Some(2), "usage error exits 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--budget-mb"));
}

#[test]
fn solve_rejects_negative_and_non_finite_budgets() {
    for bad in ["-5", "NaN", "inf"] {
        let out = phocus(&["solve", "--dataset", "tiny", "--budget-mb", bad]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--budget-mb {bad} is a usage error"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--budget-mb"), "names the flag: {stderr}");
        assert!(out.stdout.is_empty(), "nothing solved for {bad}");
    }
}

#[test]
fn compress_compares_remove_vs_compress() {
    let out = phocus(&[
        "compress",
        "--dataset",
        "tiny",
        "--budget-mb",
        "1.5",
        "--seed",
        "4",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("remove-only quality"));
    assert!(text.contains("compressed renditions"));
}

#[test]
fn compress_zero_score_budget_prints_no_nan() {
    // A budget below the cheapest photo retains nothing, so the remove-only
    // score is 0 and an improvement percentage would divide by zero. The
    // report must omit the percentage, not print NaN or inf.
    let out = phocus(&[
        "compress",
        "--dataset",
        "tiny",
        "--budget-mb",
        "0.000001",
        "--seed",
        "4",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("remove-only quality"), "{text}");
    assert!(!text.contains("NaN"), "{text}");
    assert!(!text.contains("inf"), "{text}");
    assert!(!text.contains('%'), "no percentage against a zero base: {text}");
}

#[test]
fn compress_bad_ladder_spec_exits_invalid_data() {
    for spec in ["2.0:0.5", "0.8:0.0,abc", "0.9"] {
        let out = phocus(&[
            "compress",
            "--dataset",
            "tiny",
            "--budget-mb",
            "1.5",
            "--ladder",
            spec,
        ]);
        assert_eq!(out.status.code(), Some(3), "bad ladder {spec:?} exits 3");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("ladder"), "names the ladder ({spec:?}): {err}");
    }
}

#[test]
fn compress_delete_only_ladder_reports_equal_scores() {
    let out = phocus(&[
        "compress",
        "--dataset",
        "tiny",
        "--budget-mb",
        "1.5",
        "--seed",
        "4",
        "--ladder",
        "none",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let score_after = |tag: &str| {
        let line = text.lines().find(|l| l.starts_with(tag)).unwrap();
        line[tag.len()..].trim().split(' ').next().unwrap().to_string()
    };
    assert_eq!(
        score_after("remove-only quality:"),
        score_after("compression-aware quality:"),
        "delete-only ladder must reproduce remove-only: {text}"
    );
    assert!(text.contains("0 compressed renditions"), "{text}");
}

#[test]
fn compress_writes_action_tsv() {
    let out_path = std::env::temp_dir().join("phocus_cli_actions.tsv");
    let out = phocus(&[
        "compress",
        "--dataset",
        "tiny",
        "--budget-mb",
        "1.5",
        "--seed",
        "4",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote retained actions"));
    let content = std::fs::read_to_string(&out_path).unwrap();
    assert!(!content.is_empty());
    // Each line: id \t parent \t action \t cost \t name.
    for line in content.lines() {
        let cols: Vec<_> = line.split('\t').collect();
        assert_eq!(cols.len(), 5, "line: {line}");
        assert!(
            cols[2] == "keep" || cols[2].starts_with("recompress@"),
            "action column: {line}"
        );
    }
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn compress_frontier_prints_curve() {
    let out = phocus(&[
        "compress",
        "--dataset",
        "tiny",
        "--budget-mb",
        "1.5",
        "--seed",
        "4",
        "--frontier",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("frontier\tbudget_mb\tdelete_only\tmulti_action"), "{text}");
    let rows: Vec<_> = text
        .lines()
        .filter(|l| l.starts_with("frontier\t") && !l.contains("budget_mb"))
        .collect();
    assert_eq!(rows.len(), 3, "{text}");
    for row in &rows {
        assert_eq!(row.split('\t').count(), 4, "row: {row}");
    }
    // The last row is at --budget-mb, so it is the headline's pair of
    // solves: its qualities round to the two printed above.
    let headline = |tag: &str| {
        let line = text.lines().find(|l| l.starts_with(tag)).unwrap();
        line[tag.len()..].trim().split(' ').next().unwrap().to_string()
    };
    let last: Vec<&str> = rows[2].split('\t').collect();
    let rounded = |col: &str| format!("{:.2}", col.parse::<f64>().unwrap());
    assert_eq!(last[1], "1.50", "{text}");
    assert_eq!(rounded(last[2]), headline("remove-only quality:"), "{text}");
    assert_eq!(rounded(last[3]), headline("compression-aware quality:"), "{text}");
}

#[test]
fn solve_writes_retained_list() {
    let out_path = std::env::temp_dir().join("phocus_cli_retained.tsv");
    let out = phocus(&[
        "solve",
        "--dataset",
        "tiny",
        "--budget-mb",
        "2",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let content = std::fs::read_to_string(&out_path).unwrap();
    assert!(!content.is_empty());
    // Each line: id \t cost \t name.
    let first = content.lines().next().unwrap();
    assert_eq!(first.split('\t').count(), 3);
    std::fs::remove_file(&out_path).ok();
}

/// Exports two small universes and writes a serve-batch list file naming
/// them (plus any extra raw lines the caller appends).
fn write_batch_fixture(tag: &str, extra_lines: &[&str]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("phocus_cli_batch_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut list = String::new();
    for (i, seed) in [3u64, 9].into_iter().enumerate() {
        let path = dir.join(format!("tenant{i}.universe"));
        let out = phocus(&[
            "export",
            "--dataset",
            "tiny",
            "--seed",
            &seed.to_string(),
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success());
        list.push_str(&format!("{}\n", path.display()));
    }
    for line in extra_lines {
        list.push_str(line);
        list.push('\n');
    }
    let list_path = dir.join("tenants.txt");
    std::fs::write(&list_path, list).unwrap();
    list_path
}

#[test]
fn serve_batch_solves_every_tenant_and_writes_solutions() {
    let list = write_batch_fixture("ok", &["# a comment", ""]);
    let out_dir = list.parent().unwrap().join("solutions");
    let out = phocus(&[
        "serve-batch",
        "--list",
        list.to_str().unwrap(),
        "--budget-frac",
        "0.3",
        "--out-dir",
        out_dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("ok\t").count(), 2, "one ok line per tenant: {text}");
    assert!(text.contains("inst_per_sec="), "throughput summary: {text}");
    assert!(text.contains("failed=0"), "no failures: {text}");
    // One retained-set file per solved tenant, one photo id per line.
    let mut files: Vec<_> = std::fs::read_dir(&out_dir).unwrap().collect();
    assert_eq!(files.len(), 2);
    let first = files.pop().unwrap().unwrap();
    let content = std::fs::read_to_string(first.path()).unwrap();
    assert!(content.lines().all(|l| l.parse::<u32>().is_ok()));
    std::fs::remove_dir_all(list.parent().unwrap()).ok();
}

#[test]
fn serve_batch_malformed_tenant_fails_that_tenant_not_the_batch() {
    let dir = std::env::temp_dir().join("phocus_cli_batch_partial");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("broken.universe");
    std::fs::write(&bad, "photo\t0\tnot-a-number\tbroken\n").unwrap();
    let missing = dir.join("does_not_exist.universe");
    let list = write_batch_fixture(
        "partial",
        &[bad.to_str().unwrap(), missing.to_str().unwrap()],
    );
    let out = phocus(&["serve-batch", "--list", list.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(5), "partial failure exits 5");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("ok\t").count(), 2, "healthy tenants solve: {text}");
    assert_eq!(text.matches("fail\t").count(), 2, "both bad tenants fail: {text}");
    assert!(text.contains("broken.universe"), "names the bad file: {text}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("2 of 4 tenants failed"),
        "stderr summary: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(list.parent().unwrap()).ok();
}

#[test]
fn serve_batch_rejects_negative_and_non_finite_budgets() {
    let list = write_batch_fixture("bad_budget", &[]);
    for bad in ["-5", "NaN", "inf"] {
        let out = phocus(&[
            "serve-batch",
            "--list",
            list.to_str().unwrap(),
            "--budget-mb",
            bad,
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--budget-mb {bad} is a usage error"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--budget-mb"), "names the flag: {stderr}");
        assert!(out.stdout.is_empty(), "no tenant served for {bad}");
    }
    std::fs::remove_dir_all(list.parent().unwrap()).ok();
}

#[test]
fn serve_batch_without_list_is_a_usage_error() {
    let out = phocus(&["serve-batch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--list"));
}

#[test]
fn serve_batch_missing_list_file_is_an_io_error() {
    let out = phocus(&["serve-batch", "--list", "/nonexistent/tenants.txt"]);
    assert_eq!(out.status.code(), Some(4), "unreadable batch list exits 4");
}

#[test]
fn usage_documents_serve_batch_exit_code() {
    let out = phocus(&["--help"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("serve-batch"));
    assert!(text.contains("5 partial failure"));
}

#[test]
fn export_then_solve_from_file() {
    let path = std::env::temp_dir().join("phocus_cli_export.universe");
    let out = phocus(&[
        "export",
        "--dataset",
        "tiny",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = phocus(&[
        "solve",
        "--dataset",
        &format!("file:{}", path.display()),
        "--budget-mb",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
}

/// Exports two tiny universes with *distinct* tenant names (exports are
/// all named "tiny", and `catalog build` rejects duplicates) and writes a
/// list file naming them.
fn write_catalog_fixture(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("phocus_cli_catalog_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut list = String::new();
    for (i, seed) in [3u64, 9].into_iter().enumerate() {
        let path = dir.join(format!("tenant{i}.universe"));
        let out = phocus(&[
            "export",
            "--dataset",
            "tiny",
            "--seed",
            &seed.to_string(),
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success());
        let text = std::fs::read_to_string(&path).unwrap();
        let renamed = text.replacen("name\ttiny", &format!("name\ttenant{i}"), 1);
        assert_ne!(renamed, text, "export must carry a name line");
        std::fs::write(&path, renamed).unwrap();
        list.push_str(&format!("{}\n", path.display()));
    }
    let list_path = dir.join("tenants.txt");
    std::fs::write(&list_path, list).unwrap();
    list_path
}

#[test]
fn pack_writes_a_deterministic_image_that_passes_check() {
    let dir = std::env::temp_dir().join("phocus_cli_pack_rt");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.pack");
    let b = dir.join("b.pack");
    for path in [&a, &b] {
        let out = phocus(&[
            "pack",
            "--dataset",
            "tiny",
            "--budget-mb",
            "2",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("wrote\t"));
    }
    // Canonical format: same dataset, byte-identical images across runs.
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    let out = phocus(&["pack", "--check", a.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("ok\t"), "{text}");
    assert!(text.contains("photos="), "{text}");
    assert!(text.contains("shards="), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pack_check_rejects_a_non_pack_file_as_invalid_data() {
    let path = std::env::temp_dir().join("phocus_cli_not_a.pack");
    std::fs::write(&path, "this is not a pack file").unwrap();
    let out = phocus(&["pack", "--check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "bad pack data exits 3");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("magic"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn pack_without_out_is_a_usage_error() {
    let out = phocus(&["pack", "--dataset", "tiny"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn catalog_build_ls_then_serve_off_the_catalog() {
    let list = write_catalog_fixture("serve");
    let dir = list.parent().unwrap();
    let cat = dir.join("catalog");
    let out = phocus(&[
        "catalog",
        "build",
        "--list",
        list.to_str().unwrap(),
        "--out-dir",
        cat.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("packed\t").count(), 2, "{text}");
    assert!(text.contains("tenants=2"), "{text}");

    let out = phocus(&["catalog", "ls", cat.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("tenant\t").count(), 2, "{text}");
    assert!(text.contains("tenant\ttenant0\t"), "{text}");

    let sol = dir.join("solutions");
    let out = phocus(&[
        "serve-batch",
        "--catalog",
        cat.to_str().unwrap(),
        "--out-dir",
        sol.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("ok\t").count(), 2, "{text}");
    assert!(text.contains("failed=0"), "{text}");
    assert_eq!(std::fs::read_dir(&sol).unwrap().count(), 2);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn catalog_serve_matches_list_serve_bit_for_bit() {
    let list = write_catalog_fixture("equiv");
    let dir = list.parent().unwrap();
    let cat = dir.join("catalog");
    // Same defaults on both paths: budget 25% of each tenant's archive,
    // LSH tau 0.6 seed 42 — the pair must agree on every solution column.
    let out = phocus(&[
        "catalog",
        "build",
        "--list",
        list.to_str().unwrap(),
        "--out-dir",
        cat.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let solution_lines = |out: std::process::Output| {
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("ok\t"))
            .map(|l| l.rsplit_once("\tms=").unwrap().0.to_string())
            .collect::<Vec<_>>()
    };
    let from_list = solution_lines(phocus(&["serve-batch", "--list", list.to_str().unwrap()]));
    let from_cat = solution_lines(phocus(&["serve-batch", "--catalog", cat.to_str().unwrap()]));
    assert_eq!(from_list.len(), 2);
    assert_eq!(from_list, from_cat, "pack loads must not change solutions");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn catalog_build_rejects_duplicate_tenant_names() {
    // Two exports of the same dataset share the name "tiny"; a catalog
    // that silently kept one would serve wrong fleets forever after.
    let list = write_batch_fixture("dup_names", &[]);
    let cat = list.parent().unwrap().join("catalog");
    let out = phocus(&[
        "catalog",
        "build",
        "--list",
        list.to_str().unwrap(),
        "--out-dir",
        cat.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "duplicate names exit 3");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("duplicate"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(list.parent().unwrap()).ok();
}

#[test]
fn serve_batch_catalog_corrupt_pack_fails_that_tenant_not_the_batch() {
    let list = write_catalog_fixture("corrupt");
    let dir = list.parent().unwrap();
    let cat = dir.join("catalog");
    let out = phocus(&[
        "catalog",
        "build",
        "--list",
        list.to_str().unwrap(),
        "--out-dir",
        cat.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    // Flip one payload byte in the first tenant's pack: the whole-file
    // checksum in catalog.idx no longer matches.
    let pack = cat.join("pk00000.pack");
    let mut bytes = std::fs::read(&pack).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&pack, bytes).unwrap();
    let out = phocus(&["serve-batch", "--catalog", cat.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(5), "partial failure exits 5");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("ok\t").count(), 1, "healthy tenant solves: {text}");
    assert_eq!(text.matches("fail\t").count(), 1, "corrupt tenant fails: {text}");
    assert!(text.contains("fail\ttenant0"), "names the tenant: {text}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn catalog_ls_missing_directory_is_an_io_error() {
    let out = phocus(&["catalog", "ls", "/nonexistent/catalog"]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn usage_documents_pack_and_catalog() {
    let out = phocus(&["--help"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pack"), "{text}");
    assert!(text.contains("catalog"), "{text}");
    assert!(text.contains("--catalog"), "{text}");
}

#[test]
fn epochs_trace_pair_index_beyond_u32_is_invalid_data() {
    // 2^32 must not wrap to member 0: the pair would silently merge two
    // shards. Out-of-range indices that fit u32 are rejected at apply time.
    let path = std::env::temp_dir().join("phocus_cli_wide_pair.trace");
    std::fs::write(
        &path,
        "# phocus-trace v1\nepoch\nadd_query\tq\t1.0\t2\tP-1K/img_000000.jpg\t1.0\t\
         P-1K/img_000001.jpg\t1.0\t1\t4294967296\t1\t0.9\n",
    )
    .unwrap();
    let trace = path.display().to_string();
    let out = phocus(&["epochs", "--dataset", "p1k", "--budget-mb", "1", "--trace", &trace]);
    assert_eq!(out.status.code(), Some(3), "bad trace data exits 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad pair index `4294967296`"), "{err}");
    assert!(err.contains("line 3"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// `plan` plans for the representation `solve` serves under the same flags
/// (LSH at τ 0.6 by default), so solving at the printed budget reaches the
/// target quality.
#[test]
fn planned_budget_reaches_its_target_under_solve() {
    let out = phocus(&["plan", "--dataset", "tiny", "--target", "0.9"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let plan = String::from_utf8_lossy(&out.stdout);
    let mb = plan
        .split("need ≈ ")
        .nth(1)
        .and_then(|t| t.split(" MB").next())
        .expect("plan prints a budget");
    let out = phocus(&["solve", "--dataset", "tiny", "--budget-mb", mb]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    let quality: f64 = report
        .lines()
        .find(|l| l.starts_with("quality:"))
        .and_then(|l| l.rsplit('(').next())
        .and_then(|t| t.strip_suffix("%)"))
        .and_then(|t| t.parse().ok())
        .expect("solve prints its quality");
    assert!(
        quality >= 90.0,
        "the planned {mb} MB reaches only {quality}% under solve"
    );
}

#[test]
fn tau_outside_zero_one_is_a_usage_error() {
    let list = write_batch_fixture("bad_tau", &[]);
    let dir = list.parent().unwrap();
    let catalog = dir.join("catalog");
    let (list, catalog) = (list.to_str().unwrap(), catalog.to_str().unwrap());
    let runs: [&[&str]; 6] = [
        &["solve", "--dataset", "tiny", "--tau", "nan"],
        &["plan", "--dataset", "tiny", "--tau", "2"],
        &["solve", "--dataset", "tiny", "--ns", "--tau", "-1"],
        &["serve-batch", "--list", list, "--tau", "-0.5"],
        &[
            "catalog",
            "build",
            "--list",
            list,
            "--out-dir",
            catalog,
            "--tau",
            "1.5",
        ],
        &["suite", "--dataset", "tiny", "--tau", "inf"],
    ];
    for args in runs {
        let out = phocus(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} is a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--tau"), "names the flag: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "nothing served for {args:?}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    assert!(
        !std::path::Path::new(catalog).exists(),
        "no catalog written"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn tau_at_either_end_of_zero_one_still_solves() {
    for tau in ["0", "1"] {
        let out = phocus(&[
            "solve",
            "--dataset",
            "tiny",
            "--budget-mb",
            "3",
            "--tau",
            tau,
        ]);
        assert!(
            out.status.success(),
            "--tau {tau}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("retained"));
    }
}
