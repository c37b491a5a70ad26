//! Command-line tests for the `reproduce` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `reproduce` in `dir`, created fresh and empty.
fn reproduce(dir: &Path, args: &[&str]) -> Output {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    reproduce_in(dir, args)
}

/// Runs `reproduce` in `dir` as it stands.
fn reproduce_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("reproduce_cli_{tag}"))
}

#[test]
fn unknown_only_id_is_a_usage_error_listing_the_ids() {
    let dir = scratch("bogus");
    let out = reproduce(&dir, &["--only", "bogus", "--out", "csv"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`bogus`"), "{stderr}");
    assert!(stderr.contains("table1, table2, fig5a"), "{stderr}");
    assert!(out.stdout.is_empty());
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "nothing written"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_without_a_value_is_refused_before_anything_is_written() {
    let dir = scratch("no_out");
    let out = reproduce(&dir, &["--only", "table1", "--out"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("`--out`"));
    assert!(out.stdout.is_empty());
    let written = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(written, 0, "no `results` directory");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn only_table1_writes_the_recorded_csv() {
    let dir = scratch("table1");
    let out = reproduce(&dir, &["--only", "table1", "--out", "csv"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let recorded = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/table1.csv");
    assert_eq!(
        std::fs::read(dir.join("csv/table1.csv")).unwrap(),
        std::fs::read(recorded).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_output_directory_that_cannot_be_created_is_an_io_error_naming_it() {
    let dir = scratch("out_under_file");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("plain"), "not a directory").unwrap();
    let out = reproduce_in(&dir, &["--only", "table1", "--out", "plain/x"]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("plain/x"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_csv_that_cannot_be_written_is_an_io_error_naming_it() {
    let dir = scratch("csv_is_dir");
    std::fs::remove_dir_all(&dir).ok();
    // A directory where table1's CSV should go.
    std::fs::create_dir_all(dir.join("csv/table1.csv")).unwrap();
    let out = reproduce_in(&dir, &["--only", "table1", "--out", "csv"]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("table1.csv"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
