//! Command-line tests for the `reproduce` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `reproduce` in `dir`, created fresh and empty.
fn reproduce(dir: &Path, args: &[&str]) -> Output {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
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
