//! Smoke tests for the `study` CLI binary.

use std::process::Command;

fn study(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_study"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn domains_prints_all_three() {
    let out = study(&["domains", "--seed", "7"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for d in ["EC-Electronics", "EC-Fashion", "EC-Home & Garden"] {
        assert!(text.contains(d), "missing {d}");
    }
}

#[test]
fn preference_runs_reduced_rounds() {
    let out = study(&["preference", "--rounds", "6", "--seed", "3"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cannot decide"));
}

#[test]
fn insights_requires_domain() {
    let out = study(&["insights"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--domain"));
}

#[test]
fn insights_reports_ratios() {
    let out = study(&["insights", "--domain", "fashion", "--budget-mb", "5"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("value ratio"));
    assert!(text.contains("photos the solver kept"));
}

#[test]
fn unknown_flag_is_refused_before_anything_runs() {
    let out = study(&["preference", "--rounds", "3", "--bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("`--bogus`"));
    assert!(out.stdout.is_empty());
}

#[test]
fn insights_refuses_a_negative_budget() {
    let out = study(&["insights", "--domain", "fashion", "--budget-mb", "-5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--budget-mb must be a finite, non-negative"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}
