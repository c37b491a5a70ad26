//! `phocus-bench compare PARENT CHANGE`: judges a change against its parent
//! from the printed output of interleaved runs of both.
//!
//! Each input is the concatenated standard output of runs of one commit.
//! The i-th run of a workload in PARENT is paired with the i-th run of the
//! same workload in CHANGE, so the runs should alternate between the two
//! commits. For every workload and every end-to-end metric of
//! `BENCHMARK.json`:
//!
//! * **improved** — at least 10 pairs, the change wins at least 9 in 10 of
//!   them (ties count for neither), and the medians differ, in the change's
//!   favour, by more than the parent's interquartile range;
//! * **unresolved** — otherwise, when the parent's interquartile range is
//!   wider than the metric's bound (as a share of the parent's median) and
//!   not every change run reads better than every parent run;
//! * **regressed** — otherwise, when the change's median is worse than the
//!   parent's by more than the bound;
//! * **unchanged** — otherwise.

use crate::json::{self, Value};
use crate::stats::{iqr, median};
use std::collections::BTreeMap;

/// An end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Largest tolerated worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics and their bounds from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let higher_is_better = match m.get("better").and_then(Value::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("{name}: `better` must be higher or lower")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .filter(|b| *b >= 0.0)
                .ok_or_else(|| format!("{name}: missing or negative bound"))?;
            Ok(Bound {
                name: name.to_string(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// Metric values per `(workload, metric)`, in run order, plus the number of
/// runs whose result line reported `"correct": false`.
#[derive(Debug, Default)]
pub struct Runs {
    /// Values, keyed by workload then metric.
    pub values: BTreeMap<(String, String), Vec<f64>>,
    /// Runs that failed a check.
    pub incorrect: usize,
}

/// Reads the metric lines (`<workload> <metric> <value> <unit> n=<k>`) and
/// result lines of concatenated benchmark output.
pub fn read_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('{') {
            let result = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if result.get("correct") != Some(&Value::Bool(true)) {
                runs.incorrect += 1;
            }
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, _unit, samples] = fields[..] else {
            return Err(format!("line {}: not a metric line: {line}", i + 1));
        };
        if !samples.starts_with("n=") {
            return Err(format!("line {}: not a metric line: {line}", i + 1));
        }
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value {value}", i + 1))?;
        runs.values
            .entry((workload.to_string(), metric.to_string()))
            .or_default()
            .push(value);
    }
    Ok(runs)
}

/// The verdict for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the interleaved-pairs rule.
    Improved,
    /// No worse than the bound.
    Unchanged,
    /// Worse than the bound.
    Regressed,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the rules above to paired `parent` and `change` values.
pub fn judge(parent: &[f64], change: &[f64], metric: &Bound) -> Verdict {
    let better = |a: f64, b: f64| {
        if metric.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (mp, mc) = (median(parent), median(change));
    let spread = iqr(parent);
    if pairs >= 10 && wins * 10 >= pairs * 9 && better(mc, mp) && (mc - mp).abs() > spread {
        return Verdict::Improved;
    }
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    if spread / scale > metric.bound {
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
        return if all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if metric.higher_is_better {
        mp - mc
    } else {
        mc - mp
    };
    if worse_by / scale > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Compares two sets of runs; returns the report lines and whether any
/// metric regressed or any run failed a check.
pub fn compare(
    parent: &str,
    change: &str,
    benchmark_json: &str,
) -> Result<(Vec<String>, bool), String> {
    let metrics = bounds(benchmark_json)?;
    let (parent, change) = (read_runs(parent)?, read_runs(change)?);
    let mut lines = Vec::new();
    let mut bad = parent.incorrect + change.incorrect > 0;
    if bad {
        lines.push(format!(
            "failed runs: parent {} change {}",
            parent.incorrect, change.incorrect
        ));
    }
    let workloads: std::collections::BTreeSet<&String> =
        parent.values.keys().map(|(w, _)| w).collect();
    for workload in workloads {
        for metric in &metrics {
            let key = (workload.clone(), metric.name.clone());
            let (Some(p), Some(c)) = (parent.values.get(&key), change.values.get(&key)) else {
                continue;
            };
            let verdict = judge(p, c, metric);
            bad |= verdict == Verdict::Regressed;
            let pairs = p.len().min(c.len());
            lines.push(format!(
                "{workload} {} parent={} (iqr {}) change={} (iqr {}) pairs={pairs} bound={} -> {}",
                metric.name,
                median(p),
                iqr(p),
                median(c),
                iqr(c),
                metric.bound,
                verdict.name()
            ));
        }
    }
    if lines.is_empty() {
        return Err("no end-to-end metric appears in both inputs".into());
    }
    Ok((lines, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency_p50_ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn the_pairs_rule_decides_improvements() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        assert_eq!(judge(&parent, &faster, &lower(0.1)), Verdict::Improved);
        // Nine pairs are not enough.
        assert_eq!(
            judge(&parent[..9], &faster[..9], &lower(0.1)),
            Verdict::Unchanged
        );
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
        assert_eq!(judge(&parent, &slower, &lower(0.1)), Verdict::Regressed);
        assert_eq!(judge(&parent, &parent, &lower(0.1)), Verdict::Unchanged);
        // A parent spread wider than the bound leaves a change unresolved.
        assert_eq!(judge(&parent, &slower, &lower(0.01)), Verdict::Unresolved);
    }

    #[test]
    fn reads_metric_and_result_lines() {
        let text = "# fleet_text digest 00ff\n\
                    fleet_text photos_per_s 10.5 photos/s n=4\n\
                    {\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n\
                    fleet_text photos_per_s 11 photos/s n=4\n";
        let runs = read_runs(text).unwrap();
        assert_eq!(runs.incorrect, 1);
        let key = ("fleet_text".to_string(), "photos_per_s".to_string());
        assert_eq!(runs.values[&key], vec![10.5, 11.0]);
        assert!(read_runs("not a metric\n").is_err());
    }
}
