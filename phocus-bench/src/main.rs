//! Command line of the benchmark; see `README.md` beside this crate.

use phocus_bench::json::{self, Value};
use phocus_bench::run::{self, Options};
use phocus_bench::{compare, workloads};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  phocus-bench --workload <name|all> [--seed N] [--seconds S] [--threads T]
               [--trace 0|1] [--spans FILE] [--quick]
  phocus-bench compare PARENT CHANGE [--benchmark BENCHMARK.json]";

/// Exit code of a usage or set-up error (no result is printed).
const EXIT_ERROR: u8 = 2;
/// Exit code of a run in which some answer failed a check.
const EXIT_INCORRECT: u8 = 1;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..])
    } else {
        parse(&args).and_then(|opts| {
            if opts.workload == "all" {
                run_all(&opts)
            } else {
                run_one(&opts)
            }
        })
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("phocus-bench: {e}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}

fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("invalid value for {flag}: {text}\n{USAGE}"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut opts = Options {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        threads: cores.min(2),
        trace: false,
        spans: None,
        quick: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--quick" => {
                opts.quick = true;
                i += 1;
                continue;
            }
            "--workload" => opts.workload = value(args, i, flag)?.to_string(),
            "--seed" => opts.seed = number(value(args, i, flag)?, flag)?,
            "--seconds" => opts.seconds = number(value(args, i, flag)?, flag)?,
            "--threads" => opts.threads = number(value(args, i, flag)?, flag)?,
            "--trace" => {
                opts.trace = match value(args, i, flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}\n{USAGE}")),
                }
            }
            "--spans" => opts.spans = Some(PathBuf::from(value(args, i, flag)?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
        i += 2;
    }
    if opts.workload.is_empty() {
        return Err(format!("missing --workload\n{USAGE}"));
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number\n{USAGE}"));
    }
    if opts.threads == 0 {
        return Err(format!("--threads must be at least 1\n{USAGE}"));
    }
    // Never more workers than cores: the benchmark measures the machine it
    // has, not a time-sliced one.
    opts.threads = opts.threads.min(cores);
    Ok(opts)
}

fn run_one(opts: &Options) -> Result<u8, String> {
    let report = run::run(opts)?;
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.result);
    Ok(if report.correct { 0 } else { EXIT_INCORRECT })
}

/// Runs every workload in a child process of its own, so each one's peak
/// memory is its own, then prints one result whose metrics are named
/// `<workload>.<metric>`.
fn run_all(opts: &Options) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for name in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--threads", &opts.threads.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if let Some(spans) = &opts.spans {
            let mut path = spans.clone().into_os_string();
            path.push(format!(".{name}"));
            cmd.arg("--spans").arg(path);
        }
        if opts.quick {
            cmd.arg("--quick");
        }
        let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().filter(|l| l.starts_with('{'));
        let Some(result) = result.map(json::parse).transpose()? else {
            return Err(format!(
                "{name} printed no result (exit status {})",
                out.status
            ));
        };
        for line in lines {
            println!("{line}");
        }
        correct &= result.get("correct") == Some(&Value::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        for (metric, m) in result
            .get("metrics")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            let (Some(v), Some(unit)) = (
                m.get("value").and_then(Value::as_f64),
                m.get("unit").and_then(Value::as_str),
            ) else {
                return Err(format!("{name}: malformed metric {metric}"));
            };
            metrics.push(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json::quote(&format!("{name}.{metric}")),
                json::quote(unit)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(if correct { 0 } else { EXIT_INCORRECT })
}

fn run_compare(args: &[String]) -> Result<u8, String> {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--benchmark" {
            benchmark = PathBuf::from(value(args, i, "--benchmark")?);
            i += 2;
        } else {
            files.push(&args[i]);
            i += 1;
        }
    }
    let [parent, change] = files[..] else {
        return Err(format!("compare takes two files\n{USAGE}"));
    };
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (lines, bad) = compare::compare(
        &read(parent.as_ref())?,
        &read(change.as_ref())?,
        &read(&benchmark)?,
    )?;
    for line in lines {
        println!("{line}");
    }
    Ok(if bad { EXIT_INCORRECT } else { 0 })
}
