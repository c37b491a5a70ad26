//! One benchmark run of one workload: set-up, a timed closed loop, the
//! untimed checks, and the report.

use crate::json;
use crate::stats::{mean, median, quantile};
use crate::trace::{Profile, Role, Tracer};
use crate::workloads::{self, Counters, Served, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// How set-up is measured: this many times per run, reporting the median.
const SETUP_REPS: usize = 3;

/// In a traced run, the share of `--seconds` spent serving untraced, to
/// measure what tracing costs; the rest is traced.
const OVERHEAD_SHARE: f64 = 1.0 / 3.0;

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Threads for every library call.
    pub threads: usize,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Where to write the traced run's spans as JSON lines.
    pub spans: Option<PathBuf>,
    /// Smoke-test input sizes.
    pub quick: bool,
}

/// What a run prints.
#[derive(Debug)]
pub struct Report {
    /// Metric lines (`<workload> <metric> <value> <unit> n=<samples>`) and
    /// `#` comment lines, in print order.
    pub lines: Vec<String>,
    /// The result object, printed last as one JSON line.
    pub result: String,
    /// Whether every answer passed every check.
    pub correct: bool,
}

/// One timed phase of the closed loop.
#[derive(Debug, Default)]
struct Phase {
    latencies_s: Vec<f64>,
    photos: u64,
    attempted: u64,
    failed: u64,
    /// Successful requests per distinct request.
    served_per_slot: Vec<u64>,
    /// Fastest successful repeat of each distinct request, in seconds.
    fastest_s: Vec<f64>,
    /// Photos each distinct request answers.
    photos_per_slot: Vec<u64>,
    /// Work counts of the first `distinct` requests of the phase.
    counters: Counters,
    /// Seconds spent in the untimed per-request checks.
    check_s: f64,
    /// Peak resident memory once the first pass was served, in MiB.
    first_pass_rss: Option<f64>,
}

impl Phase {
    /// Photos per second over every request served.
    fn photos_per_s(&self) -> f64 {
        self.photos as f64 / self.latencies_s.iter().sum::<f64>()
    }

    /// Photos per second of one pass at each request's fastest repeat.
    fn best_photos_per_s(&self) -> f64 {
        self.photos_per_slot.iter().sum::<u64>() as f64 / self.fastest_s.iter().sum::<f64>()
    }
}

/// The first answer to each distinct request, with its digest; every later
/// answer to the same request must have the same digest.
type Firsts = Vec<Option<(u64, Served)>>;

/// Serves requests `0, 1, …`, timing each one, until `seconds` have passed
/// and the pass in progress is complete: every phase serves whole passes
/// over the distinct requests, so every phase serves the same mix.
fn timed_phase(
    name: &str,
    w: &mut dyn Workload,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    firsts: &mut Firsts,
) -> Phase {
    let distinct = w.distinct();
    let mut phase = Phase {
        served_per_slot: vec![0; distinct],
        fastest_s: vec![f64::INFINITY; distinct],
        photos_per_slot: vec![0; distinct],
        ..Phase::default()
    };
    let start = Instant::now();
    let mut k = 0usize;
    while !k.is_multiple_of(distinct) || k == 0 || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let result = match tracer.as_deref_mut() {
            Some(tracer) => {
                let clock = tracer.clock();
                let begin = clock.now();
                let mut leaves = Vec::new();
                let result = w.traced(k, clock, &mut leaves);
                tracer.record(k, begin, leaves);
                result
            }
            None => w.request(k),
        };
        let latency = t0.elapsed().as_secs_f64();
        phase.attempted += 1;
        let slot = k % distinct;
        let t1 = Instant::now();
        let checked = result.and_then(|served| w.after(k, &served).map(|()| served));
        phase.check_s += t1.elapsed().as_secs_f64();
        let outcome = checked.and_then(|served| {
            let digest = served.digest();
            match &firsts[slot] {
                Some((first, _)) if *first != digest => {
                    Err("answer differs from the first answer to the same request".to_string())
                }
                Some(_) => Ok(served),
                None => {
                    firsts[slot] = Some((digest, served.clone()));
                    Ok(served)
                }
            }
        });
        match outcome {
            Ok(served) => {
                phase.latencies_s.push(latency);
                phase.photos += served.photos;
                if k < distinct {
                    phase.counters.add(&served.counters);
                }
                phase.served_per_slot[slot] += 1;
                phase.fastest_s[slot] = phase.fastest_s[slot].min(latency);
                phase.photos_per_slot[slot] = served.photos;
            }
            Err(e) => {
                phase.failed += 1;
                eprintln!("{name}: request {k} failed: {e}");
            }
        }
        k += 1;
        if k == distinct {
            phase.first_pass_rss = peak_rss_mib().ok();
        }
    }
    phase
}

/// `VmHWM` (peak resident set) of this process, in MiB.
///
/// Read once set-up and the first pass are done: later passes repeat the
/// same requests, and the peak they add is allocator fragmentation that
/// grows with run length, so a faster build serving more requests in the
/// same time would read as using more memory.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Collects metric lines and the result object's `metrics` member.
struct Metrics {
    workload: String,
    lines: Vec<String>,
    json: Vec<String>,
}

impl Metrics {
    /// A metric that goes into the result object and gets a line.
    fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.line(name, value, unit, samples);
        self.json.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        ));
    }

    /// A metric that only gets a line.
    fn line(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.lines.push(format!(
            "{} {name} {value} {unit} n={samples}",
            self.workload
        ));
    }

    fn comment(&mut self, text: String) {
        self.lines.push(format!("# {} {text}", self.workload));
    }
}

/// Runs one workload and reports it.
pub fn run(opts: &Options) -> Result<Report, String> {
    let previous = phocus::Parallelism::with_threads(opts.threads).install_global();
    let report = run_installed(opts);
    previous.install_global();
    report
}

fn run_installed(opts: &Options) -> Result<Report, String> {
    let t0 = Instant::now();
    let mut w = workloads::build(&opts.workload, opts.seed, opts.quick, opts.threads)?;
    let generate_s = t0.elapsed().as_secs_f64();
    let distinct = w.distinct();
    let mut m = Metrics {
        workload: opts.workload.clone(),
        lines: Vec::new(),
        json: Vec::new(),
    };
    m.comment(format!(
        "seed={} threads={} seconds={} quick={} trace={}",
        opts.seed, opts.threads, opts.seconds, opts.quick, opts.trace
    ));

    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        w.setup()?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut firsts: Firsts = vec![None; distinct];
    let mut phases = Vec::new();
    let mut tracer = Tracer::default();
    if opts.trace {
        let name = &opts.workload;
        let untraced_s = opts.seconds * OVERHEAD_SHARE;
        phases.push(timed_phase(name, w.as_mut(), untraced_s, None, &mut firsts));
        w.reset()?;
        let traced_s = opts.seconds - untraced_s;
        phases.push(timed_phase(
            name,
            w.as_mut(),
            traced_s,
            Some(&mut tracer),
            &mut firsts,
        ));
    } else {
        phases.push(timed_phase(
            &opts.workload,
            w.as_mut(),
            opts.seconds,
            None,
            &mut firsts,
        ));
    }

    if phases
        .iter()
        .any(|p| p.fastest_s.iter().any(|s| !s.is_finite()))
    {
        return Err(format!(
            "{}: a distinct request never succeeded",
            opts.workload
        ));
    }
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = phases.iter().map(|p| p.failed).sum();
    let firsts: Vec<Served> = firsts
        .into_iter()
        .map(|f| f.expect("every distinct request succeeded").1)
        .collect();
    let t0 = Instant::now();
    let verification = w.verify(&firsts);
    let verify_s = t0.elapsed().as_secs_f64() + phases.iter().map(|p| p.check_s).sum::<f64>();
    m.comment(format!("generate_s={generate_s:.3} verify_s={verify_s:.3}"));
    for (j, why) in &verification.failed {
        eprintln!("{}: check failed on request {j}: {why}", opts.workload);
        failed += phases.iter().map(|p| p.served_per_slot[*j]).sum::<u64>();
    }
    let digest = {
        let mut bytes = Vec::new();
        for s in &firsts {
            bytes.extend_from_slice(&s.digest().to_le_bytes());
        }
        par_core::fnv1a64(&bytes)
    };
    m.comment(format!("digest {digest:016x}"));
    if verification.oracle_calls > 0 {
        m.line(
            "layer.algo.celf.busy_s",
            verification.oracle_s,
            "s",
            verification.oracle_calls as usize,
        );
    }

    let main = phases.last().expect("a run has a timed phase");
    if opts.trace {
        let profile = tracer.profile();
        report_layers(&mut m, w.as_ref(), &profile, main, &phases[0], distinct);
        if let Some(path) = &opts.spans {
            write_spans(&tracer, path)?;
        }
    } else {
        let fastest_ms: Vec<f64> = main.fastest_s.iter().map(|s| s * 1e3).collect();
        m.metric("setup_s", median(&setup_s), "s", setup_s.len());
        m.metric(
            "best_photos_per_s",
            main.best_photos_per_s(),
            "photos/s",
            distinct,
        );
        m.metric("best_latency_p50_ms", median(&fastest_ms), "ms", distinct);
        let rss = main.first_pass_rss.ok_or("no VmHWM in /proc/self/status")?;
        m.metric("peak_rss_mb", rss, "MiB", 1);
        match mean(&verification.quality) {
            Some(q) => m.metric("quality_ratio", q, "ratio", verification.quality.len()),
            None => return Err(format!("{}: no answer was checked", opts.workload)),
        }
        let n = main.latencies_s.len();
        let ms: Vec<f64> = main.latencies_s.iter().map(|s| s * 1e3).collect();
        m.line("photos_per_s", main.photos_per_s(), "photos/s", n);
        m.line("latency_p50_ms", quantile(&ms, 1, 2), "ms", n);
        m.line("latency_p90_ms", quantile(&ms, 9, 10), "ms", n);
    }
    m.line(
        "error_rate",
        failed as f64 / attempted as f64,
        "fraction",
        attempted as usize,
    );

    let correct = failed == 0;
    let mut result = String::new();
    let _ = write!(
        result,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        m.json.join(", ")
    );
    Ok(Report {
        lines: m.lines,
        result,
        correct,
    })
}

/// The per-layer report of a traced run: the role metrics of
/// `BENCHMARK.json`, then every named layer on its own lines.
fn report_layers(
    m: &mut Metrics,
    w: &dyn Workload,
    profile: &Profile,
    traced: &Phase,
    untraced: &Phase,
    distinct: usize,
) {
    let requests = profile.requests;
    let per_request_ms = |s: f64| s * 1e3 / requests as f64;
    for (role, name) in [
        (Role::Load, "load"),
        (Role::Prepare, "prepare"),
        (Role::Solve, "solve"),
    ] {
        let wall = profile.role_wall_s(role);
        m.metric(
            &format!("{name}_share"),
            wall / profile.wall_s,
            "ratio",
            requests,
        );
        m.metric(&format!("{name}_ms"), per_request_ms(wall), "ms", requests);
    }
    m.metric(
        "unattributed_share",
        profile.unattributed_s / profile.wall_s,
        "ratio",
        requests,
    );
    let overhead = 1.0 - traced.best_photos_per_s() / untraced.best_photos_per_s();
    m.metric(
        "trace_overhead",
        overhead,
        "ratio",
        untraced.latencies_s.len(),
    );

    let c = &traced.counters;
    let per = |x: u64| x as f64 / distinct as f64;
    m.metric("gain_evals", per(c.gain_evals), "count", distinct);
    m.metric("sim_ops", per(c.sim_ops), "count", distinct);
    m.metric("pq_pops", per(c.pq_pops), "count", distinct);
    m.metric(
        "lazy_accept_ratio",
        c.lazy_accepts as f64 / c.pq_pops.max(1) as f64,
        "ratio",
        distinct,
    );
    m.metric("stored_pairs", per(c.stored_pairs), "count", distinct);
    m.metric("shards", per(c.shards), "count", distinct);

    for l in &profile.layers {
        let calls = l.calls as usize;
        m.line(&format!("layer.{}.busy_s", l.layer), l.busy_s, "s", calls);
        m.line(
            &format!("layer.{}.share", l.layer),
            l.wall_s / profile.wall_s,
            "ratio",
            calls,
        );
    }
    m.line(
        "layer.bench.unattributed.share",
        profile.unattributed_s / profile.wall_s,
        "ratio",
        requests,
    );
    for (name, value, unit) in w.extras(c, distinct as f64) {
        m.line(&format!("extra.{name}"), value, unit, distinct);
    }
}

fn write_spans(tracer: &Tracer, path: &PathBuf) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    tracer
        .write_jsonl(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))
}
