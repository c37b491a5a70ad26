//! The PHOcus command-line interface.
//!
//! ```text
//! phocus demo                          # the paper's Figure 1 worked example
//! phocus table2 [--full]               # Table 2 dataset statistics
//! phocus solve --dataset p1k --budget-mb 10 [--tau 0.6] [--ns] [--seed 42]
//! phocus suite --dataset ec-fashion --budget-mb 100 [--seed 42]
//! phocus serve-batch --list tenants.txt --budget-frac 0.25 [--out-dir sols/]
//! phocus epochs --dataset p1k --budget-mb 10 --epochs 8 --churn 0.01 [--check]
//! ```
//!
//! Every failure exits with a diagnostic on stderr and a documented nonzero
//! status — the binary never panics on bad input:
//!
//! * `2` — usage error (unknown command/dataset, malformed flag value);
//! * `3` — invalid input data (parse error, model violation, bad parameter);
//! * `4` — I/O failure (unreadable dataset file, unwritable output);
//! * `5` — partial failure (`serve-batch`: one or more tenants failed while
//!   the batch itself completed — each failed tenant gets a `fail` status
//!   line; healthy tenants still solve and their solutions are written).

use par_core::fixtures::figure1_instance;
use par_datasets::{
    generate_ecommerce, generate_openimages, EcConfig, EcDomain, OpenImagesConfig, PublicScale,
    Universe,
};
use phocus::{
    fractional_budget, render_report, representation::RepresentationConfig,
    representation::Sparsification, run_suite, ActionLadder, ArchiveSession, Catalog,
    CatalogBuilder, EpochSolve, FleetEngine, FleetEngineConfig, FleetTenant, PackedTenant,
    Parallelism, Phocus, PhocusConfig, PhocusError, SuiteConfig, TenantOutcome,
};
use std::process::ExitCode;

/// A CLI failure: either a usage mistake or a typed pipeline error.
enum CliError {
    /// Bad invocation — unknown command/dataset or malformed flag value.
    Usage(String),
    /// A typed error from the PHOcus pipeline (parse, model, I/O, …).
    Pipeline(PhocusError),
    /// A batch run completed but some of its units failed (exit code 5):
    /// tenants for `serve-batch`, epochs for `epochs`.
    PartialFailure {
        /// Units that failed to load, resolve, or solve.
        failed: usize,
        /// Units in the run.
        total: usize,
        /// What a unit is ("tenants", "epochs") — for the diagnostic line.
        what: &'static str,
    },
}

impl From<PhocusError> for CliError {
    fn from(e: PhocusError) -> Self {
        CliError::Pipeline(e)
    }
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    /// Documented exit codes: 2 usage, 3 invalid data, 4 I/O, 5 partial
    /// batch failure.
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Pipeline(PhocusError::Io { .. }) => ExitCode::from(4),
            CliError::Pipeline(_) => ExitCode::from(3),
            CliError::PartialFailure { .. } => ExitCode::from(5),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
            CliError::PartialFailure {
                failed,
                total,
                what,
            } => {
                write!(f, "{failed} of {total} {what} failed")
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "demo" => cmd_demo(),
        "table2" => cmd_table2(rest),
        "solve" => with_threads(rest, cmd_solve),
        "suite" => cmd_suite(rest),
        "compress" => with_threads(rest, cmd_compress),
        "export" => cmd_export(rest),
        "plan" => cmd_plan(rest),
        "serve-batch" => cmd_serve_batch(rest),
        "epochs" => cmd_epochs(rest),
        "pack" => cmd_pack(rest),
        "catalog" => cmd_catalog(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown command `{other}`\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

const USAGE: &str = "\
PHOcus — efficiently archiving photos under storage constraints

USAGE:
  phocus demo
  phocus table2 [--full] [--seed N]
  phocus solve --dataset <NAME> --budget-mb <MB> [--tau T] [--ns] [--seed N] [--threads N]
               [--no-sharding] [--out FILE]
  phocus suite --dataset <NAME> --budget-mb <MB> [--tau T] [--seed N]
  phocus compress --dataset <NAME> --budget-mb <MB> [--seed N] [--threads N]
               [--ladder SPEC|none|paper] [--no-sharding] [--frontier N]
               [--out FILE]
  phocus export --dataset <NAME> --out <FILE> [--seed N]
  phocus plan --dataset <NAME> --target <FRACTION> [--seed N]
  phocus serve-batch --list <FILE|-> [--budget-frac F | --budget-mb MB]
               [--tau T] [--ns] [--threads N] [--fresh-arenas] [--out-dir DIR]
  phocus serve-batch --catalog <DIR> [--threads N] [--fresh-arenas]
               [--out-dir DIR]
  phocus epochs --dataset <NAME> --budget-mb <MB> [--trace FILE]
               [--epochs N] [--churn F] [--tau T] [--ns] [--seed N]
               [--threads N] [--check] [--export-trace FILE]
  phocus pack --dataset <NAME> --budget-mb <MB> --out <FILE>
               [--tau T] [--ns] [--seed N]
  phocus pack --check <FILE>
  phocus catalog build --list <FILE|-> --out-dir <DIR>
               [--budget-frac F | --budget-mb MB] [--tau T] [--ns] [--seed N]
  phocus catalog ls <DIR>

DATASETS: p1k p5k p10k p50k p100k ec-fashion ec-electronics ec-home file:<path>
  (EC datasets use the scaled-down generator; pass --paper-scale for full size)

SERVE-BATCH: --list names a file with one tenant universe path per line
  (`-` reads the list from stdin; blank lines and `#` comments are skipped).
  Each tenant gets --budget-frac of its own archive (default 0.25) unless
  --budget-mb fixes an absolute budget. One status line per tenant:
  `ok <name> ...` or `fail <path>: <reason>`. A malformed tenant fails that
  tenant only; the rest of the batch still solves. --out-dir writes one
  retained-set TSV per solved tenant.

COMPRESS: multi-action archival — keep, recompress, or delete each photo.
  --ladder lists renditions as quality:size_fraction pairs (e.g.
  `0.85:0.35,0.55:0.10`); `none` is the degenerate delete-only ladder
  (reproduces `solve`'s remove-only model exactly), `paper` is the
  recompression paper's measured ladder; the default is a built-in
  two-rung ladder. Both solutions are scored on the ε-free objective,
  directly comparable. --frontier N sweeps N budgets up to --budget-mb and
  prints delete-only vs multi-action frontier curves. --out writes the
  retained actions as a TSV (id, parent, action, cost, name) in selection
  order; --no-sharding and --threads have `solve` semantics (solutions are
  bit-identical either way).

PACK / CATALOG: `pack` represents one dataset and writes it as a
  `phocus-pack` image — a checksummed binary section file that later loads
  with no text parsing, no representation, and no union-find
  (`pack --check` verifies an image and prints its shape). `catalog build`
  packs every tenant of a serve-batch list into --out-dir plus a
  memory-resident index; `serve-batch --catalog` then serves straight from
  the packs, skipping the whole cold-start pipeline. `catalog ls` prints
  the resident index.

EPOCHS: keeps one archive session resident and replays a churn trace —
  either a `# phocus-trace v1` file (--trace) or one generated on the fly
  from --epochs rounds at --churn total membership turnover per round
  (half removals, half arrivals). One status line per
  epoch: `ok epoch=K ...` or `fail epoch=K: <reason>`. A delta that does
  not resolve or apply fails that epoch only; the session keeps its warm
  state and later epochs still solve. --check re-solves every epoch from
  scratch and verifies the incremental solution is bit-identical.
  --export-trace writes the (generated) trace for later replay.

EXIT CODES: 0 success, 2 usage error, 3 invalid input data, 4 I/O failure,
  5 partial failure (serve-batch / epochs: some tenants or epochs failed,
  the run itself completed)";

fn flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

fn opt(rest: &[String], name: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1).cloned())
}

fn parse<T: std::str::FromStr>(rest: &[String], name: &str, default: T) -> Result<T, CliError> {
    match opt(rest, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("invalid value for {name}: {v}"))),
    }
}

/// Reads `--budget-mb` (megabytes of 10⁶ bytes) as a byte budget. A
/// negative, NaN or infinite value, or one whose byte count does not fit a
/// `u64`, is a usage error naming the flag; zero is valid.
fn budget_bytes(rest: &[String], default_mb: f64) -> Result<u64, CliError> {
    let mb: f64 = parse(rest, "--budget-mb", default_mb)?;
    let bytes = mb * 1e6;
    // `u64::MAX as f64` rounds up to 2⁶⁴, so the half-open range admits
    // only values the cast below cannot saturate; NaN is in no range.
    if !(0.0..u64::MAX as f64).contains(&bytes) {
        return Err(CliError::usage(format!(
            "--budget-mb must be a finite, non-negative number of megabytes that fits u64 bytes, got {mb}"
        )));
    }
    Ok(bytes as u64)
}

/// Reads `--tau`, the sparsification threshold. Anything but a finite
/// number in `[0, 1]` is a usage error naming the flag.
fn tau_threshold(rest: &[String]) -> Result<f64, CliError> {
    let tau: f64 = parse(rest, "--tau", 0.6)?;
    // NaN is in no range.
    if !(0.0..=1.0).contains(&tau) {
        return Err(CliError::usage(format!(
            "--tau must be a finite number in [0, 1], got {tau}"
        )));
    }
    Ok(tau)
}

fn read_file(path: &str) -> Result<String, PhocusError> {
    std::fs::read_to_string(path).map_err(|e| PhocusError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

fn write_file(path: &str, text: &str) -> Result<(), PhocusError> {
    std::fs::write(path, text).map_err(|e| PhocusError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

fn read_bytes(path: &str) -> Result<Vec<u8>, PhocusError> {
    std::fs::read(path).map_err(|e| PhocusError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

fn write_bytes(path: &str, bytes: &[u8]) -> Result<(), PhocusError> {
    std::fs::write(path, bytes).map_err(|e| PhocusError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

/// The shared `--tau` / `--seed` / `--ns` representation flags, with the
/// same defaults everywhere (τ = 0.6, seed = 42, LSH recall target 0.95).
fn repr_from_flags(rest: &[String]) -> Result<RepresentationConfig, CliError> {
    let tau = tau_threshold(rest)?;
    let seed: u64 = parse(rest, "--seed", 42)?;
    Ok(if flag(rest, "--ns") {
        RepresentationConfig::phocus_ns()
    } else {
        RepresentationConfig {
            sparsification: Sparsification::Lsh {
                tau,
                target_recall: 0.95,
                seed,
            },
            ..Default::default()
        }
    })
}

/// Reads a tenant list: one universe path per line, `-` for stdin; blank
/// lines and `#` comments are skipped. An empty list is a usage error.
fn read_tenant_list(list: &str) -> Result<Vec<String>, CliError> {
    let text = if list == "-" {
        use std::io::Read;
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| PhocusError::Io {
                path: "<stdin>".into(),
                message: e.to_string(),
            })?;
        s
    } else {
        read_file(list)?
    };
    let paths: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    if paths.is_empty() {
        return Err(CliError::usage("tenant list is empty"));
    }
    Ok(paths)
}

fn load_dataset(name: &str, seed: u64, paper_scale: bool) -> Result<Universe, CliError> {
    if let Some(path) = name.strip_prefix("file:") {
        let text = read_file(path)?;
        return par_datasets::from_text(&text)
            .map_err(|e| CliError::Pipeline(PhocusError::Dataset(e)));
    }
    let scale = |s: PublicScale| generate_openimages(&s.config(seed));
    let ec = |d: EcDomain| {
        generate_ecommerce(&if paper_scale {
            EcConfig::paper(d, seed)
        } else {
            EcConfig::small(d, seed)
        })
    };
    Ok(match name {
        "p1k" => scale(PublicScale::P1K),
        "p5k" => scale(PublicScale::P5K),
        "p10k" => scale(PublicScale::P10K),
        "p50k" => scale(PublicScale::P50K),
        "p100k" => scale(PublicScale::P100K),
        "ec-fashion" => ec(EcDomain::Fashion),
        "ec-electronics" => ec(EcDomain::Electronics),
        "ec-home" => ec(EcDomain::HomeGarden),
        "tiny" => generate_openimages(&OpenImagesConfig {
            name: "tiny".into(),
            photos: 200,
            target_subsets: 40,
            seed,
            ..Default::default()
        }),
        other => return Err(CliError::usage(format!("unknown dataset `{other}`"))),
    })
}

fn cmd_demo() -> Result<(), CliError> {
    println!("Figure 1 worked example (7 photos, 4 pre-defined subsets)\n");
    let inst = figure1_instance(4 * par_core::fixtures::MB);
    let report = Phocus::default().solve_instance(&inst, std::time::Duration::ZERO);
    print!("{}", render_report(&inst, &report));
    println!("\nselection order:");
    for (step, p) in report.selected.iter().enumerate() {
        let photo = inst.photo(*p);
        println!(
            "  step {}: p{} ({:.1} MB)",
            step + 1,
            p.0 + 1,
            photo.cost as f64 / 1e6
        );
    }
    Ok(())
}

fn cmd_table2(rest: &[String]) -> Result<(), CliError> {
    let full = flag(rest, "--full");
    let seed = parse(rest, "--seed", 42u64)?;
    let rows = par_datasets::table2_rows(full, seed);
    println!(
        "{:<20} {:>12} {:>12} {:>14} {:>14}",
        "Dataset", "paper #P", "paper #Q", "measured #P", "measured #Q"
    );
    for r in rows {
        println!(
            "{:<20} {:>12} {:>12} {:>14} {:>14}",
            r.name, r.paper_photos, r.paper_subsets, r.measured_photos, r.measured_subsets
        );
    }
    if !full {
        println!("\n(scaled-down generation; pass --full for paper-sized datasets)");
    }
    Ok(())
}

/// Runs `cmd` with its `--threads` parallelism installed for the whole
/// command, so every stage of it runs at that thread count.
fn with_threads(
    rest: &[String],
    cmd: fn(&[String]) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let threads: usize = parse(rest, "--threads", 0)?;
    let prev = Parallelism::with_threads(threads).install_global();
    let result = cmd(rest);
    prev.install_global();
    result
}

fn cmd_solve(rest: &[String]) -> Result<(), CliError> {
    let dataset = opt(rest, "--dataset").ok_or_else(|| CliError::usage("missing --dataset"))?;
    let budget = budget_bytes(rest, 10.0)?;
    let representation = repr_from_flags(rest)?;
    let seed: u64 = parse(rest, "--seed", 42)?;
    let universe = load_dataset(&dataset, seed, flag(rest, "--paper-scale"))?;
    let solver = Phocus::new(PhocusConfig {
        representation: representation.clone(),
        certify_sparsification: !flag(rest, "--ns"),
        parallelism: Parallelism::with_threads(parse(rest, "--threads", 0usize)?),
        sharding: !flag(rest, "--no-sharding"),
    });
    println!(
        "dataset {} — {} photos, {} subsets, archive {:.1} MB",
        universe.name,
        universe.num_photos(),
        universe.num_subsets(),
        universe.total_cost() as f64 / 1e6
    );
    // Represent once, under the command's parallelism, for the solve, the
    // report and `--out` alike.
    let t0 = std::time::Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported timing field only
    let inst = phocus::represent(&universe, budget, &representation)?;
    let report = solver.solve_instance(&inst, t0.elapsed());
    print!("{}", render_report(&inst, &report));
    if let Some(out) = opt(rest, "--out") {
        // One retained photo per line: id, byte cost, name.
        let mut text = String::new();
        for &p in &report.selected {
            let photo = inst.photo(p);
            text.push_str(&format!("{}\t{}\t{}\n", p.0, photo.cost, photo.name));
        }
        write_file(&out, &text)?;
        println!("wrote retained set to {out}");
    }
    Ok(())
}

fn cmd_compress(rest: &[String]) -> Result<(), CliError> {
    let dataset = opt(rest, "--dataset").ok_or_else(|| CliError::usage("missing --dataset"))?;
    let budget = budget_bytes(rest, 2.0)?;
    let seed: u64 = parse(rest, "--seed", 42)?;
    let ladder = match opt(rest, "--ladder") {
        None => ActionLadder::standard(),
        Some(spec) => ActionLadder::parse(&spec).map_err(CliError::Pipeline)?,
    };
    let sharding = !flag(rest, "--no-sharding");
    let universe = load_dataset(&dataset, seed, flag(rest, "--paper-scale"))?;
    let cfg = RepresentationConfig::default();
    let rungs: Vec<String> = ladder
        .levels()
        .iter()
        .map(|l| format!("{}:{}", l.quality, l.size_fraction))
        .collect();
    println!(
        "dataset {} — {} photos ({:.1} MB), budget {:.1} MB, ladder [{}]",
        universe.name,
        universe.num_photos(),
        universe.total_cost() as f64 / 1e6,
        budget as f64 / 1e6,
        rungs.join(", ")
    );
    // Two multi-action solves on the same ε-free objective: the degenerate
    // delete-only ladder *is* remove-only archival (bit for bit), so the
    // comparison needs no separate code path.
    let remove = phocus::solve_multi_action(
        &universe,
        budget,
        &ActionLadder::delete_only(),
        &cfg,
        sharding,
    )?;
    let ma = phocus::solve_multi_action(&universe, budget, &ladder, &cfg, sharding)?;
    println!("remove-only quality:        {:.2}", remove.score);
    // A zero remove-only score (zero budget, empty demand) has no
    // meaningful percentage — omit it instead of printing NaN/inf.
    let pct = if remove.score > 0.0 {
        format!(" ({:+.1}%)", 100.0 * (ma.score / remove.score - 1.0))
    } else {
        String::new()
    };
    println!("compression-aware quality:  {:.2}{pct}", ma.score);
    println!(
        "retained: {} full-quality photos + {} compressed renditions",
        ma.kept_original, ma.kept_compressed
    );
    if let Some(points) = opt(rest, "--frontier") {
        let points: usize = points
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| CliError::usage(format!("invalid value for --frontier: {points}")))?;
        let budgets: Vec<u64> = (1..=points as u64)
            .map(|i| (budget * i / points as u64).max(1))
            .collect();
        let frontier = phocus::multi_action_frontier(&universe, &budgets, &ladder, &cfg)?;
        println!("frontier\tbudget_mb\tdelete_only\tmulti_action");
        for p in &frontier {
            println!(
                "frontier\t{:.2}\t{:.4}\t{:.4}",
                p.budget as f64 / 1e6,
                p.delete_only,
                p.multi_action
            );
        }
    }
    if let Some(out) = opt(rest, "--out") {
        // One retained action per line, in transcript order:
        // id, parent id, action, byte cost, name.
        let mut text = String::new();
        for &p in &ma.selected {
            let photo = ma.instance.photo(p);
            let action = match ma.map.level[p.index()] {
                None => "keep".to_string(),
                Some(k) => format!("recompress@{k}"),
            };
            text.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                p.0,
                ma.map.parent[p.index()],
                action,
                photo.cost,
                photo.name
            ));
        }
        write_file(&out, &text)?;
        println!("wrote retained actions to {out}");
    }
    Ok(())
}

fn cmd_export(rest: &[String]) -> Result<(), CliError> {
    let dataset = opt(rest, "--dataset").ok_or_else(|| CliError::usage("missing --dataset"))?;
    let out = opt(rest, "--out").ok_or_else(|| CliError::usage("missing --out"))?;
    let seed: u64 = parse(rest, "--seed", 42)?;
    let universe = load_dataset(&dataset, seed, flag(rest, "--paper-scale"))?;
    write_file(&out, &par_datasets::to_text(&universe))?;
    println!(
        "wrote {} ({} photos, {} subsets)",
        out,
        universe.num_photos(),
        universe.num_subsets()
    );
    Ok(())
}

fn cmd_plan(rest: &[String]) -> Result<(), CliError> {
    let dataset = opt(rest, "--dataset").ok_or_else(|| CliError::usage("missing --dataset"))?;
    let target: f64 = parse(rest, "--target", 0.9)?;
    let seed: u64 = parse(rest, "--seed", 42)?;
    let universe = load_dataset(&dataset, seed, flag(rest, "--paper-scale"))?;
    let tolerance = (universe.total_cost() / 200).max(1);
    let plan = phocus::minimal_budget(
        &universe,
        target,
        &RepresentationConfig::default(),
        tolerance,
    )?;
    println!(
        "dataset {} — archive {:.1} MB",
        universe.name,
        universe.total_cost() as f64 / 1e6
    );
    println!(
        "to keep {:.0}% of quality you need ≈ {:.2} MB ({:.1}% of the archive); \
         achieved {:.1}% there ({} solver probes)",
        100.0 * target,
        plan.budget as f64 / 1e6,
        100.0 * plan.budget_fraction,
        100.0 * plan.achieved_fraction,
        plan.probes
    );
    Ok(())
}

/// `serve-batch`: stream tenant universe files in, solutions out, one status
/// line and one exit status per tenant. A tenant that fails to load or solve
/// gets a `fail` line; the batch continues and exits 5 if any tenant failed.
fn cmd_serve_batch(rest: &[String]) -> Result<(), CliError> {
    if let Some(dir) = opt(rest, "--catalog") {
        return serve_batch_catalog(rest, &dir);
    }
    let list = opt(rest, "--list").ok_or_else(|| {
        CliError::usage("missing --list (file of tenant universe paths, `-` for stdin)")
    })?;
    let budget_frac: f64 = parse(rest, "--budget-frac", 0.25)?;
    let fixed_budget = budget_bytes(rest, 0.0)?;
    let threads: usize = parse(rest, "--threads", 0)?;
    if !(0.0..=1.0).contains(&budget_frac) || budget_frac.is_nan() {
        return Err(CliError::usage(format!(
            "--budget-frac must be in [0, 1], got {budget_frac}"
        )));
    }

    let representation = repr_from_flags(rest)?;
    let paths = read_tenant_list(&list)?;

    // Load every tenant up front; a tenant whose file is unreadable or
    // malformed fails *that tenant*, never the batch.
    let loaded: Vec<(String, Result<FleetTenant, PhocusError>)> = paths
        .into_iter()
        .map(|path| {
            let tenant = read_file(&path).and_then(|text| {
                let universe = par_datasets::from_text(&text).map_err(PhocusError::Dataset)?;
                let budget = if fixed_budget > 0 {
                    fixed_budget
                } else {
                    fractional_budget(&universe, budget_frac)
                };
                Ok(FleetTenant { universe, budget })
            });
            (path, tenant)
        })
        .collect();
    let engine = FleetEngine::new(FleetEngineConfig {
        representation,
        parallelism: Parallelism::with_threads(threads),
        reuse_arenas: !flag(rest, "--fresh-arenas"),
    });
    serve_and_report(&loaded, opt(rest, "--out-dir"), |t| engine.run(t))
}

/// `serve-batch --catalog`: the catalog-resident serving path. Tenants come
/// from pack files — no text parse, no representation, no union-find —
/// budgets and names from the resident index. Reporting, failure isolation,
/// and exit codes are the universe-list path's.
fn serve_batch_catalog(rest: &[String], dir: &str) -> Result<(), CliError> {
    let threads: usize = parse(rest, "--threads", 0)?;
    let catalog = Catalog::open(dir)?;
    if catalog.entries().is_empty() {
        return Err(CliError::usage(format!("catalog {dir} has no tenants")));
    }

    // Load every pack up front; a stale checksum or corrupt pack fails
    // *that tenant*, never the batch — same isolation as the list path.
    let loaded: Vec<(String, Result<PackedTenant, PhocusError>)> = catalog
        .entries()
        .iter()
        .map(|entry| {
            let tenant = catalog.load(entry).map(|packed| PackedTenant {
                name: entry.name.clone(),
                packed,
            });
            (entry.name.clone(), tenant)
        })
        .collect();
    let engine = FleetEngine::new(FleetEngineConfig {
        representation: RepresentationConfig::default(), // unused on the packed path
        parallelism: Parallelism::with_threads(threads),
        reuse_arenas: !flag(rest, "--fresh-arenas"),
    });
    serve_and_report(&loaded, opt(rest, "--out-dir"), |t| engine.run_packed(t))
}

/// Serves the tenants of a batch that loaded, through `serve`, and reports
/// every tenant in input order: an `ok` line per solved tenant (its
/// solution written under `out_dir`), a `fail` line naming the tenant's
/// source for each load or solve failure, then the batch line. Any failure
/// makes the batch a partial failure (exit 5).
fn serve_and_report<T: Clone>(
    loaded: &[(String, Result<T, PhocusError>)],
    out_dir: Option<String>,
    serve: impl FnOnce(&[T]) -> Vec<TenantOutcome>,
) -> Result<(), CliError> {
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| PhocusError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
    }
    let solvable: Vec<T> = loaded
        .iter()
        .filter_map(|(_, t)| t.as_ref().ok())
        .cloned()
        .collect();
    let t0 = std::time::Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported batch throughput line only
    let outcomes = serve(&solvable);
    let batch_secs = t0.elapsed().as_secs_f64();

    let mut failed = 0usize;
    let mut next_outcome = outcomes.into_iter();
    for (i, (source, tenant)) in loaded.iter().enumerate() {
        if let Err(e) = tenant {
            failed += 1;
            println!("fail\t{source}: {e}");
            continue;
        }
        let Some(outcome) = next_outcome.next() else {
            // One engine outcome per loaded tenant, by construction.
            unreachable!("engine returned fewer outcomes than tenants")
        };
        match &outcome.result {
            Err(e) => {
                failed += 1;
                println!("fail\t{source}: {e}");
            }
            Ok(report) => {
                println!(
                    "ok\t{}\tphotos={}\tretained={}\tcost_mb={:.2}\tscore={:.3}\tms={:.1}",
                    outcome.name,
                    outcome.photos,
                    report.selected.len(),
                    report.cost as f64 / 1e6,
                    report.score,
                    outcome.latency.as_secs_f64() * 1e3
                );
                if let Some(dir) = &out_dir {
                    let file = format!(
                        "{dir}/{i:05}_{}.tsv",
                        outcome.name.replace(['/', '\\'], "_")
                    );
                    let mut text = String::new();
                    for &p in &report.selected {
                        text.push_str(&format!("{}\n", p.0));
                    }
                    write_file(&file, &text)?;
                }
            }
        }
    }
    let total = loaded.len();
    println!(
        "batch\ttenants={total}\tok={}\tfailed={failed}\tinst_per_sec={:.2}",
        total - failed,
        (total - failed) as f64 / batch_secs.max(1e-9)
    );
    if failed > 0 {
        return Err(CliError::PartialFailure {
            failed,
            total,
            what: "tenants",
        });
    }
    Ok(())
}

/// `pack`: represent one dataset and persist it as a `phocus-pack` image.
/// `pack --check` loads an existing image — full checksum, bounds, and
/// cross-section validation — and prints its shape without solving.
fn cmd_pack(rest: &[String]) -> Result<(), CliError> {
    if let Some(path) = opt(rest, "--check") {
        let bytes = read_bytes(&path)?;
        let packed = par_core::unpack_instance(&bytes)
            .map_err(|e| CliError::Pipeline(PhocusError::Pack(e)))?;
        println!(
            "ok\t{path}\tphotos={}\tsubsets={}\tbudget_mb={:.2}\tshards={}\tbytes={}",
            packed.instance.num_photos(),
            packed.instance.num_subsets(),
            packed.instance.budget() as f64 / 1e6,
            packed.labels.num_shards(),
            bytes.len()
        );
        return Ok(());
    }
    let dataset = opt(rest, "--dataset").ok_or_else(|| CliError::usage("missing --dataset"))?;
    let out = opt(rest, "--out").ok_or_else(|| CliError::usage("missing --out"))?;
    let budget = budget_bytes(rest, 10.0)?;
    let seed: u64 = parse(rest, "--seed", 42)?;
    let universe = load_dataset(&dataset, seed, flag(rest, "--paper-scale"))?;
    let representation = repr_from_flags(rest)?;
    let inst = phocus::represent(&universe, budget, &representation)?;
    let bytes = par_core::pack_instance(&inst).map_err(PhocusError::from)?;
    write_bytes(&out, &bytes)?;
    println!(
        "wrote\t{out}\tphotos={}\tsubsets={}\tbytes={}",
        inst.num_photos(),
        inst.num_subsets(),
        bytes.len()
    );
    Ok(())
}

/// `catalog build | ls`: build a pack catalog from a tenant list, or print
/// a catalog's resident index.
fn cmd_catalog(rest: &[String]) -> Result<(), CliError> {
    match rest.first().map(String::as_str) {
        Some("build") => cmd_catalog_build(&rest[1..]),
        Some("ls") => cmd_catalog_ls(&rest[1..]),
        _ => Err(CliError::usage("catalog needs a subcommand: build | ls")),
    }
}

/// `catalog build`: represent and pack every tenant of a serve-batch list
/// into a catalog directory. Unlike serving, building is strict — any
/// unreadable or malformed tenant fails the build, because a catalog with
/// silently missing tenants would serve wrong fleets forever after.
fn cmd_catalog_build(rest: &[String]) -> Result<(), CliError> {
    let list = opt(rest, "--list").ok_or_else(|| {
        CliError::usage("missing --list (file of tenant universe paths, `-` for stdin)")
    })?;
    let out_dir =
        opt(rest, "--out-dir").ok_or_else(|| CliError::usage("missing --out-dir"))?;
    let budget_frac: f64 = parse(rest, "--budget-frac", 0.25)?;
    let fixed_budget = budget_bytes(rest, 0.0)?;
    if !(0.0..=1.0).contains(&budget_frac) || budget_frac.is_nan() {
        return Err(CliError::usage(format!(
            "--budget-frac must be in [0, 1], got {budget_frac}"
        )));
    }
    let representation = repr_from_flags(rest)?;

    let paths = read_tenant_list(&list)?;
    let mut builder = CatalogBuilder::create(&out_dir)?;
    for path in &paths {
        let text = read_file(path)?;
        let universe = par_datasets::from_text(&text)
            .map_err(|e| CliError::Pipeline(PhocusError::Dataset(e)))?;
        let budget = if fixed_budget > 0 {
            fixed_budget
        } else {
            fractional_budget(&universe, budget_frac)
        };
        let inst = phocus::represent(&universe, budget, &representation)?;
        let bytes = par_core::pack_instance(&inst).map_err(PhocusError::from)?;
        builder.add_pack(
            &universe.name,
            &bytes,
            inst.num_photos() as u64,
            inst.budget(),
        )?;
        println!(
            "packed\t{}\tphotos={}\tbytes={}",
            universe.name,
            inst.num_photos(),
            bytes.len()
        );
    }
    let catalog = builder.finish()?;
    println!(
        "catalog\t{out_dir}\ttenants={}",
        catalog.entries().len()
    );
    Ok(())
}

/// `catalog ls`: print the resident index, one line per tenant.
fn cmd_catalog_ls(rest: &[String]) -> Result<(), CliError> {
    let dir = rest
        .first()
        .ok_or_else(|| CliError::usage("missing catalog directory"))?;
    let catalog = Catalog::open(dir.as_str())?;
    for e in catalog.entries() {
        println!(
            "tenant\t{}\t{}\t{:016x}\tphotos={}\tbudget_mb={:.2}\tartifact={}",
            e.name,
            e.pack,
            e.checksum,
            e.photos,
            e.budget as f64 / 1e6,
            e.artifact.as_ref().map_or("-", |(f, _)| f.as_str())
        );
    }
    println!("catalog\t{dir}\ttenants={}", catalog.entries().len());
    Ok(())
}

/// `epochs`: one resident [`ArchiveSession`] replaying a churn trace, one
/// status line per epoch. A delta that does not resolve or apply fails that
/// epoch only — the session keeps its instance and warm stream caches — and
/// the run exits 5 if any epoch failed, mirroring `serve-batch`.
fn cmd_epochs(rest: &[String]) -> Result<(), CliError> {
    let dataset = opt(rest, "--dataset").ok_or_else(|| CliError::usage("missing --dataset"))?;
    let budget = budget_bytes(rest, 10.0)?;
    let seed: u64 = parse(rest, "--seed", 42)?;
    let epochs_n: usize = parse(rest, "--epochs", 8)?;
    let churn: f64 = parse(rest, "--churn", 0.01)?;
    let threads: usize = parse(rest, "--threads", 0)?;
    let check = flag(rest, "--check");
    if !(0.0..=1.0).contains(&churn) || churn.is_nan() {
        return Err(CliError::usage(format!(
            "--churn must be in [0, 1], got {churn}"
        )));
    }

    let universe = load_dataset(&dataset, seed, flag(rest, "--paper-scale"))?;
    let representation = repr_from_flags(rest)?;
    let inst = phocus::represent(&universe, budget, &representation)?;

    let trace = match opt(rest, "--trace") {
        Some(path) => {
            let text = read_file(&path)?;
            par_datasets::trace_from_text(&text)
                .map_err(|e| CliError::Pipeline(PhocusError::Dataset(e)))?
        }
        None => {
            let n = inst.num_photos() as f64;
            // `--churn` is the *total* per-epoch membership turnover (the
            // same convention as BENCH_incremental.json): half of it photos
            // leaving, half arriving.
            par_datasets::generate_churn(
                &inst,
                &par_datasets::ChurnConfig {
                    epochs: epochs_n,
                    removal_fraction: churn / 2.0,
                    arrivals_mean: (churn * n / 2.0).max(1.0),
                    drift_mean: 1.0,
                    budget_wobble: 0.05,
                    seed,
                    ..Default::default()
                },
            )
            .map_err(|e| CliError::Pipeline(PhocusError::Dataset(e)))?
        }
    };
    if let Some(out) = opt(rest, "--export-trace") {
        write_file(&out, &par_datasets::trace_to_text(&trace))?;
        println!("wrote trace to {out} ({} epochs)", trace.epochs.len());
    }

    let prev = Parallelism::with_threads(threads).install_global();
    let result = run_epochs(inst, &trace, check);
    prev.install_global();
    result
}

/// The epoch replay loop behind [`cmd_epochs`], separated so the ambient
/// thread pool is restored on every exit path.
fn run_epochs(
    inst: par_core::Instance,
    trace: &par_datasets::ChurnTrace,
    check: bool,
) -> Result<(), CliError> {
    let mut session = ArchiveSession::new(inst);
    let mut failed = 0usize;
    let total = trace.epochs.len();
    // One iteration per epoch, plus the initial from-cold solve as epoch 0.
    for k in 0..=total {
        let t0 = std::time::Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported per-epoch latency field only
        let solved: Result<EpochSolve, PhocusError> = if k == 0 {
            Ok(session.resolve())
        } else {
            (|| {
                let delta = par_datasets::resolve_epoch(&trace.epochs[k - 1], session.instance())?;
                Ok(session.apply_delta(&delta)?.resolve())
            })()
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let solve = match solved {
            Err(e) => {
                failed += 1;
                println!("fail\tepoch={k}\t{e}");
                continue;
            }
            Ok(s) => s,
        };
        let dirty = match (k, session.last_delta_stats()) {
            (0, _) | (_, None) => "all".to_string(),
            (_, Some(d)) => format!("{}/{}", d.dirty_shards, d.num_shards),
        };
        let check_field = if check {
            let scratch = par_algo::main_algorithm_sharded(session.instance());
            let identical = solve.outcome.best.selected == scratch.best.selected
                && solve.outcome.best.score.to_bits() == scratch.best.score.to_bits()
                && solve.outcome.winner == scratch.winner;
            if !identical {
                failed += 1;
                println!("fail\tepoch={k}\tincremental solve diverged from from-scratch solve");
                continue;
            }
            "\tcheck=ok"
        } else {
            ""
        };
        println!(
            "ok\tepoch={k}\tphotos={}\tdirty_shards={dirty}\treplayed={}\tlive={}\tretained={}\tcost_mb={:.2}\tscore={:.3}\tms={:.1}{check_field}",
            session.instance().num_photos(),
            solve.report.replayed_streams,
            solve.report.live_streams,
            solve.outcome.best.selected.len(),
            solve.outcome.best.cost as f64 / 1e6,
            solve.outcome.best.score,
            ms,
        );
    }
    println!(
        "session\tepochs={}\tok={}\tfailed={failed}",
        total + 1,
        total + 1 - failed
    );
    if failed > 0 {
        return Err(CliError::PartialFailure {
            failed,
            total: total + 1,
            what: "epochs",
        });
    }
    Ok(())
}

fn cmd_suite(rest: &[String]) -> Result<(), CliError> {
    let dataset = opt(rest, "--dataset").ok_or_else(|| CliError::usage("missing --dataset"))?;
    let budget = budget_bytes(rest, 10.0)?;
    let tau = tau_threshold(rest)?;
    let seed: u64 = parse(rest, "--seed", 42)?;
    let universe = load_dataset(&dataset, seed, flag(rest, "--paper-scale"))?;
    let cfg = SuiteConfig {
        tau,
        rand_seed: seed,
        ..Default::default()
    };
    let result = run_suite(&universe, budget, &cfg)?;
    print!("{}", phocus::report::render_suite(&result));
    Ok(())
}
