//! The PHOcus command-line interface.
//!
//! `phocus --help` prints every command's synopsis and notes, and `phocus
//! <command> --help` one command's. They are the text of `phocus.usage`,
//! which [`phocus::cli`] also reads as the declaration of the flags each
//! command form accepts, so a flag the text does not show is refused.
//!
//! Every failure exits with a diagnostic on stderr and a documented nonzero
//! status — the binary never panics on bad input:
//!
//! * `2` — usage error (unknown command, dataset or flag; a missing,
//!   malformed or repeated flag value; a stray argument);
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
use phocus::cli::{self, Args, UsageError};
use phocus::{
    fractional_budget, render_report, representation::RepresentationConfig,
    representation::Sparsification, run_suite, ActionLadder, ArchiveSession, Catalog,
    CatalogBuilder, EpochSolve, FleetEngine, FleetEngineConfig, FleetTenant, PackedTenant,
    Parallelism, Phocus, PhocusConfig, PhocusError, SuiteConfig, TenantOutcome,
};
use std::num::NonZeroU64;
use std::process::ExitCode;

/// A CLI failure: the diagnostic line and its documented exit status — `2`
/// usage, `3` invalid input data, `4` I/O, `5` a batch run that completed
/// with some of its tenants or epochs failed.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            code: 2,
            message: message.into(),
        }
    }
}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::usage(e.0)
    }
}

impl From<PhocusError> for CliError {
    fn from(e: PhocusError) -> Self {
        let code = match e {
            PhocusError::Io { .. } => 4,
            _ => 3,
        };
        CliError {
            code,
            message: e.to_string(),
        }
    }
}

const USAGE: &str = include_str!("phocus.usage");

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(text) = cli::help(USAGE, &argv) {
        println!("{text}");
        return ExitCode::SUCCESS;
    }
    match cli::parse(USAGE, &argv)
        .map_err(CliError::from)
        .and_then(|args| run(&args))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

/// Runs one command with its `--threads` (absent or 0: all cores) installed
/// for the whole run. `solve` and `serve-batch` pass the same parallelism
/// to the solver and the fleet engine, which install their own.
fn run(args: &Args) -> Result<(), CliError> {
    let parallelism = Parallelism::with_threads(args.parse("--threads", 0)?);
    parallelism.install_global();
    match args.command.as_str() {
        "demo" => cmd_demo(),
        "table2" => cmd_table2(args),
        "solve" => cmd_solve(args, parallelism),
        "suite" => cmd_suite(args),
        "compress" => cmd_compress(args),
        "export" => cmd_export(args),
        "plan" => cmd_plan(args),
        "serve-batch" => cmd_serve_batch(args, parallelism),
        "epochs" => cmd_epochs(args),
        "pack" => cmd_pack(args),
        "catalog build" => cmd_catalog_build(args),
        "catalog ls" => cmd_catalog_ls(args),
        other => unreachable!("phocus.usage declares `{other}`, which has no handler"),
    }
}

/// Reads a fraction flag (`--tau`, `--churn`, `--budget-frac`): anything but
/// a finite number in `[0, 1]` is a usage error naming the flag.
fn fraction(args: &Args, flag: &str, default: f64) -> Result<f64, CliError> {
    let value: f64 = args.parse(flag, default)?;
    // NaN is in no range.
    if !(0.0..=1.0).contains(&value) {
        return Err(CliError::usage(format!(
            "{flag} must be a finite number in [0, 1], got {value}"
        )));
    }
    Ok(value)
}

/// Maps a failed file operation on `path` to the pipeline's I/O error.
fn io_error(path: &str) -> impl FnOnce(std::io::Error) -> PhocusError + '_ {
    move |e| PhocusError::Io {
        path: path.to_string(),
        message: e.to_string(),
    }
}

/// The shared `--tau` / `--seed` / `--ns` representation flags, with the
/// same defaults everywhere (τ = 0.6, seed = 42, LSH recall target 0.95).
fn repr_from_flags(args: &Args) -> Result<RepresentationConfig, CliError> {
    let tau = fraction(args, "--tau", 0.6)?;
    let seed: u64 = args.parse("--seed", 42)?;
    Ok(if args.has("--ns") {
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

/// The tenant budget rule `serve-batch --list` and `catalog build` share:
/// `--budget-mb` when it is nonzero, else `--budget-frac` (default 0.25) of
/// each tenant's own archive.
fn tenant_budget(args: &Args) -> Result<impl Fn(&Universe) -> u64, CliError> {
    let fixed = cli::budget_bytes(args, 0.0)?;
    let share = fraction(args, "--budget-frac", 0.25)?;
    Ok(move |universe: &Universe| match fixed {
        0 => fractional_budget(universe, share),
        _ => fixed,
    })
}

/// Reads a tenant list: one universe path per line, `-` for stdin; blank
/// lines and `#` comments are skipped. An empty list is a usage error.
fn read_tenant_list(list: &str) -> Result<Vec<String>, CliError> {
    let text = if list == "-" {
        std::io::read_to_string(std::io::stdin()).map_err(io_error("<stdin>"))?
    } else {
        std::fs::read_to_string(list).map_err(io_error(list))?
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

/// Loads `--dataset`, generated from `--seed` (EC datasets at full size
/// under `--paper-scale`) or read from a `file:` path.
fn load_dataset(args: &Args) -> Result<Universe, CliError> {
    let seed: u64 = args.parse("--seed", 42)?;
    let name = args.required("--dataset");
    if let Some(path) = name.strip_prefix("file:") {
        let text = std::fs::read_to_string(path).map_err(io_error(path))?;
        return Ok(par_datasets::from_text(&text).map_err(PhocusError::Dataset)?);
    }
    let scale = |s: PublicScale| generate_openimages(&s.config(seed));
    let ec = |d: EcDomain| {
        generate_ecommerce(&if args.has("--paper-scale") {
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

fn cmd_table2(args: &Args) -> Result<(), CliError> {
    let full = args.has("--full");
    let seed = args.parse("--seed", 42u64)?;
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

fn cmd_solve(args: &Args, parallelism: Parallelism) -> Result<(), CliError> {
    let budget = cli::budget_bytes(args, 10.0)?;
    let representation = repr_from_flags(args)?;
    let universe = load_dataset(args)?;
    let solver = Phocus::new(PhocusConfig {
        representation: representation.clone(),
        certify_sparsification: !args.has("--ns"),
        parallelism,
        ..Default::default()
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
    if let Some(out) = args.get("--out") {
        // One retained photo per line: id, byte cost, name.
        let mut text = String::new();
        for &p in &report.selected {
            let photo = inst.photo(p);
            text.push_str(&format!("{}\t{}\t{}\n", p.0, photo.cost, photo.name));
        }
        std::fs::write(out, text).map_err(io_error(out))?;
        println!("wrote retained set to {out}");
    }
    Ok(())
}

fn cmd_compress(args: &Args) -> Result<(), CliError> {
    let budget = cli::budget_bytes(args, 2.0)?;
    let ladder = match args.get("--ladder") {
        None => ActionLadder::standard(),
        Some(spec) => ActionLadder::parse(spec)?,
    };
    let universe = load_dataset(args)?;
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
    let remove = phocus::solve_multi_action(&universe, budget, &ActionLadder::delete_only(), &cfg)?;
    let ma = phocus::solve_multi_action(&universe, budget, &ladder, &cfg)?;
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
    if args.has("--frontier") {
        let points: u64 = args.parse("--frontier", NonZeroU64::MIN)?.get();
        let budgets: Vec<u64> = (1..=points).map(|i| (budget * i / points).max(1)).collect();
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
    if let Some(out) = args.get("--out") {
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
        std::fs::write(out, text).map_err(io_error(out))?;
        println!("wrote retained actions to {out}");
    }
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), CliError> {
    let out = args.required("--out");
    let universe = load_dataset(args)?;
    std::fs::write(out, par_datasets::to_text(&universe)).map_err(io_error(out))?;
    println!(
        "wrote {} ({} photos, {} subsets)",
        out,
        universe.num_photos(),
        universe.num_subsets()
    );
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), CliError> {
    let target: f64 = args.parse("--target", 0.9)?;
    if target.is_nan() || target <= 0.0 || target > 1.0 {
        return Err(CliError::usage(format!(
            "--target must be a number in (0, 1], got {target}"
        )));
    }
    // Plan for the representation `solve` serves under the same flags.
    let representation = repr_from_flags(args)?;
    let universe = load_dataset(args)?;
    let tolerance = (universe.total_cost() / 200).max(1);
    let plan = phocus::minimal_budget(&universe, target, &representation, tolerance)?;
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
fn cmd_serve_batch(args: &Args, parallelism: Parallelism) -> Result<(), CliError> {
    if let Some(dir) = args.get("--catalog") {
        return serve_batch_catalog(args, dir, parallelism);
    }
    let budget = tenant_budget(args)?;
    let representation = repr_from_flags(args)?;
    let paths = read_tenant_list(args.required("--list"))?;

    // Load every tenant up front; a tenant whose file is unreadable or
    // malformed fails *that tenant*, never the batch.
    let loaded: Vec<(String, Result<FleetTenant, PhocusError>)> = paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).map_err(io_error(&path));
            let tenant = text.and_then(|text| {
                let universe = par_datasets::from_text(&text).map_err(PhocusError::Dataset)?;
                let budget = budget(&universe);
                Ok(FleetTenant { universe, budget })
            });
            (path, tenant)
        })
        .collect();
    let engine = FleetEngine::new(FleetEngineConfig {
        representation,
        parallelism,
        ..Default::default()
    });
    serve_and_report(&loaded, args.get("--out-dir"), |t| engine.run(t))
}

/// `serve-batch --catalog`: the catalog-resident serving path. Tenants come
/// from pack files — no text parse, no representation, no union-find —
/// budgets and names from the resident index. Reporting, failure isolation,
/// and exit codes are the universe-list path's.
fn serve_batch_catalog(args: &Args, dir: &str, parallelism: Parallelism) -> Result<(), CliError> {
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
        parallelism,
        ..Default::default() // the representation is unused on the packed path
    });
    serve_and_report(&loaded, args.get("--out-dir"), |t| engine.run_packed(t))
}

/// Serves the tenants of a batch that loaded, through `serve`, and reports
/// every tenant in input order: an `ok` line per solved tenant (its
/// solution written under `out_dir`), a `fail` line naming the tenant's
/// source for each load or solve failure, then the batch line. Any failure
/// makes the batch a partial failure (exit 5).
fn serve_and_report<T: Clone>(
    loaded: &[(String, Result<T, PhocusError>)],
    out_dir: Option<&str>,
    serve: impl FnOnce(&[T]) -> Vec<TenantOutcome>,
) -> Result<(), CliError> {
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(io_error(dir))?;
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
                if let Some(dir) = out_dir {
                    let file = format!(
                        "{dir}/{i:05}_{}.tsv",
                        outcome.name.replace(['/', '\\'], "_")
                    );
                    let mut text = String::new();
                    for &p in &report.selected {
                        text.push_str(&format!("{}\n", p.0));
                    }
                    std::fs::write(&file, text).map_err(io_error(&file))?;
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
        return Err(CliError {
            code: 5,
            message: format!("{failed} of {total} tenants failed"),
        });
    }
    Ok(())
}

/// `pack`: represent one dataset and persist it as a `phocus-pack` image.
/// `pack --check` loads an existing image — full checksum, bounds, and
/// cross-section validation — and prints its shape without solving.
fn cmd_pack(args: &Args) -> Result<(), CliError> {
    if let Some(path) = args.get("--check") {
        let bytes = std::fs::read(path).map_err(io_error(path))?;
        let packed = par_core::unpack_instance(&bytes).map_err(PhocusError::Pack)?;
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
    let out = args.required("--out");
    let budget = cli::budget_bytes(args, 10.0)?;
    let universe = load_dataset(args)?;
    let representation = repr_from_flags(args)?;
    let inst = phocus::represent(&universe, budget, &representation)?;
    let bytes = par_core::pack_instance(&inst).map_err(PhocusError::from)?;
    std::fs::write(out, &bytes).map_err(io_error(out))?;
    println!(
        "wrote\t{out}\tphotos={}\tsubsets={}\tbytes={}",
        inst.num_photos(),
        inst.num_subsets(),
        bytes.len()
    );
    Ok(())
}

/// `catalog build`: represent and pack every tenant of a serve-batch list
/// into a catalog directory. Unlike serving, building is strict — any
/// unreadable or malformed tenant fails the build, because a catalog with
/// silently missing tenants would serve wrong fleets forever after.
fn cmd_catalog_build(args: &Args) -> Result<(), CliError> {
    let out_dir = args.required("--out-dir");
    let budget = tenant_budget(args)?;
    let representation = repr_from_flags(args)?;

    let paths = read_tenant_list(args.required("--list"))?;
    let mut builder = CatalogBuilder::create(out_dir)?;
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(io_error(path))?;
        let universe = par_datasets::from_text(&text).map_err(PhocusError::Dataset)?;
        let inst = phocus::represent(&universe, budget(&universe), &representation)?;
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
    println!("catalog\t{out_dir}\ttenants={}", catalog.entries().len());
    Ok(())
}

/// `catalog ls`: print the resident index, one line per tenant.
fn cmd_catalog_ls(args: &Args) -> Result<(), CliError> {
    let dir = args.required("<DIR>");
    let catalog = Catalog::open(dir)?;
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
fn cmd_epochs(args: &Args) -> Result<(), CliError> {
    let budget = cli::budget_bytes(args, 10.0)?;
    let seed: u64 = args.parse("--seed", 42)?;
    let epochs_n: usize = args.parse("--epochs", 8)?;
    let churn = fraction(args, "--churn", 0.01)?;
    let check = args.has("--check");

    let universe = load_dataset(args)?;
    let representation = repr_from_flags(args)?;
    let inst = phocus::represent(&universe, budget, &representation)?;

    let trace = match args.get("--trace") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(io_error(path))?;
            par_datasets::trace_from_text(&text).map_err(PhocusError::Dataset)?
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
            .map_err(PhocusError::Dataset)?
        }
    };
    if let Some(out) = args.get("--export-trace") {
        std::fs::write(out, par_datasets::trace_to_text(&trace)).map_err(io_error(out))?;
        println!("wrote trace to {out} ({} epochs)", trace.epochs.len());
    }

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
        return Err(CliError {
            code: 5,
            message: format!("{failed} of {} epochs failed", total + 1),
        });
    }
    Ok(())
}

fn cmd_suite(args: &Args) -> Result<(), CliError> {
    let budget = cli::budget_bytes(args, 10.0)?;
    let tau = fraction(args, "--tau", 0.6)?;
    let seed: u64 = args.parse("--seed", 42)?;
    let universe = load_dataset(args)?;
    let cfg = SuiteConfig {
        tau,
        rand_seed: seed,
        ..Default::default()
    };
    let result = run_suite(&universe, budget, &cfg)?;
    print!("{}", phocus::report::render_suite(&result));
    Ok(())
}
