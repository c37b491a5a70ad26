//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p par-bench --release --bin reproduce              # everything, scaled
//! cargo run -p par-bench --release --bin reproduce -- --full   # paper-sized
//! cargo run -p par-bench --release --bin reproduce -- --only fig5a,fig5d
//! ```
//!
//! `reproduce --help` prints the synopsis and notes: the text of
//! `reproduce.usage`, which [`phocus::cli`] also reads as the declaration of
//! the flags it accepts. A refused command line, or an `--only` id that names
//! no experiment, exits 2 before anything is written; an output directory or
//! CSV that cannot be written exits 4 with a diagnostic naming the path, as
//! `phocus` does for I/O.

use par_bench::{
    ablation_compression, ablation_context, ablation_local_search, ablation_scaling, ablation_tau,
    fig5a, fig5b, fig5c, fig5d, fig5e_5f, fig5g_5h, scenario_budget, scenario_cb_wins,
    scenario_insights, scenario_lazy, scenario_preference, table1, table2, to_csv, to_table, Scale,
    Series,
};
use phocus::cli::{self, Args, UsageError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = include_str!("reproduce.usage");

type Runner = fn(Scale) -> Vec<Series>;

fn runners() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        (
            "table1",
            "Qualitative comparison of summarization systems (1=✓, 0=×)",
            (|_s| table1()) as Runner,
        ),
        (
            "table2",
            "Dataset statistics, paper vs measured",
            table2 as Runner,
        ),
        ("fig5a", "Quality vs budget on P-1K", fig5a as Runner),
        ("fig5b", "Quality vs budget on P-5K", fig5b as Runner),
        ("fig5c", "Quality vs budget on EC-Fashion", fig5c as Runner),
        (
            "fig5d",
            "PHOcus vs exact Brute-Force on a small P-1K subset",
            fig5d as Runner,
        ),
        (
            "fig5e",
            "Sparsification: quality (5e) and end-to-end time (5f), P-5K",
            fig5e_5f as Runner,
        ),
        (
            "fig5g",
            "User study: quality (5g) and time in minutes (5h)",
            fig5g_5h as Runner,
        ),
        (
            "scenario_budget",
            "§5.3 small-budget deployment (% of total quality)",
            scenario_budget as Runner,
        ),
        (
            "scenario_preference",
            "§5.4 50-round preference test (round counts)",
            scenario_preference as Runner,
        ),
        (
            "scenario_lazy",
            "§4.2 lazy-evaluation speedup (CELF vs eager)",
            scenario_lazy as Runner,
        ),
        (
            "scenario_cb_wins",
            "§5.3 cost-benefit sub-algorithm win rate",
            scenario_cb_wins as Runner,
        ),
        (
            "scenario_insights",
            "§5.4 'unexpected insights': solver picks serve more pages",
            scenario_insights as Runner,
        ),
        (
            "ablation_context",
            "Ablation: contextualization strength (blend sweep)",
            ablation_context as Runner,
        ),
        (
            "ablation_tau",
            "Ablation: τ-sparsification sweep with Theorem 4.8 certificates",
            ablation_tau as Runner,
        ),
        (
            "ablation_compression",
            "Extension (§6 future work): remove-only vs compression-aware",
            ablation_compression as Runner,
        ),
        (
            "ablation_local_search",
            "Extension: 1-swap local-search polish",
            ablation_local_search as Runner,
        ),
        (
            "ablation_scaling",
            "Ablation: PHOcus vs PHOcus-NS end-to-end time across scales",
            ablation_scaling as Runner,
        ),
    ]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(text) = cli::help(USAGE, &argv) {
        println!("{text}");
        return ExitCode::SUCCESS;
    }
    match cli::parse(USAGE, &argv)
        .map_err(Failure::from)
        .and_then(|args| run(&args))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

/// A failed run: the diagnostic line and its exit status — `2` usage, `4`
/// I/O.
struct Failure {
    code: u8,
    message: String,
}

impl From<UsageError> for Failure {
    fn from(e: UsageError) -> Self {
        Failure {
            code: 2,
            message: e.0,
        }
    }
}

/// Maps a failed file operation on `path` to an I/O failure naming it.
fn io_failure<'a>(what: &'a str, path: &'a Path) -> impl FnOnce(std::io::Error) -> Failure + 'a {
    move |e| Failure {
        code: 4,
        message: format!("cannot {what} {}: {e}", path.display()),
    }
}

/// Runs the experiments `--only` selects (all by default) at the `--full`
/// or scaled size, writing their CSVs under `--out`.
fn run(args: &Args) -> Result<(), Failure> {
    let scale = if args.has("--full") {
        Scale::Full
    } else {
        Scale::Scaled
    };
    let out_dir = PathBuf::from(args.get("--out").unwrap_or("results"));
    let runners = runners();
    let ids: Vec<&str> = runners.iter().map(|r| r.0).collect();
    let only: Option<Vec<&str>> = args
        .get("--only")
        .map(|v| v.split(',').map(str::trim).collect());
    if let Some(id) = only.iter().flatten().find(|id| !ids.contains(id)) {
        let ids = ids.join(", ");
        return Err(UsageError(format!("unknown --only id `{id}`; the ids are {ids}")).into());
    }

    std::fs::create_dir_all(&out_dir).map_err(io_failure("create output directory", &out_dir))?;
    println!(
        "reproducing the paper's evaluation ({} scale) → {}\n",
        if scale == Scale::Full {
            "FULL"
        } else {
            "scaled"
        },
        out_dir.display()
    );

    let t_all = Instant::now();
    for (id, title, runner) in runners {
        if only.as_ref().is_some_and(|only| !only.contains(&id)) {
            continue;
        }
        println!("=== {id}: {title} ===");
        let t = Instant::now();
        let rows = runner(scale);
        // Some runners emit multiple figures (5e+5f, 5g+5h); split by figure.
        let mut by_figure: BTreeMap<&'static str, Vec<Series>> = BTreeMap::new();
        for r in rows {
            by_figure.entry(r.figure).or_default().push(r);
        }
        for (figure, rows) in by_figure {
            println!("--- {figure} ---");
            print!("{}", to_table(&rows));
            let path = out_dir.join(format!("{figure}.csv"));
            std::fs::write(&path, to_csv(&rows)).map_err(io_failure("write", &path))?;
            println!("wrote {}", path.display());
        }
        println!("({:.1?})\n", t.elapsed());
    }
    println!("total: {:.1?}", t_all.elapsed());
    Ok(())
}
