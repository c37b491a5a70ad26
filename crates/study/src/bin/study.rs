//! The user-study command-line runner.
//!
//! `study --help` prints every command's synopsis and notes, and `study
//! <command> --help` one command's: the text of `study.usage`, which
//! [`phocus::cli`] also reads as the declaration of the flags each command
//! accepts. Any failure, a refused command line included, exits 1.

use par_datasets::{generate_ecommerce, EcConfig, EcDomain};
use par_study::{domain_study, insights, preference_study, ManualAnalyst, PreferenceConfig};
use phocus::cli::{self, Args};
use phocus::{represent, RepresentationConfig};
use std::process::ExitCode;

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = include_str!("study.usage");

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(text) = cli::help(USAGE, &argv) {
        println!("{text}");
        return ExitCode::SUCCESS;
    }
    let result = cli::parse(USAGE, &argv)
        .map_err(Into::into)
        .and_then(|args| match args.command.as_str() {
            "domains" => cmd_domains(&args),
            "preference" => cmd_preference(&args),
            "insights" => cmd_insights(&args),
            other => unreachable!("study.usage declares `{other}`, which has no handler"),
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_domains(args: &Args) -> Result {
    let seed: u64 = args.parse("--seed", 42)?;
    println!(
        "{:<18} {:>12} {:>12} {:>14} {:>14}",
        "domain", "PHOcus qual", "manual qual", "PHOcus (min)", "manual (min)"
    );
    for domain in [
        EcDomain::Electronics,
        EcDomain::Fashion,
        EcDomain::HomeGarden,
    ] {
        let u = generate_ecommerce(&EcConfig::small(domain, seed));
        let budget = u.total_cost() / 10;
        let row = domain_study(&u, budget, &ManualAnalyst::default())?;
        println!(
            "{:<18} {:>12.1} {:>12.1} {:>14.1} {:>14.1}",
            row.domain,
            row.phocus_quality,
            row.manual_quality,
            row.phocus_time.as_secs_f64() / 60.0,
            row.manual_time.as_secs_f64() / 60.0
        );
    }
    Ok(())
}

fn cmd_preference(args: &Args) -> Result {
    let seed: u64 = args.parse("--seed", 42)?;
    let rounds: usize = args.parse("--rounds", 50)?;
    println!(
        "{:<18} {:>8} {:>12} {:>14}",
        "domain", "PHOcus", "Greedy-NCS", "cannot decide"
    );
    for domain in [
        EcDomain::Fashion,
        EcDomain::Electronics,
        EcDomain::HomeGarden,
    ] {
        let u = generate_ecommerce(&EcConfig::small(domain, seed));
        let counts = preference_study(
            &u,
            &PreferenceConfig {
                rounds,
                seed,
                ..Default::default()
            },
        );
        println!(
            "{:<18} {:>8} {:>12} {:>14}",
            domain.name(),
            counts.phocus,
            counts.baseline,
            counts.undecided
        );
    }
    Ok(())
}

fn cmd_insights(args: &Args) -> Result {
    let domain = match args.required("--domain") {
        "fashion" => EcDomain::Fashion,
        "electronics" => EcDomain::Electronics,
        "home" => EcDomain::HomeGarden,
        other => return Err(format!("unknown domain `{other}`").into()),
    };
    let seed: u64 = args.parse("--seed", 42)?;
    let budget = cli::budget_bytes(args, 5.0)?;
    let u = generate_ecommerce(&EcConfig::small(domain, seed));
    let inst = represent(&u, budget, &RepresentationConfig::default())?;
    println!("{}\n", par_core::InstanceStats::compute(&inst).render());
    let solver_sel = par_algo::main_algorithm(&inst).best.selected;
    let manual_sel = ManualAnalyst::default().select(&inst).selected;
    let report = insights::analyze(&inst, &solver_sel, &manual_sel);
    print!("{}", insights::render(&inst, &report, 8));
    Ok(())
}
