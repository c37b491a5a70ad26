//! One argv parser for the workspace's binaries (`phocus`, `study`,
//! `reproduce`), declared by the usage text each of them prints.
//!
//! A usage text is read docopt-style. The lines after `USAGE:` up to the
//! first blank line hold the command forms: a line indented two spaces
//! begins one, deeper-indented lines that start with `[` continue its
//! synopsis, and the other deeper-indented lines under it are its prose.
//! After the program name, a synopsis's leading bare words name the command
//! (`catalog build`), `--flag V` or `--flag <V>` takes a value, a bare
//! `--flag` is a switch, `[…]` around one flag makes it optional and a lone
//! `<X>` is a positional. Forms that share a command are told apart by their
//! first flag: [`parse`] reads the first form whose first flag is on the
//! command line, else the first form.
//!
//! [`parse`] walks argv once and refuses, with a [`UsageError`] naming the
//! token, an undeclared flag (a flag of the command's other form included), a
//! value flag at the end of argv or followed by a `--` token, a repeated
//! flag, a stray positional and a missing required flag. A value that starts
//! with a single dash (`--tau -1`) is a value, left to its flag's validator.
//!
//! [`help`] answers `--help` anywhere (and a leading `help` or `-h`): after a
//! command, that command's forms with their prose and the notes that follow
//! the forms; anywhere else, the whole text. What is parsed and what is
//! documented are one text, so they cannot drift.

use std::str::FromStr;

/// A command line the usage text does not accept. The message names the
/// offending token (and shows the synopsis it was read against).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// The arguments given to one command form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The form's command words (`"catalog build"`; empty for a program
    /// without commands).
    pub command: String,
    /// `(name, value)` in command-line order; a switch has no value, a
    /// positional is named by its placeholder (`<DIR>`).
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Whether a flag or positional was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The value of a value flag or positional (`"<DIR>"`), if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(n, _)| n == name)?;
        value.as_deref()
    }

    /// The value of a flag or positional the form requires, which the parse
    /// has checked is present.
    pub fn required(&self, name: &str) -> &str {
        match self.get(name) {
            Some(v) => v,
            None => unreachable!("`{}` does not require `{name}`", self.command),
        }
    }

    /// A flag's value parsed as `T`, or `default` when it is absent. A value
    /// that does not parse is a usage error naming the flag.
    pub fn parse<T: FromStr>(&self, name: &str, default: T) -> Result<T, UsageError> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| UsageError(format!("invalid value for {name}: {v}")))
        })
    }
}

/// Reads `--budget-mb` (megabytes of 10⁶ bytes) as a byte budget. A
/// negative, NaN or infinite value, or one whose byte count does not fit a
/// `u64`, is a usage error naming the flag; zero is valid.
pub fn budget_bytes(args: &Args, default_mb: f64) -> Result<u64, UsageError> {
    let mb: f64 = args.parse("--budget-mb", default_mb)?;
    let bytes = mb * 1e6;
    // `u64::MAX as f64` rounds up to 2⁶⁴, so the half-open range admits
    // only values the cast below cannot saturate; NaN is in no range.
    if !(0.0..u64::MAX as f64).contains(&bytes) {
        return Err(UsageError(format!(
            "--budget-mb must be a finite, non-negative number of megabytes that fits u64 bytes, got {mb}"
        )));
    }
    Ok(bytes as u64) // phocus-lint: allow(cast-bounds) — the range check above keeps `bytes` in [0, 2⁶⁴)
}

/// One command form: its synopsis and its whole block (synopsis and prose)
/// as written, and, after the program name, its leading bare words — the
/// command, `["catalog", "build"]` — and its slots, one per flag or
/// positional: `(name, takes a value, required)`.
struct Form<'u> {
    synopsis: String,
    block: String,
    command: Vec<&'u str>,
    slots: Vec<(&'u str, bool, bool)>,
}

impl<'u> Form<'u> {
    /// Declares the form a block's lines read as.
    fn declare(lines: Vec<&'u str>) -> Self {
        let rest = lines[1..]
            .iter()
            .take_while(|l| l.trim_start().starts_with('['));
        let synopsis = &lines[..1 + rest.count()];
        let (mut command, mut slots) = (Vec::new(), Vec::<(&str, bool, bool)>::new());
        let mut after_flag = false;
        for raw in synopsis.iter().flat_map(|l| l.split_whitespace()).skip(1) {
            let word = raw.trim_matches(['[', ']']);
            match slots.last_mut() {
                // `V` or `<V>` right after a flag is that flag's value.
                Some(flag) if after_flag && !raw.starts_with(['[', '-']) => flag.1 = true,
                _ if word.starts_with("--") || word.starts_with('<') => {
                    slots.push((word, false, !raw.starts_with('[')));
                }
                None => command.push(word),
                Some(_) => {}
            }
            after_flag = word.starts_with("--") && !raw.ends_with(']');
        }
        Form {
            synopsis: synopsis.join("\n"),
            block: lines.join("\n"),
            command,
            slots,
        }
    }

    /// Reads `argv` (command words first) against this form.
    fn read(&self, argv: &[String]) -> Result<Args, UsageError> {
        let refuse = |what: String| UsageError(format!("{what}\nusage:\n{}", self.synopsis));
        let mut args = Args {
            command: self.command.join(" "),
            given: Vec::new(),
        };
        let mut tokens = argv[self.command.len()..].iter();
        while let Some(token) = tokens.next() {
            let flag = token.starts_with("--");
            let fits =
                |name: &str| name == token || !flag && name.starts_with('<') && !args.has(name);
            let Some(&(name, takes_value, _)) = self.slots.iter().find(|s| fits(s.0)) else {
                let what = if flag {
                    "unknown flag"
                } else {
                    "unexpected argument"
                };
                return Err(refuse(format!("{what} `{token}`")));
            };
            if args.has(name) {
                return Err(refuse(format!("`{token}` given twice")));
            }
            let value = match (flag, takes_value) {
                (false, _) => Some(token.clone()),
                (true, false) => None,
                (true, true) => match tokens.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(refuse(format!("missing value for `{token}`"))),
                },
            };
            args.given.push((name.to_string(), value));
        }
        match self.slots.iter().find(|s| s.2 && !args.has(s.0)) {
            Some((name, ..)) => Err(refuse(format!("missing {name}"))),
            None => Ok(args),
        }
    }
}

/// The block of forms after `USAGE:` and the notes that follow it.
fn sections(usage: &str) -> (&str, &str) {
    let block = usage.split_once("USAGE:\n").map_or("", |(_, rest)| rest);
    block.split_once("\n\n").unwrap_or((block, ""))
}

/// The forms a usage text declares, in order.
fn forms(usage: &str) -> Vec<Form<'_>> {
    let mut blocks: Vec<Vec<&str>> = Vec::new();
    for line in sections(usage).0.lines() {
        match blocks.last_mut() {
            Some(lines) if line.starts_with("   ") => lines.push(line),
            _ => blocks.push(vec![line]),
        }
    }
    blocks.into_iter().map(Form::declare).collect()
}

/// The forms of the command `argv` starts with.
fn own<'f, 'u>(forms: &'f [Form<'u>], argv: &[String]) -> Vec<&'f Form<'u>> {
    let first = argv.first().map(String::as_str);
    forms
        .iter()
        .filter(|f| f.command.first().copied() == first)
        .collect()
}

/// The help `argv` asks for, if it asks for any.
pub fn help(usage: &str, argv: &[String]) -> Option<String> {
    let first = argv.first().map_or("", String::as_str);
    if !argv.iter().any(|a| a == "--help") && first != "help" && first != "-h" {
        return None;
    }
    let forms = forms(usage);
    let own = own(&forms, argv);
    if own.is_empty() {
        return Some(usage.trim_end().to_string());
    }
    let blocks: Vec<&str> = own.iter().map(|f| f.block.as_str()).collect();
    let notes = sections(usage).1.trim_end();
    Some(format!("USAGE:\n{}\n\n{notes}", blocks.join("\n")))
}

/// Reads `argv` (without the program name) against `usage`.
pub fn parse(usage: &str, argv: &[String]) -> Result<Args, UsageError> {
    let forms = forms(usage);
    let mut fits = forms.iter().filter(|f| {
        f.command.len() <= argv.len() && f.command.iter().zip(argv).all(|(c, a)| c == a)
    });
    let on_line = |f: &&Form| {
        f.slots
            .first()
            .is_some_and(|s| argv.iter().any(|a| a == s.0))
    };
    if let Some(form) = fits.clone().find(on_line).or_else(|| fits.next()) {
        return form.read(argv);
    }
    let synopses: Vec<&str> = own(&forms, argv)
        .iter()
        .map(|f| f.synopsis.as_str())
        .collect();
    Err(UsageError(match (argv.first(), synopses.is_empty()) {
        (None, _) => format!("missing command\n{}", usage.trim_end()),
        (Some(cmd), true) => format!("unknown command `{cmd}`\n{}", usage.trim_end()),
        (Some(cmd), false) => format!(
            "`{cmd}` needs a subcommand\nusage:\n{}",
            synopses.join("\n")
        ),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PHOCUS: &str = include_str!("bin/phocus.usage");
    const STUDY: &str = include_str!("../../study/src/bin/study.usage");
    const REPRODUCE: &str = include_str!("../../bench/src/bin/reproduce.usage");

    const TOY: &str = "toy — a test program

USAGE:
  toy run --in <FILE> [--n N] [--fast]
          [--out FILE]
      Runs things.
  toy run --list <FILE> [--n N]
  toy db make --dir <DIR>
      Keeps things.
  toy db ls <DIR>

NOTES: for every command.
";

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Each form as `command: --flag V* --switch <X>*`: `V` marks a value,
    /// `*` a required slot.
    fn declared(usage: &str) -> Vec<String> {
        let slot = |&(name, value, required): &(&str, bool, bool)| {
            let value = if value { " V" } else { "" };
            format!("{name}{value}{}", if required { "*" } else { "" })
        };
        let form = |f: &Form| {
            let slots: Vec<String> = f.slots.iter().map(slot).collect();
            format!("{}: {}", f.command.join(" "), slots.join(" "))
        };
        forms(usage).iter().map(form).collect()
    }

    fn refusal(usage: &str, line: &str) -> String {
        match parse(usage, &argv(line)) {
            Ok(args) => panic!("`{line}` was accepted as {args:?}"),
            Err(e) => e.0,
        }
    }

    #[test]
    fn every_synopsis_of_the_three_binaries_reads_into_its_declaration() {
        assert_eq!(
            declared(PHOCUS),
            [
                "demo: ",
                "table2: --full --seed V",
                "solve: --dataset V* --budget-mb V --tau V --ns --seed V --threads V \
                 --paper-scale --out V",
                "suite: --dataset V* --budget-mb V --tau V --seed V --paper-scale",
                "compress: --dataset V* --budget-mb V --seed V --threads V --ladder V \
                 --frontier V --out V --paper-scale",
                "export: --dataset V* --out V* --seed V --paper-scale",
                "plan: --dataset V* --target V --tau V --ns --seed V --paper-scale",
                "serve-batch: --list V* --budget-frac V --budget-mb V --tau V --ns --seed V \
                 --threads V --out-dir V",
                "serve-batch: --catalog V* --threads V --out-dir V",
                "epochs: --dataset V* --budget-mb V --trace V --epochs V --churn V --tau V --ns \
                 --seed V --threads V --check --export-trace V --paper-scale",
                "pack: --dataset V* --out V* --budget-mb V --tau V --ns --seed V --paper-scale",
                "pack: --check V*",
                "catalog build: --list V* --out-dir V* --budget-frac V --budget-mb V --tau V \
                 --ns --seed V",
                "catalog ls: <DIR>*",
            ]
        );
        assert_eq!(
            declared(STUDY),
            [
                "domains: --seed V",
                "preference: --rounds V --seed V",
                "insights: --domain V* --budget-mb V --seed V",
            ]
        );
        assert_eq!(declared(REPRODUCE), [": --full --only V --out V"]);
    }

    #[test]
    fn accepted_lines_read_their_values() {
        let args = parse(TOY, &argv("run --fast --in a.txt --n 3")).unwrap();
        assert_eq!(args.command, "run");
        assert_eq!(args.required("--in"), "a.txt");
        assert!(args.has("--fast") && !args.has("--out"));
        assert_eq!(args.parse("--n", 0), Ok(3));
        assert_eq!(
            args.parse("--m", 7),
            Ok(7),
            "an absent flag reads its default"
        );
        // A continuation line declares like the first line.
        let args = parse(TOY, &argv("run --in a --out b")).unwrap();
        assert_eq!(args.get("--out"), Some("b"));
        // Forms that share a command are told apart by their first flag.
        let args = parse(TOY, &argv("run --n 2 --list l")).unwrap();
        assert_eq!(args.get("--list"), Some("l"));
        let args = parse(TOY, &argv("db ls d")).unwrap();
        assert_eq!(
            (args.command.as_str(), args.required("<DIR>")),
            ("db ls", "d")
        );
        let args = parse(REPRODUCE, &[]).unwrap();
        assert_eq!((args.command.as_str(), args.get("--out")), ("", None));
    }

    #[test]
    fn each_kind_of_refusal_names_its_token_and_shows_the_synopsis() {
        let cases = [
            ("run --in a --bogus", "unknown flag `--bogus`"),
            ("run --in a --n", "missing value for `--n`"),
            ("run --in --n 2", "missing value for `--in`"),
            ("run --in a --n 1 --n 2", "`--n` given twice"),
            ("run --fast --in a --fast", "`--fast` given twice"),
            ("run stray --in a", "unexpected argument `stray`"),
            ("run --list l --fast", "unknown flag `--fast`"),
            ("run --in a --list l", "unknown flag `--list`"),
            ("run --n 2", "missing --in"),
            ("db ls d extra", "unexpected argument `extra`"),
            ("db ls", "missing <DIR>"),
            ("db make --dir d --in a", "unknown flag `--in`"),
        ];
        for (line, message) in cases {
            let refused = refusal(TOY, line);
            assert!(refused.starts_with(message), "`{line}`: {refused}");
            assert!(refused.contains("\nusage:\n  toy "), "`{line}`: {refused}");
        }
        let other_form = refusal(TOY, "run --list l --fast");
        assert!(other_form.ends_with("usage:\n  toy run --list <FILE> [--n N]"));
        let prose = refusal(TOY, "run --bogus");
        assert!(
            prose.ends_with("[--fast]\n          [--out FILE]"),
            "no prose: {prose}"
        );
        let unknown = refusal(TOY, "frob --in a");
        assert!(unknown.starts_with("unknown command `frob`\n") && unknown.contains("USAGE:"));
        assert!(refusal(TOY, "").starts_with("missing command\n"));
        for line in ["db", "db frob"] {
            let refused = refusal(TOY, line);
            assert!(refused.starts_with("`db` needs a subcommand"), "{refused}");
            assert!(refused.contains("toy db make") && refused.contains("toy db ls"));
        }
        assert!(refusal(REPRODUCE, "--out").starts_with("missing value for `--out`"));
        assert!(refusal(STUDY, "preference --rounds 3 --bogus").contains("`--bogus`"));
    }

    #[test]
    fn single_dash_values_reach_their_validators() {
        let args = parse(PHOCUS, &argv("solve --dataset tiny --ns --tau -1")).unwrap();
        assert_eq!(args.get("--tau"), Some("-1"));
        let args = parse(PHOCUS, &argv("solve --dataset tiny --budget-mb -5")).unwrap();
        assert_eq!(
            budget_bytes(&args, 10.0).unwrap_err().0,
            "--budget-mb must be a finite, non-negative number of megabytes that fits u64 \
             bytes, got -5"
        );
        let args = parse(STUDY, &argv("insights --domain fashion --budget-mb lots")).unwrap();
        assert_eq!(
            budget_bytes(&args, 5.0).unwrap_err().0,
            "invalid value for --budget-mb: lots"
        );
        let args = parse(STUDY, &argv("insights --domain fashion --budget-mb 1.5")).unwrap();
        assert_eq!(budget_bytes(&args, 5.0), Ok(1_500_000));
        let args = parse(PHOCUS, &argv("catalog ls -d")).unwrap();
        assert_eq!(args.required("<DIR>"), "-d");
    }

    #[test]
    fn help_works_anywhere_and_shows_one_command_with_its_prose() {
        for line in ["--help", "help", "-h", "frob --help", "--in a --help"] {
            assert_eq!(
                help(TOY, &argv(line)).as_deref(),
                Some(TOY.trim_end()),
                "{line}"
            );
        }
        assert_eq!(help(TOY, &argv("run --in a")), None);
        // Before a missing required flag and in place of a flag's value.
        for line in ["run --help", "run --n --help", "run --list --help --bogus"] {
            assert_eq!(
                help(TOY, &argv(line)).unwrap(),
                "USAGE:\n  toy run --in <FILE> [--n N] [--fast]\n          [--out FILE]\n      \
                 Runs things.\n  toy run --list <FILE> [--n N]\n\nNOTES: for every command."
            );
        }
        let text = help(TOY, &argv("db ls --help")).unwrap();
        assert!(text.contains("toy db make --dir <DIR>\n      Keeps things.\n  toy db ls <DIR>"));
        let solve = help(PHOCUS, &argv("solve --help")).unwrap();
        assert!(solve.contains("phocus solve --dataset <NAME>") && solve.contains("EXIT CODES"));
        assert!(!solve.contains("phocus plan") && !solve.contains("phocus serve-batch"));
        let catalog = help(PHOCUS, &argv("catalog build --help")).unwrap();
        assert!(catalog.contains("phocus catalog ls <DIR>") && catalog.contains("resident index"));
    }
}
