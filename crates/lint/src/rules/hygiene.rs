//! Hygiene rules: no stray output or panicking placeholders in library
//! code, and no `unsafe` anywhere outside the vendored shims.

use crate::context::{CrateCategory, FileContext, FileKind};
use crate::diag::Diagnostic;

/// Macros that panic or print, banned in library sources. CLI binaries
/// (`src/bin/**`), reporters, benches, and tests are exempt by file kind.
const BANNED_MACROS: &[&str] = &[
    "dbg",
    "todo",
    "unimplemented",
    "print",
    "println",
    "eprint",
    "eprintln",
];

/// `no-print`: see `BANNED_MACROS`.
pub fn no_print(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    let lib_crate = matches!(
        ctx.spec.category,
        CrateCategory::Library | CrateCategory::BenchHarness
    );
    if !lib_crate || ctx.spec.kind != FileKind::Lib {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len().saturating_sub(1) {
        let t = &code[i];
        if t.kind == crate::lexer::TokKind::Ident
            && BANNED_MACROS.contains(&t.text.as_str())
            && code[i + 1].is_punct('!')
            && !ctx.in_test_region(t.line)
        {
            let what = if matches!(t.text.as_str(), "todo" | "unimplemented") {
                "panicking placeholder macro"
            } else {
                "direct stdout/stderr output"
            };
            ctx.emit(
                out,
                "no-print",
                t.line,
                t.col,
                format!(
                    "{what} `{}!` is banned in library code; render to a \
                     String (report/render modules) and print from the CLI or \
                     study reporter binaries",
                    t.text
                ),
            );
        }
    }
}

/// `no-unsafe`: the `unsafe` keyword is banned outside `crates/vendor`, and
/// every library crate root must carry `#![forbid(unsafe_code)]` so the ban
/// is compiler-enforced too (the workspace-level `unsafe_code = "deny"` can
/// be overridden locally; `forbid` cannot).
pub fn no_unsafe(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.spec.category == CrateCategory::Vendor {
        return;
    }
    let code = &ctx.code;
    for t in code {
        if t.is_ident("unsafe") {
            ctx.emit(
                out,
                "no-unsafe",
                t.line,
                t.col,
                "`unsafe` is banned outside crates/vendor; if a kernel truly \
                 needs it, it belongs in a vendored shim with documented \
                 safety invariants"
                    .to_string(),
            );
        }
    }
    // Crate roots must forbid unsafe_code at the language level.
    if ctx.spec.path.ends_with("src/lib.rs") && !has_forbid_unsafe_attr(ctx) {
        ctx.emit(
            out,
            "no-unsafe",
            1,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

fn has_forbid_unsafe_attr(ctx: &FileContext<'_>) -> bool {
    let code = &ctx.code;
    (0..code.len().saturating_sub(6)).any(|i| {
        code[i].is_punct('#')
            && code[i + 1].is_punct('!')
            && code[i + 2].is_punct('[')
            && code[i + 3].is_ident("forbid")
            && code[i + 4].is_punct('(')
            && code[i + 5].is_ident("unsafe_code")
            && code[i + 6].is_punct(')')
    })
}
