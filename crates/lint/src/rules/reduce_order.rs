//! `reduce-order`: float accumulation reached from parallel fan-out must
//! merge in index order.
//!
//! Floating-point addition is not associative; the determinism guarantee
//! (same input → same archive, DESIGN.md §4) requires every reduction over
//! parallel results to combine them in *index order*, not completion order.
//! The par-exec entry points already return index-ordered `Vec`s and
//! `par_sum_f64` reduces its per-thread partials in thread order, so the
//! remaining hazard is accumulation *inside* the fanned-out work:
//!
//! * a closure passed to a fan-out entry point mutating captured state or
//!   the dynamic-dispatch scratch (`|scratch, i| { scratch.acc += … }`) —
//!   dynamic shards are handed out in claim order, so any compound assign
//!   to scratch or captured state is order-dependent regardless of its
//!   type;
//! * a crate-local function reached from such a closure folding into
//!   `&mut` state — flagged only with lexical *float* evidence (a float
//!   literal, `as f64`, an `f32`/`f64` token, or a float-hinted base),
//!   because integer accumulation (`self.stats.calls += 1` under an atomic
//!   or per-item counter) is associative and commutative.
//!
//! Envelope: cross-crate callees, closures passed through variables
//! (`&f`), and `sum()`/`fold()` over unordered iterators outside a fan-out
//! cone are not followed — the entry-point layer (par-exec's own ordered
//! merges, rule-checked here at the source) is the enforcement point.
//! Suppression: `// phocus-lint: allow(reduce-order) — reason`.

use crate::callgraph::{CrateGraph, FnId};
use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::scope::{literal_hint, FileScopes};
use std::collections::{BTreeMap, BTreeSet};

/// The par-exec fan-out entry points (free functions and methods); `join`
/// runs its two closures at once, so either may race the other.
const FAN_OUT: &[&str] = &[
    "par_map_indexed",
    "par_map_slice",
    "par_map_dynamic",
    "par_sum_f64",
    "join",
];

/// Forward-matches the group opened at `open`; returns the index of its
/// closer (or `code.len()` when unterminated).
fn match_close(code: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    code.len()
}

/// Whether a closure literal's opening `|` can start after this token.
/// Deliberately excludes `|` itself so the second bar of a logical-or is
/// never taken for a closure head.
fn closure_start_after(t: &Tok) -> bool {
    (t.kind == TokKind::Punct
        && matches!(
            t.text.as_str(),
            "(" | "," | "=" | "{" | ";" | ">" | "<" | "+" | "-" | "*" | "/" | "&" | ":"
        ))
        || (t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "move" | "return" | "else" | "match" | "in"))
}

/// A closure literal found in a fan-out argument list.
struct Closure {
    params: Vec<String>,
    /// Body token range, half-open.
    body: (usize, usize),
}

/// Extracts top-level closure literals from the argument range
/// `(lo, hi)` (exclusive of the delimiters).
fn parse_closures(code: &[Tok], lo: usize, hi: usize) -> Vec<Closure> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut j = lo;
    while j < hi {
        let t = &code[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
            j += 1;
            continue;
        }
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            j += 1;
            continue;
        }
        let head = depth == 0
            && t.is_punct('|')
            && j > 0
            && closure_start_after(&code[j - 1]);
        if !head {
            j += 1;
            continue;
        }
        // Parameter list: idents up to the closing `|`, skipping `mut` and
        // type-annotation tails.
        let mut params = Vec::new();
        let mut k = j + 1;
        let mut after_colon = false;
        while k < hi && !code[k].is_punct('|') {
            let p = &code[k];
            if p.is_punct(',') {
                after_colon = false;
            } else if p.is_punct(':') {
                after_colon = true;
            } else if p.kind == TokKind::Ident && !after_colon && !p.is_ident("mut") {
                params.push(p.text.clone());
            }
            k += 1;
        }
        // Body: a brace group (possibly past a `-> T`), else the expression
        // up to the next top-level `,` or the end of the argument list.
        let mut b = k + 1;
        let mut budget = 8usize;
        while b < hi && budget > 0 && !code[b].is_punct('{') && !code[b].is_punct(',') {
            b += 1;
            budget -= 1;
        }
        let body = if b < hi && code[b].is_punct('{') {
            (b, match_close(code, b))
        } else {
            let mut e = k + 1;
            let mut d = 0i32;
            while e < hi {
                let t2 = &code[e];
                if t2.is_punct('(') || t2.is_punct('[') || t2.is_punct('{') {
                    d += 1;
                } else if t2.is_punct(')') || t2.is_punct(']') || t2.is_punct('}') {
                    d -= 1;
                } else if d == 0 && t2.is_punct(',') {
                    break;
                }
                e += 1;
            }
            (k, e)
        };
        out.push(Closure { params, body });
        j = body.1.max(k + 1);
    }
    out
}

/// A compound assignment operator (`+=`, `-=`, `*=`, `/=`) at `j`.
fn compound_assign_at(code: &[Tok], j: usize) -> Option<char> {
    let t = &code[j];
    if t.kind != TokKind::Punct {
        return None;
    }
    let op = t.text.chars().next()?;
    if !matches!(op, '+' | '-' | '*' | '/') {
        return None;
    }
    let eq = code.get(j + 1)?;
    if eq.is_punct('=') && eq.line == t.line && eq.col == t.col + 1 {
        Some(op)
    } else {
        None
    }
}

/// Walks left from a compound-assign operator to the root identifier of
/// its place expression (`self.stats.n` → `self`, `cov[i]` → `cov`,
/// `*acc` → `acc`).
fn assign_base(code: &[Tok], op_idx: usize, lo: usize) -> Option<String> {
    let mut p = op_idx.checked_sub(1)?;
    loop {
        if p < lo {
            return None;
        }
        let t = &code[p];
        if t.is_punct(']') || t.is_punct(')') {
            // Match back over an index or grouping.
            let closer = t.text.chars().next().unwrap_or(')');
            let opener = if closer == ']' { '[' } else { '(' };
            let mut depth = 0i32;
            loop {
                if code[p].is_punct(closer) {
                    depth += 1;
                } else if code[p].is_punct(opener) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                p = p.checked_sub(1)?;
            }
            p = p.checked_sub(1)?;
            continue;
        }
        if t.kind == TokKind::Ident {
            if p > lo && code[p - 1].is_punct('.') {
                p = p.checked_sub(2)?;
                continue;
            }
            return Some(t.text.clone());
        }
        return None;
    }
}

/// Names bound by `let`/`for` inside a closure body (one lexical level,
/// good enough for the strict scan).
fn body_bindings(code: &[Tok], range: (usize, usize)) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let hi = range.1.min(code.len());
    let mut j = range.0;
    while j < hi {
        if code[j].is_ident("let") || code[j].is_ident("for") {
            let mut k = j + 1;
            let mut budget = 8usize;
            while k < hi && budget > 0 {
                let t = &code[k];
                if t.is_punct('=') || t.is_punct(':') || t.is_ident("in") {
                    break;
                }
                if t.kind == TokKind::Ident && !t.is_ident("mut") {
                    out.insert(t.text.clone());
                }
                k += 1;
                budget -= 1;
            }
            j = k;
            continue;
        }
        j += 1;
    }
    out
}

/// Lexical float evidence for a compound assignment: a float-hinted base,
/// or a float literal / `f32`/`f64` token in the statement's right side.
fn float_evidence(
    code: &[Tok],
    op_idx: usize,
    end: usize,
    base_hint: Option<&'static str>,
) -> bool {
    if matches!(base_hint, Some("f32") | Some("f64")) {
        return true;
    }
    let mut depth = 0i32;
    let hi = end.min(code.len());
    for t in code.iter().take(hi).skip(op_idx + 2).take(40) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return false;
            }
        } else if depth == 0 && t.is_punct(';') {
            return false;
        } else if t.is_ident("f64")
            || t.is_ident("f32")
            || (t.kind == TokKind::Num
                && matches!(literal_hint(&t.text), Some("f64") | Some("f32")))
        {
            return true;
        }
    }
    false
}

/// Runs the rule over one crate: `files` and `scopes` are parallel slices.
pub fn check(
    files: &[FileContext<'_>],
    scopes: &[FileScopes],
    graph: &CrateGraph,
    out: &mut Vec<Diagnostic>,
) {
    // Transitive roots: fn name → first witness description.
    let mut roots: BTreeMap<FnId, String> = BTreeMap::new();

    for ctx in files {
        let code = &ctx.code;
        for j in 0..code.len() {
            let t = &code[j];
            if t.kind != TokKind::Ident || !FAN_OUT.contains(&t.text.as_str()) {
                continue;
            }
            if !code.get(j + 1).is_some_and(|n| n.is_punct('(')) {
                continue;
            }
            if ctx.in_test_region(t.line) {
                continue;
            }
            let fan = t.text.clone();
            let args_close = match_close(code, j + 1);
            let closures = parse_closures(code, j + 2, args_close);
            let n = closures.len();
            let is_dynamic = fan.contains("dynamic");
            for (ci, cl) in closures.iter().enumerate() {
                // In the dynamic variants the work closure comes last and
                // its first parameter is the claim-ordered scratch.
                let scratch = (is_dynamic && ci + 1 == n)
                    .then(|| cl.params.first().cloned())
                    .flatten();
                let mut bound: BTreeSet<String> = cl.params.iter().cloned().collect();
                bound.extend(body_bindings(code, cl.body));
                let (blo, bhi) = cl.body;
                let bhi = bhi.min(code.len());
                for k in blo..bhi {
                    if ctx.in_test_region(code[k].line) {
                        continue;
                    }
                    let Some(op) = compound_assign_at(code, k) else {
                        continue;
                    };
                    let Some(base) = assign_base(code, k, blo) else {
                        continue;
                    };
                    let tok = &code[k];
                    if scratch.as_deref() == Some(base.as_str()) {
                        ctx.emit(
                            out,
                            "reduce-order",
                            tok.line,
                            tok.col,
                            format!(
                                "accumulation `{base} {op}=` into the dynamic scratch of \
                                 `{fan}`; shards are handed out in claim order, so this \
                                 merge is nondeterministic — return per-index values and \
                                 reduce sequentially, or `allow(reduce-order)` with a \
                                 rationale"
                            ),
                        );
                    } else if base == "self" || !bound.contains(&base) {
                        ctx.emit(
                            out,
                            "reduce-order",
                            tok.line,
                            tok.col,
                            format!(
                                "order-sensitive accumulation `{base} {op}=` into captured \
                                 state inside a `{fan}` closure; parallel fan-out must \
                                 merge in index order — return per-index values and reduce \
                                 sequentially, or `allow(reduce-order)` with a rationale"
                            ),
                        );
                    }
                }
                // Crate-local callees of this closure seed the transitive scan.
                for name in crate::callgraph::callee_names(code, cl.body, &graph.by_name) {
                    for &id in graph.by_name.get(&name).into_iter().flatten() {
                        roots.entry(id).or_insert_with(|| {
                            format!("`{fan}` at {}:{}", ctx.spec.path, t.line)
                        });
                    }
                }
            }
        }
    }

    if roots.is_empty() {
        return;
    }
    let root_ids: Vec<FnId> = roots.keys().copied().collect();
    let parent = graph.reachable(&root_ids);
    for &node in parent.keys() {
        let (fi, gi) = node;
        let ctx = &files[fi];
        let item = &scopes[fi].fns[gi];
        if ctx.in_test_region(item.fn_line) {
            continue;
        }
        // Witness chain back to a seeding root.
        let mut chain = vec![item.name.clone()];
        let mut cur = node;
        loop {
            let up = parent.get(&cur).copied().unwrap_or(cur);
            if up == cur {
                break;
            }
            cur = up;
            chain.push(scopes[cur.0].fns[cur.1].name.clone());
        }
        chain.reverse();
        let witness = roots
            .get(&cur)
            .cloned()
            .unwrap_or_else(|| "a fan-out call".to_string());

        let (open, close) = item.body;
        let end = close.min(ctx.code.len());
        for k in open + 1..end {
            if ctx.in_test_region(ctx.code[k].line) {
                continue;
            }
            if scopes[fi]
                .fn_of(k)
                .is_some_and(|inner| inner.body != item.body)
            {
                continue;
            }
            let Some(op) = compound_assign_at(&ctx.code, k) else {
                continue;
            };
            let Some(base) = assign_base(&ctx.code, k, open + 1) else {
                continue;
            };
            let suspect = base == "self"
                || item.mut_ref_params.contains(&base)
                || !item.bound.contains(&base);
            if !suspect {
                continue;
            }
            let hint = item.hints.get(&base).copied();
            if !float_evidence(&ctx.code, k, end, hint) {
                continue;
            }
            let tok = &ctx.code[k];
            ctx.emit(
                out,
                "reduce-order",
                tok.line,
                tok.col,
                format!(
                    "float accumulation `{base} {op}=` in `{}`, reached from {witness} \
                     via {}; results merged outside index order are nondeterministic — \
                     restructure to an index-ordered reduce, or `allow(reduce-order)` \
                     with a rationale",
                    item.name,
                    chain.join(" → ")
                ),
            );
        }
    }
}
