//! The rule engine: per-rule scoping, token-pattern matching, test-code
//! detection, and inline `// lint: allow(...)` suppressions.
//!
//! Every rule encodes an invariant this workspace actually depends on (see
//! DESIGN.md "Static analysis"):
//!
//! * `float-eq` — no `==`/`!=` against float expressions in `crates/lp`
//!   and `crates/core` library code. Exact float comparison at a tolerance
//!   boundary is how two runs of the same LP diverge; use the tolerance
//!   helpers or suppress with a reason explaining why exactness is correct.
//! * `hash-iter-order` — no `HashMap`/`HashSet` in the output- and
//!   ordering-sensitive crates (`bench`, `sim`, `net`, `core`). Their
//!   iteration order is randomized per process, which breaks the
//!   bit-identical-output guarantee the moment one feeds a CSV row, a
//!   schedule, or a float reduction. Use `BTreeMap`/`BTreeSet` or sort.
//! * `lib-unwrap` — no `unwrap()` / `expect()` / `panic!` in non-test,
//!   non-binary library code. Library hot paths return typed errors;
//!   genuine invariants use `expect("invariant: ...")` plus a suppression
//!   carrying the reason.
//! * `wallclock` — no `Instant::now` / `SystemTime` outside `crates/obs`
//!   and the bench binaries. Wall-clock reads in the decision path break
//!   replay determinism.
//! * `env-knob` — no raw `std::env::var` outside the sanctioned helpers
//!   (`wavesched-par`'s `WS_THREADS` reader, `wavesched-bench`'s
//!   `try_env_usize`). Ad-hoc env reads are knobs no one can discover, and
//!   silently-misread knobs mislabel experiments.
//! * `zero-sign-clamp` — no `.max(0.0)` / `f64::max(…, 0.0)` / `.min(-0.0)`
//!   zero clamps outside `pos_or_zero` in `crates/lp`/`crates/core` library
//!   code. `f64::max` leaves the sign of a zero result unspecified, and a
//!   `-0.0` leaking into a `total_cmp`-ordered pivot sort sends debug and
//!   release builds down different degenerate paths (the PR 7 bug class).
//! * `alloc-in-hot-path` — no heap-allocating calls (`Vec::new`, `vec!`,
//!   `collect`, `to_vec`, `clone`, `Box::new`, `with_capacity`, …) inside
//!   the configured simplex hot-function list in `crates/lp`. Steady-state
//!   pivots reuse engine-owned arenas; the runtime counting-allocator test
//!   enforces this dynamically, this rule makes it visible statically.
//! * `float-sort-partial` — no `sort_by` / `max_by` / `min_by` comparator
//!   built on `partial_cmp` in the determinism-sensitive crates: NaN makes
//!   `partial_cmp` panic-or-lie territory and its zero handling differs
//!   from `total_cmp`, which is the workspace's ordering primitive.
//! * `lossy-cast` — no narrowing `as` cast (`usize`, `u32`, smaller) of a
//!   parenthesized arithmetic expression in `crates/lp`/`crates/core`
//!   library code: `(a * b + c) as u32` silently truncates on overflow;
//!   hoist the expression behind a checked or documented conversion.
//! * `bad-suppression` — a `// lint: allow(...)` comment that is malformed,
//!   names an unknown rule, or lacks a non-empty `reason = "..."`. A
//!   suppression without a reason is just a hidden violation.

use crate::lexer::{lex, Tok, TokKind};
use crate::tree::ScopeTree;
use std::collections::BTreeMap;

/// Names of all rules, in report order.
pub const RULE_NAMES: [&str; 10] = [
    "float-eq",
    "hash-iter-order",
    "lib-unwrap",
    "wallclock",
    "env-knob",
    "zero-sign-clamp",
    "alloc-in-hot-path",
    "float-sort-partial",
    "lossy-cast",
    "bad-suppression",
];

/// One-line description per rule, aligned with [`RULE_NAMES`].
pub const RULE_DESCRIPTIONS: [&str; 10] = [
    "no ==/!= against float expressions in crates/lp and crates/core library code",
    "no HashMap/HashSet in ordering-sensitive crates (bench, sim, net, core)",
    "no unwrap()/expect()/panic! in non-test, non-binary library code",
    "no Instant::now/SystemTime outside crates/obs and bench binaries",
    "no raw std::env::var outside the sanctioned par/bench helpers",
    "no .max(0.0)/f64::max(..,0.0)/.min(-0.0) zero clamps outside pos_or_zero (lp/core lib)",
    "no heap-allocating calls inside the simplex hot-function list (lp lib)",
    "no sort_by/max_by/min_by comparator built on partial_cmp (use total_cmp)",
    "no narrowing `as` cast of parenthesized arithmetic (lp/core lib)",
    "malformed or reason-less `// lint: allow(...)` comment",
];

/// The simplex hot-function list for `alloc-in-hot-path`: the pivot loop
/// and every kernel it calls per iteration, and the solve entry and the
/// refactorization boundary, which a re-solve that pivots little or not at
/// all is made of. A `price_`/`ftran_`/`btran_` prefix covers variants
/// (sparse/dense twins, future pricing modes).
const HOT_FNS: [&str; 19] = [
    "pivot",
    "apply_pivot",
    "apply_bound_flip",
    "ratio_test",
    "dual_loop",
    "pivotal_row",
    "update_reduced_and_weights",
    "push_row_cols",
    "refresh_eligible",
    "refresh_infeasible",
    "sort_dedup",
    "price",
    "ftran",
    "btran",
    "crash",
    "warm_entry",
    "refactorize",
    "compute_xb",
    "recompute_reduced",
];

fn is_hot_fn(name: &str) -> bool {
    HOT_FNS.contains(&name)
        || name.starts_with("price_")
        || name.starts_with("ftran_")
        || name.starts_with("btran_")
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// The trimmed source line the finding sits on.
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
}

/// The crate a workspace-relative path belongs to, e.g. `Some("lp")` for
/// `crates/lp/src/revised.rs`; `None` for the root package and other files.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Binary / entry-point code: `src/bin/**`, any `src/main.rs`, benches and
/// examples. The panic-freedom rule does not apply there (a CLI aborting
/// with a message is fine); the determinism rules mostly still do.
fn is_bin(path: &str) -> bool {
    path.contains("/src/bin/") || path.ends_with("src/main.rs") || is_bench_or_example(path)
}

fn is_bench_or_example(path: &str) -> bool {
    path.contains("/benches/") || path.starts_with("examples/") || path.contains("/examples/")
}

/// Test code by its path: integration tests (a `tests/` directory at any
/// crate root) and out-of-line unit-test modules (a `tests.rs` under `src/`,
/// the file a `#[cfg(test)] mod tests;` declaration names).
fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.ends_with("/tests.rs")
}

/// Library source: a crate's (or the root package's) `src/` tree minus
/// binary entry points.
fn is_lib_source(path: &str) -> bool {
    (path.starts_with("src/") || path.contains("/src/")) && !is_bin(path) && !is_test_file(path)
}

fn float_eq_applies(path: &str) -> bool {
    matches!(crate_of(path), Some("lp") | Some("core")) && is_lib_source(path)
}

fn hash_iter_applies(path: &str) -> bool {
    // Binaries included on purpose: the bench bins are exactly where CSV
    // rows get printed. Tests excluded (assertions don't ship output).
    matches!(
        crate_of(path),
        Some("bench") | Some("sim") | Some("net") | Some("core")
    ) && !is_test_file(path)
        && !is_bench_or_example(path)
}

fn lib_unwrap_applies(path: &str) -> bool {
    is_lib_source(path)
}

fn wallclock_applies(path: &str) -> bool {
    !matches!(crate_of(path), Some("obs") | Some("bench"))
        && !is_bench_or_example(path)
        && !is_test_file(path)
}

fn env_knob_applies(path: &str) -> bool {
    !matches!(path, "crates/par/src/lib.rs" | "crates/bench/src/lib.rs")
}

fn zero_sign_applies(path: &str) -> bool {
    matches!(crate_of(path), Some("lp") | Some("core")) && is_lib_source(path)
}

fn alloc_hot_applies(path: &str) -> bool {
    crate_of(path) == Some("lp") && is_lib_source(path)
}

fn float_sort_applies(path: &str) -> bool {
    matches!(
        crate_of(path),
        Some("lp") | Some("core") | Some("net") | Some("sim")
    ) && is_lib_source(path)
}

fn lossy_cast_applies(path: &str) -> bool {
    matches!(crate_of(path), Some("lp") | Some("core")) && is_lib_source(path)
}

/// Byte ranges of `#[cfg(test)]` items and `#[test]` functions: rules do
/// not fire inside them (unit tests unwrap and compare exactly by design).
fn test_ranges(src: &str, toks: &[Tok]) -> Vec<(usize, usize)> {
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].text(src) == "#"
            && i + 1 < code.len()
            && code[i + 1].text(src) == "["
            && attr_mentions_test(src, &code, i + 1)
        {
            let attr_start = code[i].start;
            // Skip this attribute and any further ones, then the item body.
            let mut j = skip_attr(src, &code, i + 1);
            while j + 1 < code.len() && code[j].text(src) == "#" && code[j + 1].text(src) == "[" {
                j = skip_attr(src, &code, j + 1);
            }
            // Find the item's opening brace (or a terminating `;`).
            let mut depth = 0i32;
            let mut end = None;
            let mut k = j;
            while k < code.len() {
                match code[k].text(src) {
                    "{" => {
                        depth += 1;
                    }
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(code[k].end);
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        end = Some(code[k].end);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let end = end.unwrap_or(src.len());
            ranges.push((attr_start, end));
            i = k.max(i + 1);
        } else {
            i += 1;
        }
    }
    ranges
}

/// Does the attribute whose `[` is at `open` contain the bare word `test`
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`)?
fn attr_mentions_test(src: &str, code: &[&Tok], open: usize) -> bool {
    let mut depth = 0i32;
    for t in &code[open..] {
        match t.text(src) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            "test" if t.kind == TokKind::Ident => return true,
            _ => {}
        }
    }
    false
}

/// Index one past the `]` closing the attribute whose `[` is at `open`.
fn skip_attr(src: &str, code: &[&Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open) {
        match t.text(src) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Parsed `// lint: allow(rule, reason = "...")` suppressions, mapped to
/// the line they silence, plus findings for malformed ones.
struct Suppressions {
    /// line -> rules silenced on that line.
    by_line: BTreeMap<u32, Vec<String>>,
}

impl Suppressions {
    fn allows(&self, line: u32, rule: &str) -> bool {
        self.by_line
            .get(&line)
            .is_some_and(|rs| rs.iter().any(|r| r == rule))
    }
}

/// Extracts suppressions from comment tokens. A trailing comment silences
/// its own line; a standalone comment line silences the next line that
/// carries a non-comment token (stacked comments accumulate).
fn collect_suppressions(path: &str, src: &str, toks: &[Tok]) -> (Suppressions, Vec<Finding>) {
    let mut by_line: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    let mut bad = Vec::new();
    for (idx, t) in toks.iter().enumerate() {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let text = t.text(src);
        let Some(rest) = text
            .trim_start_matches('/')
            .trim_start()
            .strip_prefix("lint:")
        else {
            continue;
        };
        let target_line = if line_has_code_before(src, t.start) {
            t.line
        } else {
            // Standalone: applies to the next non-comment token's line.
            toks[idx + 1..]
                .iter()
                .find(|n| !matches!(n.kind, TokKind::LineComment | TokKind::BlockComment))
                .map(|n| n.line)
                .unwrap_or(t.line)
        };
        match parse_allow(rest.trim()) {
            Ok(rule) => by_line.entry(target_line).or_default().push(rule),
            Err(msg) => bad.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: "bad-suppression",
                snippet: snippet_at(src, t.start),
                message: msg,
            }),
        }
    }
    (Suppressions { by_line }, bad)
}

/// Is there non-whitespace source before byte `pos` on its own line?
fn line_has_code_before(src: &str, pos: usize) -> bool {
    src[..pos]
        .bytes()
        .rev()
        .take_while(|&b| b != b'\n')
        .any(|b| !b.is_ascii_whitespace())
}

/// Parses `allow(rule, reason = "...")`. Returns the rule name or an error
/// message describing what is wrong.
fn parse_allow(s: &str) -> Result<String, String> {
    let Some(inner) = s
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('('))
        .and_then(|r| r.rfind(')').map(|i| &r[..i]))
    else {
        return Err(format!(
            "unparseable lint comment (expected `lint: allow(<rule>, reason = \"...\")`): `{s}`"
        ));
    };
    let Some((rule, reason_part)) = inner.split_once(',') else {
        return Err("suppression is missing `reason = \"...\"`".to_string());
    };
    let rule = rule.trim();
    if !RULE_NAMES.contains(&rule) {
        return Err(format!("unknown rule `{rule}` in suppression"));
    }
    let reason_part = reason_part.trim();
    let Some(reason) = reason_part
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim_start)
    else {
        return Err("suppression is missing `reason = \"...\"`".to_string());
    };
    let reason = reason.trim_matches('"').trim();
    if reason.is_empty() {
        return Err("suppression reason must be non-empty".to_string());
    }
    Ok(rule.to_string())
}

/// The trimmed text of the line containing byte `pos`.
fn snippet_at(src: &str, pos: usize) -> String {
    let start = src[..pos].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let end = src[pos..].find('\n').map(|i| pos + i).unwrap_or(src.len());
    src[start..end].trim().to_string()
}

/// Lints one file's source. `path` must be workspace-relative with forward
/// slashes — rule scoping keys off it. Suppressed findings are dropped;
/// malformed suppressions surface as `bad-suppression` findings.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let toks = lex(src);
    let tests = test_ranges(src, &toks);
    let in_test = |pos: usize| tests.iter().any(|&(a, b)| pos >= a && pos < b);
    let (supp, mut findings) = collect_suppressions(path, src, &toks);

    let code: Vec<Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .copied()
        .collect();
    let tree = ScopeTree::build(src, &code);

    let push = |rule: &'static str, tok: &Tok, message: String, findings: &mut Vec<Finding>| {
        if !supp.allows(tok.line, rule) {
            findings.push(Finding {
                file: path.to_string(),
                line: tok.line,
                rule,
                snippet: snippet_at(src, tok.start),
                message,
            });
        }
    };

    let float_eq = float_eq_applies(path);
    let hash_iter = hash_iter_applies(path);
    let lib_unwrap = lib_unwrap_applies(path);
    let wallclock = wallclock_applies(path);
    let env_knob = env_knob_applies(path);
    let zero_sign = zero_sign_applies(path);
    let alloc_hot = alloc_hot_applies(path);
    let float_sort = float_sort_applies(path);
    let lossy_cast = lossy_cast_applies(path);

    for (i, t) in code.iter().enumerate() {
        if in_test(t.start) {
            continue;
        }
        let text = t.text(src);
        match t.kind {
            TokKind::Punct
                if float_eq
                    && (text == "==" || text == "!=")
                    && comparison_involves_float(src, &code, i) =>
            {
                push(
                    "float-eq",
                    t,
                    format!(
                        "exact float `{text}` comparison; compare against a tolerance \
                         (e.g. `(a - b).abs() <= tol`) or suppress with the reason \
                         exactness is intended"
                    ),
                    &mut findings,
                );
            }
            TokKind::Ident if hash_iter && (text == "HashMap" || text == "HashSet") => {
                push(
                    "hash-iter-order",
                    t,
                    format!(
                        "`{text}` in an ordering-sensitive crate: iteration order is \
                         per-process random and breaks bit-identical output; use \
                         `BTreeMap`/`BTreeSet` or collect-and-sort"
                    ),
                    &mut findings,
                );
            }
            TokKind::Ident if lib_unwrap && matches!(text, "unwrap" | "expect" | "panic") => {
                let next = code.get(i + 1).map(|n| n.text(src));
                let prev = i.checked_sub(1).map(|p| code[p].text(src));
                let hit = match text {
                    "unwrap" | "expect" => prev == Some(".") && next == Some("("),
                    _ => next == Some("!"), // panic
                };
                if hit {
                    push(
                        "lib-unwrap",
                        t,
                        format!(
                            "`{text}` in library code: return a typed error, or document \
                             the invariant with `expect(\"invariant: ...\")` plus a \
                             suppression carrying the reason"
                        ),
                        &mut findings,
                    );
                }
            }
            TokKind::Ident if wallclock && text == "Instant" => {
                let is_now = code.get(i + 1).map(|n| n.text(src)) == Some("::")
                    && code.get(i + 2).map(|n| n.text(src)) == Some("now");
                if is_now {
                    push(
                        "wallclock",
                        t,
                        "`Instant::now` outside obs/bench: wall-clock reads in the \
                         decision path break replay determinism"
                            .to_string(),
                        &mut findings,
                    );
                }
            }
            TokKind::Ident if wallclock && text == "SystemTime" => {
                push(
                    "wallclock",
                    t,
                    "`SystemTime` outside obs/bench: wall-clock reads in the decision \
                     path break replay determinism"
                        .to_string(),
                    &mut findings,
                );
            }
            TokKind::Ident if zero_sign && matches!(text, "max" | "min") => {
                if let Some(form) = zero_clamp_form(src, &code, i) {
                    // Scope-aware: the one function allowed to spell a zero
                    // clamp is the deterministic helper itself.
                    if tree.enclosing_fn(i) != Some("pos_or_zero") {
                        push(
                            "zero-sign-clamp",
                            t,
                            format!(
                                "`{form}` clamps against a zero whose result sign \
                                 `f64::{text}` leaves unspecified; a `-0.0` leaking into a \
                                 `total_cmp`-ordered pivot sort diverges between builds — \
                                 route through `pos_or_zero`"
                            ),
                            &mut findings,
                        );
                    }
                }
            }
            // Guard on the *form*, not just the crate: the arms of this
            // match are exclusive, and a broad guard here would swallow
            // identifiers later arms need (`as`, `env`, `Instant`, …).
            TokKind::Ident if alloc_hot && alloc_call_form(src, &code, i).is_some() => {
                if let Some(hot) = tree.enclosing_fn(i).filter(|f| is_hot_fn(f)) {
                    let hot = hot.to_string();
                    let what = alloc_call_form(src, &code, i).unwrap_or_default();
                    push(
                        "alloc-in-hot-path",
                        t,
                        format!(
                            "heap allocation (`{what}`) inside hot function `{hot}`: \
                             steady-state pivots must reuse engine-owned arenas \
                             (see crates/lp/tests/alloc.rs)"
                        ),
                        &mut findings,
                    );
                }
            }
            TokKind::Ident
                if float_sort
                    && matches!(
                        text,
                        "sort_by" | "sort_unstable_by" | "max_by" | "min_by" | "binary_search_by"
                    ) =>
            {
                let prev = i.checked_sub(1).map(|p| code[p].text(src));
                let next_open = code.get(i + 1).map(|n| n.text(src)) == Some("(");
                if prev == Some(".") && next_open {
                    if let Some(close) = matching_close(src, &code, i + 1) {
                        let uses_partial = code[i + 2..close]
                            .iter()
                            .any(|a| a.kind == TokKind::Ident && a.text(src) == "partial_cmp");
                        if uses_partial {
                            push(
                                "float-sort-partial",
                                t,
                                format!(
                                    "`{text}` comparator built on `partial_cmp`: NaN breaks \
                                     the ordering and its zero handling differs across \
                                     platforms — use `total_cmp`"
                                ),
                                &mut findings,
                            );
                        }
                    }
                }
            }
            TokKind::Ident if lossy_cast && text == "as" => {
                if let Some(ty) = narrowing_cast_of_arithmetic(src, &code, i) {
                    push(
                        "lossy-cast",
                        t,
                        format!(
                            "`as {ty}` narrowing cast of an arithmetic expression silently \
                             truncates on overflow; compute in the wide type and convert \
                             through a checked/documented conversion"
                        ),
                        &mut findings,
                    );
                }
            }
            TokKind::Ident if env_knob && text == "env" => {
                let is_var = code.get(i + 1).map(|n| n.text(src)) == Some("::")
                    && code
                        .get(i + 2)
                        .is_some_and(|n| n.text(src).starts_with("var"));
                // `env!` / `option_env!` are compile-time and fine.
                if is_var {
                    push(
                        "env-knob",
                        t,
                        "raw `std::env::var`: route knobs through the sanctioned \
                         helpers (`wavesched_par::threads`, `wavesched_bench::\
                         try_env_usize`) so misreads fail loudly"
                            .to_string(),
                        &mut findings,
                    );
                }
            }
            _ => {}
        }
    }

    // Suppressed `bad-suppression` findings make no sense; everything else
    // was filtered at push time. Sort for stable output.
    findings.sort();
    findings
}

/// Does the `==`/`!=` at `code[i]` have a float literal (or a float
/// constant like `f64::NAN`) as either operand? Purely lexical: it cannot
/// see types, so `a == b` between two `f64` bindings is out of scope — the
/// rule catches the dominant pattern (comparison against a literal).
fn comparison_involves_float(src: &str, code: &[Tok], i: usize) -> bool {
    // Left operand: the token immediately before the operator.
    if let Some(p) = i.checked_sub(1) {
        if operand_is_float(src, code, p, true) {
            return true;
        }
    }
    // Right operand: skip unary minus / parens.
    let mut j = i + 1;
    while j < code.len() && matches!(code[j].text(src), "-" | "(") {
        j += 1;
    }
    if j < code.len() && operand_is_float(src, code, j, false) {
        return true;
    }
    false
}

const FLOAT_CONSTS: [&str; 5] = ["NAN", "INFINITY", "NEG_INFINITY", "EPSILON", "MAX"];

fn operand_is_float(src: &str, code: &[Tok], j: usize, left: bool) -> bool {
    let t = &code[j];
    match t.kind {
        TokKind::Float => true,
        TokKind::Ident => {
            // `f64::NAN`-style constants: ident preceded by `f64`/`f32` + `::`
            // on the left side, or ident followed by `::` + const on the right.
            let text = t.text(src);
            if left {
                FLOAT_CONSTS.contains(&text)
                    && j >= 2
                    && code[j - 1].text(src) == "::"
                    && matches!(code[j - 2].text(src), "f64" | "f32")
            } else {
                matches!(text, "f64" | "f32")
                    && j + 2 < code.len()
                    && code[j + 1].text(src) == "::"
                    && FLOAT_CONSTS.contains(&code[j + 2].text(src))
            }
        }
        _ => false,
    }
}

/// Index of the `)` matching the `(` at `open` (same depth), if any.
fn matching_close(src: &str, code: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open) {
        match t.text(src) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the `(` matching the `)` at `close` (same depth), if any.
fn matching_open(src: &str, code: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    for k in (0..=close).rev() {
        match code[k].text(src) {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Is the float literal token's numeric value exactly zero (`0.0`, `0.`,
/// `0f64`, `0.0_f32`, …)?
fn float_literal_is_zero(text: &str) -> bool {
    let digits: String = text.chars().filter(|c| *c != '_').collect();
    let trimmed = digits
        .strip_suffix("f64")
        .or_else(|| digits.strip_suffix("f32"))
        .unwrap_or(&digits);
    trimmed.parse::<f64>().map(|v| v == 0.0).unwrap_or(false)
}

/// Do the tokens in `code[lo..hi]` form a bare (possibly negated) float
/// zero? Returns `Some(negated)` if so.
fn bare_zero(src: &str, code: &[Tok], lo: usize, hi: usize) -> Option<bool> {
    let args = &code[lo..hi];
    match args {
        [z] if z.kind == TokKind::Float && float_literal_is_zero(z.text(src)) => Some(false),
        [m, z]
            if m.text(src) == "-"
                && z.kind == TokKind::Float
                && float_literal_is_zero(z.text(src)) =>
        {
            Some(true)
        }
        _ => None,
    }
}

/// Detects a zero clamp at the `max`/`min` ident `code[i]`: method form
/// `.max(0.0)` / `.min(-0.0)`, or qualified `f64::max(a, 0.0)` with a bare
/// zero as either argument. `max` fires on a zero of either sign (the
/// result sign is unspecified whenever the other operand can be `-0.0` or
/// the zero argument wins); `min` only on `-0.0` (clamping *up to* `-0.0`
/// manufactures negative zeros). Returns a display form for the message.
fn zero_clamp_form(src: &str, code: &[Tok], i: usize) -> Option<String> {
    let name = code[i].text(src);
    let prev = i.checked_sub(1).map(|p| code[p].text(src));
    if code.get(i + 1).map(|n| n.text(src)) != Some("(") {
        return None;
    }
    let close = matching_close(src, code, i + 1)?;
    let polarity_hit = |neg: bool| name == "max" || neg;
    if prev == Some(".") {
        let neg = bare_zero(src, code, i + 2, close)?;
        if polarity_hit(neg) {
            let sign = if neg { "-" } else { "" };
            return Some(format!(".{name}({sign}0.0)"));
        }
        return None;
    }
    if prev == Some("::") && i >= 2 && matches!(code[i - 2].text(src), "f64" | "f32") {
        // Split the two top-level arguments at the comma.
        let mut depth = 0i32;
        let mut cut = None;
        for (k, tok) in code.iter().enumerate().take(close).skip(i + 2) {
            match tok.text(src) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "," if depth == 0 => {
                    cut = Some(k);
                    break;
                }
                _ => {}
            }
        }
        let cut = cut?;
        for (lo, hi) in [(i + 2, cut), (cut + 1, close)] {
            if let Some(neg) = bare_zero(src, code, lo, hi) {
                if polarity_hit(neg) {
                    let sign = if neg { "-" } else { "" };
                    return Some(format!("{}::{name}(…, {sign}0.0)", code[i - 2].text(src)));
                }
            }
        }
    }
    None
}

/// Detects a heap-allocating call at ident `code[i]`; returns its display
/// form. Covers the constructors (`Vec::new`, `Box::new`,
/// `…::with_capacity`, `Vec::from`), the `vec!` macro, and the allocating
/// method calls (`.collect()`, `.to_vec()`, `.clone()`, …).
fn alloc_call_form(src: &str, code: &[Tok], i: usize) -> Option<String> {
    let text = code[i].text(src);
    let prev = i.checked_sub(1).map(|p| code[p].text(src));
    let next = code.get(i + 1).map(|n| n.text(src));
    if text == "vec" && next == Some("!") {
        return Some("vec!".to_string());
    }
    const ALLOC_TYPES: [&str; 7] = [
        "Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet", "HashMap",
    ];
    if matches!(text, "new" | "with_capacity" | "from")
        && prev == Some("::")
        && i >= 2
        && ALLOC_TYPES.contains(&code[i - 2].text(src))
    {
        return Some(format!("{}::{text}", code[i - 2].text(src)));
    }
    if matches!(
        text,
        "collect" | "to_vec" | "clone" | "cloned" | "to_owned" | "to_string"
    ) && prev == Some(".")
        && next == Some("(")
    {
        return Some(format!(".{text}()"));
    }
    None
}

/// Narrow integer targets for `lossy-cast`. `u64`/`i64`/floats are exempt
/// (the workspace's index arithmetic is done in `usize`-width or wider).
const NARROW_INTS: [&str; 8] = ["usize", "isize", "u32", "i32", "u16", "i16", "u8", "i8"];

/// Detects `( …arith… ) as <narrow>` at the `as` ident `code[i]`: the cast
/// operand is a *parenthesized group* (not a call — a token before the `(`
/// that could be a callee disqualifies it) containing a top-level binary
/// arithmetic operator. Returns the target type name.
fn narrowing_cast_of_arithmetic<'a>(src: &'a str, code: &[Tok], i: usize) -> Option<&'a str> {
    let ty = code.get(i + 1)?.text(src);
    if !NARROW_INTS.contains(&ty) {
        return None;
    }
    if i == 0 || code[i - 1].text(src) != ")" {
        return None;
    }
    let open = matching_open(src, code, i - 1)?;
    if open > 0 {
        let before = &code[open - 1];
        // `f(...)`, `x[...](...)` , `collect::<_>(...)`: a call, not a
        // grouped expression — the arithmetic inside is the callee's args.
        if before.kind == TokKind::Ident || matches!(before.text(src), ")" | "]" | ">") {
            return None;
        }
    }
    let mut depth = 0i32;
    for k in open..i - 1 {
        let t = code[k].text(src);
        match t {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "+" | "-" | "*" | "/" | "%" if depth == 1 => {
                // Binary only: a unary minus follows an opener or another
                // operator, a binary operator follows a value.
                let p = &code[k - 1];
                let binary = matches!(p.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
                    || matches!(p.text(src), ")" | "]");
                if binary {
                    return Some(ty);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn float_eq_scoped_to_lp_and_core() {
        let bad = "fn f(x: f64) -> bool { x == 0.0 }";
        assert_eq!(rules_hit("crates/lp/src/a.rs", bad), ["float-eq"]);
        assert_eq!(rules_hit("crates/core/src/a.rs", bad), ["float-eq"]);
        assert!(rules_hit("crates/net/src/a.rs", bad).is_empty());
        // A unit-test module kept in a file of its own is test code.
        assert!(rules_hit("crates/lp/src/revised/lu/tests.rs", bad).is_empty());
        // Both operand sides and NaN constants.
        assert_eq!(
            rules_hit("crates/lp/src/a.rs", "fn f(x: f64) -> bool { 0.5 != x }"),
            ["float-eq"]
        );
        assert_eq!(
            rules_hit(
                "crates/lp/src/a.rs",
                "fn f(x: f64) -> bool { x == f64::NAN }"
            ),
            ["float-eq"]
        );
        // Integer comparison does not fire.
        assert!(rules_hit("crates/lp/src/a.rs", "fn f(x: u32) -> bool { x == 0 }").is_empty());
    }

    #[test]
    fn hash_iter_scoped_and_caught_in_bins() {
        let bad = "use std::collections::HashMap;";
        assert_eq!(rules_hit("crates/sim/src/a.rs", bad), ["hash-iter-order"]);
        assert_eq!(
            rules_hit("crates/bench/src/bin/fig9.rs", bad),
            ["hash-iter-order"]
        );
        assert!(rules_hit("crates/lp/src/a.rs", bad).is_empty());
        assert!(rules_hit("crates/net/tests/t.rs", bad).is_empty());
    }

    #[test]
    fn lib_unwrap_spares_tests_and_bins() {
        let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules_hit("crates/net/src/a.rs", bad), ["lib-unwrap"]);
        assert!(rules_hit("crates/bench/src/bin/fig1.rs", bad).is_empty());
        assert!(rules_hit("crates/net/tests/t.rs", bad).is_empty());
        let in_test_mod = "#[cfg(test)]\nmod tests { fn g() { None::<u8>.unwrap(); } }";
        assert!(rules_hit("crates/net/src/a.rs", in_test_mod).is_empty());
        let test_fn = "#[test]\nfn t() { None::<u8>.unwrap(); }";
        assert!(rules_hit("crates/net/src/a.rs", test_fn).is_empty());
        // Code after the test module is linted again.
        let after = "#[cfg(test)]\nmod tests { }\nfn g(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules_hit("crates/net/src/a.rs", after), ["lib-unwrap"]);
        // unwrap_or_else is fine; panic! and expect are not.
        assert!(rules_hit(
            "crates/net/src/a.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }"
        )
        .is_empty());
        assert_eq!(
            rules_hit("crates/net/src/a.rs", "fn f() { panic!(\"boom\"); }"),
            ["lib-unwrap"]
        );
    }

    #[test]
    fn wallclock_and_env_scoping() {
        let now = "fn f() { let _t = std::time::Instant::now(); }";
        assert_eq!(rules_hit("crates/core/src/a.rs", now), ["wallclock"]);
        assert!(rules_hit("crates/obs/src/lib.rs", now).is_empty());
        assert!(rules_hit("crates/bench/src/bin/fig1.rs", now).is_empty());
        // `use std::time::Instant;` alone is fine — only `::now` is flagged.
        assert!(rules_hit("crates/core/src/a.rs", "use std::time::Instant;").is_empty());

        let env = "fn f() { let _ = std::env::var(\"X\"); }";
        assert_eq!(rules_hit("crates/core/src/a.rs", env), ["env-knob"]);
        assert!(rules_hit("crates/par/src/lib.rs", env).is_empty());
        assert!(rules_hit("crates/bench/src/lib.rs", env).is_empty());
        // Compile-time env! is fine.
        assert!(rules_hit("crates/core/src/a.rs", "const X: &str = env!(\"PATH\");").is_empty());
    }

    #[test]
    fn suppressions_silence_same_and_next_line() {
        let trailing = "fn f(x: f64) -> bool { x == 0.0 } // lint: allow(float-eq, reason = \"exact zero skip\")";
        assert!(rules_hit("crates/lp/src/a.rs", trailing).is_empty());
        let standalone = "// lint: allow(float-eq, reason = \"exact zero skip\")\nfn f(x: f64) -> bool { x == 0.0 }";
        assert!(rules_hit("crates/lp/src/a.rs", standalone).is_empty());
        // A suppression for a different rule does not silence.
        let wrong = "// lint: allow(lib-unwrap, reason = \"x\")\nfn f(x: f64) -> bool { x == 0.0 }";
        assert_eq!(rules_hit("crates/lp/src/a.rs", wrong), ["float-eq"]);
    }

    #[test]
    fn malformed_suppressions_are_findings() {
        let no_reason = "// lint: allow(float-eq)\nfn f() {}";
        assert_eq!(
            rules_hit("crates/lp/src/a.rs", no_reason),
            ["bad-suppression"]
        );
        let unknown = "// lint: allow(no-such-rule, reason = \"x\")\nfn f() {}";
        assert_eq!(
            rules_hit("crates/lp/src/a.rs", unknown),
            ["bad-suppression"]
        );
        let empty = "// lint: allow(float-eq, reason = \"\")\nfn f() {}";
        assert_eq!(rules_hit("crates/lp/src/a.rs", empty), ["bad-suppression"]);
    }

    #[test]
    fn zero_sign_clamp_scoped_by_function_and_crate() {
        let bad = "fn clamp(t: f64) -> f64 { t.max(0.0) }";
        assert_eq!(rules_hit("crates/lp/src/a.rs", bad), ["zero-sign-clamp"]);
        assert_eq!(rules_hit("crates/core/src/a.rs", bad), ["zero-sign-clamp"]);
        assert!(rules_hit("crates/net/src/a.rs", bad).is_empty());
        // The deterministic helper itself is the one allowed spelling.
        let inside = "fn pos_or_zero(t: f64) -> f64 { t.max(0.0) }";
        assert!(rules_hit("crates/lp/src/a.rs", inside).is_empty());
        // Qualified form, either argument; the literal PR 7 shape.
        assert_eq!(
            rules_hit(
                "crates/lp/src/a.rs",
                "fn f(a: f64) -> f64 { f64::max(a, 0.0) }"
            ),
            ["zero-sign-clamp"]
        );
        assert_eq!(
            rules_hit(
                "crates/lp/src/a.rs",
                "fn f() -> f64 { f64::max(-0.0, 0.0) }"
            ),
            ["zero-sign-clamp"]
        );
        // `.min(-0.0)` manufactures negative zeros; `.min(0.0)` does not.
        assert_eq!(
            rules_hit("crates/lp/src/a.rs", "fn f(t: f64) -> f64 { t.min(-0.0) }"),
            ["zero-sign-clamp"]
        );
        assert!(rules_hit("crates/lp/src/a.rs", "fn f(t: f64) -> f64 { t.min(0.0) }").is_empty());
        // Non-zero clamps are fine.
        assert!(rules_hit("crates/lp/src/a.rs", "fn f(t: f64) -> f64 { t.max(1.0) }").is_empty());
        // `f64::min` passed as a function value (no call parens) is fine.
        assert!(rules_hit(
            "crates/lp/src/a.rs",
            "fn f(v: &[f64]) -> f64 { v.iter().copied().fold(0.5, f64::min) }"
        )
        .is_empty());
    }

    #[test]
    fn alloc_in_hot_path_scoped_by_function_list() {
        // Inside a hot function: fires.
        let bad = "fn ratio_test(&self) { let v = Vec::new(); }";
        assert_eq!(rules_hit("crates/lp/src/a.rs", bad), ["alloc-in-hot-path"]);
        // Same allocation in a cold function: silent.
        let cold = "fn setup(&self) { let v = Vec::new(); }";
        assert!(rules_hit("crates/lp/src/a.rs", cold).is_empty());
        // Prefix wildcard covers kernel variants.
        let pfx = "fn ftran_entering(&mut self) { let w = x.to_vec(); }";
        assert_eq!(rules_hit("crates/lp/src/a.rs", pfx), ["alloc-in-hot-path"]);
        // Closures inside a hot fn are still inside it.
        let clo = "fn price_full(&mut self) { let f = || cols.iter().collect(); }";
        assert_eq!(rules_hit("crates/lp/src/a.rs", clo), ["alloc-in-hot-path"]);
        // Outside crates/lp: out of scope.
        assert!(rules_hit("crates/core/src/a.rs", bad).is_empty());
        // vec! and Box::new forms.
        assert_eq!(
            rules_hit(
                "crates/lp/src/a.rs",
                "fn apply_pivot(&mut self) { let v = vec![0.0; m]; }"
            ),
            ["alloc-in-hot-path"]
        );
        for hot in [
            "fn dual_loop(&mut self) { let b = Box::new(0); }",
            "fn pivotal_row(&mut self) { let a = touched.to_vec(); }",
            "fn refresh_eligible(&mut self, j: usize) { let e = self.elig.clone(); }",
            "fn sort_dedup(list: &mut Vec<u32>) { let words = vec![0u64; 8]; }",
            "fn crash(&mut self) { let act = vec![0.0; m]; }",
            "fn warm_entry(&mut self) { let basic: Vec<usize> = Vec::with_capacity(m); }",
            "fn refactorize(&mut self) { let lu = Box::new(Lu::default()); }",
            "fn compute_xb(&mut self) { let rhs = self.work_row.clone(); }",
            "fn recompute_reduced(&mut self) { let y = self.dual.to_vec(); }",
            "fn refresh_infeasible(&mut self, pos: usize) { let v = self.infeas.clone(); }",
        ] {
            assert_eq!(rules_hit("crates/lp/src/a.rs", hot), ["alloc-in-hot-path"]);
        }
    }

    #[test]
    fn float_sort_partial_requires_total_cmp() {
        let bad = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        let hits = rules_hit("crates/sim/src/a.rs", bad);
        assert!(hits.contains(&"float-sort-partial"), "{hits:?}");
        let good = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(rules_hit("crates/sim/src/a.rs", good).is_empty());
        // min_by / binary_search_by too; a partial_cmp *definition* (an Ord
        // impl) never fires.
        let min = "fn f(v: &[f64]) { let _ = v.iter().min_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert!(rules_hit("crates/net/src/a.rs", min).contains(&"float-sort-partial"));
        let def =
            "impl PartialOrd for S { fn partial_cmp(&self, o: &S) -> Option<Ordering> { None } }";
        assert!(rules_hit("crates/net/src/a.rs", def).is_empty());
    }

    #[test]
    fn lossy_cast_flags_grouped_arithmetic_only() {
        let bad = "fn f(i: usize, m: usize) -> u32 { (i * m + 1) as u32 }";
        assert_eq!(rules_hit("crates/lp/src/a.rs", bad), ["lossy-cast"]);
        // A plain value cast is fine; so is a call result.
        assert!(rules_hit("crates/lp/src/a.rs", "fn f(n: u64) -> u32 { n as u32 }").is_empty());
        assert!(rules_hit(
            "crates/lp/src/a.rs",
            "fn f(v: &[u8]) -> u32 { v.len() as u32 }"
        )
        .is_empty());
        // `g(a + b) as u32` is a call — the arithmetic is the callee's args.
        assert!(rules_hit(
            "crates/lp/src/a.rs",
            "fn f(a: usize, b: usize) -> u32 { g(a + b) as u32 }"
        )
        .is_empty());
        // Widening casts are exempt.
        assert!(rules_hit(
            "crates/lp/src/a.rs",
            "fn f(a: u32, b: u32) -> u64 { (a + b) as u64 }"
        )
        .is_empty());
        // Out of scope crates.
        assert!(rules_hit("crates/net/src/a.rs", bad).is_empty());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src =
            "// HashMap unwrap() Instant::now\nfn f() -> &'static str { \"panic!(HashMap)\" }";
        assert!(rules_hit("crates/sim/src/a.rs", src).is_empty());
    }
}
