//! The rule engine: walks a file's token stream, resolves call-site
//! paths, applies the per-file source rules, and filters waived
//! diagnostics. (`registry-dep` lives in [`crate::manifest`]; the
//! cross-file rules — `lock-order`, `metric-name-drift`, `stale-waiver`
//! — live in [`crate::workspace`] and only run over a merged model.)

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, Directive, LexOut, Tok, TokKind};
use crate::model::FileModel;
use crate::resolve::{collect_uses, UseMap};

/// Static description of one rule, for `--rules` and waiver validation.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule identifier as used in waivers and diagnostics.
    pub id: &'static str,
    /// Severity of its diagnostics.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule sim-lint knows about.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        severity: Severity::Error,
        summary: "std::time::{Instant, SystemTime} outside the bench/clock allowlist breaks trace determinism",
    },
    RuleInfo {
        id: "ambient-rng",
        severity: Severity::Error,
        summary: "ambient randomness (rand/getrandom/RandomState/DefaultHasher) outside sim-rt/src/rng.rs",
    },
    RuleInfo {
        id: "nondet-iter",
        severity: Severity::Error,
        summary: "default-hashed HashMap/HashSet in library code iterates nondeterministically; use BTreeMap/BTreeSet or a keyed hasher",
    },
    RuleInfo {
        id: "raw-print",
        severity: Severity::Error,
        summary: "println!/eprintln!/print!/eprint!/dbg! in library code; use obs macros or an explicit writer",
    },
    RuleInfo {
        id: "stray-spawn",
        severity: Severity::Error,
        summary: "std::thread::spawn outside sim-rt/src/pool.rs bypasses the deterministic pool",
    },
    RuleInfo {
        id: "net-use",
        severity: Severity::Error,
        summary: "std::net outside crates/sim-serve; the simulation itself must stay socket-free",
    },
    RuleInfo {
        id: "registry-dep",
        severity: Severity::Error,
        summary: "Cargo.toml dependency that is not path-only/workspace-inherited, or a diverging edition",
    },
    RuleInfo {
        id: "bad-waiver",
        severity: Severity::Warning,
        summary: "a sim-lint: allow(...) directive names a rule that does not exist",
    },
    RuleInfo {
        id: "lock-order",
        severity: Severity::Error,
        summary: "the static lock-acquisition graph has a cycle, or a guard is held across a Pool::scope/submit boundary",
    },
    RuleInfo {
        id: "panic-path",
        severity: Severity::Error,
        summary: "unwrap()/expect()/panic!/slice-index in request handling or a library hot path; return a typed error",
    },
    RuleInfo {
        id: "metric-name-drift",
        severity: Severity::Error,
        summary: "a metric-name literal and the metrics_names.rs pin test disagree (orphan on either side)",
    },
    RuleInfo {
        id: "stale-waiver",
        severity: Severity::Error,
        summary: "a sim-lint: allow(...) that suppresses zero diagnostics; remove it",
    },
];

/// The nearest rule id within edit distance 2 of `name`, for `bad-waiver`
/// typo suggestions.
pub fn suggest(name: &str) -> Option<&'static str> {
    RULES
        .iter()
        .map(|r| (edit_distance(name, r.id), r.id))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, id)| id)
}

/// Levenshtein distance, small-string DP.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Per-rule path allowlists (prefix-matched on workspace-relative paths)
/// plus the `panic-path` zones (substring-matched, so fixture trees that
/// mirror a zone's layout exercise the rule).
#[derive(Debug, Default)]
pub struct Config {
    allow: Vec<(&'static str, &'static str)>,
    panic_zones: Vec<&'static str>,
}

impl Config {
    /// The allowlist this workspace has agreed on:
    ///
    /// * `wall-clock`: the bench harness and the observability clock are
    ///   the two sanctioned wall-clock sources.
    /// * `ambient-rng`: the seeded PRNG implementation itself.
    /// * `raw-print`: the bench harness and the experiment-reporting crate
    ///   exist to print tables.
    /// * `stray-spawn`: the deterministic pool owns thread creation.
    /// * `net-use`: the serving layer is the one networked component.
    ///
    /// The `panic-path` zones are the request-handling layer and the
    /// library hot paths a farm request rides through: the sim-serve
    /// sources, the result store, the sampler capture loop, the hwmon
    /// device read path, and the platform's rail solve.
    pub fn workspace_default() -> Config {
        Config {
            allow: vec![
                ("wall-clock", "crates/sim-rt/src/bench.rs"),
                ("wall-clock", "crates/sim-obs/src/clock.rs"),
                ("ambient-rng", "crates/sim-rt/src/rng.rs"),
                ("raw-print", "crates/sim-rt/src/bench.rs"),
                ("raw-print", "crates/bench/src/"),
                ("stray-spawn", "crates/sim-rt/src/pool.rs"),
                ("net-use", "crates/sim-serve/"),
            ],
            panic_zones: vec![
                "sim-serve/src/",
                "sim-store/src/",
                "core/src/sampler.rs",
                "core/src/platform.rs",
                "hwmon-sim/src/device.rs",
            ],
        }
    }

    /// An empty allowlist (used by the fixture tests).
    pub fn empty() -> Config {
        Config::default()
    }

    fn allowed(&self, rule: &str, rel_path: &str) -> bool {
        self.allow
            .iter()
            .any(|(r, prefix)| *r == rule && rel_path.starts_with(prefix))
    }

    /// Is `rel_path` inside a `panic-path` enforcement zone?
    pub fn panic_zone(&self, rel_path: &str) -> bool {
        self.panic_zones.iter().any(|z| rel_path.contains(z))
    }
}

/// What part of the workspace a file belongs to, which decides rule
/// applicability. Classified by the path's rightmost `src` / `tests` /
/// `examples` component so explicitly-passed fixture trees classify the
/// same way the real tree does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/*/src/**` — full rule set.
    Library,
    /// Integration tests — determinism rules, but prints are fine.
    Test,
    /// Examples — user-facing binaries; prints are fine.
    Example,
}

/// Classifies a workspace-relative path.
pub fn classify(rel_path: &str) -> FileKind {
    for comp in rel_path.split('/').rev() {
        match comp {
            "src" => return FileKind::Library,
            "tests" => return FileKind::Test,
            "examples" => return FileKind::Example,
            _ => {}
        }
    }
    FileKind::Library
}

/// Outcome of linting one file.
#[derive(Debug, Default)]
pub struct LintResult {
    /// Non-waived diagnostics, in source order.
    pub diags: Vec<Diagnostic>,
    /// Diagnostics suppressed by an inline waiver.
    pub waived: usize,
}

const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Lints one Rust source file. `rel_path` is the workspace-relative path
/// (forward slashes) and decides both the file kind and the allowlists.
///
/// This is the single-file entry: the per-file rules (including
/// `panic-path`) run and waivers apply, but the cross-file rules need
/// [`crate::workspace::lint_files`].
pub fn lint_source(rel_path: &str, src: &str, cfg: &Config) -> LintResult {
    let out = lex(src);
    let model = crate::model::build(rel_path, &out);
    let lines: Vec<&str> = src.lines().collect();
    let raw = scan_source(rel_path, &out, &model, cfg, &lines);
    apply_waivers(raw, &out.directives, rel_path, &lines)
}

/// Runs every per-file rule and returns the raw (pre-waiver) diagnostics.
/// The workspace analyzer calls this per file, merges in the cross-file
/// diagnostics, and applies waivers globally so `stale-waiver` sees the
/// complete picture.
pub(crate) fn scan_source(
    rel_path: &str,
    out: &LexOut,
    model: &FileModel,
    cfg: &Config,
    lines: &[&str],
) -> Vec<Diagnostic> {
    let uses = collect_uses(&out.tokens);
    let kind = classify(rel_path);
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    let mut raw = Vec::new();
    let mut emit = |rule_id: &'static str, tok: &Tok, message: String| {
        if cfg.allowed(rule_id, rel_path) {
            return;
        }
        let info = rule(rule_id).expect("emit uses known rule ids");
        raw.push(Diagnostic {
            path: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            rule: info.id,
            severity: info.severity,
            message,
            snippet: snippet(tok.line),
        });
    };

    let toks = &out.tokens;
    let mut i = 0usize;
    let mut in_use = false;
    while i < toks.len() {
        if toks[i].kind != TokKind::Ident {
            if toks[i].is_punct(';') {
                in_use = false;
            }
            i += 1;
            continue;
        }
        if toks[i].text == "use" {
            in_use = true;
        }
        // Macro invocation?
        if kind == FileKind::Library
            && PRINT_MACROS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            emit(
                "raw-print",
                &toks[i],
                format!(
                    "`{}!` in library code; route output through `obs` events/metrics or an explicit writer",
                    toks[i].text
                ),
            );
            i += 2;
            continue;
        }
        // Collect the `a::b::c` chain starting here.
        let start = i;
        let mut segs: Vec<&str> = vec![&toks[i].text];
        let mut j = i + 1;
        while j + 1 < toks.len()
            && toks[j].kind == TokKind::PathSep
            && toks[j + 1].kind == TokKind::Ident
        {
            segs.push(&toks[j + 1].text);
            j += 2;
        }
        // A chain immediately after `.` is a method lookup, not a path; a
        // chain after `as` is the binder of a use-alias, not a reference.
        let after_dot = start > 0 && toks[start - 1].is_punct('.');
        let after_as =
            start > 0 && toks[start - 1].kind == TokKind::Ident && toks[start - 1].text == "as";
        if !after_dot && !after_as {
            check_paths(&toks[start], &segs, toks, j, kind, in_use, &uses, &mut emit);
        }
        i = j;
    }

    // `panic-path`: panic-capable expressions inside the request-handling
    // and hot-path zones, collected by the item model so `#[cfg(test)]`
    // code never counts.
    if cfg.panic_zone(rel_path) {
        for p in &model.panics {
            let info = rule("panic-path").expect("panic-path is registered");
            raw.push(Diagnostic {
                path: rel_path.to_string(),
                line: p.site.line,
                col: p.site.col,
                rule: info.id,
                severity: info.severity,
                message: format!(
                    "{} can panic in a request-handling/hot path; return a typed error (or waive a proven-unreachable site)",
                    p.kind.label()
                ),
                snippet: snippet(p.site.line),
            });
        }
    }
    raw
}

/// Runs the path-based rules on one resolved chain.
#[allow(clippy::too_many_arguments)]
fn check_paths(
    tok: &Tok,
    segs: &[&str],
    toks: &[Tok],
    after: usize,
    kind: FileKind,
    in_use: bool,
    uses: &UseMap,
    emit: &mut impl FnMut(&'static str, &Tok, String),
) {
    let candidates = uses.candidates(segs);

    for cand in &candidates {
        if cand.starts_with("std::time::Instant") || cand.starts_with("std::time::SystemTime") {
            emit(
                "wall-clock",
                tok,
                format!("`{cand}` reads the wall clock; simulation paths must stay deterministic (allowlisted: sim-rt/src/bench.rs, sim-obs/src/clock.rs)"),
            );
            break;
        }
    }

    for cand in &candidates {
        let segments: Vec<&str> = cand.split("::").collect();
        let ambient = (segments.len() > 1 && (segments[0] == "rand" || segments[0] == "getrandom"))
            || segments.iter().any(|s| {
                ["RandomState", "DefaultHasher", "thread_rng", "from_entropy"].contains(s)
            });
        if ambient {
            emit(
                "ambient-rng",
                tok,
                format!("`{cand}` is ambient randomness; derive a stream from the campaign seed via sim-rt/src/rng.rs"),
            );
            break;
        }
    }

    // Importing the type is not the crime — using it default-hashed is —
    // so `use` statements and explicit-hasher constructors are exempt.
    if kind == FileKind::Library && !in_use {
        let hashed = candidates
            .iter()
            .any(|cand| cand.split("::").any(|s| s == "HashMap" || s == "HashSet"));
        let keyed_ctor = segs
            .iter()
            .any(|s| *s == "with_hasher" || *s == "with_capacity_and_hasher");
        if hashed && !keyed_ctor && !has_custom_hasher(toks, after) {
            emit(
                "nondet-iter",
                tok,
                "default-hashed HashMap/HashSet iterates in nondeterministic order; use BTreeMap/BTreeSet or name an explicit hasher state".to_string(),
            );
        }
    }

    for cand in &candidates {
        if cand == "std::thread::spawn" || cand.starts_with("std::thread::Builder") {
            emit(
                "stray-spawn",
                tok,
                format!("`{cand}` creates an untracked OS thread; use sim_rt::pool::Pool for deterministic fan-out"),
            );
            break;
        }
    }

    for cand in &candidates {
        if cand.starts_with("std::net::") {
            emit(
                "net-use",
                tok,
                format!("`{cand}` opens real sockets; networking is confined to crates/sim-serve"),
            );
            break;
        }
    }
}

/// Does the generic-argument list following a chain (either `<…>` or the
/// turbofish `::<…>`) carry a third top-level parameter — i.e. an explicit
/// hasher state on a `HashMap<K, V, S>`?
fn has_custom_hasher(toks: &[Tok], after: usize) -> bool {
    let mut k = after;
    if toks.get(k).is_some_and(|t| t.kind == TokKind::PathSep) {
        k += 1;
    }
    if !toks.get(k).is_some_and(|t| t.is_punct('<')) {
        return false;
    }
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut prev_dash = false;
    for t in &toks[k..] {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" if prev_dash => {} // `->` in a fn-pointer type
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "," if depth == 1 => commas += 1,
                _ => {}
            }
            prev_dash = t.text == "-";
        } else {
            prev_dash = false;
        }
    }
    commas >= 2
}

/// Applies inline waivers: a directive suppresses matching diagnostics on
/// its own line and the following line. Unknown rule names become
/// `bad-waiver` diagnostics so typos cannot silently disable a rule.
fn apply_waivers(
    raw: Vec<Diagnostic>,
    directives: &[Directive],
    rel_path: &str,
    lines: &[&str],
) -> LintResult {
    let mut result = LintResult::default();
    for d in directives {
        for r in &d.rules {
            if rule(r).is_none() {
                let info = rule("bad-waiver").expect("bad-waiver is registered");
                let message = match suggest(r) {
                    Some(near) => {
                        format!("waiver names unknown rule `{r}`; did you mean `{near}`?")
                    }
                    None => format!("waiver names unknown rule `{r}`"),
                };
                result.diags.push(Diagnostic {
                    path: rel_path.to_string(),
                    line: d.line,
                    col: d.col,
                    rule: info.id,
                    severity: info.severity,
                    message,
                    snippet: lines
                        .get(d.line as usize - 1)
                        .map(|l| l.trim().to_string())
                        .unwrap_or_default(),
                });
            }
        }
    }
    for diag in raw {
        let waived = directives.iter().any(|d| {
            (d.line == diag.line || d.line + 1 == diag.line)
                && d.rules.iter().any(|r| r == diag.rule)
        });
        if waived {
            result.waived += 1;
        } else {
            result.diags.push(diag);
        }
    }
    result.diags.sort_by_key(|d| (d.line, d.col, d.rule));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_lib(src: &str) -> LintResult {
        lint_source("crates/demo/src/lib.rs", src, &Config::empty())
    }

    #[test]
    fn aliased_wall_clock_is_traced() {
        let r = lint_lib(
            "use std::time::Instant as Clock;\nfn f() -> u64 { let t = Clock::now(); 0 }\n",
        );
        assert_eq!(r.diags.len(), 2, "{:?}", r.diags);
        assert!(r.diags.iter().all(|d| d.rule == "wall-clock"));
        assert_eq!((r.diags[0].line, r.diags[0].col), (1, 5));
        assert_eq!((r.diags[1].line, r.diags[1].col), (2, 25));
    }

    #[test]
    fn method_named_iter_on_custom_type_is_fine() {
        let r = lint_lib("fn f(m: &MyMap) { for _ in m.iter() {} }\n");
        assert!(r.diags.is_empty(), "{:?}", r.diags);
    }

    #[test]
    fn custom_hasher_generic_is_allowed() {
        let r = lint_lib(
            "use std::collections::HashMap;\nfn f() { let _m: HashMap<u32, u32, DetState> = HashMap::with_hasher(DetState); }\n",
        );
        assert!(r.diags.is_empty(), "{:?}", r.diags);

        let bad = lint_lib(
            "use std::collections::HashMap;\nfn f() { let _m: HashMap<u32, u32> = HashMap::new(); }\n",
        );
        let rules: Vec<_> = bad.diags.iter().map(|d| (d.rule, d.line, d.col)).collect();
        assert_eq!(
            rules,
            vec![("nondet-iter", 2, 18), ("nondet-iter", 2, 38)],
            "declaration and default constructor both fire"
        );
    }

    #[test]
    fn tests_and_examples_may_print() {
        let src = "fn main() { println!(\"hi\"); }\n";
        assert!(lint_source("tests/t.rs", src, &Config::empty())
            .diags
            .is_empty());
        assert!(lint_source("examples/e.rs", src, &Config::empty())
            .diags
            .is_empty());
        assert_eq!(lint_lib(src).diags.len(), 1);
    }

    #[test]
    fn waiver_on_previous_line_suppresses() {
        let src = "// sim-lint: allow(raw-print)\nfn f() { println!(\"ok\"); }\n";
        let r = lint_lib(src);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn unknown_waiver_rule_is_flagged() {
        let r = lint_lib("// sim-lint: allow(no-such-rule)\nfn f() {}\n");
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].rule, "bad-waiver");
    }
}
