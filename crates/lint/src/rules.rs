//! Rule registry, path scopes, token-level lexical rules, and
//! `lint:allow` parsing/matching.
//!
//! The four v1 lexical rule families (`no-panic`, `float-eq`, `hash-iter`,
//! `wall-clock`) are re-expressed here over the token stream from
//! [`crate::lexer`], so the lexical and semantic passes share one
//! pipeline. The three v2 semantic rules (`determinism`, `panic-path`,
//! `sim-units`) live in [`crate::taint`] but register and scope here.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::{Finding, Level};

/// Every rule, with its SARIF short description.
pub const RULES: [(&str, &str); 7] = [
    (
        "no-panic",
        "No `.unwrap()` / `.expect(…)` / `panic!` in library code of the deterministic crates",
    ),
    (
        "float-eq",
        "No direct `==`/`!=` against float literals outside solver::eps",
    ),
    (
        "hash-iter",
        "No HashMap/HashSet in plan-affecting code — iteration order is nondeterministic",
    ),
    (
        "wall-clock",
        "No wall-clock reads or OS randomness inside the simulation",
    ),
    (
        "determinism",
        "A plan-affecting sink transitively reaches a nondeterminism source",
    ),
    (
        "panic-path",
        "A panic site is reachable from the serving loop or a CLI entry point",
    ),
    (
        "sim-units",
        "Raw arithmetic mixes sim-seconds with wall-clock or byte-count units",
    ),
];

/// Rule names only.
pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|(n, _)| *n).collect()
}

/// Whether `rule` applies to the file at workspace-relative path `rel`.
///
/// Scopes follow the project contract: panic-freedom and float tolerance
/// discipline cover the algorithmic crates; determinism rules cover
/// everything that can influence a plan or the event order. `panic-path`
/// shares the `no-panic` scope (reachability *tightens* the lexical rule,
/// it does not widen it to new crates); `determinism` is workspace-wide
/// because a taint chain may cross any crate boundary.
pub fn rule_applies(rule: &str, rel: &str) -> bool {
    let in_any = |prefixes: &[&str]| prefixes.iter().any(|p| rel.starts_with(p));
    match rule {
        "no-panic" | "panic-path" => in_any(&[
            "crates/core/src/",
            "crates/metrics/src/",
            "crates/sim/src/",
            "crates/solver/src/",
            "crates/telemetry/src/",
            "crates/trace/src/",
        ]),
        "float-eq" => {
            rel != "crates/solver/src/eps.rs"
                && in_any(&[
                    "crates/core/src/",
                    "crates/sim/src/",
                    "crates/solver/src/",
                    "crates/trace/src/",
                ])
        }
        "hash-iter" => in_any(&["crates/core/src/", "crates/sim/src/", "crates/solver/src/"]),
        "wall-clock" => in_any(&[
            "crates/core/src/",
            "crates/metrics/src/",
            "crates/sim/src/",
            "crates/telemetry/src/",
        ]),
        "determinism" => rel.starts_with("crates/"),
        "sim-units" => {
            rel != "crates/solver/src/eps.rs"
                && in_any(&[
                    "crates/core/src/",
                    "crates/metrics/src/",
                    "crates/sim/src/",
                    "crates/solver/src/",
                    "crates/telemetry/src/",
                    "crates/trace/src/",
                ])
        }
        _ => false,
    }
}

/// Whether an allow for `allow_rule` suppresses a finding of `rule`.
///
/// `no-panic` allows also cover `panic-path` findings at the same site
/// (the reachability pass tightens the lexical rule, so one reasoned
/// suppression should cover both), and `wall-clock` allows also kill
/// `determinism` taint seeded at the suppressed read.
pub fn allow_covers(allow_rule: &str, rule: &str) -> bool {
    allow_rule == rule
        || (allow_rule == "no-panic" && rule == "panic-path")
        || (allow_rule == "wall-clock" && rule == "determinism")
}

/// Marks the lines inside `#[cfg(test)]` / `#[test]` items by matching the
/// brace span the attribute introduces. Token-level port of the v1 pass.
pub fn test_lines(lexed: &Lexed) -> Vec<bool> {
    let mut exempt = vec![false; lexed.nlines + 2];
    let toks = &lexed.toks;
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut spans: Vec<i64> = Vec::new(); // depth outside each open span
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            // Scan the attribute for `test` / `cfg(test)`.
            let mut j = i + 2;
            let mut adepth = 1i32;
            let mut is_test = false;
            let mut saw_cfg = false;
            while j < toks.len() && adepth > 0 {
                if toks[j].is_punct("[") {
                    adepth += 1;
                } else if toks[j].is_punct("]") {
                    adepth -= 1;
                } else if toks[j].is_ident("cfg") {
                    saw_cfg = true;
                } else if toks[j].is_ident("test") && (saw_cfg || adepth == 1) {
                    is_test = true;
                }
                j += 1;
            }
            if is_test {
                pending = true;
                exempt[t.line] = true;
            }
            i = j;
            continue;
        }
        if !spans.is_empty() {
            exempt[t.line] = true;
        }
        if t.is_punct("{") {
            if pending {
                spans.push(depth);
                pending = false;
                exempt[t.line] = true;
            }
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if spans.last() == Some(&depth) {
                spans.pop();
            }
        } else if pending {
            exempt[t.line] = true;
        }
        i += 1;
    }
    exempt
}

/// Per-line statement-start map: `stmt_start[l]` is the 1-based line where
/// the statement containing line `l`'s first token begins. Lines without
/// tokens map to themselves. This is what lets an allow on the line where
/// a chained call *starts* suppress a hit on a continuation line.
pub fn stmt_starts(lexed: &Lexed) -> Vec<usize> {
    let mut starts: Vec<usize> = (0..lexed.nlines + 2).collect();
    let mut cur: Option<usize> = None;
    let mut done_line = 0usize;
    for t in &lexed.toks {
        let start = *cur.get_or_insert(t.line);
        if t.line > done_line {
            starts[t.line] = start;
            done_line = t.line;
        }
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            cur = None;
        }
    }
    starts
}

/// A `lint:allow` annotation parsed from a comment.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: String,
    pub reason: String,
    /// 1-based line the allow suppresses (its own, or the next code line).
    pub target: usize,
    /// 1-based line the comment lives on.
    pub at: usize,
    pub used: bool,
}

/// Parsed allows for one file, plus the statement map used for matching.
#[derive(Debug, Default)]
pub struct FileAllows {
    pub list: Vec<Allow>,
    stmt_start: Vec<usize>,
}

impl FileAllows {
    /// Attempts to suppress a finding of `rule` at `line`; marks the allow
    /// used on success.
    pub fn try_suppress(&mut self, rule: &str, line: usize) -> bool {
        let stmt = |l: usize| self.stmt_start.get(l).copied().unwrap_or(l);
        for a in &mut self.list {
            if allow_covers(&a.rule, rule)
                && (a.target == line || (line > a.target && stmt(line) == stmt(a.target)))
            {
                a.used = true;
                return true;
            }
        }
        false
    }

    /// Whether an allow covering `rule` targets this statement, without
    /// marking it used (the taint pass probes seeds this way first).
    pub fn would_suppress(&self, rule: &str, line: usize) -> bool {
        let stmt = |l: usize| self.stmt_start.get(l).copied().unwrap_or(l);
        self.list.iter().any(|a| {
            allow_covers(&a.rule, rule)
                && (a.target == line || (line > a.target && stmt(line) == stmt(a.target)))
        })
    }
}

/// Parses every allow annotation — `lint:allow` + `(<rule>) — <reason>` —
/// in the file's comments.
/// Malformed annotations (unknown rule, missing reason) come back as
/// findings.
pub fn parse_allows(rel: &str, lexed: &Lexed) -> (FileAllows, Vec<Finding>) {
    let mut allows = FileAllows {
        list: Vec::new(),
        stmt_start: stmt_starts(lexed),
    };
    let mut malformed = Vec::new();
    // Which lines have code tokens, for standalone-comment targeting.
    let mut has_code = vec![false; lexed.nlines + 2];
    for t in &lexed.toks {
        if t.line < has_code.len() {
            has_code[t.line] = true;
        }
    }
    let names = rule_names();
    for line_no in 1..=lexed.nlines {
        let comment = lexed.comment_on(line_no);
        let Some(pos) = comment.find("lint:allow(") else {
            continue;
        };
        let rest = &comment[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            malformed.push(Finding::bad_allow(rel, line_no, "unclosed lint:allow("));
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !names.contains(&rule.as_str()) {
            malformed.push(Finding::bad_allow(
                rel,
                line_no,
                &format!("unknown rule `{rule}` in lint:allow"),
            ));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after
            .strip_prefix('\u{2014}')
            .or_else(|| after.strip_prefix("--"))
            .or_else(|| after.strip_prefix('-'))
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            malformed.push(Finding::bad_allow(
                rel,
                line_no,
                &format!("lint:allow({rule}) without a reason (`— <why>` is mandatory)"),
            ));
            continue;
        }
        let target = if has_code[line_no] {
            line_no
        } else {
            (line_no + 1..=lexed.nlines)
                .find(|&l| has_code[l])
                .unwrap_or(line_no)
        };
        allows.list.push(Allow {
            rule,
            reason: reason.to_string(),
            target,
            at: line_no,
            used: false,
        });
    }
    (allows, malformed)
}

/// Runs the four lexical rule families over one file's tokens.
/// Test spans are exempt; suppression happens later against the allows.
pub fn lexical_scan(rel: &str, lexed: &Lexed) -> Vec<Finding> {
    let mut hits = Vec::new();
    let scopes: Vec<&str> = ["no-panic", "float-eq", "hash-iter", "wall-clock"]
        .into_iter()
        .filter(|r| rule_applies(r, rel))
        .collect();
    if scopes.is_empty() {
        return hits;
    }
    let exempt = test_lines(lexed);
    let toks = &lexed.toks;
    let live = |line: usize| !exempt.get(line).copied().unwrap_or(false);
    for (i, t) in toks.iter().enumerate() {
        if !live(t.line) {
            continue;
        }
        // no-panic: `.unwrap()`, `.expect(`, `panic!`.
        if scopes.contains(&"no-panic") {
            if t.is_punct(".") {
                if let Some(name) = toks.get(i + 1) {
                    let open = toks.get(i + 2).is_some_and(|n| n.is_punct("("));
                    if open
                        && name.is_ident("unwrap")
                        && toks.get(i + 3).is_some_and(|n| n.is_punct(")"))
                    {
                        hits.push(Finding::error(
                            "no-panic",
                            rel,
                            name.line,
                            "`.unwrap()` in library code — return an error instead".into(),
                        ));
                    }
                    if open && name.is_ident("expect") {
                        hits.push(Finding::error(
                            "no-panic",
                            rel,
                            name.line,
                            "`.expect(…)` in library code — return an error instead".into(),
                        ));
                    }
                }
            }
            if t.is_ident("panic") && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
                hits.push(Finding::error(
                    "no-panic",
                    rel,
                    t.line,
                    "`panic!` in library code — return an error instead".into(),
                ));
            }
        }
        // float-eq: `==`/`!=` with a float-literal/const operand.
        if scopes.contains(&"float-eq") && (t.is_punct("==") || t.is_punct("!=")) {
            if let Some(what) = float_operand(toks, i) {
                hits.push(Finding::error(
                    "float-eq",
                    rel,
                    t.line,
                    format!(
                        "direct float `{}` against `{what}` — use solver::eps helpers",
                        t.text
                    ),
                ));
            }
        }
        // hash-iter: any HashMap/HashSet mention.
        if scopes.contains(&"hash-iter") && (t.is_ident("HashMap") || t.is_ident("HashSet")) {
            hits.push(Finding::error(
                "hash-iter",
                rel,
                t.line,
                format!(
                    "`{}` in plan-affecting code — iteration order is nondeterministic; \
                     use BTree{} or sort explicitly",
                    t.text,
                    &t.text[4..]
                ),
            ));
        }
        // wall-clock: wall time and OS randomness.
        if scopes.contains(&"wall-clock") {
            let path2 = (t.is_ident("Instant") || t.is_ident("SystemTime"))
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("now"));
            let bare = ["thread_rng", "OsRng", "from_entropy", "getrandom"]
                .iter()
                .any(|s| t.is_ident(s));
            let rand_random = t.is_ident("rand")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("random"));
            if path2 || bare || rand_random {
                let what = if path2 {
                    format!("{}::now", t.text)
                } else if rand_random {
                    "rand::random".to_string()
                } else {
                    t.text.clone()
                };
                hits.push(Finding::error(
                    "wall-clock",
                    rel,
                    t.line,
                    format!("`{what}` in sim/core — sim time and seeded RNG only"),
                ));
            }
        }
    }
    hits
}

/// If token `i` (a `==`/`!=`) has a float operand, returns its display.
fn float_operand(toks: &[Tok], i: usize) -> Option<String> {
    // Left operand: a float literal, or `f64::CONST` / `f32::CONST`.
    if i >= 1 {
        let prev = &toks[i - 1];
        if prev.kind == TokKind::Float {
            return Some(prev.text.clone());
        }
        if prev.kind == TokKind::Ident && i >= 3 {
            let (q, sep) = (&toks[i - 3], &toks[i - 2]);
            if sep.is_punct("::") && (q.is_ident("f64") || q.is_ident("f32")) {
                return Some(format!("{}::{}", q.text, prev.text));
            }
        }
    }
    // Right operand, with an optional sign.
    let mut j = i + 1;
    if toks
        .get(j)
        .is_some_and(|t| t.is_punct("-") || t.is_punct("+"))
    {
        j += 1;
    }
    if let Some(t) = toks.get(j) {
        if t.kind == TokKind::Float {
            return Some(t.text.clone());
        }
        if (t.is_ident("f64") || t.is_ident("f32"))
            && toks.get(j + 1).is_some_and(|n| n.is_punct("::"))
        {
            let c = toks.get(j + 2).map(|n| n.text.as_str()).unwrap_or("");
            return Some(format!("{}::{c}", t.text));
        }
    }
    None
}

impl Finding {
    /// Convenience: an error-level finding.
    pub fn error(rule: &'static str, rel: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            rel: rel.to_string(),
            line,
            message,
            level: Level::Error,
            chain: Vec::new(),
        }
    }

    /// Convenience: a malformed-allow finding.
    pub fn bad_allow(rel: &str, line: usize, message: &str) -> Finding {
        Finding {
            rule: "bad-allow",
            rel: rel.to_string(),
            line,
            message: message.to_string(),
            level: Level::Error,
            chain: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        lexical_scan(rel, &lex(src))
            .iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn no_panic_matches_only_real_panics() {
        let rel = "crates/core/src/x.rs";
        assert!(rules_hit(rel, "let a = b.unwrap_or(0);").is_empty());
        assert_eq!(rules_hit(rel, "let a = b.unwrap();"), ["no-panic"]);
        assert_eq!(rules_hit(rel, "let a = b.expect(\"msg\");"), ["no-panic"]);
        assert_eq!(rules_hit(rel, "panic!(\"boom\")"), ["no-panic"]);
    }

    #[test]
    fn float_eq_catches_literals_not_ints_or_tuples() {
        let rel = "crates/solver/src/x.rs";
        assert_eq!(rules_hit(rel, "if x == 1.0 {}"), ["float-eq"]);
        assert_eq!(rules_hit(rel, "if 0.5 != y {}"), ["float-eq"]);
        assert_eq!(rules_hit(rel, "if x == f64::INFINITY {}"), ["float-eq"]);
        assert_eq!(rules_hit(rel, "if x == 1e-6 {}"), ["float-eq"]);
        assert_eq!(rules_hit(rel, "if x == -1.5 {}"), ["float-eq"]);
        assert!(rules_hit(rel, "if n == 3 {}").is_empty());
        assert!(rules_hit(rel, "if t.0 == other {}").is_empty());
        assert!(rules_hit(rel, "if x <= 1.0 {}").is_empty());
        assert!(rules_hit(rel, "if mask == 0x1F {}").is_empty());
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let rel = "crates/core/src/x.rs";
        assert!(rules_hit(rel, "let s = \"x.unwrap()\"; // b.unwrap()").is_empty());
    }

    #[test]
    fn test_spans_are_exempt() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn live2() { z.unwrap(); }\n";
        let hits = lexical_scan("crates/core/src/x.rs", &lex(src));
        let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 6]);
    }

    #[test]
    fn rule_scopes_respect_paths() {
        assert!(rule_applies("no-panic", "crates/solver/src/simplex.rs"));
        assert!(!rule_applies("no-panic", "crates/cli/src/main.rs"));
        assert!(!rule_applies("float-eq", "crates/solver/src/eps.rs"));
        assert!(rule_applies("hash-iter", "crates/sim/src/event.rs"));
        assert!(!rule_applies("wall-clock", "crates/solver/src/simplex.rs"));
        assert!(rule_applies("panic-path", "crates/telemetry/src/sketch.rs"));
        assert!(!rule_applies("panic-path", "crates/cli/src/main.rs"));
        assert!(rule_applies("determinism", "crates/workloads/src/gen.rs"));
        assert!(rule_applies("sim-units", "crates/sim/src/time.rs"));
        assert!(!rule_applies("sim-units", "crates/solver/src/eps.rs"));
    }

    #[test]
    fn allow_requires_reason_and_known_rule() {
        let lexed = lex(
            "x.unwrap(); // lint:allow(no-panic) — invariant: set above\n\
             y.unwrap(); // lint:allow(no-panic)\n\
             z.unwrap(); // lint:allow(made-up) — nope\n",
        );
        let (allows, bad) = parse_allows("crates/core/src/x.rs", &lexed);
        assert_eq!(allows.list.len(), 1);
        assert_eq!(allows.list[0].target, 1);
        assert_eq!(allows.list[0].reason, "invariant: set above");
        assert_eq!(bad.len(), 2);
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let lexed = lex("// lint:allow(wall-clock) — reporting only\nlet t = Instant::now();\n");
        let (allows, _) = parse_allows("crates/core/src/x.rs", &lexed);
        assert_eq!(allows.list.len(), 1);
        assert_eq!(allows.list[0].target, 2);
    }

    #[test]
    fn multiline_statement_allows_cover_continuation_lines() {
        // The v1 scanner reported this allow as unused because the
        // offending token lands on a continuation line.
        let lexed = lex("// lint:allow(no-panic) — invariant: parsed above\n\
             let x = foo()\n\
                 .bar()\n\
                 .unwrap();\n\
             let y = baz();\n");
        let (mut allows, _) = parse_allows("crates/core/src/x.rs", &lexed);
        assert_eq!(allows.list[0].target, 2);
        assert!(allows.try_suppress("no-panic", 4));
        assert!(allows.list[0].used);
        // The next statement is NOT covered.
        assert!(!allows.try_suppress("no-panic", 5));
    }

    #[test]
    fn allow_compat_covers_tightened_rules() {
        assert!(allow_covers("no-panic", "panic-path"));
        assert!(allow_covers("wall-clock", "determinism"));
        assert!(!allow_covers("no-panic", "wall-clock"));
        assert!(!allow_covers("panic-path", "no-panic"));
    }
}
