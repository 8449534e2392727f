//! Best-effort parser subset: items, impls, use-trees and the call /
//! panic / taint-source / unit events inside function bodies.
//!
//! This is not a Rust parser. It recognizes exactly the constructs the
//! semantic passes need — `mod` / `impl` / `fn` item structure with brace
//! matching, `use` trees for import expansion, method and path calls,
//! macro invocations, match arms (so `=>` never confuses the scanner) —
//! and ignores everything else. Macros are not expanded; unparsed
//! constructs degrade to "no events", never to a crash. Known blind spots
//! are documented in DESIGN.md ("Static analysis v2").

use std::collections::BTreeMap;

use crate::lexer::{Lexed, Tok, TokKind};

/// Where a call points, as written: path segments after `use` expansion.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments (`["Instant", "now"]`, `["helper"]`); for method
    /// calls, the single method name.
    pub segs: Vec<String>,
    /// `.name(…)` method-call syntax.
    pub method: bool,
    /// Receiver is literally `self`.
    pub recv_self: bool,
    /// 1-based call line.
    pub line: usize,
}

/// Classified panic site kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    Unwrap,
    Expect,
    PanicMacro,
    UnreachableMacro,
    TodoMacro,
    /// Postfix `expr[...]` — advisory: the workspace indexes dense arrays
    /// by construction-checked ids, so these are notes, not errors.
    SliceIndex,
    /// `/ 0` or `% 0` with a literal zero divisor — always a bug.
    DivZero,
}

impl PanicKind {
    /// Advisory sites are reported as SARIF notes, not violations.
    pub fn advisory(self) -> bool {
        matches!(self, PanicKind::SliceIndex)
    }

    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "`.unwrap()`",
            PanicKind::Expect => "`.expect(…)`",
            PanicKind::PanicMacro => "`panic!`",
            PanicKind::UnreachableMacro => "`unreachable!`",
            PanicKind::TodoMacro => "`todo!`/`unimplemented!`",
            PanicKind::SliceIndex => "slice/array index",
            PanicKind::DivZero => "division by literal zero",
        }
    }
}

/// A potential-panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub kind: PanicKind,
    pub line: usize,
}

/// Kinds of nondeterminism a function can introduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Wall-clock reads (`Instant::now`, `SystemTime::now`).
    WallClock,
    /// Unseeded randomness (`thread_rng`, `OsRng`, …).
    Rng,
    /// Thread spawning (scheduling order is nondeterministic).
    ThreadSpawn,
    /// Possible `HashMap`/`HashSet` iteration (order is nondeterministic).
    HashIter,
}

impl SourceKind {
    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock read",
            SourceKind::Rng => "unseeded RNG",
            SourceKind::ThreadSpawn => "thread spawn",
            SourceKind::HashIter => "HashMap/HashSet iteration",
        }
    }
}

/// One determinism-taint source site.
#[derive(Debug, Clone)]
pub struct SourceSite {
    pub kind: SourceKind,
    /// The matched construct, for the message (`std::time::Instant::now`).
    pub what: String,
    pub line: usize,
}

/// A `a_secs + b_ms`-style unit mix.
#[derive(Debug, Clone)]
pub struct UnitMix {
    pub line: usize,
    pub message: String,
}

/// One parsed function (or trait-method declaration).
#[derive(Debug)]
pub struct FnDef {
    /// Index of the file this fn lives in (into the driver's file list).
    pub file: usize,
    pub name: String,
    /// `impl` type name, if inside an impl block.
    pub self_ty: Option<String>,
    /// Trait name for `impl Trait for Type` blocks.
    pub trait_name: Option<String>,
    /// Enclosing module path inside the file.
    pub module: Vec<String>,
    /// Inside `#[cfg(test)]` / `#[test]` (or a tests/ path).
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    pub sources: Vec<SourceSite>,
    pub unit_mixes: Vec<UnitMix>,
}

/// Parse result for one file.
#[derive(Debug, Default)]
pub struct FileAst {
    pub fns: Vec<FnDef>,
    /// `use` expansion: leaf name → full path segments.
    pub uses: BTreeMap<String, Vec<String>>,
}

/// Identifier suffix → time/size unit, for the sim-units pass.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let n = name;
    let ends = |s: &str| n.ends_with(s) || n == &s[1..];
    if ends("_secs") || ends("_sec") {
        Some("seconds")
    } else if ends("_ms") || ends("_millis") {
        Some("milliseconds")
    } else if ends("_us") || ends("_micros") {
        Some("microseconds")
    } else if ends("_ns") || ends("_nanos") {
        Some("nanoseconds")
    } else if ends("_bytes") || ends("_mib") || ends("_kib") || ends("_gib") || ends("_mb") {
        Some("bytes")
    } else {
        None
    }
}

/// Scope-stack frame: one `{ … }` span and what opened it.
#[derive(Debug)]
enum Frame {
    Block,
    Module {
        name: String,
        test: bool,
    },
    Impl {
        ty: Option<String>,
        trait_name: Option<String>,
        test: bool,
    },
    Fn {
        def: usize,
        test: bool,
    },
}

/// Parses one lexed file into its `FileAst`.
///
/// `file` is the index the resulting `FnDef`s carry; `rel` decides
/// test-path exemption (anything under `tests/`, `benches/`, `examples/`).
pub fn parse(file: usize, rel: &str, lexed: &Lexed) -> FileAst {
    Parser {
        toks: &lexed.toks,
        file,
        path_test: rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/"),
        out: FileAst::default(),
        frames: Vec::new(),
    }
    .run()
}

struct Parser<'a> {
    toks: &'a [Tok],
    file: usize,
    path_test: bool,
    out: FileAst,
    frames: Vec<Frame>,
}

impl<'a> Parser<'a> {
    fn run(mut self) -> FileAst {
        let mut i = 0usize;
        // Attribute-carried markers for the *next* item.
        let mut pending_test = false;
        while i < self.toks.len() {
            let t = &self.toks[i];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "#") => {
                    let (is_test, next) = self.skim_attribute(i);
                    pending_test |= is_test;
                    i = next;
                }
                (TokKind::Ident, "mod") => {
                    let name = self
                        .toks
                        .get(i + 1)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    // `mod x;` declarations push nothing.
                    if self.toks.get(i + 2).is_some_and(|t| t.is_punct("{")) {
                        self.frames.push(Frame::Module {
                            name: name.clone(),
                            test: pending_test || self.in_test() || name == "tests",
                        });
                        i += 3;
                    } else {
                        i += 2;
                    }
                    pending_test = false;
                }
                (TokKind::Ident, "impl") => {
                    let (ty, trait_name, next) = self.parse_impl_header(i + 1);
                    self.frames.push(Frame::Impl {
                        ty,
                        trait_name,
                        test: pending_test || self.in_test(),
                    });
                    pending_test = false;
                    i = next;
                }
                (TokKind::Ident, "fn") => {
                    let next = self.parse_fn(i, pending_test);
                    pending_test = false;
                    i = next;
                }
                (TokKind::Ident, "use") => {
                    i = self.parse_use(i + 1);
                    pending_test = false;
                }
                (TokKind::Punct, "{") => {
                    self.frames.push(Frame::Block);
                    i += 1;
                }
                (TokKind::Punct, "}") => {
                    self.frames.pop();
                    i += 1;
                }
                _ => {
                    // Body events are attributed to the innermost fn.
                    if let Some(def) = self.innermost_fn() {
                        i = self.scan_body_event(i, def);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        self.out
    }

    /// Whether the current scope stack is inside test code.
    fn in_test(&self) -> bool {
        self.path_test
            || self.frames.iter().any(|f| match f {
                Frame::Module { test, .. } | Frame::Impl { test, .. } | Frame::Fn { test, .. } => {
                    *test
                }
                Frame::Block => false,
            })
    }

    fn innermost_fn(&self) -> Option<usize> {
        self.frames.iter().rev().find_map(|f| match f {
            Frame::Fn { def, .. } => Some(*def),
            _ => None,
        })
    }

    fn innermost_impl(&self) -> (Option<String>, Option<String>) {
        for f in self.frames.iter().rev() {
            if let Frame::Impl { ty, trait_name, .. } = f {
                return (ty.clone(), trait_name.clone());
            }
        }
        (None, None)
    }

    fn module_path(&self) -> Vec<String> {
        self.frames
            .iter()
            .filter_map(|f| match f {
                Frame::Module { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect()
    }

    /// Skips `#[…]`, reporting whether it is `#[test]` / `#[cfg(test)]`.
    fn skim_attribute(&self, i: usize) -> (bool, usize) {
        let mut j = i + 1;
        if self.toks.get(j).is_some_and(|t| t.is_punct("!")) {
            j += 1; // inner attribute `#![…]`
        }
        if !self.toks.get(j).is_some_and(|t| t.is_punct("[")) {
            return (false, i + 1);
        }
        let mut depth = 0i32;
        let mut is_test = false;
        let mut saw_cfg = false;
        while j < self.toks.len() {
            let t = &self.toks[j];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            } else if t.is_ident("cfg") {
                saw_cfg = true;
            } else if t.is_ident("test") {
                // `#[test]` or `#[cfg(test)]` / `#[cfg(any(test, …))]`.
                is_test = saw_cfg || depth == 1;
            }
            j += 1;
        }
        (is_test, j)
    }

    /// Parses an impl header starting after the `impl` keyword; returns
    /// (type, trait, index-after-`{`).
    fn parse_impl_header(&self, mut i: usize) -> (Option<String>, Option<String>, usize) {
        let mut angle = 0i32;
        let mut idents: Vec<String> = Vec::new();
        let mut for_at: Option<usize> = None;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            } else if t.is_punct("{") && angle <= 0 {
                i += 1;
                break;
            } else if angle <= 0 {
                if t.is_ident("where") {
                    // Skip where-clause tokens until the `{`.
                } else if t.is_ident("for") {
                    for_at = Some(idents.len());
                } else if t.kind == TokKind::Ident && t.text != "dyn" {
                    idents.push(t.text.clone());
                }
            }
            i += 1;
        }
        match for_at {
            Some(split) => {
                let trait_name = idents.get(split.wrapping_sub(1)).cloned();
                let ty = idents.get(split).cloned();
                (ty, trait_name, i)
            }
            None => (idents.last().cloned(), None, i),
        }
    }

    /// Parses `fn name …` — registers the `FnDef`, skips the signature, and
    /// pushes a `Frame::Fn` if a body follows. Returns the next index.
    fn parse_fn(&mut self, i: usize, pending_test: bool) -> usize {
        let Some(name_tok) = self.toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            return i + 1;
        };
        let (self_ty, trait_name) = self.innermost_impl();
        let is_test = pending_test || self.in_test();
        let def = self.out.fns.len();
        self.out.fns.push(FnDef {
            file: self.file,
            name: name_tok.text.clone(),
            self_ty,
            trait_name,
            module: self.module_path(),
            is_test,
            line: self.toks[i].line,
            calls: Vec::new(),
            panics: Vec::new(),
            sources: Vec::new(),
            unit_mixes: Vec::new(),
        });
        // Skip the signature: body `{` or declaration-ending `;`, at
        // paren/bracket/angle depth 0.
        let mut j = i + 2;
        let (mut paren, mut bracket, mut angle) = (0i32, 0i32, 0i32);
        while j < self.toks.len() {
            let t = &self.toks[j];
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if paren == 0 && bracket == 0 => {
                    self.frames.push(Frame::Fn { def, test: is_test });
                    return j + 1;
                }
                ";" if paren == 0 && bracket == 0 && angle <= 0 => {
                    return j + 1;
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Parses a `use` tree starting after the `use` keyword, recording
    /// leaf-name → full-path expansions. Returns the index after `;`.
    fn parse_use(&mut self, mut i: usize) -> usize {
        let mut prefix: Vec<String> = Vec::new();
        let mut stack: Vec<usize> = Vec::new(); // prefix lengths at `{`
        let mut last: Option<String> = None;
        while i < self.toks.len() {
            let t = &self.toks[i];
            match (t.kind, t.text.as_str()) {
                (TokKind::Ident, "as") => {
                    // `x as y`: the alias is the visible name.
                    if let (Some(orig), Some(alias)) = (
                        last.take(),
                        self.toks.get(i + 1).filter(|t| t.kind == TokKind::Ident),
                    ) {
                        let mut full = prefix.clone();
                        full.push(orig);
                        self.out.uses.insert(alias.text.clone(), full);
                        i += 1;
                    }
                }
                (TokKind::Ident, _) => last = Some(t.text.clone()),
                (TokKind::Punct, "::") => {
                    if let Some(seg) = last.take() {
                        prefix.push(seg);
                    }
                }
                (TokKind::Punct, "{") => {
                    stack.push(prefix.len());
                }
                (TokKind::Punct, "}") | (TokKind::Punct, ",") => {
                    if let Some(leaf) = last.take() {
                        if leaf != "self" {
                            let mut full = prefix.clone();
                            full.push(leaf.clone());
                            self.out.uses.insert(leaf, full);
                        } else if let Some(seg) = prefix.last().cloned() {
                            self.out.uses.insert(seg, prefix.clone());
                        }
                    }
                    if t.is_punct("}") {
                        if let Some(len) = stack.pop() {
                            prefix.truncate(len);
                        }
                    }
                }
                (TokKind::Punct, ";") => {
                    if let Some(leaf) = last.take() {
                        if leaf != "*" && leaf != "self" {
                            let mut full = prefix.clone();
                            full.push(leaf.clone());
                            self.out.uses.insert(leaf, full);
                        }
                    }
                    return i + 1;
                }
                (TokKind::Punct, "*") => last = None,
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Scans one body-event starting at `i` for fn `def`; returns the next
    /// index (≥ i+1).
    fn scan_body_event(&mut self, i: usize, def: usize) -> usize {
        let t = &self.toks[i];
        let line = t.line;

        // Method call `.name(` — also unwrap/expect panic sites and
        // HashIter iteration markers.
        if t.is_punct(".") {
            if let Some(name) = self.toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                let name_text = name.text.clone();
                let open = self.toks.get(i + 2).is_some_and(|t| t.is_punct("("));
                if open {
                    let d = &mut self.out.fns[def];
                    match name_text.as_str() {
                        "unwrap" => d.panics.push(PanicSite {
                            kind: PanicKind::Unwrap,
                            line,
                        }),
                        "expect" => d.panics.push(PanicSite {
                            kind: PanicKind::Expect,
                            line,
                        }),
                        _ => {
                            let recv_self = i > 0 && self.toks[i - 1].is_ident("self");
                            d.calls.push(CallSite {
                                segs: vec![name_text],
                                method: true,
                                recv_self,
                                line,
                            });
                        }
                    }
                    return i + 3;
                }
                return i + 2;
            }
            return i + 1;
        }

        if t.kind == TokKind::Ident {
            // Macro invocation `name!(…)`.
            if self.toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
                && self
                    .toks
                    .get(i + 2)
                    .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
            {
                let kind = match t.text.as_str() {
                    "panic" => Some(PanicKind::PanicMacro),
                    "unreachable" => Some(PanicKind::UnreachableMacro),
                    "todo" | "unimplemented" => Some(PanicKind::TodoMacro),
                    _ => None,
                };
                if let Some(kind) = kind {
                    self.out.fns[def].panics.push(PanicSite { kind, line });
                }
                return i + 2;
            }

            // HashMap / HashSet mention.
            if t.text == "HashMap" || t.text == "HashSet" {
                let d = &mut self.out.fns[def];
                d.sources.push(SourceSite {
                    kind: SourceKind::HashIter,
                    what: format!("{} in scope", t.text),
                    line,
                });
                return i + 1;
            }

            // Path call `a::b::c(`, plain call `f(`, or `Self::f(`.
            if !self.prev_blocks_call(i) {
                let (mut segs, after) = self.collect_path(i);
                if !segs.is_empty() && self.toks.get(after).is_some_and(|t| t.is_punct("(")) {
                    // `crate::`/`super::`/`self::` prefixes carry no
                    // resolution signal here — strip them.
                    while segs
                        .first()
                        .is_some_and(|s| s == "crate" || s == "super" || s == "self")
                    {
                        segs.remove(0);
                    }
                    let callable = segs
                        .first()
                        .is_some_and(|s| !is_keyword(s) || (s == "Self" && segs.len() > 1));
                    if callable {
                        self.record_path_call(def, segs, line);
                    }
                    return after + 1;
                }
            }

            // Unit-mix: `x_secs + y_ms` style.
            if let Some(mix) = self.unit_mix_at(i) {
                self.out.fns[def].unit_mixes.push(mix);
            }
            return i + 1;
        }

        // Postfix index `expr[…]`.
        if t.is_punct("[") && i > 0 {
            let prev = &self.toks[i - 1];
            let postfix = matches!(prev.kind, TokKind::Ident if !is_keyword(&prev.text))
                || prev.is_punct(")")
                || prev.is_punct("]");
            if postfix {
                self.out.fns[def].panics.push(PanicSite {
                    kind: PanicKind::SliceIndex,
                    line,
                });
            }
            return i + 1;
        }

        // Division / remainder by a literal zero.
        if (t.is_punct("/") || t.is_punct("%"))
            && self
                .toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Int && n.text == "0")
        {
            self.out.fns[def].panics.push(PanicSite {
                kind: PanicKind::DivZero,
                line,
            });
            return i + 2;
        }

        i + 1
    }

    /// Whether the token before `i` means this ident can't start a call
    /// path (`.x` method handled elsewhere, `fn x` is a declaration,
    /// `::x` is a path tail we already consumed).
    fn prev_blocks_call(&self, i: usize) -> bool {
        if i == 0 {
            return false;
        }
        let p = &self.toks[i - 1];
        p.is_punct(".") || p.is_punct("::") || p.is_ident("fn") || p.is_punct("#")
    }

    /// Collects a `::`-joined path starting at ident `i`; returns the
    /// segments (use-expanded) and the index just past the path (after any
    /// turbofish).
    fn collect_path(&self, i: usize) -> (Vec<String>, usize) {
        let mut segs = vec![self.toks[i].text.clone()];
        let mut j = i + 1;
        while j + 1 < self.toks.len()
            && self.toks[j].is_punct("::")
            && self.toks[j + 1].kind == TokKind::Ident
        {
            segs.push(self.toks[j + 1].text.clone());
            j += 2;
        }
        // Turbofish `::<…>` between the path and the call parens.
        if j + 1 < self.toks.len() && self.toks[j].is_punct("::") && self.toks[j + 1].is_punct("<")
        {
            let mut depth = 0i32;
            let mut k = j + 1;
            while k < self.toks.len() {
                if self.toks[k].is_punct("<") {
                    depth += 1;
                } else if self.toks[k].is_punct(">") || self.toks[k].is_punct(">>") {
                    depth -= if self.toks[k].is_punct(">>") { 2 } else { 1 };
                    if depth <= 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
            j = k;
        }
        // Expand the first segment through `use` imports.
        if segs.len() > 1 || self.out.uses.contains_key(&segs[0]) {
            if let Some(full) = self.out.uses.get(&segs[0]) {
                let mut expanded = full.clone();
                expanded.extend(segs.into_iter().skip(1));
                segs = expanded;
            }
        }
        (segs, j)
    }

    /// Records a path call, classifying external determinism sources.
    fn record_path_call(&mut self, def: usize, segs: Vec<String>, line: usize) {
        let d = &mut self.out.fns[def];
        let joined = segs.join("::");
        let last = segs.last().map(String::as_str).unwrap_or("");
        let last2 = if segs.len() >= 2 {
            format!("{}::{}", segs[segs.len() - 2], last)
        } else {
            last.to_string()
        };
        let thread_builder = segs
            .windows(2)
            .any(|w| w[0] == "thread" && w[1] == "Builder");
        let source = match (last2.as_str(), last) {
            ("Instant::now", _) | ("SystemTime::now", _) => Some(SourceKind::WallClock),
            // `thread::scope` runs a closure whose `Scope::spawn`s finish in
            // scheduler order; a thread `Builder` exists only to `spawn`.
            ("thread::spawn" | "thread::scope", _) => Some(SourceKind::ThreadSpawn),
            _ if thread_builder => Some(SourceKind::ThreadSpawn),
            (_, "thread_rng" | "from_entropy" | "getrandom") => Some(SourceKind::Rng),
            (_, "random") if segs.first().is_some_and(|s| s == "rand") => Some(SourceKind::Rng),
            _ if segs.iter().any(|s| s == "OsRng") => Some(SourceKind::Rng),
            _ => None,
        };
        if let Some(kind) = source {
            d.sources.push(SourceSite {
                kind,
                what: joined,
                line,
            });
        } else {
            d.calls.push(CallSite {
                segs,
                method: false,
                recv_self: false,
                line,
            });
        }
    }

    /// Detects `…x_secs + y_ms…` unit mixing around ident `i` (only fires
    /// when `i` is the left operand of a `+`/`-`).
    fn unit_mix_at(&self, i: usize) -> Option<UnitMix> {
        let left = &self.toks[i];
        let lu = unit_of(&left.text)?;
        let op = self.toks.get(i + 1)?;
        if !(op.is_punct("+") || op.is_punct("-")) {
            return None;
        }
        // Find the right operand's last dot-path ident, skipping openers.
        let mut j = i + 2;
        while self
            .toks
            .get(j)
            .is_some_and(|t| t.is_punct("&") || t.is_punct("(") || t.is_punct("*"))
        {
            j += 1;
        }
        let mut right: Option<&Tok> = None;
        while let Some(t) = self.toks.get(j) {
            if t.kind == TokKind::Ident {
                right = Some(t);
                if self.toks.get(j + 1).is_some_and(|n| n.is_punct(".")) {
                    j += 2;
                    continue;
                }
            }
            break;
        }
        let right = right?;
        // A call like `x_secs + elapsed_ms()` still mixes; a field path
        // takes its last segment's unit.
        let ru = unit_of(&right.text)?;
        if lu == ru {
            return None;
        }
        Some(UnitMix {
            line: left.line,
            message: format!(
                "`{}` ({lu}) {} `{}` ({ru}) mixes units — convert explicitly first",
                left.text, op.text, right.text
            ),
        })
    }
}

/// Keywords that can precede `(` without being calls.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "let"
            | "mut"
            | "fn"
            | "pub"
            | "in"
            | "loop"
            | "else"
            | "move"
            | "ref"
            | "box"
            | "as"
            | "use"
            | "where"
            | "impl"
            | "dyn"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "struct"
            | "enum"
            | "union"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "unsafe"
            | "extern"
            | "mod"
            | "await"
            | "async"
            | "yield"
            | "assert"
            | "debug_assert"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> FileAst {
        parse(0, "crates/core/src/x.rs", &lex(src))
    }

    #[test]
    fn items_and_impls_give_qualified_fns() {
        let ast = parse_src(
            "impl ServingSystem { fn run(&mut self) { self.step(); } }\n\
             impl BatchingPolicy for Foo { fn decide(&mut self) {} }\n\
             mod inner { fn helper() {} }\n",
        );
        assert_eq!(ast.fns.len(), 3);
        assert_eq!(ast.fns[0].name, "run");
        assert_eq!(ast.fns[0].self_ty.as_deref(), Some("ServingSystem"));
        assert_eq!(ast.fns[1].trait_name.as_deref(), Some("BatchingPolicy"));
        assert_eq!(ast.fns[1].self_ty.as_deref(), Some("Foo"));
        assert_eq!(ast.fns[2].module, vec!["inner".to_string()]);
        let call = &ast.fns[0].calls[0];
        assert!(call.method && call.recv_self);
        assert_eq!(call.segs, vec!["step".to_string()]);
    }

    #[test]
    fn test_attributes_mark_fns() {
        let ast = parse_src(
            "#[cfg(test)] mod tests { fn t() { x.unwrap(); } }\n\
             #[test] fn unit() {}\n\
             fn live() {}\n",
        );
        assert!(ast.fns[0].is_test);
        assert!(ast.fns[1].is_test);
        assert!(!ast.fns[2].is_test);
    }

    #[test]
    fn panic_sites_classified() {
        let ast = parse_src(
            "fn f(xs: &[u32], n: u32) {\n\
             let a = o.unwrap();\n\
             let b = o.expect(\"m\");\n\
             panic!(\"boom\");\n\
             let c = xs[0];\n\
             let d = n % 0;\n\
             let e = o.unwrap_or(7);\n\
             }\n",
        );
        let kinds: Vec<PanicKind> = ast.fns[0].panics.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            [
                PanicKind::Unwrap,
                PanicKind::Expect,
                PanicKind::PanicMacro,
                PanicKind::SliceIndex,
                PanicKind::DivZero,
            ]
        );
    }

    #[test]
    fn use_expansion_resolves_sources() {
        let ast = parse_src(
            "use std::time::Instant;\n\
             fn f() { let t = Instant::now(); }\n",
        );
        assert_eq!(ast.fns[0].sources.len(), 1);
        assert_eq!(ast.fns[0].sources[0].kind, SourceKind::WallClock);
        assert_eq!(ast.fns[0].sources[0].what, "std::time::Instant::now");
    }

    #[test]
    fn use_groups_and_aliases() {
        let ast = parse_src("use std::collections::{BTreeMap, HashMap as Map};\n");
        assert_eq!(
            ast.uses.get("BTreeMap").map(|v| v.join("::")),
            Some("std::collections::BTreeMap".into())
        );
        assert_eq!(
            ast.uses.get("Map").map(|v| v.join("::")),
            Some("std::collections::HashMap".into())
        );
    }

    #[test]
    fn unit_mix_detection() {
        let ast = parse_src(
            "fn f() {\n\
             let a = window_secs + latency_ms;\n\
             let b = x_secs + y_secs;\n\
             let c = total_bytes - self.window_secs;\n\
             let d = span_secs * rate;\n\
             }\n",
        );
        assert_eq!(ast.fns[0].unit_mixes.len(), 2);
        assert_eq!(ast.fns[0].unit_mixes[0].line, 2);
        assert_eq!(ast.fns[0].unit_mixes[1].line, 4);
    }

    #[test]
    fn hash_mentions_become_sources() {
        let ast = parse_src("fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n");
        assert!(ast.fns[0]
            .sources
            .iter()
            .all(|s| s.kind == SourceKind::HashIter));
        assert!(!ast.fns[0].sources.is_empty());
    }

    #[test]
    fn trait_method_decls_without_bodies_parse() {
        let ast = parse_src("trait P { fn decide(&mut self) -> u32; }\nfn after() {}\n");
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].name, "decide");
        assert_eq!(ast.fns[1].name, "after");
    }
}
