//! Workspace-wide symbol table and call graph.
//!
//! Name resolution is deliberately over-approximate: a method call
//! `.decide(…)` edges to *every* workspace method named `decide` (which is
//! exactly what dynamic dispatch through `Box<dyn BatchingPolicy>` needs),
//! and `Type::assoc(…)` prefers fns on an impl of `Type`, then the methods
//! of every `impl Type for …` when `Type` is a trait, then free fns of
//! that name in a module or crate `Type` (an inline module, or the file
//! `Type.rs`). Over-approximation makes reachability and taint
//! conservative — more edges can only create false positives, never false
//! negatives — and every false positive is suppressible with a reasoned
//! `lint:allow`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::parse::{FileAst, FnDef};

/// Function id: index into [`Graph::fns`].
pub type FnId = usize;

/// The call graph over every parsed function in the workspace.
#[derive(Debug, Default)]
pub struct Graph {
    /// All functions, flattened over files in file order.
    pub fns: Vec<FnDef>,
    /// Workspace-relative path per file index (parallel to parse input).
    pub rels: Vec<String>,
    /// Forward edges: `edges[f]` = (callee, call line) pairs, sorted.
    pub edges: Vec<Vec<(FnId, usize)>>,
}

impl Graph {
    /// Builds the graph from per-file ASTs (parallel to `rels`).
    pub fn build(rels: Vec<String>, asts: Vec<FileAst>) -> Graph {
        let mut fns: Vec<FnDef> = Vec::new();
        for ast in asts {
            fns.extend(ast.fns);
        }

        // Indexes: bare name → fns, (self type, name) → fns, (trait,
        // name) → the trait's impl methods.
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut by_ty_name: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        let mut by_trait_name: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(id);
            if let Some(ty) = &f.self_ty {
                by_ty_name.entry((ty, &f.name)).or_default().push(id);
            }
            if let Some(tr) = &f.trait_name {
                by_trait_name.entry((tr, &f.name)).or_default().push(id);
            }
        }

        let crate_of = |rel: &str| -> String {
            rel.strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .unwrap_or("")
                .to_string()
        };
        // The module a file is: its stem, or its directory for `mod.rs`.
        let file_module = |rel: &str| -> String {
            let path = Path::new(rel);
            let module = match path.file_stem().and_then(|s| s.to_str()) {
                Some("mod") => path.parent().and_then(|d| d.file_name()),
                _ => path.file_stem(),
            };
            module.and_then(|m| m.to_str()).unwrap_or("").to_string()
        };

        let mut edges: Vec<Vec<(FnId, usize)>> = vec![Vec::new(); fns.len()];
        for (caller, f) in fns.iter().enumerate() {
            let caller_crate = crate_of(&rels[f.file]);
            for call in &f.calls {
                let last = call.segs.last().map(String::as_str).unwrap_or("");
                let mut targets: Vec<FnId> = Vec::new();
                if call.method {
                    // `.name(…)`: every method of that name; a self receiver
                    // prefers the caller's own impl when it defines one.
                    if call.recv_self {
                        if let Some(ty) = &f.self_ty {
                            if let Some(own) = by_ty_name.get(&(ty.as_str(), last)) {
                                targets = own.clone();
                            }
                        }
                    }
                    if targets.is_empty() {
                        if let Some(methods) = by_name.get(last) {
                            targets = methods
                                .iter()
                                .copied()
                                .filter(|&id| fns[id].self_ty.is_some())
                                .collect();
                        }
                    }
                } else if call.segs.len() >= 2 {
                    // `A::name(…)` — `Self` maps to the enclosing impl type.
                    let qual = &call.segs[call.segs.len() - 2];
                    let ty = if qual == "Self" {
                        f.self_ty.clone().unwrap_or_else(|| qual.clone())
                    } else {
                        qual.clone()
                    };
                    if let Some(own) = by_ty_name.get(&(ty.as_str(), last)) {
                        targets = own.clone();
                    } else if let Some(impls) = by_trait_name.get(&(ty.as_str(), last)) {
                        // Trait-qualified `Wire::write(…)`: every impl's.
                        targets = impls.clone();
                    } else if let Some(named) = by_name.get(last) {
                        // Module-qualified free fn (`util::helper(…)`), in
                        // an inline module, a file module or a crate.
                        targets = named
                            .iter()
                            .copied()
                            .filter(|&id| {
                                let rel = &rels[fns[id].file];
                                fns[id].self_ty.is_none()
                                    && (fns[id].module.last() == Some(&ty)
                                        || (fns[id].module.is_empty() && file_module(rel) == ty)
                                        || crate_of(rel).replace('-', "_") == ty.replace('-', "_"))
                            })
                            .collect();
                    }
                } else if let Some(named) = by_name.get(last) {
                    // Bare `name(…)`: free fns, same crate preferred.
                    let free: Vec<FnId> = named
                        .iter()
                        .copied()
                        .filter(|&id| fns[id].self_ty.is_none())
                        .collect();
                    let same_crate: Vec<FnId> = free
                        .iter()
                        .copied()
                        .filter(|&id| crate_of(&rels[fns[id].file]) == caller_crate)
                        .collect();
                    targets = if same_crate.is_empty() {
                        free
                    } else {
                        same_crate
                    };
                }
                for t in targets {
                    edges[caller].push((t, call.line));
                }
            }
            edges[caller].sort_unstable();
            edges[caller].dedup_by_key(|(t, _)| *t);
        }

        Graph { fns, rels, edges }
    }

    /// Workspace-relative path of the file defining `id`.
    pub fn rel_of(&self, id: FnId) -> &str {
        &self.rels[self.fns[id].file]
    }

    /// Display name (`Type::name` or `name`).
    pub fn qual_name(&self, id: FnId) -> String {
        match &self.fns[id].self_ty {
            Some(ty) => format!("{ty}::{}", self.fns[id].name),
            None => self.fns[id].name.clone(),
        }
    }

    /// Forward BFS from `roots`; returns per-fn reachability.
    pub fn reachable_from(&self, roots: &[FnId]) -> Vec<bool> {
        let mut seen = vec![false; self.fns.len()];
        let mut queue: Vec<FnId> = Vec::new();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                queue.push(r);
            }
        }
        while let Some(f) = queue.pop() {
            for &(callee, _) in &self.edges[f] {
                if !seen[callee] {
                    seen[callee] = true;
                    queue.push(callee);
                }
            }
        }
        seen
    }

    /// Shortest call path `from → … → to` (inclusive), as
    /// (fn, call-line-into-next) pairs; the final pair's line is 0.
    pub fn path(&self, from: FnId, to: FnId) -> Option<Vec<(FnId, usize)>> {
        if from == to {
            return Some(vec![(from, 0)]);
        }
        let mut parent: Vec<Option<(FnId, usize)>> = vec![None; self.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        let mut seen = vec![false; self.fns.len()];
        seen[from] = true;
        while let Some(f) = queue.pop_front() {
            for &(callee, line) in &self.edges[f] {
                if !seen[callee] {
                    seen[callee] = true;
                    parent[callee] = Some((f, line));
                    if callee == to {
                        // Reconstruct.
                        let mut chain = vec![(to, 0usize)];
                        let mut cur = to;
                        while let Some((p, l)) = parent[cur] {
                            chain.push((p, l));
                            cur = p;
                        }
                        chain.reverse();
                        return Some(chain);
                    }
                    queue.push_back(callee);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn graph_of(files: &[(&str, &str)]) -> Graph {
        let rels: Vec<String> = files.iter().map(|(r, _)| r.to_string()).collect();
        let asts = files
            .iter()
            .enumerate()
            .map(|(i, (r, s))| parse(i, r, &lex(s)))
            .collect();
        Graph::build(rels, asts)
    }

    fn id_of(g: &Graph, name: &str) -> FnId {
        g.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn cross_file_free_fn_edges() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "fn helper() {}"),
            ("crates/b/src/lib.rs", "fn top() { helper(); }"),
        ]);
        let (h, t) = (id_of(&g, "helper"), id_of(&g, "top"));
        assert!(g.edges[t].iter().any(|&(c, _)| c == h));
        assert!(g.reachable_from(&[t])[h]);
    }

    #[test]
    fn method_calls_edge_to_all_impls() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl A { fn decide(&self) {} }\n\
             impl B { fn decide(&self) {} }\n\
             fn go(p: &dyn P) { p.decide(); }\n",
        )]);
        let go = id_of(&g, "go");
        assert_eq!(g.edges[go].len(), 2);
    }

    #[test]
    fn self_receiver_prefers_own_impl() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl A { fn run(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }\n",
        )]);
        let run = id_of(&g, "run");
        assert_eq!(g.edges[run].len(), 1);
        let (callee, _) = g.edges[run][0];
        assert_eq!(g.fns[callee].self_ty.as_deref(), Some("A"));
    }

    #[test]
    fn assoc_fn_resolution_and_paths() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl W { fn extract(&self) {} }\n\
             fn solve() { let w = W; W::extract(&w); }\n\
             fn outer() { solve(); }\n",
        )]);
        let (outer, extract) = (id_of(&g, "outer"), id_of(&g, "extract"));
        let chain = g.path(outer, extract).unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(g.qual_name(chain[2].0), "W::extract");
    }

    fn callees(g: &Graph, caller: &str) -> Vec<String> {
        g.edges[id_of(g, caller)]
            .iter()
            .map(|&(c, _)| format!("{}:{}", g.rel_of(c), g.qual_name(c)))
            .collect()
    }

    #[test]
    fn trait_qualified_calls_edge_to_every_impl() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "trait Wire { fn write(&self); }\n\
             impl Wire for u64 { fn write(&self) {} }\n\
             impl<T: Text> Wire for T { fn write(&self) {} }\n\
             impl Line { fn write(&self) {} }\n\
             fn encode(x: u64) { Wire::write(&x); }\n",
        )]);
        assert_eq!(
            callees(&g, "encode"),
            [
                "crates/a/src/lib.rs:u64::write",
                "crates/a/src/lib.rs:T::write"
            ]
        );
    }

    #[test]
    fn module_qualified_calls_reach_file_modules() {
        let g = graph_of(&[
            (
                "crates/t/src/json.rs",
                "pub fn write_jsonl() {}\nmod tests { fn write_jsonl() {} }\n",
            ),
            ("crates/t/src/chrome.rs", "pub fn write_jsonl() {}\n"),
            ("crates/t/src/util/mod.rs", "pub fn helper() {}\n"),
            (
                "crates/t/src/sink.rs",
                "fn record() { json::write_jsonl(); util::helper(); }\n",
            ),
        ]);
        assert_eq!(
            callees(&g, "record"),
            [
                "crates/t/src/json.rs:write_jsonl",
                "crates/t/src/util/mod.rs:helper"
            ]
        );
    }
}
