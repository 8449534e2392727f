//! The three semantic dataflow passes: determinism taint, panic
//! reachability, and sim-time unit mixing.
//!
//! All three run over the workspace call graph from [`crate::graph`].
//! Taint is call-graph dataflow, not value dataflow: a sink is tainted if
//! its *computation* can invoke a nondeterminism source, i.e. there is a
//! call path sink → … → source. Data smuggled between functions through
//! fields without a call path is a documented blind spot (DESIGN.md).

use std::collections::{BTreeMap, VecDeque};

use crate::graph::{FnId, Graph};
use crate::parse::SourceSite;
use crate::rules::{rule_applies, FileAllows};
use crate::{Finding, Level};

/// Plan-affecting sink selectors: function name + required crate prefix.
///
/// These anchor the determinism-taint pass: solver inputs
/// (`solve_allocation`, `allocate`), `BatchingPolicy::decide`, router
/// choices (`route`), trace-event payloads (`emit` in core, `record`
/// in the trace crate), and the control plane's solve-window scheduling
/// (`ControlPlane::begin_solve` computes the `SolveComplete` time — if
/// wall time ever leaked into that delay, whole event timelines would
/// diverge between runs).
const SINKS: [(&str, &str); 7] = [
    ("decide", "crates/core/"),
    ("route", "crates/core/"),
    ("allocate", "crates/core/"),
    ("solve_allocation", "crates/core/"),
    ("emit", "crates/core/"),
    ("begin_solve", "crates/core/"),
    ("record", "crates/trace/"),
];

/// Whether fn `id` is a plan-affecting sink.
fn is_sink(graph: &Graph, id: FnId) -> bool {
    let f = &graph.fns[id];
    let rel = graph.rel_of(id);
    SINKS
        .iter()
        .any(|(name, prefix)| f.name == *name && rel.starts_with(prefix))
}

/// Whether fn `id` is a panic-reachability root: the serving loop
/// (`ServingSystem::run*`) or a CLI / bench entry point. An experiment's
/// `run` is one: `proteus-bench`'s `main` reaches it only through the
/// registry's fn pointers, which the call graph does not follow.
fn is_root(graph: &Graph, id: FnId) -> bool {
    let f = &graph.fns[id];
    if f.is_test {
        return false;
    }
    if f.self_ty.as_deref() == Some("ServingSystem") && f.name.starts_with("run") {
        return true;
    }
    let rel = graph.rel_of(id);
    (f.name == "main" && (rel.starts_with("crates/cli/") || rel.starts_with("crates/bench/")))
        || (f.name == "run" && rel.starts_with("crates/bench/src/experiments/"))
}

/// Per-file allow tables, keyed by workspace-relative path.
pub type AllowMap = BTreeMap<String, FileAllows>;

fn suppress(allows: &mut AllowMap, rel: &str, rule: &str, line: usize) -> bool {
    allows
        .get_mut(rel)
        .is_some_and(|a| a.try_suppress(rule, line))
}

/// Determinism taint: sources propagated along the call graph into
/// plan-affecting sinks, reported with the full source→sink call chain.
pub fn determinism_pass(graph: &Graph, allows: &mut AllowMap) -> Vec<Finding> {
    // Unsuppressed seeds per fn (test fns never seed).
    let mut seeds: Vec<Vec<&SourceSite>> = vec![Vec::new(); graph.fns.len()];
    for (id, f) in graph.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let rel = graph.rel_of(id);
        for s in &f.sources {
            let covered = allows
                .get(rel)
                .is_some_and(|a| a.would_suppress("determinism", s.line));
            if covered {
                // The allow at the source kills every chain through it.
                suppress(allows, rel, "determinism", s.line);
            } else {
                seeds[id].push(s);
            }
        }
    }

    // Which fns can reach a seed through calls (callee-ward closure).
    let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); graph.fns.len()];
    for (caller, outs) in graph.edges.iter().enumerate() {
        for &(callee, _) in outs {
            rev[callee].push(caller);
        }
    }
    let mut tainted = vec![false; graph.fns.len()];
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for (id, s) in seeds.iter().enumerate() {
        if !s.is_empty() {
            tainted[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(f) = queue.pop_front() {
        for &caller in &rev[f] {
            if !tainted[caller] && !graph.fns[caller].is_test {
                tainted[caller] = true;
                queue.push_back(caller);
            }
        }
    }

    let mut findings = Vec::new();
    for id in 0..graph.fns.len() {
        if graph.fns[id].is_test || !is_sink(graph, id) || !tainted[id] {
            continue;
        }
        let rel = graph.rel_of(id).to_string();
        if !rule_applies("determinism", &rel) {
            continue;
        }
        // Shortest path through tainted fns to the nearest seed.
        let Some((chain, seed)) = nearest_seed(graph, id, &tainted, &seeds) else {
            continue;
        };
        // Anchor at the sink's outgoing call (or the seed itself when the
        // sink IS the source), so the allow lives next to the sink code.
        let anchor = if chain.len() > 1 {
            chain[0].1
        } else {
            seed.line
        };
        let names: Vec<String> = chain.iter().map(|&(f, _)| graph.qual_name(f)).collect();
        let seed_rel = graph.rel_of(chain[chain.len() - 1].0);
        let mut flow: Vec<(String, usize, String)> = Vec::new();
        for (step, &(f, line)) in chain.iter().enumerate() {
            if step + 1 < chain.len() {
                flow.push((
                    graph.rel_of(f).to_string(),
                    line,
                    format!(
                        "`{}` calls `{}`",
                        graph.qual_name(f),
                        graph.qual_name(chain[step + 1].0)
                    ),
                ));
            }
        }
        flow.push((
            seed_rel.to_string(),
            seed.line,
            format!("{} `{}`", seed.kind.label(), seed.what),
        ));
        let finding = Finding {
            rule: "determinism",
            rel: rel.clone(),
            line: anchor,
            message: format!(
                "plan-affecting `{}` reaches {} `{}` ({seed_rel}:{}) via {}",
                graph.qual_name(id),
                seed.kind.label(),
                seed.what,
                seed.line,
                names.join(" → "),
            ),
            level: Level::Error,
            chain: flow,
        };
        if !suppress(allows, &rel, "determinism", anchor) {
            findings.push(finding);
        }
    }
    findings
}

/// BFS from `sink` through tainted fns to the nearest seeded fn; returns
/// the chain (fn, call-line-into-next) and the seed site.
fn nearest_seed<'a>(
    graph: &Graph,
    sink: FnId,
    tainted: &[bool],
    seeds: &[Vec<&'a SourceSite>],
) -> Option<(Vec<(FnId, usize)>, &'a SourceSite)> {
    if let Some(seed) = seeds[sink].first() {
        return Some((vec![(sink, 0)], seed));
    }
    let mut parent: Vec<Option<(FnId, usize)>> = vec![None; graph.fns.len()];
    let mut seen = vec![false; graph.fns.len()];
    let mut queue = VecDeque::new();
    seen[sink] = true;
    queue.push_back(sink);
    while let Some(f) = queue.pop_front() {
        for &(callee, line) in &graph.edges[f] {
            if seen[callee] || !tainted[callee] || graph.fns[callee].is_test {
                continue;
            }
            seen[callee] = true;
            parent[callee] = Some((f, line));
            if let Some(seed) = seeds[callee].first() {
                // Reconstruct sink → … → callee.
                let mut chain = vec![(callee, 0usize)];
                let mut cur = callee;
                while let Some((p, l)) = parent[cur] {
                    chain.push((p, l));
                    cur = p;
                }
                chain.reverse();
                return Some((chain, seed));
            }
            queue.push_back(callee);
        }
    }
    None
}

/// Panic reachability: panic sites in fns reachable from the serving loop
/// or entry points. Error-level inside the `no-panic` crates, advisory
/// notes elsewhere; postfix indexing is always advisory (the DES hot path
/// indexes dense arrays by construction-checked ids).
pub fn panic_reach_pass(graph: &Graph, allows: &mut AllowMap) -> (Vec<Finding>, Vec<Finding>) {
    let roots: Vec<FnId> = (0..graph.fns.len())
        .filter(|&id| is_root(graph, id))
        .collect();
    // BFS with parent tracking, skipping test fns.
    let mut parent: Vec<Option<(FnId, usize)>> = vec![None; graph.fns.len()];
    let mut seen = vec![false; graph.fns.len()];
    let mut queue = VecDeque::new();
    for &r in &roots {
        seen[r] = true;
        queue.push_back(r);
    }
    while let Some(f) = queue.pop_front() {
        for &(callee, line) in &graph.edges[f] {
            if !seen[callee] && !graph.fns[callee].is_test {
                seen[callee] = true;
                parent[callee] = Some((f, line));
                queue.push_back(callee);
            }
        }
    }

    let chain_to = |id: FnId| -> Vec<(String, usize, String)> {
        let mut steps = vec![(id, 0usize)];
        let mut cur = id;
        while let Some((p, l)) = parent[cur] {
            steps.push((p, l));
            cur = p;
        }
        steps.reverse();
        let mut flow = Vec::new();
        for (i, &(f, _)) in steps.iter().enumerate() {
            if i + 1 < steps.len() {
                let (_, call_line) = steps[i + 1];
                flow.push((
                    graph.rel_of(f).to_string(),
                    call_line.max(graph.fns[f].line),
                    format!(
                        "`{}` calls `{}`",
                        graph.qual_name(f),
                        graph.qual_name(steps[i + 1].0)
                    ),
                ));
            }
        }
        flow
    };
    let root_of = |id: FnId| -> FnId {
        let mut cur = id;
        while let Some((p, _)) = parent[cur] {
            cur = p;
        }
        cur
    };

    let mut errors = Vec::new();
    let mut notes = Vec::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if !seen[id] || f.is_test {
            continue;
        }
        let rel = graph.rel_of(id).to_string();
        let in_scope = rule_applies("panic-path", &rel);
        for p in &f.panics {
            let advisory = p.kind.advisory() || !in_scope;
            let root = root_of(id);
            let mut flow = chain_to(id);
            flow.push((rel.clone(), p.line, format!("{} here", p.kind.label())));
            let finding = Finding {
                rule: "panic-path",
                rel: rel.clone(),
                line: p.line,
                message: format!(
                    "{} in `{}` is reachable from `{}`",
                    p.kind.label(),
                    graph.qual_name(id),
                    graph.qual_name(root),
                ),
                level: if advisory { Level::Note } else { Level::Error },
                chain: flow,
            };
            if suppress(allows, &rel, "panic-path", p.line) {
                continue;
            }
            if advisory {
                notes.push(finding);
            } else {
                errors.push(finding);
            }
        }
    }
    (errors, notes)
}

/// Sim-time unit mixing: raw `+`/`-` between identifiers whose suffixes
/// carry different units, outside the eps helpers.
pub fn sim_units_pass(graph: &Graph, allows: &mut AllowMap) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let rel = graph.rel_of(id).to_string();
        if !rule_applies("sim-units", &rel) {
            continue;
        }
        for mix in &f.unit_mixes {
            if suppress(allows, &rel, "sim-units", mix.line) {
                continue;
            }
            findings.push(Finding {
                rule: "sim-units",
                rel: rel.clone(),
                line: mix.line,
                message: mix.message.clone(),
                level: Level::Error,
                chain: Vec::new(),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;
    use crate::rules::parse_allows;

    fn setup(files: &[(&str, &str)]) -> (Graph, AllowMap) {
        let rels: Vec<String> = files.iter().map(|(r, _)| r.to_string()).collect();
        let mut allows = AllowMap::new();
        let mut asts = Vec::new();
        for (i, (rel, src)) in files.iter().enumerate() {
            let lexed = lex(src);
            let (a, _) = parse_allows(rel, &lexed);
            allows.insert(rel.to_string(), a);
            asts.push(parse(i, rel, &lexed));
        }
        (Graph::build(rels, asts), allows)
    }

    #[test]
    fn taint_crosses_function_and_crate_boundaries() {
        let (graph, mut allows) = setup(&[
            (
                "crates/workloads/src/gen.rs",
                "fn jitter() -> f64 { let t = std::time::Instant::now(); 0.0 }\n\
                 fn wobble() -> f64 { jitter() * 2.0 }\n",
            ),
            (
                "crates/core/src/batching/x.rs",
                "impl BatchingPolicy for Foo { fn decide(&mut self) { let w = wobble(); } }\n",
            ),
        ]);
        let findings = determinism_pass(&graph, &mut allows);
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!(f.rel, "crates/core/src/batching/x.rs");
        assert!(f.message.contains("Foo::decide"));
        assert!(f.message.contains("wall-clock read"));
        assert!(f.message.contains("wobble"));
        assert_eq!(f.chain.len(), 3); // decide→wobble, wobble→jitter, seed
    }

    #[test]
    fn solve_window_scheduling_is_a_checked_sink() {
        let (graph, mut allows) = setup(&[(
            "crates/core/src/control.rs",
            "fn wobble() -> f64 { let t = std::time::Instant::now(); 0.0 }\n\
             impl ControlPlane { fn begin_solve(&mut self) { let d = wobble(); } }\n",
        )]);
        let findings = determinism_pass(&graph, &mut allows);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("begin_solve"));
        assert!(findings[0].message.contains("wall-clock read"));
    }

    #[test]
    fn suppressed_seed_kills_the_chain() {
        let (graph, mut allows) = setup(&[(
            "crates/core/src/x.rs",
            "fn stamp() -> f64 {\n\
             // lint:allow(wall-clock) — reporting only, never a plan input\n\
             let t = Instant::now(); 0.0\n\
             }\n\
             impl R { fn route(&mut self) { let s = stamp(); } }\n",
        )]);
        let findings = determinism_pass(&graph, &mut allows);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn panic_reachability_distinguishes_live_and_dead() {
        let (graph, mut allows) = setup(&[
            (
                "crates/core/src/system.rs",
                "impl ServingSystem { fn run(&mut self) { self.step(); } \
                 fn step(&mut self) { x.unwrap(); } }\n",
            ),
            (
                "crates/core/src/dead.rs",
                "fn never_called() { y.unwrap(); }\n",
            ),
        ]);
        let (errors, _notes) = panic_reach_pass(&graph, &mut allows);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("ServingSystem::run"));
        assert_eq!(errors[0].rel, "crates/core/src/system.rs");
    }

    #[test]
    fn out_of_scope_reachable_panics_are_notes() {
        let (graph, mut allows) = setup(&[(
            "crates/cli/src/main.rs",
            "fn main() { helper(); }\nfn helper() { x.unwrap(); }\n",
        )]);
        let (errors, notes) = panic_reach_pass(&graph, &mut allows);
        assert!(errors.is_empty());
        assert_eq!(
            notes
                .iter()
                .filter(|n| n.message.contains("`.unwrap()`"))
                .count(),
            1
        );
    }

    #[test]
    fn existing_no_panic_allow_covers_reachability() {
        let (graph, mut allows) = setup(&[(
            "crates/core/src/system.rs",
            "impl ServingSystem { fn run(&mut self) {\n\
             x.unwrap(); // lint:allow(no-panic) — invariant: set above\n\
             } }\n",
        )]);
        let (errors, _) = panic_reach_pass(&graph, &mut allows);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn unit_mix_pass_scopes_and_fires() {
        let (graph, mut allows) = setup(&[(
            "crates/sim/src/clock.rs",
            "fn f() { let x = window_secs + latency_ms; }\n",
        )]);
        let findings = sim_units_pass(&graph, &mut allows);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("seconds"));
        assert!(findings[0].message.contains("milliseconds"));
    }
}
