use super::*;
use crate::{LinearProgram, Relation, VarId};

fn assert_close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-6, "{a} != {b}");
}

#[test]
fn textbook_maximization() {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), z = 36.
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, f64::INFINITY, 3.0);
    let y = lp.add_continuous("y", 0.0, f64::INFINITY, 5.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
    lp.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
    lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
    let s = solve(&lp).unwrap();
    assert_close(s.objective(), 36.0);
    assert_close(s.value(x), 2.0);
    assert_close(s.value(y), 6.0);
}

#[test]
fn minimization_with_ge_rows() {
    // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 → x=7,y=3, z=23.
    let mut lp = LinearProgram::minimize();
    let x = lp.add_continuous("x", 0.0, f64::INFINITY, 2.0);
    let y = lp.add_continuous("y", 0.0, f64::INFINITY, 3.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
    lp.add_constraint(vec![(y, 1.0)], Relation::Ge, 3.0);
    let s = solve(&lp).unwrap();
    assert_close(s.objective(), 23.0);
    assert_close(s.value(x), 7.0);
    assert_close(s.value(y), 3.0);
}

#[test]
fn equality_constraints() {
    // max x + y s.t. x + y = 5, x - y = 1 → (3, 2).
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, f64::INFINITY, 1.0);
    let y = lp.add_continuous("y", 0.0, f64::INFINITY, 1.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
    lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
    let s = solve(&lp).unwrap();
    assert_close(s.value(x), 3.0);
    assert_close(s.value(y), 2.0);
}

#[test]
fn upper_bounds_bind() {
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, 2.5, 1.0);
    let s = solve(&lp).unwrap();
    assert_close(s.value(x), 2.5);
}

#[test]
fn nonzero_lower_bounds_shift_correctly() {
    // max -x s.t. x in [3, 10] → x = 3.
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 3.0, 10.0, -1.0);
    let s = solve(&lp).unwrap();
    assert_close(s.value(x), 3.0);
    assert_close(s.objective(), -3.0);

    // And a constraint interacting with the shift.
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 3.0, 10.0, 1.0);
    let y = lp.add_continuous("y", 1.0, 10.0, 1.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 6.0);
    let s = solve(&lp).unwrap();
    assert_close(s.objective(), 6.0);
    assert!(s.value(x) >= 3.0 - 1e-9);
    assert!(s.value(y) >= 1.0 - 1e-9);
}

#[test]
fn fixed_variable() {
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 4.0, 4.0, 1.0);
    let y = lp.add_continuous("y", 0.0, f64::INFINITY, 1.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 10.0);
    let s = solve(&lp).unwrap();
    assert_close(s.value(x), 4.0);
    assert_close(s.value(y), 6.0);
}

#[test]
fn detects_infeasible() {
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, 1.0, 1.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 5.0);
    assert_eq!(solve(&lp), Err(SolveError::Infeasible));
}

#[test]
fn detects_unbounded() {
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, f64::INFINITY, 1.0);
    let y = lp.add_continuous("y", 0.0, f64::INFINITY, 0.0);
    lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
    assert_eq!(solve(&lp), Err(SolveError::Unbounded));
}

#[test]
fn degenerate_problem_terminates() {
    // Classic degeneracy: multiple constraints intersecting at a vertex.
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, f64::INFINITY, 0.75);
    let y = lp.add_continuous("y", 0.0, f64::INFINITY, -150.0);
    let z = lp.add_continuous("z", 0.0, f64::INFINITY, 0.02);
    let w = lp.add_continuous("w", 0.0, f64::INFINITY, -6.0);
    lp.add_constraint(
        vec![(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)],
        Relation::Le,
        0.0,
    );
    lp.add_constraint(
        vec![(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)],
        Relation::Le,
        0.0,
    );
    lp.add_constraint(vec![(z, 1.0)], Relation::Le, 1.0);
    // Beale's cycling example; must terminate with z = 1/20… objective 0.05.
    let s = solve(&lp).unwrap();
    assert_close(s.objective(), 0.05);
}

#[test]
fn redundant_equalities_are_tolerated() {
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, f64::INFINITY, 1.0);
    let y = lp.add_continuous("y", 0.0, f64::INFINITY, 1.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
    lp.add_constraint(vec![(x, 2.0), (y, 2.0)], Relation::Eq, 8.0); // duplicate
    let s = solve(&lp).unwrap();
    assert_close(s.objective(), 4.0);
}

#[test]
fn negative_rhs_rows_are_normalized() {
    // x - y <= -2 with x,y >= 0 → y >= x + 2.
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, 5.0, 1.0);
    let y = lp.add_continuous("y", 0.0, 6.0, 0.0);
    lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, -2.0);
    let s = solve(&lp).unwrap();
    assert_close(s.value(x), 4.0);
}

#[test]
fn solve_with_bounds_overrides() {
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, 10.0, 1.0);
    let s = solve_with_bounds(&lp, &[(0.0, 3.0)]).unwrap();
    assert_close(s.value(x), 3.0);
    // Empty box → infeasible.
    assert_eq!(
        solve_with_bounds(&lp, &[(4.0, 3.0)]),
        Err(SolveError::Infeasible)
    );
}

#[test]
fn empty_objective_is_fine() {
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, 1.0, 0.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
    let s = solve(&lp).unwrap();
    assert_close(s.objective(), 0.0);
}

#[test]
fn moderately_sized_random_like_problem() {
    // A transport-style LP: 6 supplies, 8 demands.
    let mut lp = LinearProgram::minimize();
    let mut vars = vec![];
    for i in 0..6 {
        for j in 0..8 {
            let cost = ((i * 13 + j * 7) % 11 + 1) as f64;
            vars.push(lp.add_continuous(format!("t{i}_{j}"), 0.0, f64::INFINITY, cost));
        }
    }
    let supply = [20.0, 30.0, 25.0, 15.0, 35.0, 25.0];
    let demand = [18.0, 12.0, 20.0, 25.0, 15.0, 22.0, 20.0, 18.0];
    for (i, &s) in supply.iter().enumerate() {
        let terms: Vec<(VarId, f64)> = (0..8).map(|j| (vars[i * 8 + j], 1.0)).collect();
        lp.add_constraint(terms, Relation::Le, s);
    }
    for (j, &d) in demand.iter().enumerate() {
        let terms: Vec<(VarId, f64)> = (0..6).map(|i| (vars[i * 8 + j], 1.0)).collect();
        lp.add_constraint(terms, Relation::Eq, d);
    }
    let s = solve(&lp).unwrap();
    // Optimum is feasible and at most the cost of any greedy assignment.
    assert!(lp.is_feasible(s.values(), 1e-6));
    assert!(s.objective() > 0.0);
    assert!(s.objective() <= 11.0 * demand.iter().sum::<f64>());
}

#[test]
fn bounded_variables_do_not_create_rows() {
    // Ten boxed variables, one real constraint: the tableau must carry one
    // row, not eleven.
    let mut lp = LinearProgram::maximize();
    let vars: Vec<VarId> = (0..10)
        .map(|i| lp.add_continuous(format!("x{i}"), 0.0, 1.0, (i + 1) as f64))
        .collect();
    let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
    lp.add_constraint(terms, Relation::Le, 4.5);
    let tab = Tab::build(&lp, &lp.all_bounds());
    assert_eq!(tab.m, 1);
    let s = solve(&lp).unwrap();
    // Greedy: the four most valuable fill up, the fifth takes the half.
    assert_close(s.objective(), 10.0 + 9.0 + 8.0 + 7.0 + 0.5 * 6.0);
}

#[test]
fn warm_restart_after_tightening_matches_cold() {
    // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 — the classic B&B parent;
    // tighten x <= 3 and compare against a cold solve of the child.
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, f64::INFINITY, 5.0);
    let y = lp.add_continuous("y", 0.0, f64::INFINITY, 4.0);
    lp.add_constraint(vec![(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
    lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Le, 6.0);

    let mut ws = Workspace::new();
    ws.cold_solve(&lp, &lp.all_bounds()).unwrap();
    let parent = ws.extract(&lp).unwrap();
    assert_close(parent.value(x), 3.0);
    assert_close(parent.value(y), 1.5);

    let child_bounds = vec![(0.0, 3.0), (0.0, f64::INFINITY)];
    assert_eq!(ws.warm_solve(&child_bounds), WarmResult::Solved);
    let warm = ws.extract(&lp).unwrap();
    let cold = solve_with_bounds(&lp, &child_bounds).unwrap();
    assert_close(warm.objective(), cold.objective());

    // And the sibling (x >= 4): warm again from the child's basis.
    let sibling_bounds = vec![(4.0, f64::INFINITY), (0.0, f64::INFINITY)];
    match ws.warm_solve(&sibling_bounds) {
        WarmResult::Solved => {
            let warm = ws.extract(&lp).unwrap();
            let cold = solve_with_bounds(&lp, &sibling_bounds).unwrap();
            assert_close(warm.objective(), cold.objective());
        }
        WarmResult::NeedCold => {} // acceptable fallback
        WarmResult::Infeasible => panic!("sibling is feasible"),
    }
}

#[test]
fn warm_restart_detects_infeasible_child() {
    // x + y <= 2; forcing x >= 3 has no feasible point.
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, 10.0, 1.0);
    let y = lp.add_continuous("y", 0.0, 10.0, 1.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 2.0);
    let mut ws = Workspace::new();
    ws.cold_solve(&lp, &lp.all_bounds()).unwrap();
    assert_eq!(
        ws.warm_solve(&[(3.0, 10.0), (0.0, 10.0)]),
        WarmResult::Infeasible
    );
    // The workspace survives an infeasible probe: the original bounds
    // re-solve warm to the original optimum.
    match ws.warm_solve(&[(0.0, 10.0), (0.0, 10.0)]) {
        WarmResult::Solved => assert_close(ws.extract(&lp).unwrap().objective(), 2.0),
        other => panic!("expected warm solve, got {other:?}"),
    }
}

#[test]
fn warm_restart_chain_stays_exact() {
    // Random-ish MILP-style box walk: repeatedly clamp variables and check
    // the warm answer against a cold solve every step.
    let mut lp = LinearProgram::maximize();
    let mut vars = vec![];
    for i in 0..6 {
        vars.push(lp.add_continuous(format!("x{i}"), 0.0, 4.0, ((i * 7 + 3) % 5 + 1) as f64));
    }
    for r in 0..4 {
        let terms: Vec<(VarId, f64)> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, ((i + r) % 3 + 1) as f64))
            .collect();
        lp.add_constraint(terms, Relation::Le, (8 + 2 * r) as f64);
    }
    let mut ws = Workspace::new();
    ws.cold_solve(&lp, &lp.all_bounds()).unwrap();
    let mut state = 0x9e37u64;
    for _ in 0..40 {
        // xorshift-style deterministic pseudo-random boxes
        let mut bounds = lp.all_bounds();
        for b in bounds.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 4 {
                0 => b.1 = ((state >> 8) % 5) as f64,
                1 => b.0 = ((state >> 16) % 3) as f64,
                _ => {}
            }
            if b.0 > b.1 {
                b.1 = b.0;
            }
        }
        let warm = match ws.warm_solve(&bounds) {
            WarmResult::Solved => ws.extract(&lp).ok(),
            WarmResult::Infeasible => None,
            WarmResult::NeedCold => ws
                .cold_solve(&lp, &bounds)
                .ok()
                .and_then(|()| ws.extract(&lp).ok()),
        };
        let cold = solve_with_bounds(&lp, &bounds).ok();
        match (warm, cold) {
            (Some(w), Some(c)) => assert_close(w.objective(), c.objective()),
            (None, None) => {
                // Both infeasible — rebuild so the next warm start has a basis.
                ws.cold_solve(&lp, &lp.all_bounds()).unwrap();
            }
            (w, c) => panic!("warm/cold disagree on feasibility: {w:?} vs {c:?}"),
        }
    }
}

#[test]
fn counted_solve_reports_the_iterations_of_failed_solves_too() {
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, 10.0, 1.0);
    let y = lp.add_continuous("y", 0.0, 10.0, 1.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 2.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 1.0);

    let (solved, iterations) = solve_with_bounds_counted(&lp, &lp.all_bounds());
    assert_eq!(solved, solve(&lp));
    assert!(iterations >= 1);
    // Phase 1 pivots before it proves y ≥ 1.5 (with x ≥ 1) infeasible.
    let (infeasible, iterations) = solve_with_bounds_counted(&lp, &[(0.0, 10.0), (1.5, 10.0)]);
    assert_eq!(infeasible, Err(SolveError::Infeasible));
    assert!(iterations >= 1);
    // An empty box fails before any pivot.
    let (empty, iterations) = solve_with_bounds_counted(&lp, &[(4.0, 3.0), (0.0, 10.0)]);
    assert_eq!(empty, Err(SolveError::Infeasible));
    assert_eq!(iterations, 0);
}

#[test]
fn extract_reports_a_basic_column_missing_from_the_basis() {
    let mut lp = LinearProgram::maximize();
    let x = lp.add_continuous("x", 0.0, f64::INFINITY, 1.0);
    lp.add_constraint(vec![(x, 2.0)], Relation::Le, 6.0);
    let mut ws = Workspace::new();
    ws.cold_solve(&lp, &lp.all_bounds()).unwrap();
    assert_close(ws.extract(&lp).unwrap().value(x), 3.0);
    // Corrupt the basis: x stays marked basic but no row holds it.
    let tab = ws.tab.as_mut().unwrap();
    assert_eq!(tab.state[x.index()], ColState::Basic);
    tab.basis[0] = tab.n;
    assert!(matches!(ws.extract(&lp), Err(SolveError::Internal(_))));
}
