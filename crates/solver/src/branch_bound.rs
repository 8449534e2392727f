//! Branch & bound over the integer variables of a [`LinearProgram`].
//!
//! Each node's LP relaxation differs from its parent's in a single variable
//! bound, so instead of paying a cold two-phase simplex per node, the search
//! keeps one [`simplex::Workspace`] alive for the whole tree and re-optimizes
//! every node from the most recently solved basis with dual-simplex pivots.
//! The cold solve remains as a fallback when the warm basis cannot be
//! repaired; [`SolveStats`] reports how often each path ran.

use std::time::{Duration, Instant};

use crate::eps;
use crate::eps::INTEGRALITY as INT_TOL;
use crate::problem::{LinearProgram, Sense, Solution, SolveError};
use crate::simplex::{WarmResult, Workspace};

/// Statistics of one MILP solve, for the Fig. 10 overhead study and the
/// controller's per-replan report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored (LP relaxations solved).
    pub nodes: u64,
    /// Nodes pruned by the best-bound test.
    pub pruned: u64,
    /// Simplex iterations (primal + dual pivots and bound flips) across
    /// every relaxation.
    pub simplex_iterations: u64,
    /// Node relaxations re-optimized from the parent basis via the dual
    /// simplex (or a primal cleanup) instead of a cold two-phase solve.
    pub warm_starts: u64,
    /// Node relaxations that paid the cold two-phase solve.
    pub cold_solves: u64,
    /// Simplex iterations of the warm-start hint LP solved before the
    /// search (counted by [`simplex::solve_with_bounds_counted`]). The
    /// caller that solves the hint sets it; `simplex_iterations` counts
    /// the search alone.
    ///
    /// [`simplex::solve_with_bounds_counted`]: crate::simplex::solve_with_bounds_counted
    pub hint_iterations: u64,
    /// Wall-clock time of the whole solve.
    pub wall: Duration,
}

impl SolveStats {
    /// Wall-clock seconds of the whole solve.
    pub fn wall_secs(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Fraction of node relaxations served warm (`0.0` when none ran).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_starts + self.cold_solves;
        if total == 0 {
            0.0
        } else {
            self.warm_starts as f64 / total as f64
        }
    }

    /// Accumulates `other` (used by the allocation layer to merge the
    /// stats of successive shrink-and-retry rounds).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.nodes += other.nodes;
        self.pruned += other.pruned;
        self.simplex_iterations += other.simplex_iterations;
        self.warm_starts += other.warm_starts;
        self.cold_solves += other.cold_solves;
        self.hint_iterations += other.hint_iterations;
        self.wall += other.wall;
    }
}

impl std::ops::AddAssign for SolveStats {
    fn add_assign(&mut self, rhs: SolveStats) {
        self.absorb(&rhs);
    }
}

/// An exact MILP solver: LP relaxations via [`crate::simplex`], depth-first branch
/// & bound with most-fractional branching, best-bound pruning and
/// warm-started node relaxations.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct MilpSolver {
    /// Give up after exploring this many nodes (safety valve; the Proteus
    /// formulations stay far below it).
    pub max_nodes: u64,
    /// Absolute optimality gap: a node whose relaxation bound is within
    /// this of the incumbent is pruned.
    pub gap_tolerance: f64,
    /// Relative optimality gap (fraction of the incumbent objective's
    /// magnitude), combined with the absolute gap via `max`. Standard MIP
    /// practice; `0.0` demands exact optima.
    pub relative_gap: f64,
    /// Re-optimize each node from the previous basis via dual-simplex
    /// pivots. Disable to force a cold solve per node (the property tests
    /// compare both paths; there is no other reason to turn this off).
    pub warm_start: bool,
}

impl Default for MilpSolver {
    fn default() -> Self {
        Self {
            max_nodes: 200_000,
            gap_tolerance: eps::GAP,
            relative_gap: 0.0,
            warm_start: true,
        }
    }
}

impl MilpSolver {
    /// Creates a solver with a custom node budget.
    pub fn with_max_nodes(max_nodes: u64) -> Self {
        Self {
            max_nodes,
            ..Self::default()
        }
    }

    /// Creates a solver that accepts incumbents within `relative_gap` of the
    /// proven bound (e.g. `1e-4` = 0.01 %).
    ///
    /// # Panics
    ///
    /// Panics if `relative_gap` is negative.
    pub fn with_relative_gap(relative_gap: f64) -> Self {
        assert!(relative_gap >= 0.0, "relative gap must be non-negative");
        Self {
            relative_gap,
            ..Self::default()
        }
    }

    fn prune_margin(&self, incumbent: f64) -> f64 {
        self.gap_tolerance.max(self.relative_gap * incumbent.abs())
    }

    /// Solves `lp` to optimality.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Infeasible`] — no integer-feasible point exists;
    /// * [`SolveError::Unbounded`] — the relaxation is unbounded;
    /// * [`SolveError::NodeLimit`] — node budget exhausted with no incumbent
    ///   (if an incumbent exists it is returned instead, making the limit a
    ///   graceful quality degradation rather than a failure).
    pub fn solve(&self, lp: &LinearProgram) -> Result<Solution, SolveError> {
        self.solve_with_stats(lp).map(|(s, _)| s)
    }

    /// Like [`solve`](Self::solve), additionally returning search
    /// statistics.
    ///
    /// # Errors
    ///
    /// See [`solve`](Self::solve).
    pub fn solve_with_stats(
        &self,
        lp: &LinearProgram,
    ) -> Result<(Solution, SolveStats), SolveError> {
        self.solve_with_hint(lp, None)
    }

    /// Like [`solve_with_stats`](Self::solve_with_stats) but seeded with a
    /// candidate solution (e.g. the previous allocation): if the hint is
    /// integer-feasible it becomes the initial incumbent, letting best-bound
    /// pruning start immediately.
    ///
    /// An infeasible hint is silently ignored.
    ///
    /// # Errors
    ///
    /// See [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// Panics if the hint's length differs from the number of variables.
    pub fn solve_with_hint(
        &self,
        lp: &LinearProgram,
        hint: Option<&[f64]>,
    ) -> Result<(Solution, SolveStats), SolveError> {
        let (result, stats) = self.solve_attempt(lp, hint);
        result.map(|s| (s, stats))
    }

    /// Like [`solve_with_hint`](Self::solve_with_hint) but always returns
    /// the search statistics, even when the solve fails — the allocation
    /// layer accumulates the cost of failed shrink rounds too.
    ///
    /// # Panics
    ///
    /// Panics if the hint's length differs from the number of variables.
    pub fn solve_attempt(
        &self,
        lp: &LinearProgram,
        hint: Option<&[f64]>,
    ) -> (Result<Solution, SolveError>, SolveStats) {
        // lint:allow(wall-clock) — stats-only wall timing, reported upward
        // like the system.rs solver-latency probes; the solve itself is
        // deterministic (node budgets, not time budgets, bound the search)
        let start = Instant::now();
        let mut stats = SolveStats::default();
        let result = self.branch_and_bound(lp, hint, &mut stats);
        stats.wall = start.elapsed();
        (result, stats)
    }

    fn branch_and_bound(
        &self,
        lp: &LinearProgram,
        hint: Option<&[f64]>,
        stats: &mut SolveStats,
    ) -> Result<Solution, SolveError> {
        let maximize = lp.sense() == Sense::Maximize;
        let better = |a: f64, b: f64| if maximize { a > b } else { a < b };

        let root_bounds = lp.all_bounds();
        let mut ws = Workspace::new();

        // Fast path: pure LP.
        if lp.num_integers() == 0 {
            stats.nodes = 1;
            stats.cold_solves = 1;
            let result = ws
                .cold_solve(lp, &root_bounds)
                .and_then(|()| ws.extract(lp));
            stats.simplex_iterations = ws.iterations;
            return result;
        }

        let mut incumbent: Option<Solution> = None;
        if let Some(hint) = hint {
            assert_eq!(hint.len(), lp.num_variables(), "hint length mismatch");
            let mut values = hint.to_vec();
            for (i, v) in values.iter_mut().enumerate() {
                if lp.is_integer(crate::VarId(i)) {
                    *v = v.round();
                }
            }
            if lp.is_feasible(&values, eps::SOLUTION) {
                let objective = lp.objective_value(&values);
                incumbent = Some(Solution { values, objective });
            }
        }

        // DFS stack of bound boxes.
        let mut stack: Vec<Vec<(f64, f64)>> = vec![root_bounds];

        // Futility cutoff: if a quarter of the node budget passes without
        // any incumbent — no successful dive, no integer-feasible leaf —
        // the instance is almost always integer-infeasible (the strict
        // demand formulation under over-capacity demand) and the remaining
        // budget would be spent proving it node by node. Bail with
        // `NodeLimit`, which the allocation layer already treats as "stop
        // shrinking, switch to the soft formulation". The floor keeps
        // deliberately tiny budgets (tests, ablations) on the plain limit.
        let futility = (self.max_nodes / 4).max(64);
        let mut hit_limit = false;

        while let Some(bounds) = stack.pop() {
            if stats.nodes >= self.max_nodes || (incumbent.is_none() && stats.nodes >= futility) {
                hit_limit = true;
                break;
            }
            stats.nodes += 1;
            let relax = match self.relax(lp, &bounds, &mut ws, stats) {
                Ok(s) => s,
                Err(SolveError::Infeasible) => continue,
                Err(e) => {
                    stats.simplex_iterations = ws.iterations;
                    return Err(e);
                }
            };

            // Best-bound pruning: the relaxation bounds every integer point
            // in this box.
            if let Some(inc) = &incumbent {
                let margin = self.prune_margin(inc.objective());
                let no_better = if maximize {
                    relax.objective() <= inc.objective() + margin
                } else {
                    relax.objective() >= inc.objective() - margin
                };
                if no_better {
                    stats.pruned += 1;
                    continue;
                }
            }

            // Most-fractional branching variable.
            let frac_var = (0..lp.num_variables())
                .filter(|&i| lp.is_integer(crate::VarId(i)))
                .map(|i| {
                    let v = relax.values()[i];
                    (i, (v - v.round()).abs())
                })
                .filter(|&(_, f)| f > INT_TOL)
                .max_by(|a, b| a.1.total_cmp(&b.1));

            match frac_var {
                None => {
                    // Integer feasible: snap and accept if it improves. The
                    // feasibility re-check guards against round-off drift in
                    // long warm-start chains.
                    let mut values = relax.values().to_vec();
                    for (i, v) in values.iter_mut().enumerate() {
                        if lp.is_integer(crate::VarId(i)) {
                            *v = v.round();
                        }
                    }
                    let objective = lp.objective_value(&values);
                    if lp.is_feasible(&values, eps::SOLUTION)
                        && incumbent
                            .as_ref()
                            .is_none_or(|inc| better(objective, inc.objective()))
                    {
                        incumbent = Some(Solution { values, objective });
                    }
                }
                Some((var, _)) => {
                    let x = relax.values()[var];
                    let floor = x.floor();
                    // Diving heuristic for an early incumbent: fix every
                    // integer variable to a snapped value and re-optimize
                    // the continuous variables. Three snap directions cover
                    // the common coupling shapes: floor keeps packing
                    // constraints (`Σn ≤ c`) satisfied, ceil keeps capacity
                    // couplings (`z ≤ P·n`) satisfied, round splits the
                    // difference.
                    if incumbent.is_none() {
                        #[derive(Clone, Copy)]
                        enum Snap {
                            Floor,
                            Round,
                            Ceil,
                        }
                        for snap in [Snap::Round, Snap::Ceil, Snap::Floor] {
                            if incumbent.is_some() {
                                break;
                            }
                            let mut dive = bounds.clone();
                            for (i, b) in dive.iter_mut().enumerate() {
                                if lp.is_integer(crate::VarId(i)) {
                                    let v = relax.values()[i];
                                    let snapped = match snap {
                                        Snap::Floor => v.floor(),
                                        Snap::Round => v.round(),
                                        Snap::Ceil => v.ceil(),
                                    }
                                    .clamp(b.0, b.1.max(b.0));
                                    *b = (snapped, snapped);
                                }
                            }
                            stats.nodes += 1;
                            if let Ok(sol) = self.relax(lp, &dive, &mut ws, stats) {
                                let mut values = sol.values().to_vec();
                                for (i, v) in values.iter_mut().enumerate() {
                                    if lp.is_integer(crate::VarId(i)) {
                                        *v = v.round();
                                    }
                                }
                                let objective = lp.objective_value(&values);
                                if lp.is_feasible(&values, eps::SOLUTION) {
                                    let improves =
                                        incumbent.as_ref().is_none_or(|inc: &Solution| {
                                            better(objective, inc.objective())
                                        });
                                    if improves {
                                        incumbent = Some(Solution { values, objective });
                                    }
                                }
                            }
                        }
                    }

                    // Branch: explore the "round up" child first for
                    // maximization-style allocation problems (more capacity
                    // first), by pushing it last.
                    let mut down = bounds.clone();
                    down[var].1 = down[var].1.min(floor);
                    let mut up = bounds;
                    up[var].0 = up[var].0.max(floor + 1.0);
                    stack.push(down);
                    stack.push(up);
                }
            }
        }

        stats.simplex_iterations = ws.iterations;
        match incumbent {
            Some(sol) => Ok(sol),
            None if hit_limit => Err(SolveError::NodeLimit),
            None => Err(SolveError::Infeasible),
        }
    }

    /// Solves one node relaxation, warm when possible, recording which path
    /// ran. The workspace always holds a consistent basis afterwards unless
    /// the solve failed hard.
    fn relax(
        &self,
        lp: &LinearProgram,
        bounds: &[(f64, f64)],
        ws: &mut Workspace,
        stats: &mut SolveStats,
    ) -> Result<Solution, SolveError> {
        if self.warm_start {
            match ws.warm_solve(bounds) {
                WarmResult::Solved => {
                    stats.warm_starts += 1;
                    return ws.extract(lp);
                }
                WarmResult::Infeasible => {
                    stats.warm_starts += 1;
                    return Err(SolveError::Infeasible);
                }
                WarmResult::NeedCold => {}
            }
        }
        stats.cold_solves += 1;
        ws.cold_solve(lp, bounds)?;
        ws.extract(lp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearProgram, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn knapsack() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binaries → a + c (17)… check:
        // items (w,v): a(3,10) b(4,13) c(2,7). Best: a+c w=5 v=17 vs b+c w=6 v=20.
        let mut lp = LinearProgram::maximize();
        let a = lp.add_binary("a", 10.0);
        let b = lp.add_binary("b", 13.0);
        let c = lp.add_binary("c", 7.0);
        lp.add_constraint(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Relation::Le, 6.0);
        let s = MilpSolver::default().solve(&lp).unwrap();
        assert_close(s.objective(), 20.0);
        assert_close(s.value(b), 1.0);
        assert_close(s.value(c), 1.0);
        assert_close(s.value(a), 0.0);
    }

    #[test]
    fn integer_rounding_is_not_truncation() {
        // max x + y s.t. 2x + 2y <= 5, integers → 2 (not the LP's 2.5).
        let mut lp = LinearProgram::maximize();
        let x = lp.add_integer("x", 0.0, 10.0, 1.0);
        let y = lp.add_integer("y", 0.0, 10.0, 1.0);
        lp.add_constraint(vec![(x, 2.0), (y, 2.0)], Relation::Le, 5.0);
        let s = MilpSolver::default().solve(&lp).unwrap();
        assert_close(s.objective(), 2.0);
    }

    #[test]
    fn classic_branching_example() {
        // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6, integer
        // LP optimum (3, 1.5) → ILP optimum (4, 0) with z = 20? Check
        // (4,0): 24<=24 ok, 4<=6 ok, z=20. (3,1): 22<=24, 5<=6, z=19.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_integer("x", 0.0, f64::INFINITY, 5.0);
        let y = lp.add_integer("y", 0.0, f64::INFINITY, 4.0);
        lp.add_constraint(vec![(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Le, 6.0);
        let s = MilpSolver::default().solve(&lp).unwrap();
        assert_close(s.objective(), 20.0);
        assert_close(s.value(x), 4.0);
        assert_close(s.value(y), 0.0);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 3x + 2y, x integer, y continuous; x + y <= 4.5, x <= 2.7.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_integer("x", 0.0, 10.0, 3.0);
        let y = lp.add_continuous("y", 0.0, 10.0, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.5);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.7);
        let s = MilpSolver::default().solve(&lp).unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 2.5);
        assert_close(s.objective(), 11.0);
    }

    #[test]
    fn infeasible_integer_problem() {
        // 0.4 <= x <= 0.6 has no integer point.
        let mut lp = LinearProgram::maximize();
        let _x = lp.add_integer("x", 0.0, 1.0, 1.0);
        lp.add_constraint(vec![(crate::VarId(0), 1.0)], Relation::Ge, 0.4);
        lp.add_constraint(vec![(crate::VarId(0), 1.0)], Relation::Le, 0.6);
        assert_eq!(
            MilpSolver::default().solve(&lp),
            Err(SolveError::Infeasible)
        );
    }

    #[test]
    fn minimization_milp() {
        // min 3x + 4y s.t. x + y >= 3.5, integers → cost 11 at (3,1)?
        // Candidates: (4,0)=12, (3,1)=13, (0,4)=16, (2,2)=14 … actually
        // 3x+4y with x+y>=4 (integer ⇒ sum >= 4): best is x=4,y=0 → 12.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_integer("x", 0.0, 10.0, 3.0);
        let y = lp.add_integer("y", 0.0, 10.0, 4.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 3.5);
        let s = MilpSolver::default().solve(&lp).unwrap();
        assert_close(s.objective(), 12.0);
    }

    #[test]
    fn pure_lp_fast_path() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_continuous("x", 0.0, 7.0, 1.0);
        let (s, stats) = MilpSolver::default().solve_with_stats(&lp).unwrap();
        assert_close(s.value(x), 7.0);
        assert_eq!(stats.nodes, 1);
        assert_eq!(stats.cold_solves, 1);
    }

    #[test]
    fn node_limit_returns_incumbent_when_available() {
        // A problem where the heuristic finds an incumbent in the root node.
        let mut lp = LinearProgram::maximize();
        let mut vars = vec![];
        for i in 0..12 {
            vars.push(lp.add_binary(format!("b{i}"), (i % 5 + 1) as f64));
        }
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(terms, Relation::Le, 6.0);
        let solver = MilpSolver::with_max_nodes(3);
        let s = solver.solve(&lp).unwrap();
        assert!(lp.is_feasible(s.values(), 1e-6));
    }

    #[test]
    fn larger_assignment_problem_is_exact() {
        // Assign 6 jobs to 6 machines, each machine at most one job,
        // each job exactly once, maximize total profit. The LP relaxation of
        // an assignment problem is integral, but B&B must still verify it.
        let profit = |i: usize, j: usize| ((i * 7 + j * 11) % 13 + 1) as f64;
        let mut lp = LinearProgram::maximize();
        let mut x = vec![];
        for i in 0..6 {
            for j in 0..6 {
                x.push(lp.add_binary(format!("x{i}{j}"), profit(i, j)));
            }
        }
        for i in 0..6 {
            let row: Vec<_> = (0..6).map(|j| (x[i * 6 + j], 1.0)).collect();
            lp.add_constraint(row, Relation::Eq, 1.0);
            let col: Vec<_> = (0..6).map(|j| (x[j * 6 + i], 1.0)).collect();
            lp.add_constraint(col, Relation::Le, 1.0);
        }
        let s = MilpSolver::default().solve(&lp).unwrap();
        assert!(lp.is_feasible(s.values(), 1e-6));
        // Brute-force the true optimum over all 720 permutations.
        let mut best = 0.0f64;
        let mut perm = [0, 1, 2, 3, 4, 5];
        permute(&mut perm, 0, &mut |p| {
            let total: f64 = p.iter().enumerate().map(|(i, &j)| profit(i, j)).sum();
            if total > best {
                best = total;
            }
        });
        assert_close(s.objective(), best);
    }

    fn permute(arr: &mut [usize; 6], k: usize, f: &mut impl FnMut(&[usize; 6])) {
        if k == arr.len() {
            f(arr);
            return;
        }
        for i in k..arr.len() {
            arr.swap(k, i);
            permute(arr, k + 1, f);
            arr.swap(k, i);
        }
    }

    #[test]
    fn stats_count_pruning() {
        let mut lp = LinearProgram::maximize();
        let mut vars = vec![];
        for i in 0..8 {
            vars.push(lp.add_binary(format!("b{i}"), (i + 1) as f64));
        }
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 2) as f64))
            .collect();
        lp.add_constraint(terms, Relation::Le, 17.0);
        let (_, stats) = MilpSolver::default().solve_with_stats(&lp).unwrap();
        assert!(stats.nodes >= 1);
        assert!(stats.simplex_iterations >= 1);
        assert_eq!(stats.nodes, stats.warm_starts + stats.cold_solves);
    }

    #[test]
    fn warm_starts_dominate_on_branchy_problems() {
        // Two coupled packing rows force real branching; after the root's
        // cold solve, most nodes should re-optimize warm.
        let mut lp = LinearProgram::maximize();
        let mut vars = vec![];
        for i in 0..10 {
            vars.push(lp.add_integer(format!("n{i}"), 0.0, 4.0, ((i * 7) % 5 + 1) as f64));
        }
        let t1: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, ((i * 11) % 4 + 1) as f64))
            .collect();
        let t2: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, ((i * 5 + 1) % 3 + 1) as f64))
            .collect();
        lp.add_constraint(t1, Relation::Le, 19.0);
        lp.add_constraint(t2, Relation::Le, 11.0);
        let (_, stats) = MilpSolver::default().solve_with_stats(&lp).unwrap();
        assert!(stats.nodes > 4, "expected real branching, got {stats:?}");
        assert!(
            stats.warm_starts > stats.cold_solves,
            "warm starts should dominate: {stats:?}"
        );
    }

    #[test]
    fn warm_and_cold_agree() {
        let mut lp = LinearProgram::maximize();
        let mut vars = vec![];
        for i in 0..10 {
            vars.push(lp.add_integer(format!("n{i}"), 0.0, 4.0, ((i * 7) % 5 + 1) as f64));
        }
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, ((i * 11) % 4 + 1) as f64))
            .collect();
        lp.add_constraint(terms, Relation::Le, 19.0);
        let warm = MilpSolver::default().solve(&lp).unwrap();
        let cold_solver = MilpSolver {
            warm_start: false,
            ..MilpSolver::default()
        };
        let cold = cold_solver.solve(&lp).unwrap();
        assert_close(warm.objective(), cold.objective());
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = SolveStats {
            nodes: 3,
            pruned: 1,
            simplex_iterations: 40,
            warm_starts: 2,
            cold_solves: 1,
            hint_iterations: 7,
            wall: Duration::from_millis(5),
        };
        let b = SolveStats {
            nodes: 2,
            pruned: 0,
            simplex_iterations: 10,
            warm_starts: 1,
            cold_solves: 1,
            hint_iterations: 4,
            wall: Duration::from_millis(3),
        };
        a += b;
        assert_eq!(a.nodes, 5);
        assert_eq!(a.simplex_iterations, 50);
        assert_eq!(a.warm_starts, 3);
        assert_eq!(a.cold_solves, 2);
        assert_eq!(a.hint_iterations, 11);
        assert_eq!(a.wall, Duration::from_millis(8));
        assert!((a.warm_hit_rate() - 0.6).abs() < 1e-12);
        assert!(a.wall_secs() > 0.0);
    }
}
