//! Bounded-variable primal/dual simplex on a flat dense tableau.
//!
//! Solves the continuous relaxation of a [`LinearProgram`] exactly (up to
//! floating-point tolerance). Integrality markers are ignored here; the
//! branch-and-bound layer enforces them.
//!
//! Unlike the textbook standard-form reduction, finite variable bounds are
//! handled *implicitly*: a nonbasic variable rests at its lower or its upper
//! bound (`AtLower` / `AtUpper`) and no constraint row is materialized per
//! bound. For the Proteus per-device formulation — hundreds of `[0, 1]`
//! placement binaries — this roughly halves the row count compared to the
//! previous implementation, and the tableau is a single row-major `Vec<f64>`
//! so every pivot is one contiguous sweep.
//!
//! Every constraint row is converted to an equality with a bounded slack
//! (`≤` → slack in `[0, ∞)` with coefficient `+1`, `≥` → slack in `[0, ∞)`
//! with coefficient `−1`, `=` → slack fixed at `[0, 0]`). A crash basis makes
//! each slack basic where its implied value fits its bounds and adds an
//! artificial column otherwise; phase 1 drives the artificials to zero,
//! phase 2 optimizes the real objective. Pivoting uses Dantzig's rule with
//! an automatic switch to Bland's rule after an iteration threshold to
//! guarantee termination on degenerate problems.
//!
//! The crate-internal `Workspace` additionally supports *warm restarts*:
//! after an optimal solve, the caller may change variable bounds and
//! re-optimize with dual-simplex pivots from the previous basis instead of
//! paying a cold two-phase solve. Branch & bound uses this to re-solve each
//! node from its parent's basis in a handful of pivots.

use crate::eps;
use crate::eps::{DUAL as DUAL_TOL, FEASIBILITY as FEAS_TOL, PIVOT as EPS};
use crate::problem::{LinearProgram, Sense, Solution, SolveError};
/// Warm solves between forced cold refreshes (bounds incremental updates
/// accumulate round-off; a periodic rebuild keeps the tableau honest).
const REFRESH_EVERY: u32 = 64;

/// Where a column currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColState {
    /// In the basis; its value lives in `xb`.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
}

/// Outcome of one primal-simplex phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrimalOutcome {
    Optimal,
    Unbounded,
    /// Iteration cap hit — numerical trouble, caller falls back.
    Stalled,
}

/// Outcome of a dual-simplex repair run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DualOutcome {
    Optimal,
    /// Dual unbounded ⇒ primal infeasible under the current bounds.
    Infeasible,
    Stalled,
}

/// Outcome of a warm restart attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarmResult {
    /// Re-optimized from the previous basis; solution ready to extract.
    Solved,
    /// The new bounds admit no feasible point.
    Infeasible,
    /// The warm basis could not be repaired — caller must cold-solve.
    NeedCold,
}

/// Solves the LP relaxation of `lp`.
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] or [`SolveError::Unbounded`].
///
/// # Examples
///
/// ```
/// use proteus_solver::{simplex, LinearProgram, Relation};
///
/// let mut lp = LinearProgram::maximize();
/// let x = lp.add_continuous("x", 0.0, 4.0, 1.0);
/// lp.add_constraint(vec![(x, 2.0)], Relation::Le, 6.0);
/// let sol = simplex::solve(&lp).unwrap();
/// assert!((sol.value(x) - 3.0).abs() < 1e-9);
/// ```
pub fn solve(lp: &LinearProgram) -> Result<Solution, SolveError> {
    solve_with_bounds(lp, &lp.all_bounds())
}

/// Solves the LP relaxation with per-variable bound overrides (used by
/// branch & bound to explore subproblems without rebuilding the program).
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] or [`SolveError::Unbounded`].
///
/// # Panics
///
/// Panics if `bounds.len() != lp.num_variables()` or any lower bound is
/// non-finite.
pub fn solve_with_bounds(
    lp: &LinearProgram,
    bounds: &[(f64, f64)],
) -> Result<Solution, SolveError> {
    solve_with_bounds_counted(lp, bounds).0
}

/// Like [`solve_with_bounds`], but also returns the simplex iterations the
/// cold two-phase solve took (primal pivots and bound flips of both
/// phases), whether or not it succeeded: a solve that proves the program
/// infeasible costs iterations too.
///
/// # Errors
///
/// The result is [`SolveError::Infeasible`] or [`SolveError::Unbounded`].
///
/// # Panics
///
/// Panics if `bounds.len() != lp.num_variables()` or any lower bound is
/// non-finite.
///
/// # Examples
///
/// ```
/// use proteus_solver::{simplex, LinearProgram, Relation};
///
/// let mut lp = LinearProgram::maximize();
/// let x = lp.add_continuous("x", 0.0, f64::INFINITY, 1.0);
/// lp.add_constraint(vec![(x, 2.0)], Relation::Le, 6.0);
/// let (sol, iterations) = simplex::solve_with_bounds_counted(&lp, &lp.all_bounds());
/// assert!((sol.unwrap().value(x) - 3.0).abs() < 1e-9);
/// assert!(iterations >= 1);
/// ```
pub fn solve_with_bounds_counted(
    lp: &LinearProgram,
    bounds: &[(f64, f64)],
) -> (Result<Solution, SolveError>, u64) {
    let mut ws = Workspace::new();
    let result = ws.cold_solve(lp, bounds).and_then(|()| ws.extract(lp));
    (result, ws.iterations)
}

/// A reusable simplex state: tableau, basis and reduced costs survive
/// between solves so that a bound change can be re-optimized warm.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace {
    tab: Option<Tab>,
    /// Simplex iterations across all solves (primal + dual, all phases).
    pub iterations: u64,
    /// Warm solves since the last cold rebuild.
    since_cold: u32,
}

impl Workspace {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Cold two-phase solve from scratch; on success the workspace holds an
    /// optimal basis for `bounds` and is ready for [`warm_solve`].
    ///
    /// [`warm_solve`]: Self::warm_solve
    pub(crate) fn cold_solve(
        &mut self,
        lp: &LinearProgram,
        bounds: &[(f64, f64)],
    ) -> Result<(), SolveError> {
        assert_eq!(bounds.len(), lp.num_variables(), "bounds length mismatch");
        for &(l, u) in bounds {
            assert!(l.is_finite(), "lower bounds must be finite");
            if l > u {
                // An empty box is trivially infeasible; branch & bound
                // produces these when it fixes a variable beyond its range.
                self.tab = None;
                return Err(SolveError::Infeasible);
            }
        }
        self.since_cold = 0;
        let mut tab = Tab::build(lp, bounds);

        // Phase 1: maximize -(sum of artificials) until they reach zero.
        if tab.ncols > tab.art_start {
            let mut phase1 = vec![0.0; tab.ncols];
            for c in phase1.iter_mut().skip(tab.art_start) {
                *c = -1.0;
            }
            match tab.primal(&phase1, &mut self.iterations) {
                PrimalOutcome::Optimal => {}
                // The phase-1 objective is bounded above by zero; both other
                // outcomes signal numerical trouble. Treat as infeasible
                // rather than hanging, matching the previous implementation.
                PrimalOutcome::Unbounded | PrimalOutcome::Stalled => {
                    self.tab = None;
                    return Err(SolveError::Infeasible);
                }
            }
            let infeasibility: f64 = (0..tab.m)
                .filter(|&r| tab.basis[r] >= tab.art_start)
                .map(|r| tab.xb[r].max(0.0))
                .sum();
            if infeasibility > FEAS_TOL {
                self.tab = None;
                return Err(SolveError::Infeasible);
            }
            tab.retire_artificials();
        }

        // Phase 2: the real objective.
        let cost = tab.cost.clone();
        match tab.primal(&cost, &mut self.iterations) {
            PrimalOutcome::Optimal => {}
            PrimalOutcome::Unbounded => {
                self.tab = None;
                return Err(SolveError::Unbounded);
            }
            PrimalOutcome::Stalled => {
                self.tab = None;
                return Err(SolveError::Infeasible);
            }
        }
        self.tab = Some(tab);
        Ok(())
    }

    /// Re-optimizes after a bound change, starting from the previous optimal
    /// basis. Repair order: dual simplex when the basis is still dual
    /// feasible, primal phase 2 when it is still primal feasible, otherwise
    /// [`WarmResult::NeedCold`].
    pub(crate) fn warm_solve(&mut self, bounds: &[(f64, f64)]) -> WarmResult {
        for &(l, u) in bounds {
            if l > u {
                return WarmResult::Infeasible;
            }
        }
        if self.since_cold >= REFRESH_EVERY {
            return WarmResult::NeedCold;
        }
        let Some(tab) = self.tab.as_mut() else {
            return WarmResult::NeedCold;
        };
        if tab.n != bounds.len() {
            return WarmResult::NeedCold;
        }
        tab.apply_bounds(bounds);

        if tab.dual_feasible() {
            match tab.dual(&mut self.iterations) {
                DualOutcome::Optimal => {
                    self.since_cold += 1;
                    WarmResult::Solved
                }
                // The tableau still holds a consistent basis; the next node
                // may warm-start from it.
                DualOutcome::Infeasible => {
                    self.since_cold += 1;
                    WarmResult::Infeasible
                }
                DualOutcome::Stalled => {
                    self.tab = None;
                    WarmResult::NeedCold
                }
            }
        } else if tab.primal_feasible() {
            let cost = tab.cost.clone();
            match tab.primal(&cost, &mut self.iterations) {
                PrimalOutcome::Optimal => {
                    self.since_cold += 1;
                    WarmResult::Solved
                }
                PrimalOutcome::Unbounded | PrimalOutcome::Stalled => {
                    self.tab = None;
                    WarmResult::NeedCold
                }
            }
        } else {
            WarmResult::NeedCold
        }
    }

    /// Reads the optimal solution out of the workspace.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Internal`] if no solve has succeeded (the
    /// tableau is missing) or the basis is inconsistent. Both indicate a
    /// solver bug, not a property of the input program.
    pub(crate) fn extract(&self, lp: &LinearProgram) -> Result<Solution, SolveError> {
        let Some(tab) = self.tab.as_ref() else {
            return Err(SolveError::Internal("extract() before a solve"));
        };
        // One pass over the basis: the value of each basic structural
        // column, from the first row that holds it.
        let mut basic: Vec<Option<f64>> = vec![None; tab.n];
        for (&b, &x) in tab.basis.iter().zip(&tab.xb) {
            if let Some(slot) = basic.get_mut(b) {
                slot.get_or_insert(x);
            }
        }
        let mut values = vec![0.0f64; tab.n];
        for (j, value) in values.iter_mut().enumerate() {
            *value = match tab.state[j] {
                ColState::AtLower => tab.lower[j],
                ColState::AtUpper => tab.upper[j],
                ColState::Basic => {
                    basic[j].ok_or(SolveError::Internal("basic column missing from basis"))?
                }
            };
            // Snap float dust onto the box.
            if (*value - tab.lower[j]).abs() < EPS {
                *value = tab.lower[j];
            }
            if tab.upper[j].is_finite() && (*value - tab.upper[j]).abs() < EPS {
                *value = tab.upper[j];
            }
        }
        let objective = lp.objective_value(&values);
        Ok(Solution { values, objective })
    }
}

/// The flat dense tableau: `a` stores `B⁻¹A` row-major with stride `ncols`,
/// basic values live separately in `xb`, and nonbasic columns rest at a
/// bound recorded in `state`.
#[derive(Debug, Clone)]
struct Tab {
    /// Constraint rows.
    m: usize,
    /// Structural (problem) columns; slacks follow at `n..n+m`, artificials
    /// at `art_start..ncols`.
    n: usize,
    ncols: usize,
    /// `m × ncols`, row-major.
    a: Vec<f64>,
    /// Value of the basic variable of each row.
    xb: Vec<f64>,
    /// Column index of the basic variable of each row.
    basis: Vec<usize>,
    state: Vec<ColState>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Real objective (internally always maximization).
    cost: Vec<f64>,
    /// Reduced costs for the most recent phase's cost vector; maintained
    /// incrementally across pivots.
    d: Vec<f64>,
    art_start: usize,
}

impl Tab {
    /// Builds the equality-form tableau with a slack-first crash basis.
    fn build(lp: &LinearProgram, bounds: &[(f64, f64)]) -> Tab {
        let n = lp.num_variables();
        let m = lp.num_constraints();
        let maximize = lp.sense() == Sense::Maximize;

        // Residual of each row with every structural variable resting at its
        // lower bound (all lower bounds are finite by construction).
        let mut residual: Vec<f64> = lp
            .constraints
            .iter()
            .map(|c| {
                let at_lower: f64 = c.terms.iter().map(|&(v, coef)| coef * bounds[v.0].0).sum();
                c.rhs - at_lower
            })
            .collect();

        // Decide per row whether its slack can be basic; count artificials.
        // `slack_coef[r]` is the slack's column coefficient, `basic_val[r]`
        // the crash value of whichever column ends up basic.
        let mut slack_coef = vec![1.0f64; m];
        let mut slack_basic = vec![false; m];
        let mut art_coef: Vec<f64> = Vec::new();
        let mut art_row: Vec<usize> = Vec::new();
        let mut basic_val = vec![0.0f64; m];
        for (r, c) in lp.constraints.iter().enumerate() {
            use crate::problem::Relation::*;
            let (coef, fits) = match c.relation {
                Le => (1.0, residual[r] >= 0.0),
                Ge => (-1.0, residual[r] <= 0.0),
                Eq => (1.0, residual[r].abs() <= EPS),
            };
            slack_coef[r] = coef;
            if fits {
                slack_basic[r] = true;
                basic_val[r] = residual[r] / coef;
            } else {
                // Slack rests at zero (its bound nearest the residual);
                // an artificial with coefficient ±1 absorbs the rest.
                let sign = if residual[r] >= 0.0 { 1.0 } else { -1.0 };
                art_coef.push(sign);
                art_row.push(r);
                basic_val[r] = residual[r] / sign;
                residual[r] = 0.0;
            }
        }
        let n_art = art_coef.len();
        let art_start = n + m;
        let ncols = art_start + n_art;

        let mut tab = Tab {
            m,
            n,
            ncols,
            a: vec![0.0; m * ncols],
            xb: basic_val,
            basis: vec![0; m],
            state: vec![ColState::AtLower; ncols],
            lower: vec![0.0; ncols],
            upper: vec![f64::INFINITY; ncols],
            cost: vec![0.0; ncols],
            d: vec![0.0; ncols],
            art_start,
        };
        for (j, &(lo, hi)) in bounds.iter().enumerate().take(n) {
            tab.lower[j] = lo;
            tab.upper[j] = hi;
            let c = lp.variables[j].objective;
            tab.cost[j] = if maximize { c } else { -c };
        }
        for (r, c) in lp.constraints.iter().enumerate() {
            if c.relation == crate::problem::Relation::Eq {
                tab.upper[n + r] = 0.0; // slack fixed at zero
            }
            let row = &mut tab.a[r * ncols..(r + 1) * ncols];
            for &(v, coef) in &c.terms {
                row[v.0] += coef;
            }
            row[n + r] = slack_coef[r];
        }
        for (k, (&coef, &r)) in art_coef.iter().zip(&art_row).enumerate() {
            tab.a[r * ncols + art_start + k] = coef;
        }

        // Install the crash basis. Its matrix is diagonal (each basic column
        // has one nonzero, in its own row), so B⁻¹A is a row-wise division.
        let mut art_k = 0;
        for (r, &slack) in slack_basic.iter().enumerate().take(m) {
            let b = if slack {
                n + r
            } else {
                let b = art_start + art_k;
                art_k += 1;
                b
            };
            tab.basis[r] = b;
            tab.state[b] = ColState::Basic;
            let beta = tab.a[r * ncols + b];
            if (beta - 1.0).abs() > EPS {
                let inv = 1.0 / beta;
                for x in &mut tab.a[r * ncols..(r + 1) * ncols] {
                    *x *= inv;
                }
            }
        }
        tab
    }

    /// One pivot: column `pcol` enters the basis in row `prow`. Normalizes
    /// the pivot row and eliminates `pcol` from every other row — each row
    /// update is a single contiguous sweep over the flat storage.
    fn pivot(&mut self, prow: usize, pcol: usize) {
        let ncols = self.ncols;
        let start = prow * ncols;
        let piv = self.a[start + pcol];
        debug_assert!(piv.abs() > EPS, "pivot on (near-)zero element");
        let inv = 1.0 / piv;
        let (head, rest) = self.a.split_at_mut(start);
        let (prow_slice, tail) = rest.split_at_mut(ncols);
        for x in prow_slice.iter_mut() {
            *x *= inv;
        }
        prow_slice[pcol] = 1.0;
        for chunk in head
            .chunks_exact_mut(ncols)
            .chain(tail.chunks_exact_mut(ncols))
        {
            let f = chunk[pcol];
            if eps::nonzero(f) {
                for (x, p) in chunk.iter_mut().zip(prow_slice.iter()) {
                    *x -= f * *p;
                }
                chunk[pcol] = 0.0;
            }
        }
        self.basis[prow] = pcol;
    }

    /// Recomputes reduced costs `d_j = c_j − c_B·B⁻¹A_j` for `cost`.
    fn reset_reduced(&mut self, cost: &[f64]) {
        self.d.copy_from_slice(cost);
        for r in 0..self.m {
            let cb = cost[self.basis[r]];
            if eps::nonzero(cb) {
                let row = r * self.ncols;
                for j in 0..self.ncols {
                    self.d[j] -= cb * self.a[row + j];
                }
            }
        }
    }

    /// Whether column `j` may enter the basis (it must be able to move).
    #[inline]
    fn movable(&self, j: usize) -> bool {
        self.upper[j] - self.lower[j] > EPS
    }

    /// Bounded-variable primal simplex for `cost` (maximization). Dantzig's
    /// rule with a Bland's-rule switch for anti-cycling.
    fn primal(&mut self, cost: &[f64], iterations: &mut u64) -> PrimalOutcome {
        self.reset_reduced(cost);
        let scale = self.m + self.ncols;
        let bland_after = 20 * scale + 200;
        let hard_limit = 400 * scale + 20_000;
        let mut iters = 0usize;
        loop {
            iters += 1;
            *iterations += 1;
            if iters > hard_limit {
                // With Bland's rule cycling is impossible; hitting this means
                // numerical trouble. Let the caller fall back.
                return PrimalOutcome::Stalled;
            }
            let bland = iters > bland_after;

            // Entering column: a nonbasic whose reduced cost improves the
            // objective when it moves off its resting bound.
            let mut entering: Option<(usize, f64)> = None;
            let mut best = EPS;
            for j in 0..self.ncols {
                let score = match self.state[j] {
                    ColState::Basic => continue,
                    ColState::AtLower => self.d[j],
                    ColState::AtUpper => -self.d[j],
                };
                if score > EPS && self.movable(j) {
                    if bland {
                        entering = Some((j, score));
                        break;
                    }
                    if score > best {
                        best = score;
                        entering = Some((j, score));
                    }
                }
            }
            let Some((e, _)) = entering else {
                return PrimalOutcome::Optimal;
            };
            let sigma = if self.state[e] == ColState::AtLower {
                1.0
            } else {
                -1.0
            };

            // Ratio test: the entering variable moves by `t·σ`; each basic
            // variable moves by `−t·σ·α_r` and must stay inside its box, and
            // the entering variable may not pass its own opposite bound.
            let t_own = self.upper[e] - self.lower[e]; // may be ∞
            let mut t_rows = f64::INFINITY;
            let mut leave: Option<(usize, bool)> = None; // (row, leaves at upper?)
            for r in 0..self.m {
                let alpha = self.a[r * self.ncols + e];
                let delta = sigma * alpha;
                let b = self.basis[r];
                let (lim, to_upper) = if delta > EPS {
                    ((self.xb[r] - self.lower[b]) / delta, false)
                } else if delta < -EPS && self.upper[b].is_finite() {
                    ((self.upper[b] - self.xb[r]) / -delta, true)
                } else {
                    continue;
                };
                let tie = eps::within_scaled(lim, t_rows, EPS);
                let replace = match leave {
                    None => true,
                    // Ties: Bland's rule picks the smallest basic index for
                    // termination; otherwise prefer the larger pivot element
                    // for numerical stability.
                    Some((l, _)) if tie => {
                        if bland {
                            b < self.basis[l]
                        } else {
                            alpha.abs() > self.a[l * self.ncols + e].abs()
                        }
                    }
                    Some(_) => lim < t_rows,
                };
                if replace {
                    t_rows = lim.max(0.0);
                    leave = Some((r, to_upper));
                }
            }

            if t_own <= t_rows {
                if t_own.is_infinite() {
                    return PrimalOutcome::Unbounded;
                }
                // Bound flip: the entering variable crosses its whole range
                // and re-rests at the opposite bound. No basis change.
                for r in 0..self.m {
                    self.xb[r] -= sigma * t_own * self.a[r * self.ncols + e];
                }
                self.state[e] = match self.state[e] {
                    ColState::AtLower => ColState::AtUpper,
                    _ => ColState::AtLower,
                };
                continue;
            }
            // A finite `t_rows` is only ever set together with `leave`; if
            // neither ratio was finite the unbounded branch above returned.
            let Some((lr, to_upper)) = leave else {
                return PrimalOutcome::Unbounded;
            };
            let t = t_rows;
            let enter_rest = if sigma > 0.0 {
                self.lower[e]
            } else {
                self.upper[e]
            };
            for r in 0..self.m {
                if r != lr {
                    self.xb[r] -= sigma * t * self.a[r * self.ncols + e];
                }
            }
            let leaving = self.basis[lr];
            self.pivot(lr, e);
            self.xb[lr] = enter_rest + sigma * t;
            self.state[e] = ColState::Basic;
            self.state[leaving] = if to_upper {
                ColState::AtUpper
            } else {
                ColState::AtLower
            };
            // Incremental reduced-cost update from the normalized pivot row.
            let de = self.d[e];
            if eps::nonzero(de) {
                let row = lr * self.ncols;
                for j in 0..self.ncols {
                    self.d[j] -= de * self.a[row + j];
                }
            }
            self.d[e] = 0.0;
        }
    }

    /// Whether the current basis satisfies every basic variable's bounds.
    fn primal_feasible(&self) -> bool {
        (0..self.m).all(|r| {
            let b = self.basis[r];
            self.xb[r] >= self.lower[b] - FEAS_TOL && self.xb[r] <= self.upper[b] + FEAS_TOL
        })
    }

    /// Whether the maintained reduced costs are dual feasible: at-lower
    /// columns must not want to increase, at-upper columns must not want to
    /// decrease.
    fn dual_feasible(&self) -> bool {
        (0..self.ncols).all(|j| {
            if !self.movable(j) {
                return true;
            }
            match self.state[j] {
                ColState::Basic => true,
                ColState::AtLower => self.d[j] <= DUAL_TOL,
                ColState::AtUpper => self.d[j] >= -DUAL_TOL,
            }
        })
    }

    /// Bounded-variable dual simplex: restores primal feasibility after a
    /// bound change while keeping the basis dual feasible. The entering
    /// variable may overshoot its opposite bound; the resulting violation is
    /// repaired by a later iteration.
    fn dual(&mut self, iterations: &mut u64) -> DualOutcome {
        let cap = 40 * (self.m + self.ncols) + 400;
        let mut iters = 0usize;
        loop {
            iters += 1;
            *iterations += 1;
            if iters > cap {
                return DualOutcome::Stalled;
            }

            // Leaving row: the basic variable with the largest bound
            // violation. `below == true` means it fell under its lower bound
            // and will leave the basis resting there.
            let mut lr: Option<(usize, bool)> = None;
            let mut worst = FEAS_TOL;
            for r in 0..self.m {
                let b = self.basis[r];
                let under = self.lower[b] - self.xb[r];
                let over = self.xb[r] - self.upper[b]; // −∞ when upper is ∞
                if under > worst {
                    worst = under;
                    lr = Some((r, true));
                }
                if over > worst {
                    worst = over;
                    lr = Some((r, false));
                }
            }
            let Some((lr, below)) = lr else {
                return DualOutcome::Optimal;
            };

            // Entering column: must move the leaving variable toward its
            // violated bound while keeping every reduced cost's sign. With
            // `s` orienting the row so the violation looks "below lower",
            // candidates are at-lower columns with negative row entry and
            // at-upper columns with positive row entry; the dual ratio
            // |d_j|/|α_j| picks the one whose reduced cost flips first.
            let s = if below { 1.0 } else { -1.0 };
            let row = lr * self.ncols;
            let mut entering: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for j in 0..self.ncols {
                if !self.movable(j) {
                    continue;
                }
                let alpha = self.a[row + j];
                let ar = s * alpha;
                let ok = match self.state[j] {
                    ColState::Basic => false,
                    ColState::AtLower => ar < -EPS,
                    ColState::AtUpper => ar > EPS,
                };
                if !ok {
                    continue;
                }
                let ratio = self.d[j].abs() / ar.abs();
                let tie = eps::within_scaled(ratio, best_ratio, EPS);
                if entering.is_none()
                    || (tie && alpha.abs() > best_alpha.abs())
                    || (!tie && ratio < best_ratio)
                {
                    best_ratio = ratio;
                    best_alpha = alpha;
                    entering = Some(j);
                }
            }
            let Some(e) = entering else {
                // No column can absorb the violation: the bounds admit no
                // feasible point (dual unbounded ⇒ primal infeasible).
                return DualOutcome::Infeasible;
            };

            // Step length: land the leaving variable exactly on its bound.
            let b = self.basis[lr];
            let target = if below { self.lower[b] } else { self.upper[b] };
            let alpha_e = self.a[row + e];
            let dx = (self.xb[lr] - target) / alpha_e;
            let enter_rest = match self.state[e] {
                ColState::AtLower => self.lower[e],
                _ => self.upper[e],
            };
            for r in 0..self.m {
                if r != lr {
                    self.xb[r] -= self.a[r * self.ncols + e] * dx;
                }
            }
            self.pivot(lr, e);
            self.xb[lr] = enter_rest + dx;
            self.state[e] = ColState::Basic;
            self.state[b] = if below {
                ColState::AtLower
            } else {
                ColState::AtUpper
            };
            let de = self.d[e];
            if eps::nonzero(de) {
                let prow = lr * self.ncols;
                for j in 0..self.ncols {
                    self.d[j] -= de * self.a[prow + j];
                }
            }
            self.d[e] = 0.0;
        }
    }

    /// Installs new structural bounds, re-resting nonbasic columns and
    /// propagating each resting-value change through the basic values.
    fn apply_bounds(&mut self, bounds: &[(f64, f64)]) {
        for (j, &(nl, nu)) in bounds.iter().enumerate().take(self.n) {
            let (ol, ou) = (self.lower[j], self.upper[j]);
            self.lower[j] = nl;
            self.upper[j] = nu;
            let shift = match self.state[j] {
                ColState::Basic => continue,
                ColState::AtLower => nl - ol,
                ColState::AtUpper => {
                    if nu.is_finite() {
                        nu - ou
                    } else {
                        // The upper bound vanished; re-rest at the lower
                        // bound. This may break dual feasibility — the
                        // caller's feasibility probe decides the repair path.
                        self.state[j] = ColState::AtLower;
                        nl - ou
                    }
                }
            };
            if eps::nonzero(shift) {
                for r in 0..self.m {
                    let alpha = self.a[r * self.ncols + j];
                    if eps::nonzero(alpha) {
                        self.xb[r] -= alpha * shift;
                    }
                }
            }
        }
    }

    /// After phase 1: fixes every artificial to `[0, 0]` (they can never
    /// re-enter) and pivots basic artificials out where a usable pivot
    /// element exists. Rows without one are redundant; their artificial
    /// stays basic at zero and never blocks a ratio test because every
    /// non-artificial entry in the row is (numerically) zero.
    fn retire_artificials(&mut self) {
        for j in self.art_start..self.ncols {
            self.lower[j] = 0.0;
            self.upper[j] = 0.0;
        }
        for r in 0..self.m {
            if self.basis[r] < self.art_start {
                continue;
            }
            let row = r * self.ncols;
            let col = (0..self.art_start).find(|&j| self.a[row + j].abs() > eps::ARTIFICIAL);
            if let Some(j) = col {
                // Degenerate pivot: the artificial sits at zero, so the
                // entering column becomes basic at the resting value it
                // already had and no other basic value moves.
                let art = self.basis[r];
                let rest = match self.state[j] {
                    ColState::AtUpper => self.upper[j],
                    _ => self.lower[j],
                };
                self.pivot(r, j);
                self.xb[r] = rest;
                self.state[j] = ColState::Basic;
                self.state[art] = ColState::AtLower;
            }
        }
    }
}

#[cfg(test)]
mod tests;
