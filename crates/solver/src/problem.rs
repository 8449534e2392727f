//! Problem representation: variables, constraints, objective.

use std::fmt;

/// Identifier of a variable within one [`LinearProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The variable's dense index (its position in `values()` arrays and in
    /// bound vectors passed to [`simplex::solve_with_bounds`]).
    ///
    /// [`simplex::solve_with_bounds`]: crate::simplex::solve_with_bounds
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Objective sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub name: String,
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
    pub integer: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    /// Sparse row: (variable, coefficient) pairs.
    pub terms: Vec<(VarId, f64)>,
    pub relation: Relation,
    pub rhs: f64,
}

/// Why a solve failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// No assignment satisfies all constraints and bounds.
    Infeasible,
    /// The objective can be improved without bound.
    Unbounded,
    /// The branch-and-bound node budget was exhausted before proving
    /// optimality and no incumbent was found.
    NodeLimit,
    /// A solver invariant was violated (e.g. extracting a solution from a
    /// workspace whose tableau is missing). Indicates a bug in the solver
    /// itself, surfaced as a value instead of a panic.
    Internal(&'static str),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => f.write_str("problem is infeasible"),
            SolveError::Unbounded => f.write_str("problem is unbounded"),
            SolveError::NodeLimit => f.write_str("node limit reached without an incumbent"),
            SolveError::Internal(what) => write!(f, "solver invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A (mixed-integer) linear program under construction.
///
/// See the [crate-level documentation](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    pub(crate) sense: Sense,
    pub(crate) variables: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates a maximization problem.
    pub fn maximize() -> Self {
        Self::with_sense(Sense::Maximize)
    }

    /// Creates a minimization problem.
    pub fn minimize() -> Self {
        Self::with_sense(Sense::Minimize)
    }

    /// Creates a problem with the given sense.
    pub fn with_sense(sense: Sense) -> Self {
        Self {
            sense,
            variables: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The objective sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a continuous variable with bounds `[lower, upper]` and objective
    /// coefficient `objective`.
    ///
    /// `upper` may be `f64::INFINITY`; `lower` must be finite (every
    /// quantity in the Proteus formulation is bounded below, and finite
    /// lower bounds keep the standard-form conversion simple).
    ///
    /// # Panics
    ///
    /// Panics if `lower` is not finite, `lower > upper`, or `objective` is
    /// not finite.
    pub fn add_continuous(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        self.add_variable(name.into(), lower, upper, objective, false)
    }

    /// Adds an integer variable (see [`add_continuous`](Self::add_continuous)
    /// for bound rules).
    pub fn add_integer(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        self.add_variable(name.into(), lower, upper, objective, true)
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        self.add_variable(name.into(), 0.0, 1.0, objective, true)
    }

    fn add_variable(
        &mut self,
        name: String,
        lower: f64,
        upper: f64,
        objective: f64,
        integer: bool,
    ) -> VarId {
        assert!(
            lower.is_finite(),
            "variable {name}: lower bound must be finite, got {lower}"
        );
        assert!(
            !upper.is_nan() && lower <= upper,
            "variable {name}: bounds [{lower}, {upper}] are empty or NaN"
        );
        assert!(
            objective.is_finite(),
            "variable {name}: objective coefficient must be finite"
        );
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name,
            lower,
            upper,
            objective,
            integer,
        });
        id
    }

    /// Adds the constraint `Σ coeff·var  relation  rhs`.
    ///
    /// Terms referring to the same variable are summed. Zero-coefficient
    /// terms are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable does not belong to this program,
    /// or any coefficient / the rhs is not finite.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) {
        assert!(rhs.is_finite(), "constraint rhs must be finite, got {rhs}");
        let mut dense: Vec<(VarId, f64)> = Vec::new();
        for (var, coeff) in terms {
            assert!(
                var.0 < self.variables.len(),
                "constraint references unknown variable {var}"
            );
            assert!(coeff.is_finite(), "constraint coefficient must be finite");
            if !crate::eps::nonzero(coeff) {
                continue;
            }
            match dense.iter_mut().find(|(v, _)| *v == var) {
                Some((_, c)) => *c += coeff,
                None => dense.push((var, coeff)),
            }
        }
        self.constraints.push(Constraint {
            terms: dense,
            relation,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of integer variables.
    pub fn num_integers(&self) -> usize {
        self.variables.iter().filter(|v| v.integer).count()
    }

    /// Whether the variable is integer-constrained.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this program.
    pub fn is_integer(&self, var: VarId) -> bool {
        self.variables[var.0].integer
    }

    /// The variable's name.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this program.
    pub fn name(&self, var: VarId) -> &str {
        &self.variables[var.0].name
    }

    /// The variable's bounds.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this program.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        let v = &self.variables[var.0];
        (v.lower, v.upper)
    }

    /// All variable bounds in [`VarId`] order — the vector expected by
    /// [`simplex::solve_with_bounds`](crate::simplex::solve_with_bounds).
    pub fn all_bounds(&self) -> Vec<(f64, f64)> {
        self.variables.iter().map(|v| (v.lower, v.upper)).collect()
    }

    /// Pins a variable to a single value by collapsing both bounds onto it.
    ///
    /// This is the problem-level "mask" primitive: callers that must
    /// exclude part of the search space (for example, devices that are
    /// currently down) fix the corresponding variables instead of editing
    /// constraint rows, so every row keeps its meaning.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this program or `value` is not
    /// finite.
    pub fn fix(&mut self, var: VarId, value: f64) {
        assert!(value.is_finite(), "cannot fix {var} to {value}");
        let v = &mut self.variables[var.0];
        v.lower = value;
        v.upper = value;
    }

    /// Pins a variable to zero — the common case of masking a device out
    /// of an allocation problem.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this program.
    pub fn fix_zero(&mut self, var: VarId) {
        self.fix(var, 0.0);
    }

    /// Evaluates the objective at `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.num_variables()`.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.num_variables());
        self.variables
            .iter()
            .zip(values)
            .map(|(v, &x)| v.objective * x)
            .sum()
    }

    /// Checks whether `values` satisfies every bound, constraint and
    /// integrality requirement within `tol`.
    ///
    /// The tolerance is applied *relative to each constraint's scale*
    /// (`1 + |rhs| + Σ|coeffᵢ·xᵢ|`), so programs with large coefficients —
    /// like throughput capacities in the thousands — accept the round-off
    /// a floating-point simplex necessarily leaves behind, while genuine
    /// violations of any magnitude are still rejected.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.num_variables()`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        assert_eq!(values.len(), self.num_variables());
        for (v, &x) in self.variables.iter().zip(values) {
            let scale = 1.0 + v.lower.abs().max(v.upper.abs().min(f64::MAX));
            let btol = tol * if scale.is_finite() { scale } else { 1.0 };
            if x < v.lower - btol || x > v.upper + btol {
                return false;
            }
            if v.integer && !crate::eps::is_integral(x, tol.max(crate::eps::PIVOT)) {
                return false;
            }
        }
        for c in &self.constraints {
            let mut lhs = 0.0;
            let mut scale = 1.0 + c.rhs.abs();
            for &(v, coeff) in &c.terms {
                let term = coeff * values[v.0];
                lhs += term;
                scale += term.abs();
            }
            let ctol = tol * scale;
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + ctol,
                Relation::Eq => (lhs - c.rhs).abs() <= ctol,
                Relation::Ge => lhs >= c.rhs - ctol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// The result of a successful solve: variable values plus the objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    pub(crate) values: Vec<f64>,
    pub(crate) objective: f64,
}

impl Solution {
    /// The optimal objective value.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The value of one variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved program.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }

    /// All variable values, indexed by [`VarId`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_counts() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_continuous("x", 0.0, 1.0, 1.0);
        let y = lp.add_integer("y", 0.0, 5.0, 2.0);
        let z = lp.add_binary("z", 0.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
        assert_eq!(lp.num_variables(), 3);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.num_integers(), 2);
        assert!(!lp.is_integer(x));
        assert!(lp.is_integer(y));
        assert!(lp.is_integer(z));
        assert_eq!(lp.bounds(z), (0.0, 1.0));
        assert_eq!(lp.name(y), "y");
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_continuous("x", 0.0, 10.0, 1.0);
        lp.add_constraint(vec![(x, 1.0), (x, 2.0)], Relation::Le, 6.0);
        assert_eq!(lp.constraints[0].terms, vec![(x, 3.0)]);
    }

    #[test]
    fn zero_coefficients_dropped() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_continuous("x", 0.0, 10.0, 1.0);
        let y = lp.add_continuous("y", 0.0, 10.0, 1.0);
        lp.add_constraint(vec![(x, 0.0), (y, 1.0)], Relation::Ge, 1.0);
        assert_eq!(lp.constraints[0].terms, vec![(y, 1.0)]);
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_continuous("x", 0.0, 10.0, 1.0);
        let y = lp.add_integer("y", 0.0, 5.0, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 6.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 1.0);
        assert!(lp.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!lp.is_feasible(&[2.0, 4.5], 1e-9), "fractional integer");
        assert!(!lp.is_feasible(&[0.0, 3.0], 1e-9), "violates x >= 1");
        assert!(!lp.is_feasible(&[5.0, 3.0], 1e-9), "violates sum <= 6");
        assert!(!lp.is_feasible(&[-1.0, 3.0], 1e-9), "violates bound");
    }

    #[test]
    fn objective_value_evaluates() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_continuous("x", 0.0, 10.0, 3.0);
        let _y = lp.add_continuous("y", 0.0, 10.0, -1.0);
        assert_eq!(lp.objective_value(&[2.0, 4.0]), 2.0);
        assert_eq!(lp.sense(), Sense::Minimize);
        let _ = x;
    }

    #[test]
    #[should_panic(expected = "lower bound must be finite")]
    fn infinite_lower_bound_rejected() {
        LinearProgram::maximize().add_continuous("x", f64::NEG_INFINITY, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty or NaN")]
    fn crossed_bounds_rejected() {
        LinearProgram::maximize().add_continuous("x", 2.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_var_rejected() {
        let mut a = LinearProgram::maximize();
        let mut b = LinearProgram::maximize();
        let _ = a.add_continuous("x", 0.0, 1.0, 1.0);
        let xa = a.add_continuous("y", 0.0, 1.0, 1.0);
        // xa has index 1, which does not exist in `b`.
        b.add_constraint(vec![(xa, 1.0)], Relation::Le, 1.0);
    }

    #[test]
    fn fix_collapses_bounds_and_masks_the_variable() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_continuous("x", 0.0, 10.0, 1.0);
        let y = lp.add_integer("y", 0.0, 5.0, 1.0);
        lp.fix(x, 2.5);
        lp.fix_zero(y);
        assert_eq!(lp.bounds(x), (2.5, 2.5));
        assert_eq!(lp.bounds(y), (0.0, 0.0));
        assert!(lp.is_feasible(&[2.5, 0.0], 1e-9));
        assert!(
            !lp.is_feasible(&[2.5, 1.0], 1e-9),
            "fixed-zero y must stay 0"
        );
        assert!(!lp.is_feasible(&[3.0, 0.0], 1e-9), "fixed x cannot move");
    }

    #[test]
    #[should_panic(expected = "cannot fix")]
    fn fix_rejects_non_finite_values() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_continuous("x", 0.0, 10.0, 1.0);
        lp.fix(x, f64::NAN);
    }

    #[test]
    fn solve_error_display() {
        assert_eq!(SolveError::Infeasible.to_string(), "problem is infeasible");
        assert_eq!(SolveError::Unbounded.to_string(), "problem is unbounded");
    }
}
