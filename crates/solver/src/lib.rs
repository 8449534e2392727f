//! From-scratch linear and mixed-integer linear programming.
//!
//! The Proteus Resource Manager solves a mixed integer linear program
//! (Eqs. 1–7 of the paper) on every macro-scale demand change. The paper
//! uses Gurobi; this crate substitutes an exact solver built from first
//! principles:
//!
//! * [`LinearProgram`] — a builder for LPs/MILPs: bounded variables
//!   (continuous or integer), linear constraints, max/min objective.
//! * [`simplex`] — a bounded-variable primal/dual simplex on a flat dense
//!   tableau: finite bounds are handled implicitly (nonbasic-at-lower /
//!   nonbasic-at-upper) instead of as extra rows, with a Bland's-rule
//!   anti-cycling fallback.
//! * [`MilpSolver`] — branch & bound over the integer variables with
//!   most-fractional branching, best-bound pruning, a rounding heuristic
//!   for fast incumbents, and warm-started node relaxations: each node
//!   re-optimizes from the previous node's basis via dual-simplex pivots,
//!   falling back to a cold two-phase solve only when the basis cannot be
//!   repaired. [`SolveStats`] reports nodes, pivots, warm-start hits and
//!   wall time per solve.
//!
//! Both solvers are exact (up to floating-point tolerance), so the resource
//! allocations they produce are the same global optima Gurobi would return
//! on the paper's formulation.
//!
//! # Examples
//!
//! Maximize `3x + 2y` subject to `x + 2y ≤ 14`, `3x − y ≥ 0`, `x − y ≤ 2`:
//!
//! ```
//! use proteus_solver::{LinearProgram, Relation, MilpSolver};
//!
//! let mut lp = LinearProgram::maximize();
//! let x = lp.add_continuous("x", 0.0, f64::INFINITY, 3.0);
//! let y = lp.add_continuous("y", 0.0, f64::INFINITY, 2.0);
//! lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Le, 14.0);
//! lp.add_constraint(vec![(x, 3.0), (y, -1.0)], Relation::Ge, 0.0);
//! lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 2.0);
//!
//! let solution = MilpSolver::default().solve(&lp).expect("feasible");
//! assert!((solution.objective() - 26.0).abs() < 1e-6);
//! assert!((solution.value(x) - 6.0).abs() < 1e-6);
//! assert!((solution.value(y) - 4.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

mod branch_bound;
pub mod eps;
mod problem;
pub mod simplex;

pub use branch_bound::{MilpSolver, SolveStats};
pub use problem::{LinearProgram, Relation, Sense, Solution, SolveError, VarId};
