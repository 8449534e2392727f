//! Shared floating-point tolerances for the solver — the *only* module in
//! the workspace where direct `f64` equality is permitted.
//!
//! Every numeric comparison in the simplex and the branch & bound layer
//! routes through the named constants and helpers below,
//! so the tolerance story lives in one documented place instead of being
//! scattered as magic literals (`proteus-lint` enforces this: its
//! `float-eq` rule forbids raw `==`/`!=` on floats outside this module).
//!
//! The constants form a deliberate hierarchy, loosest to tightest:
//!
//! | constant        | value | role |
//! |-----------------|-------|------|
//! | [`SOLUTION`]    | 1e-6  | accepting a candidate MILP incumbent |
//! | [`INTEGRALITY`] | 1e-6  | treating a relaxation value as integer |
//! | [`GAP`]         | 1e-6  | default absolute branch & bound gap |
//! | [`FEASIBILITY`] | 1e-7  | primal bound violations, phase-1 residuals |
//! | [`DUAL`]        | 1e-7  | dual feasibility of a warm basis |
//! | [`ARTIFICIAL`]  | 1e-7  | leftover artificial columns after phase 1 |
//! | [`PIVOT`]       | 1e-9  | pivot elements and reduced-cost decisions |
//!
//! Solution-level checks are looser than solver-internal ones: round-off
//! accumulated over thousands of pivots must not reject an answer that is
//! correct to engineering precision, while pivoting itself needs a much
//! sharper zero test to avoid dividing by noise.

/// Tolerance for pivot elements and reduced-cost optimality decisions.
/// Anything smaller than this is numerical noise, not a usable pivot.
pub const PIVOT: f64 = 1e-9;

/// Tolerance for primal bound violations (dual-simplex leaving test) and
/// phase-1 infeasibility: a basic value within this of its bound counts
/// as feasible.
pub const FEASIBILITY: f64 = 1e-7;

/// Tolerance for dual infeasibility when deciding whether a warm basis
/// can be repaired by the dual simplex instead of a cold solve.
pub const DUAL: f64 = 1e-7;

/// Residual magnitude above which a leftover artificial column after
/// phase 1 still blocks the basis and must be pivoted out.
pub const ARTIFICIAL: f64 = 1e-7;

/// Integrality tolerance: relaxation values within this of an integer are
/// accepted as integral by branch & bound.
pub const INTEGRALITY: f64 = 1e-6;

/// Default absolute optimality gap for branch & bound: a node whose bound
/// is within this of the incumbent is pruned.
pub const GAP: f64 = 1e-6;

/// Tolerance for accepting a finished solution: candidate incumbents are
/// re-checked against the raw constraints at this (deliberately loose)
/// precision.
pub const SOLUTION: f64 = 1e-6;

/// Exact (bit-level) zero test.
///
/// This is *not* a tolerance comparison: sparse-skip optimizations in the
/// tableau sweeps ask "is this multiplier exactly `0.0`?" because adding
/// `0.0 * row` is a no-op regardless of scale, and treating tiny nonzeros
/// as zero there would silently corrupt the tableau. Keeping the one
/// legitimate exact comparison behind a named helper lets the rest of the
/// workspace ban raw float `==` outright.
#[inline]
pub fn nonzero(x: f64) -> bool {
    x != 0.0
}

/// Relative closeness with an absolute floor: `|a - b|` within `tol`
/// scaled by `1 + max(|a|, |b|)`. Used for ratio-test tie detection where
/// the magnitudes vary over orders of magnitude.
#[inline]
pub fn within_scaled(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// Whether `x` is within `tol` of its nearest integer.
#[inline]
pub fn is_integral(x: f64, tol: f64) -> bool {
    (x - x.round()).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_hierarchy_is_ordered() {
        // Fed through a function so the comparisons stay runtime checks
        // (clippy::assertions_on_constants fires on literal const asserts).
        let strictly = |a: f64, b: f64| a < b;
        let ordered = |a: f64, b: f64| a <= b;
        assert!(strictly(PIVOT, FEASIBILITY));
        assert!(ordered(FEASIBILITY, DUAL));
        assert!(ordered(DUAL, INTEGRALITY));
        assert!(ordered(INTEGRALITY, SOLUTION));
    }

    #[test]
    fn nonzero_is_exact() {
        assert!(nonzero(1e-300));
        assert!(nonzero(-1e-300));
        assert!(!nonzero(0.0));
        assert!(!nonzero(-0.0));
    }

    #[test]
    fn within_scaled_is_relative() {
        // 1e6 vs 1e6 + 0.5 is within 1e-6 relative, 1 vs 1.5 is not.
        assert!(within_scaled(1e6, 1e6 + 0.5, 1e-6));
        assert!(!within_scaled(1.0, 1.5, 1e-6));
    }

    #[test]
    fn integrality() {
        assert!(is_integral(3.0000004, INTEGRALITY));
        assert!(!is_integral(3.4, INTEGRALITY));
        assert!(is_integral(-2.0000001, INTEGRALITY));
    }
}
