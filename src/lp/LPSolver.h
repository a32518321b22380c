//===- lp/LPSolver.h - LP formulation of polynomial synthesis --*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RLibm LP formulation (paper Section 2.1): given reduced inputs x'_i
/// with reduced rounding intervals [l'_i, h'_i], find coefficients C_j with
///
///     l'_i <= C_0 + C_1 x'_i + ... + C_d x'_i^d <= h'_i   for all i.
///
/// We solve the margin-maximizing variant: maximize delta subject to
/// l'_i + delta <= P(x'_i) <= h'_i - delta. A non-negative optimal delta
/// certifies feasibility and centers the polynomial inside the intervals,
/// which buys robustness against the coefficient-rounding and fast-
/// evaluation errors the outer loop must absorb.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_LP_LPSOLVER_H
#define RFP_LP_LPSOLVER_H

#include "lp/Simplex.h"
#include "poly/Polynomial.h"

namespace rfp {

/// One reduced-input constraint: l <= P(X) <= h, everything exact.
struct IntervalConstraint {
  Rational X;
  Rational Lo;
  Rational Hi;
};

/// Result of synthesizing a polynomial from interval constraints.
struct PolyLPResult {
  bool Feasible = false;
  /// Relative margin: the fraction of every interval's half-width the
  /// polynomial clears (in [0, 1]; the LP maximizes it, capped at 1).
  Rational Margin;
  /// Exact coefficients (degree + 1 entries) when Feasible.
  RationalPolynomial Poly;
  /// Simplex pivots spent on this solve (thread-count-invariant).
  unsigned Pivots = 0;
  /// Pricing screens that fell through to the exact BigInt reduced cost
  /// (see LPResult::ExactPricings).
  uint64_t ExactPricings = 0;
  /// LP rows solved: two per live constraint plus the delta cap.
  unsigned Rows = 0;
  /// True when this solve was warm-started from a previous optimal basis
  /// (never for solvePolyLP, whose session solves once).
  bool Warm = false;
  /// True when a warm start was attempted but had to fall back to a cold
  /// solve (retired basis row, singular refactorization, infeasible or
  /// degenerate warm basis -- see SimplexSession::Stats).
  bool WarmFallback = false;
  /// True when this solve went through the presolve path (exact phase 1
  /// and phase 2 from the hinted basis, or from the artificial basis
  /// without a hint; see SimplexSession::setPresolve). Mutually exclusive
  /// with Warm.
  bool Presolved = false;
};

/// Solves the RLibm LP for a polynomial with terms x^e for each e in
/// \p TermExponents (e.g. {0,1,2,3,4} for a dense degree-4 polynomial).
/// Coefficients for missing exponents are zero in the returned polynomial.
///
/// This is a fresh PolyLPSession (presolve off) holding \p Constraints in
/// order, solved once: a cold solve, the referee every warm or presolved
/// session solve must equal. \p NumThreads is forwarded to the simplex
/// engine (see Simplex.h for the determinism contract).
PolyLPResult solvePolyLP(const std::vector<IntervalConstraint> &Constraints,
                         const std::vector<unsigned> &TermExponents,
                         unsigned NumThreads = 0);

/// Dense-degree convenience overload: terms 0..Degree.
PolyLPResult solvePolyLP(const std::vector<IntervalConstraint> &Constraints,
                         unsigned Degree, unsigned NumThreads = 0);

/// The margin LP's one solver, built on SimplexSession: holds the LP of
/// one generate-check-constrain loop and re-solves it after each round's
/// edits (bound shrinks, retires, new constraints) without rebuilding the
/// system. solvePolyLP is its degenerate case, a fresh session solved once.
///
/// Per constraint the session caches the term powers X^e (computed once --
/// X never changes across iterations) and the two integerized LP rows; a
/// one-ulp bound shrink re-derives just that constraint's pair of rows,
/// and the solve re-enters the dual simplex from the previous optimal
/// basis when the result is provably identical to a cold solve (see
/// SimplexSession). Duplicate rows are solved as they are; the warm and
/// presolve gates accept only a unique optimum, so they stay exact.
/// solve() is bit-identical -- feasibility verdict, margin, and
/// coefficients -- to calling solvePolyLP on the live constraint set in
/// insertion order, which the differential tests enforce.
class PolyLPSession {
public:
  /// Stable constraint handle, valid until retire().
  using ConstraintId = size_t;

  /// Creates a session for polynomials with terms x^e, e in
  /// \p TermExponents (as in solvePolyLP). \p NumThreads is forwarded to
  /// the simplex engine for every solve.
  explicit PolyLPSession(std::vector<unsigned> TermExponents,
                         unsigned NumThreads = 0);
  ~PolyLPSession();
  PolyLPSession(PolyLPSession &&) noexcept;
  PolyLPSession &operator=(PolyLPSession &&) noexcept;

  /// Adds the constraint Lo <= P(X) <= Hi and returns its handle.
  /// Constraint order is solve order: the referee solvePolyLP takes the
  /// live constraints in insertion order.
  ConstraintId addConstraint(const Rational &X, Rational Lo, Rational Hi);

  /// Shrinks (or otherwise replaces) the bounds of constraint \p Id. Only
  /// this constraint's two rows are rebuilt and re-integerized; the
  /// cached powers of X are reused.
  void updateBound(ConstraintId Id, Rational Lo, Rational Hi);

  /// Removes constraint \p Id from all subsequent solves (the generator
  /// retires exhausted constraints into special cases).
  void retire(ConstraintId Id);

  /// Solves the current system. Result fields mirror solvePolyLP;
  /// PolyLPResult::Warm reports whether the previous optimal basis was
  /// reused.
  PolyLPResult solve();

  /// Enables the presolve on the underlying simplex session for solves
  /// that would otherwise run cold (see SimplexSession::setPresolve;
  /// results stay bit-identical to solvePolyLP either way).
  void setPresolve(bool Enabled);

  /// One basic row of a poly-LP optimum, in session-independent terms: a
  /// constraint handle plus which of its rows is basic. This is the
  /// currency of the progressive-degree warm start -- the caller maps
  /// handles between the degree-(d-1) and degree-d sessions.
  struct PolyBasisRow {
    ConstraintId Con = 0; ///< Ignored when Side == 2.
    int Side = 0;         ///< 0 = lower row, 1 = upper row, 2 = delta cap.
  };

  /// The basic rows of the most recent optimal solve (the banked warm
  /// basis); empty when none is banked.
  std::vector<PolyBasisRow> lastBasisRows() const;

  /// Suggests a starting basis for the next presolve attempt, typically
  /// lastBasisRows() of a lower-degree session with the constraint
  /// handles translated to this session. Unknown or retired handles are
  /// ignored; the hint affects performance only, never results.
  void hintBasis(const std::vector<PolyBasisRow> &Rows);

  /// Warm/cold accounting of the underlying simplex session.
  const SimplexSession::Stats &lpStats() const;

  /// Constraints currently participating in solves.
  size_t numLiveConstraints() const;

private:
  struct State;
  std::unique_ptr<State> S;
};

} // namespace rfp

#endif // RFP_LP_LPSOLVER_H
