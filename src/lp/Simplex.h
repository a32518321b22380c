//===- lp/Simplex.h - Exact rational simplex solver ------------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exact rational LP solver -- the stand-in for SoPlex in the paper's
/// pipeline. The RLibm LPs have very few unknowns (polynomial coefficients
/// plus a margin variable, <= 10) and many constraints, so we solve the
/// *dual* with a two-phase revised simplex: only the N x N basis inverse
/// is kept (fraction-free integers over one common denominator), and the
/// thousands of constraint columns are touched only by pricing. The
/// entering column is the most negative scale-free reduced cost; after a
/// streak of degenerate pivots the solver falls back to Bland's rule,
/// which cannot cycle, so every solve terminates. All arithmetic is exact,
/// so the verdict (optimal/infeasible/unbounded) is never a numerical
/// artifact. SimplexSession adds warm re-solves and a hinted presolve on
/// top, each certified equal to a cold solve.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_LP_SIMPLEX_H
#define RFP_LP_SIMPLEX_H

#include "support/Rational.h"

#include <memory>
#include <vector>

namespace rfp {

/// Result of an LP solve.
struct LPResult {
  enum class Status {
    Optimal,    ///< Finite optimum found; Z and Objective are set.
    Infeasible, ///< No point satisfies the constraints.
    Unbounded,  ///< The objective is unbounded above.
  };

  Status StatusCode = Status::Infeasible;
  /// Optimal point (free variables), when Optimal.
  std::vector<Rational> Z;
  /// Optimal objective value, when Optimal.
  Rational Objective;
  /// Simplex pivots performed (both phases, including artificial
  /// evictions); thread-count-invariant by the determinism contract.
  unsigned Pivots = 0;
  /// Structural columns whose certified float pricing screen was
  /// indecisive, forcing the exact BigInt reduced-cost fallback. Also
  /// thread-count-invariant (the screen is a pure function of the limb
  /// bits). Mirrored into the telemetry registry as
  /// `simplex.exact_pricings`.
  uint64_t ExactPricings = 0;
  /// True when this result came from a warm-started re-solve that re-entered
  /// phase 2 from a previous optimal basis (see SimplexSession). Cold solves
  /// -- including warm attempts that fell back -- report false.
  bool Warm = false;
  /// True when this result was produced through the presolve path: the
  /// caller's hint basis (if any) was primed into the exact engine, exact
  /// phase 1 and phase 2 ran from there, and the outcome passed the same
  /// canonicality gate as warm results (so it is provably bit-identical
  /// to a cold solve). Mutually exclusive with Warm.
  bool Presolved = false;
  /// Pivots spent re-priming the persisted (warm) or hinted (presolve)
  /// basis, refactorizing the basis inverse from scratch -- at most one
  /// fraction-free pivot per dual row. Included in Pivots; zero for cold
  /// solves.
  unsigned SetupPivots = 0;

  bool isOptimal() const { return StatusCode == Status::Optimal; }
};

/// Solves: maximize C . z subject to A[i] . z <= B[i], with z free
/// (unconstrained sign). Dimensions: |C| unknowns, |A| == |B| constraints.
/// Exact rational arithmetic throughout.
///
/// \p NumThreads follows ThreadPool::resolveThreads (0 = RFP_THREADS env,
/// then hardware). The pricing / column-transform / pivot-update kernels
/// run on the shared pool. Both entering rules (greedy, and the Bland
/// fallback) reduce over per-column results in index order, so the result
/// -- including the pivot sequence -- is bit-identical for every thread
/// count.
LPResult maximizeLP(const std::vector<std::vector<Rational>> &A,
                    const std::vector<Rational> &B,
                    const std::vector<Rational> &C,
                    unsigned NumThreads = 0);

/// An incremental LP session over the same primal shape as maximizeLP:
/// maximize C . z subject to a mutable set of rows A[i] . z <= B[i]. The
/// session persists everything a one-shot solve throws away -- the
/// integerized dual columns with their scales and pricing-screen images,
/// and the optimal basis of the previous solve -- so the re-solves of a
/// generate-check-constrain loop (a few one-ulp bound shrinks plus a
/// handful of new rows per iteration) re-enter the dual simplex from the
/// previous optimum instead of replaying hundreds of cold pivots.
///
/// Warm-start contract (see DESIGN.md, "Incremental LP re-solving"): a
/// warm result is returned ONLY when it is provably identical to what a
/// cold solve of the current row set would produce. The session re-prices
/// from the banked basis and accepts the warm optimum only if the final
/// basis is nondegenerate and artificial-free -- which certifies that the
/// primal optimum is *unique*, hence path-independent. Any other outcome
/// (refactorization singular, basic solution infeasible after row edits,
/// degenerate optimum, banked row retired) falls back to a cold solve on
/// the identical column order a fresh maximizeLP would see. Either way the
/// exact rational optimum is bit-identical to the cold path, and --
/// because every decision is exact arithmetic -- thread-count-invariant.
class SimplexSession {
public:
  /// Stable row handle: rows keep their id across updates and the
  /// retirement of other rows.
  using RowId = size_t;

  /// Creates a session maximizing \p Objective. The objective (and with it
  /// the dual row frame) is fixed for the session's lifetime.
  /// \p NumThreads follows ThreadPool::resolveThreads, as in maximizeLP.
  explicit SimplexSession(std::vector<Rational> Objective,
                          unsigned NumThreads = 0);
  ~SimplexSession();
  SimplexSession(SimplexSession &&) noexcept;
  SimplexSession &operator=(SimplexSession &&) noexcept;

  /// Appends the row Coeffs . z <= Rhs and returns its handle. Rows marked
  /// \p PinLast sort after every unpinned row in the solve's column order
  /// (the poly LP adds its delta-cap row first and pins it last, so its
  /// columns are the constraint rows in insertion order, then the cap).
  RowId addRow(std::vector<Rational> Coeffs, Rational Rhs,
               bool PinLast = false);

  /// Replaces row \p Id's coefficients and right-hand side. Only this
  /// row is re-integerized; every other cached column is untouched.
  void updateRow(RowId Id, std::vector<Rational> Coeffs, Rational Rhs);

  /// Removes row \p Id from all subsequent solves. The handle becomes
  /// invalid; relative order of the surviving rows is preserved.
  void retireRow(RowId Id);

  /// Solves the current system: warm-started from the previous optimal
  /// basis when one is banked and the warm optimum is provably canonical
  /// (LPResult::Warm == true); otherwise through the presolve when enabled
  /// (LPResult::Presolved == true, same canonicality gate); from scratch
  /// as the last resort.
  LPResult solve();

  /// Enables or disables the presolve for solves that would otherwise run
  /// cold (no banked basis, or the warm attempt fell back). A presolve
  /// attempt primes the hintBasis rows into the exact engine (nothing when
  /// there is no hint), runs exact phase 1 and phase 2 from there, and
  /// accepts only a provably unique optimum or an infeasible/unbounded
  /// verdict -- so accepted results are bit-identical to a cold solve,
  /// and a degenerate optimum falls back cold. Default off; the
  /// generator's sessions turn it on.
  void setPresolve(bool Enabled);

  /// Suggests a starting basis for the *next* presolve attempt, as row
  /// ids of this session (the RLIBM-PROG progressive-degree hook: the
  /// optimal basis rows of the degree-(d-1) system are primed as the
  /// starting basis of the degree-d system). Invalid, retired or
  /// duplicate ids are ignored; the hint is consumed by the next presolve
  /// engagement and affects performance only, never results.
  void hintBasis(std::vector<RowId> Rows);

  /// Row ids of the most recent *optimal* solve's basis (the banked warm
  /// basis), in ascending priming order; empty when no basis is banked.
  /// The progressive-degree driver feeds these into the next session's
  /// hintBasis.
  std::vector<RowId> lastBasisRows() const;

  /// Session-lifetime solve accounting. WarmSolves + ColdSolves equals the
  /// number of solve() calls; fallback counters attribute each warm
  /// attempt that had to re-run cold.
  struct Stats {
    uint64_t WarmSolves = 0;   ///< Warm results returned.
    uint64_t ColdSolves = 0;   ///< Cold solves (first solve + fallbacks).
    uint64_t WarmAttempts = 0; ///< Solves that tried the banked basis.
    uint64_t FallbackRetiredBasis = 0;    ///< A banked row was retired.
    uint64_t FallbackSingularBasis = 0;   ///< Refactorization singular.
    uint64_t FallbackInfeasibleBasis = 0; ///< Banked basis no longer feasible.
    uint64_t FallbackDegenerate = 0;      ///< Warm optimum not provably unique.
    uint64_t WarmPivots = 0; ///< Pivots across warm solves (incl. setup).
    uint64_t ColdPivots = 0; ///< Pivots across cold solves.
    /// Presolve accounting. Every attempt ends as exactly one of
    /// certified (accepted, no pivots beyond priming the hint), repaired
    /// (accepted after >= 1 pivot beyond the priming), or fallback
    /// (discarded: the exact optimum it reached was not provably unique);
    /// PresolveSolves = certified + repaired.
    uint64_t PresolveAttempts = 0;
    uint64_t PresolveSolves = 0;
    uint64_t PresolveCertified = 0;
    uint64_t PresolveRepaired = 0;
    uint64_t PresolveFallbacks = 0;
    uint64_t PresolvePivots = 0; ///< Pivots across presolved solves.
  };
  const Stats &stats() const;

  /// Rows currently participating in solves (added minus retired).
  size_t numLiveRows() const;

  /// True when a previous solve banked a basis for warm re-entry.
  bool hasBankedBasis() const;

private:
  struct State;
  std::unique_ptr<State> S;
};

} // namespace rfp

#endif // RFP_LP_SIMPLEX_H
