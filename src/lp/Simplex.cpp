//===- lp/Simplex.cpp - Exact revised simplex over integers ---------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// We solve the primal
//     max C.z   s.t.  A z <= B,  z free
// through its dual
//     min B.y   s.t.  A^T y = C,  y >= 0.
//
// The dual has |C| equality rows (tiny: polynomial coefficients + margin)
// and |B| variables, matching the RLibm LP shape. Implementation choices
// that keep exact arithmetic fast:
//
//  * Revised simplex: only the n x n basis inverse is maintained; the
//    thousands of nonbasic columns are touched only by pricing.
//
//  * Fraction-free (integer) pivoting, as in Avis's lrslib: the basis
//    inverse is stored as an integer matrix Minv with a single scalar
//    denominator P (true inverse = Minv / P). The pivot update
//        Minv'[k][j] = (u_r * Minv[k][j] - u_k * Minv[r][j]) / P
//    divides exactly (Edmonds / Bareiss), so no gcd normalization ever
//    runs and entry growth is bounded by minors of the input. The
//    division is BigInt::divExact (2-adic, from the low limbs up), about
//    half the limb products of a long division.
//
//  * The basic solution x_B = Minv * rhs is maintained incrementally with
//    the same fraction-free recurrence instead of being recomputed as an
//    N x N product every iteration.
//
//  * Basis membership is a bitmap (one byte per column), not an O(N) scan
//    per pricing candidate.
//
//  * The O(N*M) pricing sweep, the pivot update once its entries are
//    wide, and for large N the column transform run chunked on the shared
//    ThreadPool. The generator's LPs are small (N = 5..8) but their
//    entries are not: basis entries reach 1,500 bits, where one serial
//    pivot costs hundreds of microseconds, so the pivot gates on P's limb
//    count rather than on N. The entering column is the most negative
//    scale-free reduced cost (ties: minimum index), or under the Bland
//    fallback the minimum index with a negative one; both reduce over
//    per-column results in index order, so the parallel pick is
//    deterministic by construction; all arithmetic is exact, so
//    evaluation order cannot perturb values.
//
// Inputs are integerized by scaling each dual column (primal constraint)
// by the lcm of its denominators, which rescales the dual variable but
// leaves the primal solution and objective unchanged. The generator's
// rows are dyadic, so that lcm is the largest denominator and the scaling
// is a shift.
//
// Status mapping: dual infeasible => primal unbounded; dual unbounded =>
// primal infeasible. The Bland fallback after a degenerate streak
// guarantees termination.
//
// The integerization (ColData) and the fixed dual row frame (DualFrame)
// are split out of the engine so SimplexSession can cache them across
// solves: a one-ulp bound shrink re-integerizes one row instead of all M,
// and a warm re-solve re-enters phase 2 from the previous optimal basis
// (primed by at most N fraction-free pivots) instead of replaying the
// whole cold pivot sequence.
//
//===----------------------------------------------------------------------===//

#include "lp/Simplex.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <optional>

using namespace rfp;

namespace {

/// log2 of |V| to double precision, for nonzero V. Pure function of the
/// limb bits, so identical on every thread count.
double approxLog2(const BigInt &V) {
  unsigned Bits = V.bitLength();
  if (Bits <= 53)
    return std::log2(std::fabs(V.toDouble()));
  return std::log2(std::fabs(V.shr(Bits - 53).toDouble())) +
         static_cast<double>(Bits - 53);
}

/// Sign-magnitude approximation Mant * 2^Exp of a BigInt, frexp
/// normalized (0.5 <= |Mant| < 1; Mant == 0 iff the value is zero). The
/// wide exponent sidesteps double overflow: simplex intermediates reach
/// thousands of bits.
struct Apx {
  double Mant = 0.0;
  int64_t Exp = 0;
};

Apx approxOf(const BigInt &V) {
  Apx A;
  A.Mant = V.frexpApprox(A.Exp);
  return A;
}

/// lcm of two positive denominators. The generator's rows are dyadic (every
/// entry is a double or a product of doubles), so when both are powers of
/// two the lcm is simply the larger one.
BigInt lcm(const BigInt &A, const BigInt &B) {
  if (A.isPowerOfTwo() && B.isPowerOfTwo())
    return A >= B ? A : B;
  return BigInt::divExact(A, BigInt::gcd(A, B)) * B;
}

BigInt scaleToInt(const Rational &V, const BigInt &Scale) {
  // V * Scale is an integer because Scale is a multiple of V's
  // denominator. A power-of-two Scale has only power-of-two divisors, so
  // the multiplier Scale / den is 2^(difference of their bit lengths).
  if (Scale.isPowerOfTwo())
    return V.numerator().shl(Scale.bitLength() -
                             V.denominator().bitLength());
  return V.numerator() * BigInt::divExact(Scale, V.denominator());
}

/// Columns per pricing block: the Bland fallback sweep runs
/// block-sequentially so the scan can stop at the first block containing a
/// negative reduced cost instead of pricing all M columns, while each
/// block still fans out across the pool.
constexpr size_t PricingBlock = 2048;

/// Consecutive degenerate pivots tolerated under the greedy entering rule
/// before switching to Bland's rule (which cannot cycle). The first
/// nondegenerate pivot switches back.
constexpr unsigned DegenerateLimit = 16;

/// Row count at and above which the column transform fans out. Its rows
/// are N products each, so at the generator's N = 5..8 the barrier costs
/// more than it saves even on wide entries (polygen-6's sample: 22 us per
/// call serial, 33-51 us fanned out); randomized/benchmark LPs can be
/// bigger. Determinism does not depend on this value (rows are
/// index-addressed and arithmetic is exact).
constexpr size_t ParallelRowThreshold = 16;

/// Limb count of P (the basis denominator, about as wide as every Minv and
/// x_B entry) at and above which the pivot update fans its rows out. Each
/// row costs N + 1 updates of two products and one exact division of
/// P-sized integers, so the generator's N = 5..8 LPs, whose entries reach
/// 1,500 bits, pay hundreds of microseconds per serial pivot. Timed on
/// polygen-6's sample (4 threads, quiet 4-vCPU host), a pooled pivot lost
/// 22 us on average at 8..11 limbs and 5 us at 12..15, and gained 23 us
/// at 16..19 and 250 us at 32 and more. Determinism does not depend on
/// this value either.
constexpr unsigned ParallelPivotLimbs = 16;

/// Consecutive warm attempts ending in a degenerate optimum a session
/// tolerates before it stops attempting warm starts altogether. A
/// persistently degenerate optimum makes every warm attempt run phase 2 to
/// completion only to be discarded by the uniqueness check, doubling the
/// work of each solve; after this many in a row the session pays the cold
/// price only.
constexpr unsigned SessionDegenerateLimit = 3;

/// The fixed part of the dual system, derived from the primal objective C
/// alone: the dual equality RHS with its per-row flips and scales. Every
/// solve of a session shares one frame; row edits never touch it.
struct DualFrame {
  /// RHS of the dual equalities: |C[K]| numerators, flipped non-negative
  /// so the artificial basis is feasible.
  std::vector<BigInt> Rhs;
  /// Per-row scale (C[K]'s denominator) applied to every column entry of
  /// row K; legal because it rescales one equality uniformly.
  std::vector<BigInt> RowScale;
  /// -1 where C[K] was negative and the row was flipped.
  std::vector<int> RowSign;

  size_t size() const { return Rhs.size(); }
};

DualFrame frameFromObjective(const std::vector<Rational> &C) {
  DualFrame F;
  size_t N = C.size();
  F.Rhs.resize(N);
  F.RowSign.assign(N, 1);
  F.RowScale.resize(N);
  for (size_t K = 0; K < N; ++K) {
    F.RowScale[K] = C[K].denominator();
    BigInt V = C[K].numerator();
    if (V.isNegative()) {
      F.RowSign[K] = -1;
      V = -V;
    }
    F.Rhs[K] = V;
  }
  return F;
}

/// One primal constraint (dual column), integerized against a frame: the
/// column scaled by the lcm of its denominators with the frame's row
/// scales/signs applied, its phase-2 cost, and the float images the
/// certified pricing screen reads. This is exactly the per-column work a
/// cold solve used to redo for all M columns every call; a session caches
/// one ColData per row and re-integerizes only rows whose bounds changed.
struct ColData {
  std::vector<BigInt> Col; ///< Integerized dual column, row-scaled.
  BigInt Cost;             ///< Phase-2 cost (scaled primal RHS).
  double ScaleLog2 = 0.0;  ///< log2 of the column's integerization scale.
  std::vector<Apx> ApxCol; ///< Screen images of Col.
  Apx ApxCost;             ///< Screen image of Cost.
};

ColData integerizeRow(const std::vector<Rational> &A, const Rational &B,
                      const DualFrame &F) {
  size_t N = F.size();
  assert(A.size() == N && "constraint width mismatch");
  ColData D;
  BigInt Scale = BigInt(1);
  for (size_t K = 0; K < N; ++K)
    Scale = lcm(Scale, A[K].denominator());
  Scale = lcm(Scale, B.denominator());
  D.ScaleLog2 = approxLog2(Scale);
  D.Col.resize(N);
  for (size_t K = 0; K < N; ++K)
    D.Col[K] = scaleToInt(A[K], Scale);
  D.Cost = scaleToInt(B, Scale);
  // Row scaling/sign applies to every column entry of that row.
  for (size_t K = 0; K < N; ++K) {
    if (!F.RowScale[K].isOne())
      D.Col[K] = D.Col[K] * F.RowScale[K];
    if (F.RowSign[K] < 0)
      D.Col[K] = -D.Col[K];
  }
  // Per-entry approximations for the pricing screen, taken after the
  // row scaling so they mirror the integers actually priced.
  D.ApxCol.resize(N);
  for (size_t K = 0; K < N; ++K)
    D.ApxCol[K] = approxOf(D.Col[K]);
  D.ApxCost = approxOf(D.Cost);
  return D;
}

class RevisedDualSimplex {
public:
  RevisedDualSimplex(const DualFrame &F,
                     std::vector<const ColData *> Columns,
                     unsigned NumThreads)
      : N(F.size()), M(Columns.size()),
        Threads(ThreadPool::resolveThreads(NumThreads)), Frame(F),
        CD(std::move(Columns)) {
    // Artificial basis: Minv = I, P = 1, x_B = rhs.
    Minv.assign(N, std::vector<BigInt>(N));
    for (size_t K = 0; K < N; ++K)
      Minv[K][K] = BigInt(1);
    P = BigInt(1);
    Basis.resize(N);
    InBasis.assign(M + N, 0);
    for (size_t K = 0; K < N; ++K) {
      Basis[K] = M + K; // artificial k
      InBasis[M + K] = 1;
    }
    XB = Frame.Rhs;
  }

  LPResult solve() {
    LPResult R;
    if (!phase1()) {
      R.StatusCode = LPResult::Status::Unbounded;
      finishStats(R);
      return R;
    }
    if (!phase2()) {
      R.StatusCode = LPResult::Status::Infeasible;
      finishStats(R);
      return R;
    }
    extractOptimal(R);
    return R;
  }

  /// Re-creates the basis {column c : c in BasisCols} by fraction-free
  /// pivoting from the artificial identity: each column is transformed and
  /// pivoted into the first artificial row where its entry is nonzero.
  /// Greedy selection is complete -- if every artificial-row entry of a
  /// transformed column is zero, the column lies in the span of the
  /// columns already primed, so the requested set was dependent and no
  /// refactorization exists; returns false in that case. At most N pivots,
  /// counted into SetupPivots.
  bool primeBasis(const std::vector<size_t> &BasisCols) {
    assert(BasisCols.size() <= N && "more basis columns than dual rows");
    for (size_t C : BasisCols) {
      assert(C < M && "priming an artificial column");
      std::vector<BigInt> U = transformedColumn(C);
      size_t Row = SIZE_MAX;
      for (size_t K = 0; K < N; ++K)
        if (Basis[K] >= M && !U[K].isZero()) {
          Row = K;
          break;
        }
      if (Row == SIZE_MAX)
        return false;
      pivot(Row, U, C);
    }
    SetupPivots = Pivots;
    return true;
  }

  /// Best-effort variant of primeBasis for caller-hinted bases: columns
  /// out of range, already basic, or found dependent (zero on every
  /// artificial row of the transformed column) are skipped instead of
  /// failing the whole refactorization -- the rows they would have
  /// covered stay artificial and the subsequent exact phase 1 repairs
  /// them. Returns the number of columns primed.
  unsigned primeBasisPartial(const std::vector<size_t> &BasisCols) {
    unsigned Primed = 0;
    for (size_t C : BasisCols) {
      if (C >= M || InBasis[C])
        continue;
      std::vector<BigInt> U = transformedColumn(C);
      size_t Row = SIZE_MAX;
      for (size_t K = 0; K < N; ++K)
        if (Basis[K] >= M && !U[K].isZero()) {
          Row = K;
          break;
        }
      if (Row == SIZE_MAX)
        continue;
      pivot(Row, U, C);
      ++Primed;
    }
    SetupPivots = Pivots;
    return Primed;
  }

  /// True when the current basic solution is feasible for the dual
  /// (every basic value non-negative) -- the warm-start precondition for
  /// skipping phase 1.
  bool basisFeasible() const {
    for (size_t K = 0; K < N; ++K)
      if (trueSign(XB[K]) < 0)
        return false;
    return true;
  }

  /// Supports the presolve feasibility-eviction loop: the structural
  /// column basic at the first infeasible row, or SIZE_MAX when that row
  /// hosts an artificial (only meaningful while basisFeasible() is
  /// false). Evicting this column and re-priming leaves an artificial at
  /// the row, which exact phase 1 then repairs from a feasible start.
  size_t feasibilityOffender() const {
    for (size_t K = 0; K < N; ++K)
      if (trueSign(XB[K]) < 0)
        return Basis[K] < M ? Basis[K] : SIZE_MAX;
    return SIZE_MAX;
  }

  /// Phase 2 only, from a primed feasible basis (primeBasis +
  /// basisFeasible must have succeeded). Statuses as in solve() except
  /// Unbounded, which cannot occur: the primed basis is itself a feasible
  /// dual point, and dual feasibility is what phase 1 establishes.
  LPResult solveWarm() {
    LPResult R;
    R.Warm = true;
    R.SetupPivots = SetupPivots;
    if (!phase2()) {
      R.StatusCode = LPResult::Status::Infeasible;
      finishStats(R);
      return R;
    }
    extractOptimal(R);
    return R;
  }

  /// Full two-phase solve from a partially primed hint basis
  /// (primeBasisPartial + basisFeasible must have succeeded; an empty hint
  /// leaves the artificial basis, and this is a cold solve). Phase 1
  /// starts from the primed basis, so when the hint covered every row it
  /// terminates immediately (all phase-1 costs of a structural basis are
  /// zero) and phase 2 performs only the pivots from the hinted vertex to
  /// this system's optimum. Statuses as in solve().
  LPResult solvePresolved() {
    LPResult R = solve();
    R.Presolved = true;
    R.SetupPivots = SetupPivots;
    return R;
  }

  /// True when the optimal basis certifies a *unique* primal optimum:
  /// every basic column is structural and every basic value is strictly
  /// positive. Nondegeneracy of the optimal dual BFS implies the dual of
  /// the dual -- our primal -- has exactly one optimal solution, so any
  /// path (warm or cold) must extract the identical Z. This is the
  /// acceptance test that makes warm results provably canonical.
  bool optimumStrict() const {
    for (size_t K = 0; K < N; ++K)
      if (Basis[K] >= M || trueSign(XB[K]) <= 0)
        return false;
    return true;
  }

  /// Basic column indices (positions into the column array; >= M means an
  /// artificial survived). Valid after solve()/solveWarm() returned
  /// Optimal.
  const std::vector<size_t> &basis() const { return Basis; }

private:
  /// Cost of column J in the given phase (integer in scaled space).
  BigInt cost(size_t J, bool Phase1) const {
    if (J >= M) // artificial
      return Phase1 ? BigInt(1) : BigInt(0);
    return Phase1 ? BigInt(0) : CD[J]->Cost;
  }

  /// y = c_B^T * Minv (true prices are y / P). O(N^2): cheap next to the
  /// O(N*M) pricing sweep, so recomputed per iteration (the cost vector
  /// changes between phases, which an incremental y would have to track).
  std::vector<BigInt> priceVector(bool Phase1) const {
    std::vector<BigInt> Y(N);
    for (size_t K = 0; K < N; ++K) {
      BigInt CB = cost(Basis[K], Phase1);
      if (CB.isZero())
        continue;
      for (size_t J = 0; J < N; ++J) {
        if (Minv[K][J].isZero())
          continue;
        Y[J] = Y[J] + CB * Minv[K][J];
      }
    }
    return Y;
  }

  /// Numerator of the reduced cost of nonbasic column J:
  ///   cost_j * P - y . D_j   (true reduced cost is this over P * Scale_j).
  BigInt reducedCostNum(const std::vector<BigInt> &Y, size_t J,
                        bool Phase1) const {
    BigInt Num;
    if (J < M) {
      Num = cost(J, Phase1) * P;
      const std::vector<BigInt> &D = CD[J]->Col;
      for (size_t K = 0; K < N; ++K)
        if (!Y[K].isZero() && !D[K].isZero())
          Num = Num - Y[K] * D[K];
    } else {
      Num = cost(J, Phase1) * P - Y[J - M];
    }
    return Num;
  }

  /// Certified sign of the true reduced cost of real column J from the
  /// floating-point screen: +1 means provably >= 0 (not entering), -1
  /// provably < 0 (legal entering column; Log2Mag receives the log2
  /// magnitude of the numerator), 0 means the approximation cannot
  /// separate the value from zero and the caller must price exactly.
  ///
  /// Soundness: every term a*b is approximated with relative error below
  /// ~2^-49 (frexpApprox truncation) and the summation adds at most
  /// (N+1)^2 * 2^-52 in units of the largest term, so a comparison
  /// threshold of (N+2) * 2^-40 over-covers both by ~2^9. Certified
  /// answers are therefore exact truths; only near-ties fall through.
  int approxRcSign(const std::vector<Apx> &YA, const Apx &PA, size_t J,
                   bool Phase1, double &Log2Mag) const {
    const std::vector<Apx> &D = CD[J]->ApxCol;
    const Apx &DC = CD[J]->ApxCost;
    bool HasCost = !Phase1 && DC.Mant != 0.0 && PA.Mant != 0.0;
    int64_t EMax = INT64_MIN;
    if (HasCost)
      EMax = DC.Exp + PA.Exp;
    for (size_t K = 0; K < N; ++K)
      if (YA[K].Mant != 0.0 && D[K].Mant != 0.0) {
        int64_t E = YA[K].Exp + D[K].Exp;
        if (E > EMax)
          EMax = E;
      }
    if (EMax == INT64_MIN)
      return 1; // Every term is exactly zero: the reduced cost is 0.
    auto Term = [&](double M1, double M2, int64_t E) {
      int64_t Shift = E - EMax;
      // Terms more than ~1100 binary orders below the largest underflow
      // to zero; their true contribution is far inside the error bound.
      if (Shift < -1100)
        return 0.0;
      return std::ldexp(M1 * M2, static_cast<int>(Shift));
    };
    double S = 0.0;
    if (HasCost)
      S += Term(DC.Mant, PA.Mant, DC.Exp + PA.Exp);
    for (size_t K = 0; K < N; ++K)
      if (YA[K].Mant != 0.0 && D[K].Mant != 0.0)
        S -= Term(YA[K].Mant, D[K].Mant, YA[K].Exp + D[K].Exp);
    double Err = std::ldexp(static_cast<double>(N) + 2.0, -40);
    if (S <= Err && S >= -Err)
      return 0;
    int NumSign = S < 0 ? -1 : 1;
    int RcSign = P.isNegative() ? -NumSign : NumSign;
    if (RcSign < 0)
      Log2Mag = std::log2(std::fabs(S)) + static_cast<double>(EMax);
    return RcSign;
  }

  /// Sign of the true reduced cost of nonbasic column J: screened when
  /// the screen is decisive, exact otherwise. On negative, Key receives
  /// the greedy selection key.
  int pricedSign(const std::vector<BigInt> &Y, const std::vector<Apx> &YA,
                 const Apx &PA, size_t J, bool Phase1, double &Key) const {
    if (J < M) {
      double Lg = 0.0;
      int S = approxRcSign(YA, PA, J, Phase1, Lg);
      if (S != 0) {
        if (S < 0)
          Key = Lg - CD[J]->ScaleLog2;
        return S;
      }
      // Screen indecisive: fall through to the exact reduced cost. Rare
      // by construction (near-ties only), so the relaxed shared counter
      // is uncontended next to the BigInt dot product it precedes.
      ExactPricings.fetch_add(1, std::memory_order_relaxed);
    }
    BigInt Num = reducedCostNum(Y, J, Phase1);
    int S = trueSign(Num);
    if (S < 0)
      Key = enteringKey(Num, J);
    return S;
  }

  /// Selection key for the greedy entering rule: log2 of the scale-free
  /// magnitude of a negative reduced cost. The integer numerators carry a
  /// per-column factor P * Scale_j; P is common to all columns and Scale_j
  /// is divided back out so dyadic inputs with wildly different binary
  /// exponents compete on the true reduced-cost magnitude. A double
  /// suffices: any negative column is a *legal* pivot, the key only ranks
  /// them, and it is a pure function of the limb bits, so every thread
  /// count ranks identically.
  double enteringKey(const BigInt &Num, size_t J) const {
    return approxLog2(Num) - (J < M ? CD[J]->ScaleLog2 : 0.0);
  }

  /// Entering column, or SIZE_MAX at optimality. Greedy mode (default)
  /// prices every nonbasic column and takes the most negative scale-free
  /// reduced cost (ties: minimum index) -- near-minimal iteration counts
  /// on the pipeline's margin LPs. Bland mode (UseBland, engaged after a
  /// degenerate streak) takes the minimum index with negative reduced
  /// cost, which cannot cycle; it prices whole PricingBlock-column blocks
  /// and stops after the first block that holds one. Both rules reduce
  /// over per-index results in index order and price the same columns on
  /// any thread count (parallelFor runs inline on one), so the choice --
  /// and therefore the whole pivot sequence and the exact-pricing count
  /// -- is thread-count-invariant.
  size_t findEntering(const std::vector<BigInt> &Y, bool Phase1) const {
    size_t Limit = Phase1 ? M + N : M;
    std::vector<Apx> YA(N);
    for (size_t K = 0; K < N; ++K)
      YA[K] = approxOf(Y[K]);
    Apx PA = approxOf(P);
    if (UseBland) {
      std::vector<int8_t> Signs(PricingBlock);
      for (size_t Base = 0; Base < Limit; Base += PricingBlock) {
        size_t Count = std::min(PricingBlock, Limit - Base);
        parallelFor(
            Count,
            [&](size_t Begin, size_t End) {
              double K = 0.0;
              for (size_t I = Begin; I < End; ++I) {
                size_t J = Base + I;
                Signs[I] = InBasis[J] ? int8_t(0)
                                      : int8_t(pricedSign(Y, YA, PA, J,
                                                          Phase1, K));
              }
            },
            Threads);
        for (size_t I = 0; I < Count; ++I)
          if (Signs[I] < 0)
            return Base + I;
      }
      return SIZE_MAX;
    }

    auto Price = [&](size_t J, int8_t &Sign, double &Key) {
      if (InBasis[J]) {
        Sign = 0;
        return;
      }
      Sign = static_cast<int8_t>(pricedSign(Y, YA, PA, J, Phase1, Key));
    };
    std::vector<int8_t> Signs(Limit);
    std::vector<double> Keys(Limit);
    parallelFor(
        Limit,
        [&](size_t Begin, size_t End) {
          for (size_t J = Begin; J < End; ++J)
            Price(J, Signs[J], Keys[J]);
        },
        Threads);
    size_t Best = SIZE_MAX;
    for (size_t J = 0; J < Limit; ++J)
      if (Signs[J] < 0 && (Best == SIZE_MAX || Keys[J] > Keys[Best]))
        Best = J;
    return Best;
  }

  /// u = Minv * column(J) (true column is u / P).
  std::vector<BigInt> transformedColumn(size_t J) const {
    std::vector<BigInt> U(N);
    if (J >= M) { // artificial e_k: u = Minv column k.
      size_t K = J - M;
      for (size_t I = 0; I < N; ++I)
        U[I] = Minv[I][K];
      return U;
    }
    const std::vector<BigInt> &D = CD[J]->Col;
    auto Rows = [&](size_t Begin, size_t End) {
      for (size_t I = Begin; I < End; ++I) {
        BigInt Acc;
        for (size_t K = 0; K < N; ++K) {
          if (Minv[I][K].isZero() || D[K].isZero())
            continue;
          Acc = Acc + Minv[I][K] * D[K];
        }
        U[I] = std::move(Acc);
      }
    };
    if (Threads > 1 && N >= ParallelRowThreshold)
      parallelFor(N, Rows, Threads);
    else
      Rows(0, N);
    return U;
  }

  /// Row \p K of the transformed column J -- dot(Minv[K], D_J) -- without
  /// forming the other N - 1 rows. The phase-1 eviction scan needs only
  /// this entry to decide whether a column can pivot an artificial out.
  BigInt transformedEntry(size_t K, size_t J) const {
    assert(J < M);
    const std::vector<BigInt> &D = CD[J]->Col;
    BigInt Acc;
    for (size_t T = 0; T < N; ++T) {
      if (Minv[K][T].isZero() || D[T].isZero())
        continue;
      Acc = Acc + Minv[K][T] * D[T];
    }
    return Acc;
  }

  /// Sign of a true tableau quantity stored as integer numerator over P.
  int trueSign(const BigInt &V) const {
    if (V.isZero())
      return 0;
    int S = V.isNegative() ? -1 : 1;
    return P.isNegative() ? -S : S;
  }

  /// Basis change with the fraction-free update rule. Updates Minv, the
  /// incremental basic solution, the membership bitmap, and P. Row K's new
  /// entries read only row K and the pivot row, which keeps its values, so
  /// the rows update in place and independently: they fan out on the pool
  /// once P is ParallelPivotLimbs limbs wide.
  void pivot(size_t Row, const std::vector<BigInt> &U, size_t EnterCol) {
    const BigInt &NewP = U[Row];
    assert(!NewP.isZero() && "pivot on zero element");
    // x_B = Minv * rhs obeys the same row recurrence as Minv itself, so
    // each row's basic value updates with it.
    auto Update = [&](BigInt &V, size_t K, const BigInt &PivotV) {
      V = BigInt::divExact(NewP * V - U[K] * PivotV, P);
    };
    auto Rows = [&](size_t Begin, size_t End) {
      for (size_t K = Begin; K < End; ++K) {
        if (K == Row)
          continue;
        for (size_t J = 0; J < N; ++J)
          Update(Minv[K][J], K, Minv[Row][J]);
        Update(XB[K], K, XB[Row]);
      }
    };
    if (Threads > 1 && (P.bitLength() + 31) / 32 >= ParallelPivotLimbs)
      parallelFor(N, Rows, Threads);
    else
      Rows(0, N);

    P = NewP;
    InBasis[Basis[Row]] = 0;
    InBasis[EnterCol] = 1;
    Basis[Row] = EnterCol;
    ++Pivots;
  }

  /// Copies the solve-level statistics (pivots, exact-pricing fallbacks)
  /// into the result and mirrors them into the telemetry registry.
  void finishStats(LPResult &R) const {
    R.Pivots = Pivots;
    R.ExactPricings = ExactPricings.load(std::memory_order_relaxed);
    static const telemetry::Counter SolveCtr =
        telemetry::counter("simplex.solves");
    static const telemetry::Counter PivotCtr =
        telemetry::counter("simplex.pivots");
    static const telemetry::Counter ExactCtr =
        telemetry::counter("simplex.exact_pricings");
    SolveCtr.inc();
    PivotCtr.add(R.Pivots);
    ExactCtr.add(R.ExactPricings);
  }

  /// Shared optimal-result extraction: dual prices y/P at optimum give
  /// the primal solution (after undoing the row flips/scales).
  void extractOptimal(LPResult &R) const {
    std::vector<BigInt> Y = priceVector(/*Phase1=*/false);
    R.StatusCode = LPResult::Status::Optimal;
    finishStats(R);
    R.Z.resize(N);
    for (size_t K = 0; K < N; ++K) {
      Rational ZK(Y[K], P);
      if (Frame.RowSign[K] < 0)
        ZK = -ZK;
      R.Z[K] = ZK * Rational(Frame.RowScale[K]);
    }
    // Objective: sum over basic dual variables of cost * value. Every
    // value is XB[K] / P, so the sum is one fraction over P, reduced once.
    BigInt Obj;
    for (size_t K = 0; K < N; ++K)
      if (Basis[K] < M)
        Obj += CD[Basis[K]]->Cost * XB[K];
    R.Objective = Rational(std::move(Obj), P);
  }

  /// One phase of simplex iterations (greedy entering rule with Bland
  /// anti-cycling fallback). Returns false when the phase's objective is
  /// unbounded below (only possible in phase 2).
  bool iterate(bool Phase1) {
    UseBland = false;
    DegenStreak = 0;
    for (;;) {
      std::vector<BigInt> Y = priceVector(Phase1);
      size_t Enter = findEntering(Y, Phase1);
      if (Enter == SIZE_MAX)
        return true;

      std::vector<BigInt> U = transformedColumn(Enter);
      // Ratio test over rows with true u > 0; P cancels in the ratios
      // x_k / u_k, so compare with integer cross products.
      size_t Leave = SIZE_MAX;
      for (size_t K = 0; K < N; ++K) {
        if (trueSign(U[K]) <= 0)
          continue;
        if (Leave == SIZE_MAX) {
          Leave = K;
          continue;
        }
        // ratio_K < ratio_Leave  <=>  x_K * u_Leave < x_Leave * u_K.
        // Both XB and U store true values times P, so each cross product
        // carries a factor P^2 > 0: the numerator comparison IS the true
        // comparison, independent of the sign of P. (Flipping on a
        // negative P here would select the maximum ratio and walk the
        // iterate out of the feasible region.)
        BigInt Lhs = XB[K] * U[Leave];
        BigInt Rhs2 = XB[Leave] * U[K];
        int Cmp = Lhs.compare(Rhs2);
        if (Cmp < 0 || (Cmp == 0 && Basis[K] < Basis[Leave]))
          Leave = K;
      }
      if (Leave == SIZE_MAX)
        return false; // Unbounded in this phase.
      // Anti-cycling: a degenerate pivot leaves the objective unchanged.
      // After DegenerateLimit of them in a row, fall back to Bland's rule
      // (which provably terminates) until progress resumes.
      bool Degenerate = XB[Leave].isZero();
      pivot(Leave, U, Enter);
      if (Degenerate) {
        if (++DegenStreak >= DegenerateLimit)
          UseBland = true;
      } else {
        DegenStreak = 0;
        UseBland = false;
      }
    }
  }

  bool phase1() {
    bool Ok = iterate(/*Phase1=*/true);
    assert(Ok && "phase-1 objective cannot be unbounded");
    (void)Ok;
    // Any artificial still at a positive value => dual infeasible.
    for (size_t K = 0; K < N; ++K)
      if (Basis[K] >= M && trueSign(XB[K]) > 0)
        return false;
    // Drive zero-valued artificials out when a real pivot exists. Probe
    // each candidate column with the single transformed entry this row
    // needs (skipping columns whose entry is zero) and form the full
    // column only for the pivot actually taken.
    for (size_t K = 0; K < N; ++K) {
      if (Basis[K] < M)
        continue;
      for (size_t J = 0; J < M; ++J) {
        if (InBasis[J])
          continue;
        if (transformedEntry(K, J).isZero())
          continue;
        pivot(K, transformedColumn(J), J);
        break;
      }
    }
    return true;
  }

  bool phase2() { return iterate(/*Phase1=*/false); }

  size_t N; ///< Dual equality rows (primal unknowns).
  size_t M; ///< Dual variables (primal constraints).
  unsigned Threads; ///< Resolved worker budget for the parallel kernels.
  const DualFrame &Frame;           ///< Fixed dual RHS / row scaling.
  std::vector<const ColData *> CD;  ///< Integerized columns, borrowed.
  std::vector<std::vector<BigInt>> Minv; ///< Basis inverse numerators.
  BigInt P;                              ///< Common denominator of Minv.
  std::vector<BigInt> XB;  ///< Incremental basic solution (x_B * P).
  std::vector<size_t> Basis;
  std::vector<uint8_t> InBasis; ///< Membership bitmap over all M+N columns.
  unsigned Pivots = 0;
  unsigned SetupPivots = 0; ///< Pivots spent in primeBasis.
  /// Exact-pricing fallbacks; atomic because pricedSign runs on the
  /// parallel pricing kernels. Mutable: pricing is logically const.
  mutable std::atomic<uint64_t> ExactPricings{0};
  bool UseBland = false;    ///< Anti-cycling fallback engaged.
  unsigned DegenStreak = 0; ///< Consecutive degenerate pivots.
};

} // namespace

LPResult rfp::maximizeLP(const std::vector<std::vector<Rational>> &A,
                         const std::vector<Rational> &B,
                         const std::vector<Rational> &C,
                         unsigned NumThreads) {
  assert(A.size() == B.size() && "constraint row/rhs mismatch");
  for ([[maybe_unused]] const auto &Row : A)
    assert(Row.size() == C.size() && "constraint width mismatch");
  DualFrame Frame = frameFromObjective(C);
  std::vector<ColData> Data(A.size());
  for (size_t J = 0; J < A.size(); ++J)
    Data[J] = integerizeRow(A[J], B[J], Frame);
  std::vector<const ColData *> Cols(Data.size());
  for (size_t J = 0; J < Data.size(); ++J)
    Cols[J] = &Data[J];
  RevisedDualSimplex S(Frame, std::move(Cols), NumThreads);
  return S.solve();
}

//===----------------------------------------------------------------------===//
// SimplexSession
//===----------------------------------------------------------------------===//

struct rfp::SimplexSession::State {
  struct RowRec {
    ColData D;             ///< Cached integerization; rebuilt on update.
    bool Retired = false;  ///< Removed from all subsequent solves.
    bool PinLast = false;  ///< Sorts after every unpinned row.
  };

  DualFrame Frame;       ///< Fixed dual frame from the session objective.
  unsigned NumThreads;   ///< Forwarded to each engine, unresolved.
  std::vector<RowRec> Rows;
  size_t LiveCount = 0;

  /// Row ids of the last optimal basis, in ascending column-position
  /// order at bank time. Valid iff HasBasis; any member being retired
  /// since forces a cold fallback.
  std::vector<RowId> Banked;
  bool HasBasis = false;

  /// Consecutive warm attempts discarded by the uniqueness check; at
  /// SessionDegenerateLimit the session goes cold-only.
  unsigned DegenFallbacks = 0;
  bool ColdOnly = false;

  /// Presolve for solves that would otherwise run cold.
  bool Presolve = false;
  /// Row ids suggested via hintBasis for the next presolve attempt
  /// (progressive-degree warm start); consumed on first engagement.
  std::vector<RowId> Hint;
  /// Consecutive presolve attempts discarded by the uniqueness check; at
  /// SessionDegenerateLimit the session stops presolving (same rationale
  /// as the warm-path cap: a persistently degenerate optimum makes every
  /// attempt pay the full exact solve twice).
  unsigned PresolveDegenFallbacks = 0;
  bool PresolveColdOnly = false;

  Stats St;
};

SimplexSession::SimplexSession(std::vector<Rational> Objective,
                               unsigned NumThreads)
    : S(std::make_unique<State>()) {
  S->Frame = frameFromObjective(Objective);
  S->NumThreads = NumThreads;
}

SimplexSession::~SimplexSession() = default;
SimplexSession::SimplexSession(SimplexSession &&) noexcept = default;
SimplexSession &SimplexSession::operator=(SimplexSession &&) noexcept =
    default;

SimplexSession::RowId SimplexSession::addRow(std::vector<Rational> Coeffs,
                                             Rational Rhs, bool PinLast) {
  assert(Coeffs.size() == S->Frame.size() && "constraint width mismatch");
  RowId Id = S->Rows.size();
  State::RowRec R;
  R.D = integerizeRow(Coeffs, Rhs, S->Frame);
  R.PinLast = PinLast;
  S->Rows.push_back(std::move(R));
  ++S->LiveCount;
  return Id;
}

void SimplexSession::updateRow(RowId Id, std::vector<Rational> Coeffs,
                               Rational Rhs) {
  assert(Id < S->Rows.size() && !S->Rows[Id].Retired &&
         "updating a retired or unknown row");
  assert(Coeffs.size() == S->Frame.size() && "constraint width mismatch");
  S->Rows[Id].D = integerizeRow(Coeffs, Rhs, S->Frame);
}

void SimplexSession::retireRow(RowId Id) {
  assert(Id < S->Rows.size() && !S->Rows[Id].Retired &&
         "retiring a retired or unknown row");
  S->Rows[Id].Retired = true;
  --S->LiveCount;
}

LPResult SimplexSession::solve() {
  static const telemetry::Counter WarmCtr =
      telemetry::counter("simplex.session.warm_solves");
  static const telemetry::Counter ColdCtr =
      telemetry::counter("simplex.session.cold_solves");
  static const telemetry::Counter FallbackCtr =
      telemetry::counter("simplex.session.warm_fallbacks");
  static const telemetry::Counter PreAttemptCtr =
      telemetry::counter("simplex.session.presolve_attempts");
  static const telemetry::Counter PreCertifiedCtr =
      telemetry::counter("simplex.session.presolve_certified");
  static const telemetry::Counter PreRepairedCtr =
      telemetry::counter("simplex.session.presolve_repaired");
  static const telemetry::Counter PreFallbackCtr =
      telemetry::counter("simplex.session.presolve_fallbacks");
  static const telemetry::Counter PreHintCtr =
      telemetry::counter("simplex.session.presolve_hints");

  // Canonical column order: live rows in insertion order, pinned-last
  // rows after. This is exactly the order a caller assembling the system
  // from scratch would pass to maximizeLP, so cold fallbacks -- and the
  // differential tests comparing against fresh solves -- see an
  // identical tableau and replay an identical pivot sequence.
  std::vector<size_t> Order;
  Order.reserve(S->LiveCount);
  for (int Pinned = 0; Pinned < 2; ++Pinned)
    for (size_t I = 0; I < S->Rows.size(); ++I)
      if (!S->Rows[I].Retired && S->Rows[I].PinLast == (Pinned == 1))
        Order.push_back(I);
  std::vector<const ColData *> Cols(Order.size());
  for (size_t Pos = 0; Pos < Order.size(); ++Pos)
    Cols[Pos] = &S->Rows[Order[Pos]].D;

  // Banks the optimal basis for the next warm attempt; a basis holding a
  // surviving artificial is not bankable (it has no row id).
  auto Bank = [&](const std::vector<size_t> &Basis) {
    S->Banked.clear();
    for (size_t Pos : Basis) {
      if (Pos >= Order.size()) {
        S->HasBasis = false;
        return;
      }
      S->Banked.push_back(Order[Pos]);
    }
    S->HasBasis = true;
  };

  bool WarmDegenThisCall = false;
  if (S->HasBasis && !S->ColdOnly) {
    ++S->St.WarmAttempts;
    bool Viable = true;
    std::vector<size_t> PosOf(S->Rows.size(), SIZE_MAX);
    for (size_t Pos = 0; Pos < Order.size(); ++Pos)
      PosOf[Order[Pos]] = Pos;
    std::vector<size_t> BasisCols;
    BasisCols.reserve(S->Banked.size());
    for (RowId Id : S->Banked) {
      if (S->Rows[Id].Retired) {
        ++S->St.FallbackRetiredBasis;
        Viable = false;
        break;
      }
      BasisCols.push_back(PosOf[Id]);
    }
    if (Viable) {
      // Prime in ascending column order: the basis *set* determines the
      // factorization and x_B, the order only routes which artificial
      // rows host which column, so any deterministic order is canonical.
      std::sort(BasisCols.begin(), BasisCols.end());
      RevisedDualSimplex E(S->Frame, Cols, S->NumThreads);
      if (!E.primeBasis(BasisCols)) {
        ++S->St.FallbackSingularBasis;
      } else if (!E.basisFeasible()) {
        ++S->St.FallbackInfeasibleBasis;
      } else {
        LPResult R = E.solveWarm();
        if (R.isOptimal() && !E.optimumStrict()) {
          // The warm optimum exists but is degenerate: uniqueness of the
          // primal solution is not certified, so the result cannot be
          // proven equal to the cold path's. Discard and re-solve cold.
          ++S->St.FallbackDegenerate;
          WarmDegenThisCall = true;
          if (++S->DegenFallbacks >= SessionDegenerateLimit)
            S->ColdOnly = true;
        } else {
          // Optimal-and-strict (unique primal optimum => identical to
          // cold by uniqueness) or infeasible (a path-independent
          // property of the row set): both are canonical results.
          S->DegenFallbacks = 0;
          ++S->St.WarmSolves;
          S->St.WarmPivots += R.Pivots;
          if (R.isOptimal())
            Bank(E.basis());
          WarmCtr.inc();
          return R;
        }
      }
    }
    FallbackCtr.inc();
  }

  // Hinted presolve: prime the caller's hint (hintBasis: typically the
  // optimal basis of a neighboring LP, e.g. the previous polynomial
  // degree) into the exact engine, and let exact phase 1 + phase 2 walk
  // from there to this system's optimum. An attempt without a hint primes
  // nothing and runs exact phase 1 from the artificial basis.
  //
  // The acceptance gate is the same canonicality argument as the warm
  // path: a strict (unique) optimum, or an infeasible/unbounded verdict,
  // is path-independent, so the accepted result is bit-identical to a
  // cold solve. Skipped when this call's warm attempt was just discarded
  // as degenerate -- the optimum of *this* row set is already known
  // non-strict, so a presolved attempt would pay the full exact solve
  // only to be discarded by the same gate.
  if (S->Presolve && !S->PresolveColdOnly && !WarmDegenThisCall &&
      !Cols.empty()) {
    telemetry::Span PresolveSpan("simplex.presolve");
    ++S->St.PresolveAttempts;
    PreAttemptCtr.inc();

    std::vector<size_t> Cands;
    if (!S->Hint.empty()) {
      std::vector<size_t> PosOf(S->Rows.size(), SIZE_MAX);
      for (size_t Pos = 0; Pos < Order.size(); ++Pos)
        PosOf[Order[Pos]] = Pos;
      for (RowId Id : S->Hint)
        if (Id < S->Rows.size() && !S->Rows[Id].Retired &&
            PosOf[Id] != SIZE_MAX)
          Cands.push_back(PosOf[Id]);
      std::sort(Cands.begin(), Cands.end());
      S->Hint.clear();
      if (!Cands.empty())
        PreHintCtr.inc();
    }

    // Prime the hint; when the exact basic solution comes out infeasible
    // (the neighbor's basis is not a feasible vertex of this system),
    // evict the column basic at the offending row and re-prime. The
    // artificial left at that row makes the start feasible again and
    // exact phase 1 repairs it with ordinary pivots. Terminates: the
    // candidate set shrinks every round, and the empty (all-artificial)
    // basis is feasible by construction (frame RHS is non-negative).
    std::optional<RevisedDualSimplex> E;
    for (;;) {
      E.emplace(S->Frame, Cols, S->NumThreads);
      E->primeBasisPartial(Cands);
      if (E->basisFeasible() || Cands.empty())
        break;
      size_t Bad = E->feasibilityOffender();
      if (Bad == SIZE_MAX)
        Cands.pop_back();
      else
        Cands.erase(std::remove(Cands.begin(), Cands.end(), Bad),
                    Cands.end());
    }

    LPResult R = E->solvePresolved();
    if (!R.isOptimal() || E->optimumStrict()) {
      S->PresolveDegenFallbacks = 0;
      ++S->St.PresolveSolves;
      S->St.PresolvePivots += R.Pivots;
      if (R.Pivots > R.SetupPivots) {
        ++S->St.PresolveRepaired;
        PreRepairedCtr.inc();
      } else {
        ++S->St.PresolveCertified;
        PreCertifiedCtr.inc();
      }
      if (R.isOptimal())
        Bank(E->basis());
      else
        S->HasBasis = false;
      return R;
    }
    // The presolved optimum exists but is degenerate: uniqueness is not
    // certified, so it cannot be proven equal to the cold path's. Discard.
    if (++S->PresolveDegenFallbacks >= SessionDegenerateLimit)
      S->PresolveColdOnly = true;
    ++S->St.PresolveFallbacks;
    PreFallbackCtr.inc();
  }

  RevisedDualSimplex E(S->Frame, std::move(Cols), S->NumThreads);
  LPResult R = E.solve();
  ++S->St.ColdSolves;
  S->St.ColdPivots += R.Pivots;
  if (R.isOptimal())
    Bank(E.basis());
  else
    S->HasBasis = false;
  ColdCtr.inc();
  return R;
}

void SimplexSession::setPresolve(bool Enabled) { S->Presolve = Enabled; }

void SimplexSession::hintBasis(std::vector<RowId> Rows) {
  S->Hint = std::move(Rows);
}

std::vector<SimplexSession::RowId> SimplexSession::lastBasisRows() const {
  if (!S->HasBasis)
    return {};
  return S->Banked;
}

const SimplexSession::Stats &SimplexSession::stats() const { return S->St; }

size_t SimplexSession::numLiveRows() const { return S->LiveCount; }

bool SimplexSession::hasBankedBasis() const { return S->HasBasis; }
