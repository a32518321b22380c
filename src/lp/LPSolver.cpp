//===- lp/LPSolver.cpp - LP formulation of polynomial synthesis -----------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lp/LPSolver.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <vector>

using namespace rfp;

//===----------------------------------------------------------------------===//
// PolyLPSession
//===----------------------------------------------------------------------===//

struct rfp::PolyLPSession::State {
  struct ConRec {
    std::vector<Rational> Powers; ///< X^e per term, computed once.
    Rational W;                   ///< Half-width (Hi - Lo) / 2.
    SimplexSession::RowId LoRow = 0, HiRow = 0;
    bool Retired = false;
  };

  std::vector<unsigned> Exps;
  size_t NumTerms;
  size_t NumVars;
  SimplexSession Sess;
  std::vector<ConRec> Cons;
  size_t LiveCount = 0;

  State(std::vector<unsigned> TermExponents, unsigned Threads)
      : Exps(std::move(TermExponents)), NumTerms(Exps.size()),
        NumVars(NumTerms + 1),
        Sess(
            [&] {
              std::vector<Rational> Obj(NumTerms + 1);
              Obj[NumTerms] = Rational(1); // maximize the relative margin
              return Obj;
            }(),
            Threads) {
    // A final row bounds delta at 1 so the LP stays bounded. It exists for
    // the session's lifetime and is pinned last, so the column order is
    // the constraint rows in insertion order, then the cap.
    std::vector<Rational> DeltaCap(NumVars);
    DeltaCap[NumTerms] = Rational(1);
    Sess.addRow(std::move(DeltaCap), Rational(1), /*PinLast=*/true);
  }

  /// Materializes the constraint's two LP rows from the cached powers.
  /// The margin variable delta is *relative*: the fraction of the
  /// interval's half-width w the polynomial must clear,
  ///   -P(x) + w*delta <= -Lo   and   P(x) + w*delta <= Hi,
  /// so singleton intervals (w = 0, exactly representable results) become
  /// equalities without capping the margin of every other constraint.
  void buildRows(const ConRec &C, std::vector<Rational> &RowLo,
                 std::vector<Rational> &RowHi) const {
    RowLo.assign(NumVars, Rational());
    RowHi.assign(NumVars, Rational());
    for (size_t T = 0; T < NumTerms; ++T) {
      RowLo[T] = -C.Powers[T];
      RowHi[T] = C.Powers[T];
    }
    RowLo[NumTerms] = C.W;
    RowHi[NumTerms] = C.W;
  }
};

PolyLPSession::PolyLPSession(std::vector<unsigned> TermExponents,
                             unsigned NumThreads)
    : S(std::make_unique<State>(std::move(TermExponents), NumThreads)) {
  assert(!S->Exps.empty() && "need at least one term");
}

PolyLPSession::~PolyLPSession() = default;
PolyLPSession::PolyLPSession(PolyLPSession &&) noexcept = default;
PolyLPSession &PolyLPSession::operator=(PolyLPSession &&) noexcept = default;

PolyLPSession::ConstraintId PolyLPSession::addConstraint(const Rational &X,
                                                         Rational Lo,
                                                         Rational Hi) {
  assert(Lo <= Hi && "inverted interval constraint");
  State::ConRec C;
  C.Powers.resize(S->NumTerms);
  // Consecutive exponents extend the previous power by one factor of X
  // (one dyadic product each); any other term list keeps pow.
  for (size_t T = 0; T < S->NumTerms; ++T)
    C.Powers[T] = T > 0 && S->Exps[T] == S->Exps[T - 1] + 1
                      ? C.Powers[T - 1] * X
                      : X.pow(S->Exps[T]);
  C.W = (Hi - Lo) * Rational(BigInt(1), BigInt(2));

  std::vector<Rational> RowLo, RowHi;
  S->buildRows(C, RowLo, RowHi);
  C.LoRow = S->Sess.addRow(std::move(RowLo), -Lo);
  C.HiRow = S->Sess.addRow(std::move(RowHi), std::move(Hi));

  ConstraintId Id = S->Cons.size();
  S->Cons.push_back(std::move(C));
  ++S->LiveCount;
  return Id;
}

void PolyLPSession::updateBound(ConstraintId Id, Rational Lo, Rational Hi) {
  assert(Id < S->Cons.size() && !S->Cons[Id].Retired &&
         "updating a retired or unknown constraint");
  assert(Lo <= Hi && "inverted interval constraint");
  State::ConRec &C = S->Cons[Id];
  C.W = (Hi - Lo) * Rational(BigInt(1), BigInt(2));

  std::vector<Rational> RowLo, RowHi;
  S->buildRows(C, RowLo, RowHi);
  S->Sess.updateRow(C.LoRow, std::move(RowLo), -Lo);
  S->Sess.updateRow(C.HiRow, std::move(RowHi), std::move(Hi));
}

void PolyLPSession::retire(ConstraintId Id) {
  assert(Id < S->Cons.size() && !S->Cons[Id].Retired &&
         "retiring a retired or unknown constraint");
  State::ConRec &C = S->Cons[Id];
  S->Sess.retireRow(C.LoRow);
  S->Sess.retireRow(C.HiRow);
  C.Retired = true;
  C.Powers.clear();
  C.Powers.shrink_to_fit();
  --S->LiveCount;
}

PolyLPResult PolyLPSession::solve() {
  PolyLPResult R;
  R.Rows = static_cast<unsigned>(2 * S->LiveCount + 1);
  uint64_t AttemptsBefore = S->Sess.stats().WarmAttempts;
  LPResult LP = S->Sess.solve();
  R.Warm = LP.Warm;
  R.WarmFallback = !LP.Warm && S->Sess.stats().WarmAttempts > AttemptsBefore;
  R.Presolved = LP.Presolved;
  R.Pivots = LP.Pivots;
  R.ExactPricings = LP.ExactPricings;
  // A negative optimal margin: no polynomial meets every interval.
  if (!LP.isOptimal() || LP.Objective.isNegative())
    return R;
  R.Feasible = true;
  R.Margin = LP.Objective;
  unsigned MaxExp = *std::max_element(S->Exps.begin(), S->Exps.end());
  R.Poly.Coeffs.assign(MaxExp + 1, Rational());
  for (size_t T = 0; T < S->NumTerms; ++T)
    R.Poly.Coeffs[S->Exps[T]] = LP.Z[T];
  return R;
}

void PolyLPSession::setPresolve(bool Enabled) { S->Sess.setPresolve(Enabled); }

std::vector<PolyLPSession::PolyBasisRow>
PolyLPSession::lastBasisRows() const {
  // Invert the RowId -> (constraint, side) mapping. The delta cap is the
  // session's first row (id 0, added in the State constructor); every
  // other row belongs to exactly one constraint as its lo or hi row.
  std::vector<PolyBasisRow> Out;
  std::unordered_map<SimplexSession::RowId, PolyBasisRow> Owner;
  Owner.reserve(2 * S->Cons.size());
  for (ConstraintId Id = 0; Id < S->Cons.size(); ++Id) {
    if (S->Cons[Id].Retired)
      continue;
    Owner[S->Cons[Id].LoRow] = PolyBasisRow{Id, 0};
    Owner[S->Cons[Id].HiRow] = PolyBasisRow{Id, 1};
  }
  for (SimplexSession::RowId Row : S->Sess.lastBasisRows()) {
    if (Row == 0) {
      Out.push_back(PolyBasisRow{0, 2});
      continue;
    }
    auto It = Owner.find(Row);
    if (It != Owner.end())
      Out.push_back(It->second);
  }
  return Out;
}

void PolyLPSession::hintBasis(const std::vector<PolyBasisRow> &Rows) {
  std::vector<SimplexSession::RowId> Hint;
  Hint.reserve(Rows.size());
  for (const PolyBasisRow &R : Rows) {
    if (R.Side == 2) {
      Hint.push_back(0); // The delta cap is always session row 0.
      continue;
    }
    if (R.Con >= S->Cons.size() || S->Cons[R.Con].Retired)
      continue;
    Hint.push_back(R.Side == 0 ? S->Cons[R.Con].LoRow
                               : S->Cons[R.Con].HiRow);
  }
  S->Sess.hintBasis(std::move(Hint));
}

const SimplexSession::Stats &PolyLPSession::lpStats() const {
  return S->Sess.stats();
}

size_t PolyLPSession::numLiveConstraints() const { return S->LiveCount; }

PolyLPResult
rfp::solvePolyLP(const std::vector<IntervalConstraint> &Constraints,
                 const std::vector<unsigned> &TermExponents,
                 unsigned NumThreads) {
  PolyLPSession Sess(TermExponents, NumThreads);
  for (const IntervalConstraint &Con : Constraints)
    Sess.addConstraint(Con.X, Con.Lo, Con.Hi);
  return Sess.solve();
}

PolyLPResult
rfp::solvePolyLP(const std::vector<IntervalConstraint> &Constraints,
                 unsigned Degree, unsigned NumThreads) {
  std::vector<unsigned> Terms(Degree + 1);
  for (unsigned E = 0; E <= Degree; ++E)
    Terms[E] = E;
  return solvePolyLP(Constraints, Terms, NumThreads);
}
