//===- tests/LPSolverTest.cpp - Polynomial-synthesis LP tests -------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lp/LPSolver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>

using namespace rfp;

namespace {

std::vector<IntervalConstraint> bandAroundExp(int Count, double Width) {
  std::vector<IntervalConstraint> Cons;
  for (int I = 0; I <= Count; ++I) {
    double X = I * (0.1 / Count);
    double Y = std::exp(X);
    Cons.push_back({Rational::fromDouble(X), Rational::fromDouble(Y - Width),
                    Rational::fromDouble(Y + Width)});
  }
  return Cons;
}

TEST(LPSolverTest, DegreeLadderForExpBand) {
  // exp on [0, 0.1] within 5e-7 needs degree 3 (Taylor residual analysis);
  // degrees 1 and 2 must be infeasible, 3 and up feasible.
  auto Cons = bandAroundExp(40, 5e-7);
  EXPECT_FALSE(solvePolyLP(Cons, 1).Feasible);
  EXPECT_FALSE(solvePolyLP(Cons, 2).Feasible);
  PolyLPResult D3 = solvePolyLP(Cons, 3);
  ASSERT_TRUE(D3.Feasible);
  PolyLPResult D4 = solvePolyLP(Cons, 4);
  ASSERT_TRUE(D4.Feasible);
  // Higher degree clears at least as much margin.
  EXPECT_GE(D4.Margin.compare(D3.Margin) >= 0 ||
                D4.Margin == Rational(1),
            true);
}

TEST(LPSolverTest, SolutionSatisfiesEveryConstraintExactly) {
  auto Cons = bandAroundExp(60, 1e-6);
  PolyLPResult R = solvePolyLP(Cons, 4);
  ASSERT_TRUE(R.Feasible);
  for (const IntervalConstraint &C : Cons) {
    Rational V = R.Poly.evalExact(C.X);
    EXPECT_LE(C.Lo.compare(V), 0);
    EXPECT_LE(V.compare(C.Hi), 0);
  }
}

TEST(LPSolverTest, MarginIsRelativeAndCapped) {
  // Wide intervals: a polynomial that can center everywhere reaches the
  // cap of 1 (relative margin).
  std::vector<IntervalConstraint> Cons = {
      {Rational(0), Rational(0), Rational(2)},
      {Rational(1), Rational(1), Rational(3)},
  };
  PolyLPResult R = solvePolyLP(Cons, 1);
  ASSERT_TRUE(R.Feasible);
  EXPECT_EQ(R.Margin, Rational(1));
}

TEST(LPSolverTest, SingletonConstraintsDoNotKillTheMargin) {
  // A singleton (exactly representable result) pins the polynomial without
  // zeroing the relative margin of the other constraints.
  std::vector<IntervalConstraint> Cons = {
      {Rational(0), Rational(1), Rational(1)}, // P(0) == 1 exactly
      {Rational(1), Rational(2), Rational(4)},
      {Rational(2), Rational(5), Rational(9)},
  };
  PolyLPResult R = solvePolyLP(Cons, 2);
  ASSERT_TRUE(R.Feasible);
  EXPECT_EQ(R.Poly.evalExact(Rational(0)), Rational(1));
  EXPECT_GT(R.Margin.compare(Rational(0)), 0);
}

TEST(LPSolverTest, InfeasibleContradiction) {
  std::vector<IntervalConstraint> Cons = {
      {Rational(BigInt(1), BigInt(2)), Rational(1), Rational(2)},
      {Rational(BigInt(1), BigInt(2)), Rational(3), Rational(4)},
  };
  EXPECT_FALSE(solvePolyLP(Cons, 3).Feasible);
}

TEST(LPSolverTest, SparseTermSelection) {
  // Fit an even function with only even powers: x^2 on [-1,1].
  std::vector<IntervalConstraint> Cons;
  for (int I = -10; I <= 10; ++I) {
    double X = I * 0.1;
    double Y = X * X;
    Cons.push_back({Rational::fromDouble(X), Rational::fromDouble(Y - 1e-9),
                    Rational::fromDouble(Y + 1e-9)});
  }
  PolyLPResult R = solvePolyLP(Cons, std::vector<unsigned>{0u, 2u});
  ASSERT_TRUE(R.Feasible);
  EXPECT_EQ(R.Poly.degree(), 2u);
  // The linear coefficient slot is zero (term excluded).
  EXPECT_TRUE(R.Poly.Coeffs[1].isZero());
}

TEST(LPSolverTest, CoefficientsNearTaylor) {
  // With a tight band, the solved polynomial must be close to the Taylor
  // coefficients of exp.
  auto Cons = bandAroundExp(80, 1e-10);
  PolyLPResult R = solvePolyLP(Cons, 5);
  ASSERT_TRUE(R.Feasible);
  Polynomial P = R.Poly.toDouble();
  EXPECT_NEAR(P.Coeffs[0], 1.0, 1e-9);
  EXPECT_NEAR(P.Coeffs[1], 1.0, 1e-6);
  EXPECT_NEAR(P.Coeffs[2], 0.5, 1e-4);
}

TEST(LPSolverTest, ManyConstraintsStaysExact) {
  auto Cons = bandAroundExp(400, 1e-8);
  PolyLPResult R = solvePolyLP(Cons, 4);
  ASSERT_TRUE(R.Feasible);
  for (size_t I = 0; I < Cons.size(); I += 37) {
    Rational V = R.Poly.evalExact(Cons[I].X);
    EXPECT_LE(Cons[I].Lo.compare(V), 0);
    EXPECT_LE(V.compare(Cons[I].Hi), 0);
  }
}

//===--------------------------------------------------------------------===//
// PolyLPSession: every solve must be bit-identical to a fresh session's
// (solvePolyLP) over the live constraints across shrink, retire and
// append schedules, warm or presolved.
//===--------------------------------------------------------------------===//

std::vector<IntervalConstraint> bandAroundLog1p(int Count, double Width) {
  std::vector<IntervalConstraint> Cons;
  for (int I = 0; I <= Count; ++I) {
    double X = I * (0.05 / Count);
    double Y = std::log1p(X);
    Cons.push_back({Rational::fromDouble(X), Rational::fromDouble(Y - Width),
                    Rational::fromDouble(Y + Width)});
  }
  return Cons;
}

void expectSamePolyResult(const PolyLPResult &Want, const PolyLPResult &Got,
                          const char *Ctx) {
  ASSERT_EQ(Want.Feasible, Got.Feasible) << Ctx;
  if (!Want.Feasible)
    return;
  EXPECT_EQ(Want.Margin, Got.Margin) << Ctx;
  ASSERT_EQ(Want.Poly.Coeffs.size(), Got.Poly.Coeffs.size()) << Ctx;
  for (size_t K = 0; K < Want.Poly.Coeffs.size(); ++K)
    EXPECT_EQ(Want.Poly.Coeffs[K], Got.Poly.Coeffs[K]) << Ctx << " c" << K;
}

/// Drives a session and a fresh-solve referee through the generator's
/// three kinds of edit over \p Pool. Three quarters of it are solved
/// first; then each of \p Rounds rounds shrinks every third live
/// constraint by one interval-width quantum, every other round retires
/// one, and every third round appends one of the held-back quarter. Every
/// solve must equal solvePolyLP on the live constraints in insertion
/// order. With \p Presolve the session presolves, and its first solve is
/// hinted with the optimal basis of the same constraints one degree lower,
/// as the generator's degree ladder does: it must be presolved, in fewer
/// pivots than the referee. Returns the session's accounting.
SimplexSession::Stats runShrinkSchedule(const std::vector<IntervalConstraint> &Pool,
                                        const std::vector<unsigned> &Terms,
                                        int Rounds, unsigned Threads,
                                        bool Presolve = false) {
  std::vector<IntervalConstraint> Cons, Held;
  for (size_t I = 0; I < Pool.size(); ++I)
    (I % 4 == 3 ? Held : Cons).push_back(Pool[I]);

  PolyLPSession Sess(Terms, Threads);
  std::vector<PolyLPSession::ConstraintId> Ids;
  std::vector<bool> Live;
  for (const IntervalConstraint &C : Cons) {
    Ids.push_back(Sess.addConstraint(C.X, C.Lo, C.Hi));
    Live.push_back(true);
  }
  if (Presolve) {
    PolyLPSession Lower({Terms.begin(), Terms.end() - 1}, Threads);
    for (const IntervalConstraint &C : Cons)
      Lower.addConstraint(C.X, C.Lo, C.Hi);
    Lower.solve();
    // Both sessions added the same constraints in the same order, so
    // their handles agree.
    std::vector<PolyLPSession::PolyBasisRow> Hint = Lower.lastBasisRows();
    EXPECT_FALSE(Hint.empty());
    Sess.setPresolve(true);
    Sess.hintBasis(Hint);
  }

  auto Referee = [&] {
    std::vector<IntervalConstraint> LiveCons;
    for (size_t I = 0; I < Cons.size(); ++I)
      if (Live[I])
        LiveCons.push_back(Cons[I]);
    return solvePolyLP(LiveCons, Terms, Threads);
  };

  PolyLPResult Want = Referee(), First = Sess.solve();
  expectSamePolyResult(Want, First, "initial");
  if (Presolve) {
    // The lower degree's basis is a head start the presolve must take.
    EXPECT_TRUE(First.Presolved);
    EXPECT_LT(First.Pivots, Want.Pivots);
  }
  size_t NextHeld = 0;
  for (int Round = 0; Round < Rounds; ++Round) {
    Rational Shrink =
        (Cons[0].Hi - Cons[0].Lo) * Rational(BigInt(1), BigInt(64));
    for (size_t I = Round % 3; I < Cons.size(); I += 3) {
      if (!Live[I])
        continue;
      Cons[I].Lo = Cons[I].Lo + Shrink;
      Cons[I].Hi = Cons[I].Hi - Shrink;
      Sess.updateBound(Ids[I], Cons[I].Lo, Cons[I].Hi);
    }
    if (Round % 2 == 1) {
      size_t Victim = (Round * 7 + 3) % Cons.size();
      if (Live[Victim]) {
        Live[Victim] = false;
        Sess.retire(Ids[Victim]);
      }
    }
    if (Round % 3 == 2 && NextHeld < Held.size()) {
      const IntervalConstraint &C = Held[NextHeld++];
      Cons.push_back(C);
      Ids.push_back(Sess.addConstraint(C.X, C.Lo, C.Hi));
      Live.push_back(true);
    }
    PolyLPResult Got = Sess.solve();
    expectSamePolyResult(Referee(), Got,
                         ("round " + std::to_string(Round)).c_str());
    if (!Got.Feasible)
      break;
  }
  EXPECT_GT(NextHeld, 0u) << "the schedule never appended a constraint";
  return Sess.lpStats();
}

TEST(PolyLPSessionTest, MatchesFreshSolvesOnExpBand) {
  auto Band = bandAroundExp(40, 5e-7);
  // The schedule must actually exercise warm re-entry, not just fall back.
  EXPECT_GT(runShrinkSchedule(Band, {0u, 1u, 2u, 3u}, 8, 1).WarmSolves, 0u);
  SimplexSession::Stats Pre =
      runShrinkSchedule(Band, {0u, 1u, 2u, 3u}, 8, 1, /*Presolve=*/true);
  EXPECT_GT(Pre.PresolveAttempts, 0u);
  EXPECT_GT(Pre.WarmSolves, 0u);
}

TEST(PolyLPSessionTest, MatchesFreshSolvesOnLogBand) {
  auto Band = bandAroundLog1p(48, 2e-7);
  EXPECT_GT(runShrinkSchedule(Band, {0u, 1u, 2u, 3u}, 8, 1).WarmSolves, 0u);
  SimplexSession::Stats Pre =
      runShrinkSchedule(Band, {0u, 1u, 2u, 3u}, 8, 1, /*Presolve=*/true);
  EXPECT_GT(Pre.PresolveAttempts, 0u);
  EXPECT_GT(Pre.WarmSolves, 0u);
}

TEST(PolyLPSessionTest, ThreadCountDoesNotChangeResults) {
  // The schedule asserts session == referee internally at every round;
  // running it per thread count pins warm behavior across pools too.
  for (unsigned Threads : {1u, 4u, 0u})
    runShrinkSchedule(bandAroundExp(32, 5e-7), {0u, 1u, 2u, 3u}, 6, Threads);
}

TEST(PolyLPSessionTest, DuplicateRowsSolveUnmerged) {
  // Even-exponent terms make X and -X produce identical LP rows. The
  // session solves them unmerged: each solve equals the fresh-session
  // referee on the same rows (warm solves allowed: the warm gate accepts
  // only a unique optimum), and its verdict and margin equal those of the
  // system with each exact duplicate removed, since a repeated row does
  // not change the feasible set.
  std::vector<unsigned> Terms = {0u, 2u};
  std::vector<IntervalConstraint> Cons;
  for (int I = 1; I <= 6; ++I) {
    double X = I * 0.1;
    double Y = X * X;
    Cons.push_back({Rational::fromDouble(X), Rational::fromDouble(Y - 1e-9),
                    Rational::fromDouble(Y + 1e-9)});
    Cons.push_back({Rational::fromDouble(-X), Rational::fromDouble(Y - 1e-9),
                    Rational::fromDouble(Y + 1e-9)});
  }
  PolyLPSession Sess(Terms, 1);
  std::vector<PolyLPSession::ConstraintId> Ids;
  for (const IntervalConstraint &C : Cons)
    Ids.push_back(Sess.addConstraint(C.X, C.Lo, C.Hi));

  // With terms {0, 2}, two constraints give identical rows exactly when
  // their X^2 and bounds agree.
  auto WithoutDuplicates = [&] {
    std::vector<IntervalConstraint> Out;
    for (const IntervalConstraint &C : Cons)
      if (std::none_of(Out.begin(), Out.end(), [&](const IntervalConstraint &K) {
            return K.X * K.X == C.X * C.X && K.Lo == C.Lo && K.Hi == C.Hi;
          }))
        Out.push_back(C);
    return Out;
  };
  auto Check = [&](const char *Ctx, size_t Distinct) {
    PolyLPResult Got = Sess.solve();
    EXPECT_EQ(Got.Rows, 2 * Cons.size() + 1) << Ctx;
    expectSamePolyResult(solvePolyLP(Cons, Terms, 1), Got, Ctx);
    std::vector<IntervalConstraint> Merged = WithoutDuplicates();
    EXPECT_EQ(Merged.size(), Distinct) << Ctx;
    PolyLPResult Want = solvePolyLP(Merged, Terms, 1);
    ASSERT_EQ(Want.Feasible, Got.Feasible) << Ctx;
    EXPECT_EQ(Want.Margin, Got.Margin) << Ctx;
  };
  Check("duplicates", 6);
  // Shrink one half of a mirrored pair: its rows now differ from its
  // mirror's in the margin coefficient and the rhs, so both stay.
  Cons[0].Lo = Cons[0].Lo + Rational::fromDouble(2e-10);
  Cons[0].Hi = Cons[0].Hi - Rational::fromDouble(2e-10);
  Sess.updateBound(Ids[0], Cons[0].Lo, Cons[0].Hi);
  Check("duplicates after shrink", 7);
  // Shrink the mirror the same way: the pair is an exact duplicate again.
  Cons[1].Lo = Cons[0].Lo;
  Cons[1].Hi = Cons[0].Hi;
  Sess.updateBound(Ids[1], Cons[1].Lo, Cons[1].Hi);
  Check("pair equal again", 6);
}

TEST(PolyLPSessionTest, RetireAllButOneStillMatches) {
  auto Cons = bandAroundExp(12, 1e-6);
  PolyLPSession Sess({0u, 1u, 2u, 3u}, 1);
  std::vector<PolyLPSession::ConstraintId> Ids;
  for (const IntervalConstraint &C : Cons)
    Ids.push_back(Sess.addConstraint(C.X, C.Lo, C.Hi));
  Sess.solve();
  for (size_t I = 1; I < Ids.size(); ++I)
    Sess.retire(Ids[I]);
  EXPECT_EQ(Sess.numLiveConstraints(), 1u);
  std::vector<IntervalConstraint> One = {Cons[0]};
  expectSamePolyResult(solvePolyLP(One, {0u, 1u, 2u, 3u}, 1), Sess.solve(),
                       "single survivor");
}

} // namespace
