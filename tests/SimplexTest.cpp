//===- tests/SimplexTest.cpp - Exact LP solver tests ----------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lp/Simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>

using namespace rfp;

namespace {

using Matrix = std::vector<std::vector<Rational>>;
using Vector = std::vector<Rational>;

Vector vec(std::initializer_list<int64_t> V) {
  Vector R;
  for (int64_t X : V)
    R.push_back(Rational(X));
  return R;
}

TEST(SimplexTest, SimpleBoundedMaximum) {
  // max x + y s.t. x <= 3, y <= 4, x + y <= 5.
  Matrix A = {vec({1, 0}), vec({0, 1}), vec({1, 1})};
  Vector B = vec({3, 4, 5});
  LPResult R = maximizeLP(A, B, vec({1, 1}));
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Objective, Rational(5));
}

TEST(SimplexTest, FreeVariablesGoNegative) {
  // max -x s.t. x >= -7 (i.e. -x <= 7): optimum -x = 7 at x = -7.
  Matrix A = {vec({-1})};
  Vector B = vec({7});
  LPResult R = maximizeLP(A, B, vec({-1}));
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Z[0], Rational(-7));
  EXPECT_EQ(R.Objective, Rational(7));
}

TEST(SimplexTest, Unbounded) {
  // max x with only x >= 0 (-x <= 0): unbounded.
  Matrix A = {vec({-1})};
  Vector B = vec({0});
  LPResult R = maximizeLP(A, B, vec({1}));
  EXPECT_EQ(R.StatusCode, LPResult::Status::Unbounded);
}

TEST(SimplexTest, Infeasible) {
  // x <= 1 and -x <= -2 (x >= 2): empty.
  Matrix A = {vec({1}), vec({-1})};
  Vector B = vec({1, -2});
  LPResult R = maximizeLP(A, B, vec({1}));
  EXPECT_EQ(R.StatusCode, LPResult::Status::Infeasible);
}

TEST(SimplexTest, EqualityViaTwoInequalities) {
  // x + y == 2 (two inequalities), max x - y with x <= 5: x=5, y=-3.
  Matrix A = {vec({1, 1}), vec({-1, -1}), vec({1, 0})};
  Vector B = vec({2, -2, 5});
  LPResult R = maximizeLP(A, B, vec({1, -1}));
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Z[0], Rational(5));
  EXPECT_EQ(R.Z[1], Rational(-3));
  EXPECT_EQ(R.Objective, Rational(8));
}

TEST(SimplexTest, DegenerateVertexTerminates) {
  // Multiple constraints through one vertex (degenerate); Bland's rule
  // must still terminate at the optimum.
  Matrix A = {vec({1, 0}), vec({0, 1}), vec({1, 1}), vec({2, 1}),
              vec({1, 2})};
  Vector B = vec({1, 1, 2, 3, 3});
  LPResult R = maximizeLP(A, B, vec({1, 1}));
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Objective, Rational(2));
}

TEST(SimplexTest, RationalCoefficients) {
  // max z s.t. z <= 1/3 + 1/7.
  Matrix A = {{Rational(1)}};
  Vector B = {Rational(BigInt(1), BigInt(3)) + Rational(BigInt(1), BigInt(7))};
  LPResult R = maximizeLP(A, B, vec({1}));
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Objective, Rational(BigInt(10), BigInt(21)));
}

TEST(SimplexTest, RandomizedSolutionsAreFeasibleAndTight) {
  std::mt19937_64 Rng(123);
  std::uniform_int_distribution<int> D(-5, 5);
  int Optimal = 0;
  for (int Trial = 0; Trial < 1500; ++Trial) {
    size_t N = 2 + Trial % 4, M = 3 + Trial % 8;
    Matrix A(M, Vector(N));
    Vector B(M), C(N);
    for (auto &Row : A)
      for (auto &V : Row)
        V = Rational(D(Rng));
    for (auto &V : B)
      V = Rational(D(Rng) + 6);
    for (auto &V : C)
      V = Rational(D(Rng));
    LPResult R = maximizeLP(A, B, C);
    if (!R.isOptimal())
      continue;
    ++Optimal;
    Rational Obj;
    for (size_t K = 0; K < N; ++K)
      Obj += C[K] * R.Z[K];
    EXPECT_EQ(Obj, R.Objective);
    for (size_t I = 0; I < M; ++I) {
      Rational Dot;
      for (size_t K = 0; K < N; ++K)
        Dot += A[I][K] * R.Z[K];
      EXPECT_LE(Dot.compare(B[I]), 0) << "trial " << Trial << " row " << I;
    }
  }
  EXPECT_GT(Optimal, 300);
}

TEST(SimplexTest, LargeScaleRationals) {
  // Entries with double-denominator scale (2^-1074-ish) must solve
  // exactly; regression for the Algorithm-D quotient-digit bug.
  Matrix A = {{Rational::fromDouble(0x1.234p-500), Rational(1)},
              {Rational::fromDouble(-0x1.234p-500), Rational(1)},
              {Rational(0), Rational(1)}};
  Vector B = {Rational::fromDouble(0x1p-400), Rational::fromDouble(0x1p-400),
              Rational(1)};
  LPResult R = maximizeLP(A, B, vec({0, 1}));
  ASSERT_TRUE(R.isOptimal());
  // Adding the two banded rows: 2y <= 2^-399, so the optimum is 2^-400
  // (attained at x = 0).
  EXPECT_EQ(R.Objective, Rational::fromDouble(0x1p-400));
}

TEST(SimplexTest, RedundantRowsHandled) {
  // Duplicated constraints (redundant dual columns).
  Matrix A = {vec({1, 1}), vec({1, 1}), vec({1, 1}), vec({1, 0})};
  Vector B = vec({4, 4, 4, 1});
  LPResult R = maximizeLP(A, B, vec({1, 1}));
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Objective, Rational(4));
}

TEST(SimplexTest, ParallelPricingMatchesSerialAcrossThreadCounts) {
  // The determinism contract: identical status, solution, objective, AND
  // pivot sequence (witnessed by the pivot count) for every thread count.
  // The serial path early-exits the Bland scan per column; the parallel
  // path prices block-wise -- both must choose the same entering columns.
  std::mt19937_64 Rng(321);
  std::uniform_int_distribution<int> D(-5, 5);
  int Optimal = 0;
  for (int Trial = 0; Trial < 200; ++Trial) {
    size_t N = 2 + Trial % 5, M = 4 + Trial % 17;
    Matrix A(M, Vector(N));
    Vector B(M), C(N);
    for (auto &Row : A)
      for (auto &V : Row)
        V = Rational(D(Rng));
    for (auto &V : B)
      V = Rational(D(Rng) + 6);
    for (auto &V : C)
      V = Rational(D(Rng));

    LPResult Serial = maximizeLP(A, B, C, 1);
    LPResult Par = maximizeLP(A, B, C, 4);
    ASSERT_EQ(Serial.StatusCode, Par.StatusCode) << "trial " << Trial;
    EXPECT_EQ(Serial.Pivots, Par.Pivots) << "trial " << Trial;
    if (!Serial.isOptimal())
      continue;
    ++Optimal;
    EXPECT_EQ(Serial.Objective, Par.Objective) << "trial " << Trial;
    ASSERT_EQ(Serial.Z.size(), Par.Z.size());
    for (size_t K = 0; K < Serial.Z.size(); ++K)
      EXPECT_EQ(Serial.Z[K], Par.Z[K]) << "trial " << Trial << " z" << K;
  }
  EXPECT_GT(Optimal, 40);
}

TEST(SimplexTest, PivotCountsAreReported) {
  // Any LP that requires at least one basis change reports nonzero
  // pivots; the trivial all-slack optimum reports what phase 1 spent.
  Matrix A = {vec({1, 0}), vec({0, 1}), vec({1, 1})};
  Vector B = vec({3, 4, 5});
  LPResult R = maximizeLP(A, B, vec({1, 1}));
  ASSERT_TRUE(R.isOptimal());
  EXPECT_GT(R.Pivots, 0u);
}

class SimplexDimensionSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimplexDimensionSweep, ChebyshevLikeCentersAreValid) {
  // The margin-maximization pattern used by the poly LP: max d with
  // a.x - d >= l, a.x + d <= h over random banded data.
  int N = GetParam();
  std::mt19937_64 Rng(7 + N);
  std::uniform_int_distribution<int> D(-4, 4);
  for (int Trial = 0; Trial < 60; ++Trial) {
    size_t M = 6 + Trial % 10;
    Matrix A;
    Vector B;
    for (size_t I = 0; I < M; ++I) {
      Vector RowHi(N + 1), RowLo(N + 1);
      int64_t Center = D(Rng);
      for (int K = 0; K < N; ++K) {
        int64_t V = D(Rng);
        RowHi[K] = Rational(V);
        RowLo[K] = Rational(-V);
      }
      RowHi[N] = RowLo[N] = Rational(1);
      A.push_back(RowHi);
      B.push_back(Rational(Center + 5));
      A.push_back(RowLo);
      B.push_back(Rational(-(Center - 5)));
    }
    Vector C(N + 1);
    C[N] = Rational(1);
    LPResult R = maximizeLP(A, B, C);
    ASSERT_TRUE(R.isOptimal());
    EXPECT_GE(R.Objective.compare(Rational(0)), 0);
    // Every band is actually cleared by the margin.
    for (size_t I = 0; I < A.size(); ++I) {
      Rational Dot;
      for (size_t K = 0; K <= static_cast<size_t>(N); ++K)
        Dot += A[I][K] * R.Z[K];
      EXPECT_LE(Dot.compare(B[I]), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SimplexDimensionSweep,
                         ::testing::Values(1, 2, 4, 7, 9));

//===--------------------------------------------------------------------===//
// SimplexSession: incremental re-solving must be indistinguishable (status,
// solution, objective -- exact Rationals) from one-shot cold solves.
//===--------------------------------------------------------------------===//

/// Margin-maximizing band system in the poly-LP shape: pairs of rows
/// (-a.x + d <= -lo, a.x + d <= hi) plus a cap d <= 5; maximize d.
/// Returns rows/rhs; Bands receives the row index of each band's hi row.
void buildBandSystem(std::mt19937_64 &Rng, size_t N, size_t M, Matrix &A,
                     Vector &B, Vector &C) {
  std::uniform_int_distribution<int> D(-4, 4);
  A.clear();
  B.clear();
  for (size_t I = 0; I < M; ++I) {
    Vector RowHi(N + 1), RowLo(N + 1);
    int64_t Center = D(Rng);
    for (size_t K = 0; K < N; ++K) {
      int64_t V = D(Rng);
      RowHi[K] = Rational(V);
      RowLo[K] = Rational(-V);
    }
    RowHi[N] = RowLo[N] = Rational(1);
    A.push_back(RowLo);
    B.push_back(Rational(-(Center - 5)));
    A.push_back(RowHi);
    B.push_back(Rational(Center + 5));
  }
  Vector Cap(N + 1);
  Cap[N] = Rational(1);
  A.push_back(Cap);
  B.push_back(Rational(5));
  C.assign(N + 1, Rational());
  C[N] = Rational(1);
}

void expectSameResult(const LPResult &Want, const LPResult &Got,
                      const char *Ctx) {
  ASSERT_EQ(Want.StatusCode, Got.StatusCode) << Ctx;
  if (!Want.isOptimal())
    return;
  EXPECT_EQ(Want.Objective, Got.Objective) << Ctx;
  ASSERT_EQ(Want.Z.size(), Got.Z.size()) << Ctx;
  for (size_t K = 0; K < Want.Z.size(); ++K)
    EXPECT_EQ(Want.Z[K], Got.Z[K]) << Ctx << " z" << K;
}

TEST(SimplexSessionTest, FirstSolveMatchesOneShotExactly) {
  // The session's cold path must be the one-shot solver under another
  // name: same status, solution, objective, and pivot sequence.
  std::mt19937_64 Rng(42);
  std::uniform_int_distribution<int> D(-5, 5);
  for (int Trial = 0; Trial < 120; ++Trial) {
    size_t N = 2 + Trial % 4, M = 3 + Trial % 9;
    Matrix A(M, Vector(N));
    Vector B(M), C(N);
    for (auto &Row : A)
      for (auto &V : Row)
        V = Rational(D(Rng));
    for (auto &V : B)
      V = Rational(D(Rng) + 6);
    for (auto &V : C)
      V = Rational(D(Rng));
    LPResult Want = maximizeLP(A, B, C);

    SimplexSession Sess(C);
    for (size_t I = 0; I < M; ++I)
      Sess.addRow(A[I], B[I]);
    LPResult Got = Sess.solve();
    EXPECT_FALSE(Got.Warm);
    EXPECT_EQ(Want.Pivots, Got.Pivots) << "trial " << Trial;
    expectSameResult(Want, Got, "first solve");
  }
}

TEST(SimplexSessionTest, WarmResolvesMatchColdAcrossBoundShrinks) {
  // The generate-check-constrain access pattern: repeated small RHS
  // shrinks followed by re-solves. Every session answer must equal a
  // fresh cold solve of the current system, and warm starts must
  // actually engage (otherwise this test exercises nothing).
  std::mt19937_64 Rng(77);
  uint64_t WarmTotal = 0;
  for (int Trial = 0; Trial < 40; ++Trial) {
    size_t N = 2 + Trial % 4, M = 6 + Trial % 7;
    Matrix A;
    Vector B, C;
    buildBandSystem(Rng, N, M, A, B, C);

    SimplexSession Sess(C);
    std::vector<SimplexSession::RowId> Ids;
    for (size_t I = 0; I < A.size() - 1; ++I)
      Ids.push_back(Sess.addRow(A[I], B[I]));
    Ids.push_back(Sess.addRow(A.back(), B.back(), /*PinLast=*/true));
    expectSameResult(maximizeLP(A, B, C), Sess.solve(), "initial");

    // Shrink a rotating subset of bounds by 1/64 each round.
    Rational Step(BigInt(1), BigInt(64));
    for (int Round = 0; Round < 8; ++Round) {
      for (size_t I = Round % 3; I + 1 < A.size(); I += 3) {
        B[I] = B[I] - Step;
        Sess.updateRow(Ids[I], A[I], B[I]);
      }
      LPResult Got = Sess.solve();
      expectSameResult(maximizeLP(A, B, C), Got,
                       ("round " + std::to_string(Round)).c_str());
      if (!Got.isOptimal())
        break; // Over-shrunk into infeasibility: nothing left to test.
    }
    WarmTotal += Sess.stats().WarmSolves;
  }
  EXPECT_GT(WarmTotal, 50u);
}

TEST(SimplexSessionTest, RetireAndAddRowsMatchOneShotOnLiveSet) {
  std::mt19937_64 Rng(99);
  std::uniform_int_distribution<int> D(-4, 4);
  for (int Trial = 0; Trial < 30; ++Trial) {
    size_t N = 2 + Trial % 3, M = 8 + Trial % 5;
    Matrix A;
    Vector B, C;
    buildBandSystem(Rng, N, M, A, B, C);

    SimplexSession Sess(C);
    std::vector<SimplexSession::RowId> Ids;
    for (size_t I = 0; I + 1 < A.size(); ++I)
      Ids.push_back(Sess.addRow(A[I], B[I]));
    SimplexSession::RowId CapId =
        Sess.addRow(A.back(), B.back(), /*PinLast=*/true);
    (void)CapId;
    Sess.solve();

    // Retire every 4th band pair, append two fresh rows, re-solve, and
    // compare with a one-shot solve over the surviving rows in the same
    // order (retired rows removed, new rows appended before the pinned
    // cap -- exactly the session's canonical column order).
    Matrix LiveA;
    Vector LiveB;
    for (size_t I = 0; I + 1 < A.size(); ++I) {
      if (I % 8 < 2) { // retire the pair (lo+hi rows of every 4th band)
        Sess.retireRow(Ids[I]);
        continue;
      }
      LiveA.push_back(A[I]);
      LiveB.push_back(B[I]);
    }
    for (int Extra = 0; Extra < 2; ++Extra) {
      Vector Row(N + 1);
      for (size_t K = 0; K < N; ++K)
        Row[K] = Rational(D(Rng));
      Row[N] = Rational(1);
      Rational Rhs(D(Rng) + 7);
      Sess.addRow(Row, Rhs);
      LiveA.push_back(Row);
      LiveB.push_back(Rhs);
    }
    LiveA.push_back(A.back());
    LiveB.push_back(B.back());
    EXPECT_EQ(Sess.numLiveRows(), LiveA.size());
    expectSameResult(maximizeLP(LiveA, LiveB, C), Sess.solve(),
                     "after retire+add");
  }
}

//===--------------------------------------------------------------------===//
// Presolve: accepted presolved results must be bit-identical to cold
// solves (the certify-or-repair contract), in every scenario the session
// can encounter -- shrink schedules, infeasible systems, degenerate
// optima, and corrupted hints.
//===--------------------------------------------------------------------===//

/// A presolving session over the rows of \p A / \p B, the last one
/// pinned last (the band systems' cap), hinted with \p Hint. Row ids are
/// insertion positions, so a basis of any session built the same way is
/// a valid hint.
LPResult solveHinted(const Matrix &A, const Vector &B, const Vector &C,
                     const std::vector<SimplexSession::RowId> &Hint,
                     unsigned Threads = 0) {
  SimplexSession Sess(C, Threads);
  Sess.setPresolve(true);
  for (size_t I = 0; I + 1 < A.size(); ++I)
    Sess.addRow(A[I], B[I]);
  Sess.addRow(A.back(), B.back(), /*PinLast=*/true);
  Sess.hintBasis(Hint);
  return Sess.solve();
}

TEST(SimplexSessionTest, PresolveMatchesColdAcrossBoundShrinks) {
  // The same access pattern as the warm differential, but with the
  // presolver enabled and the warm path exercised alongside it: every
  // answer -- the unhinted first solve served by the presolver, re-solves
  // served warm -- must equal a fresh cold solve of the current system.
  // Each round also solves a fresh presolving session hinted with the
  // previous round's basis, the shape of the generator's progressive-
  // degree hint: it must equal the cold solve too, and the hints must
  // save pivots over the trials.
  std::mt19937_64 Rng(1234);
  uint64_t PresolveTotal = 0, AttemptTotal = 0;
  uint64_t HintedSolves = 0, HintedPivots = 0, ColdPivots = 0;
  for (int Trial = 0; Trial < 40; ++Trial) {
    size_t N = 2 + Trial % 4, M = 6 + Trial % 7;
    Matrix A;
    Vector B, C;
    buildBandSystem(Rng, N, M, A, B, C);

    SimplexSession Sess(C);
    Sess.setPresolve(true);
    std::vector<SimplexSession::RowId> Ids;
    for (size_t I = 0; I + 1 < A.size(); ++I)
      Ids.push_back(Sess.addRow(A[I], B[I]));
    Ids.push_back(Sess.addRow(A.back(), B.back(), /*PinLast=*/true));
    LPResult First = Sess.solve();
    EXPECT_FALSE(First.Warm);
    expectSameResult(maximizeLP(A, B, C), First, "initial");

    Rational Step(BigInt(1), BigInt(64));
    for (int Round = 0; Round < 8; ++Round) {
      std::vector<SimplexSession::RowId> Hint = Sess.lastBasisRows();
      for (size_t I = Round % 3; I + 1 < A.size(); I += 3) {
        B[I] = B[I] - Step;
        Sess.updateRow(Ids[I], A[I], B[I]);
      }
      std::string Ctx = "round " + std::to_string(Round);
      LPResult Want = maximizeLP(A, B, C);
      LPResult Got = Sess.solve();
      expectSameResult(Want, Got, Ctx.c_str());
      LPResult Hinted = solveHinted(A, B, C, Hint);
      expectSameResult(Want, Hinted, (Ctx + " hinted").c_str());
      ++HintedSolves;
      HintedPivots += Hinted.Pivots;
      ColdPivots += Want.Pivots;
      if (!Got.isOptimal())
        break;
    }
    PresolveTotal += Sess.stats().PresolveSolves;
    AttemptTotal += Sess.stats().PresolveAttempts;
    // Bookkeeping invariants: every attempt resolves one way, and every
    // solve is attributed exactly once.
    const SimplexSession::Stats &St = Sess.stats();
    EXPECT_EQ(St.PresolveAttempts,
              St.PresolveSolves + St.PresolveFallbacks);
    EXPECT_EQ(St.PresolveSolves,
              St.PresolveCertified + St.PresolveRepaired);
  }
  // The presolver must actually serve solves, and the hinted solves must
  // start closer to the optimum than the artificial basis does, or this
  // differential compares the cold path with itself.
  EXPECT_GT(AttemptTotal, 0u);
  EXPECT_GT(PresolveTotal, 0u);
  EXPECT_GT(HintedSolves, 0u);
  EXPECT_LT(HintedPivots, ColdPivots);
}

TEST(SimplexSessionTest, PresolveOnInfeasibleSystemsMatchesCold) {
  // Infeasibility is a path-independent property of the row set, so a
  // presolved attempt must report it identically to a cold solve -- the
  // hinted basis it primes from is irrelevant to the verdict.
  std::mt19937_64 Rng(555);
  for (int Trial = 0; Trial < 30; ++Trial) {
    size_t N = 2 + Trial % 3;
    Matrix A;
    Vector B, C;
    buildBandSystem(Rng, N, 5 + Trial % 4, A, B, C);
    // The hint: the optimal basis of the feasible band system, whose rows
    // come first in the session below, so their ids agree.
    SimplexSession Band(C);
    for (size_t I = 0; I < A.size(); ++I)
      Band.addRow(A[I], B[I]);
    ASSERT_TRUE(Band.solve().isOptimal());
    std::vector<SimplexSession::RowId> Hint = Band.lastBasisRows();
    ASSERT_FALSE(Hint.empty());
    // Contradiction: z0 + d <= -1 and -z0 + d <= -1 sum to d <= -1,
    // while -d <= -2 demands d >= 2.
    Vector Pin(N + 1), Neg(N + 1), Pos(N + 1);
    Pos[0] = Rational(1);
    Neg[0] = Rational(-1);
    Pin[N] = Rational(-1);
    Pos[N] = Neg[N] = Rational(1);
    A.push_back(Pos);
    B.push_back(Rational(-1));
    A.push_back(Neg);
    B.push_back(Rational(-1));
    A.push_back(Pin);
    B.push_back(Rational(-2));

    LPResult Cold = maximizeLP(A, B, C);

    SimplexSession Sess(C);
    Sess.setPresolve(true);
    for (size_t I = 0; I < A.size(); ++I)
      Sess.addRow(A[I], B[I]);
    Sess.hintBasis(Hint);
    LPResult Got = Sess.solve();
    expectSameResult(Cold, Got, "infeasible system");
    EXPECT_EQ(Got.StatusCode, LPResult::Status::Infeasible);
    EXPECT_TRUE(Got.Presolved);
  }
}

TEST(SimplexSessionTest, PresolveOnDegenerateOptimaFallsBackIdentically) {
  // Degenerate systems (duplicate tight rows through one vertex) defeat
  // the uniqueness certificate, so the presolve path must either accept a
  // provably unique optimum or fall back cold -- and in both cases return
  // the cold answer.
  for (int Shift = 0; Shift < 6; ++Shift) {
    Matrix A = {vec({1, 0}), vec({1, 0}), vec({0, 1}),
                vec({1, 1}), vec({1, 1})};
    Vector B = {Rational(3), Rational(3), Rational(Shift),
                Rational(3 + Shift), Rational(3 + Shift)};
    Vector C = vec({1, 1});
    LPResult Cold = maximizeLP(A, B, C);

    SimplexSession Sess(C);
    Sess.setPresolve(true);
    for (size_t I = 0; I < A.size(); ++I)
      Sess.addRow(A[I], B[I]);
    LPResult Got = Sess.solve();
    expectSameResult(Cold, Got, "degenerate vertex");
    const SimplexSession::Stats &St = Sess.stats();
    EXPECT_EQ(St.PresolveAttempts,
              St.PresolveSolves + St.PresolveFallbacks);
  }
}

TEST(SimplexSessionTest, CorruptedHintsAreRepairedExactly) {
  // hintBasis feeds arbitrary row sets into the exact engine's starting
  // basis. Adversarial hints -- wrong rows, out-of-range ids, duplicates
  // -- may cost exact pivots but can never change the result: priming
  // skips the ids it cannot use, feasibility eviction drops the rows that
  // make the start infeasible, and exact phase 1 repairs the rest.
  std::mt19937_64 Rng(31337);
  for (int Trial = 0; Trial < 25; ++Trial) {
    size_t N = 2 + Trial % 4, M = 6 + Trial % 5;
    Matrix A;
    Vector B, C;
    buildBandSystem(Rng, N, M, A, B, C);

    LPResult Cold = maximizeLP(A, B, C);

    SimplexSession Sess(C);
    Sess.setPresolve(true);
    std::vector<SimplexSession::RowId> Ids;
    for (size_t I = 0; I + 1 < A.size(); ++I)
      Ids.push_back(Sess.addRow(A[I], B[I]));
    Ids.push_back(Sess.addRow(A.back(), B.back(), /*PinLast=*/true));

    // Corrupt hint: every third row, plus duplicates, plus out-of-range
    // ids -- a basis no optimal solve would produce.
    std::vector<SimplexSession::RowId> Hint;
    for (size_t I = 0; I < Ids.size(); I += 3) {
      Hint.push_back(Ids[I]);
      Hint.push_back(Ids[I]);
    }
    Hint.push_back(Ids.size() + 1000);
    Sess.hintBasis(Hint);
    expectSameResult(Cold, Sess.solve(), "corrupted hint");
  }
}

TEST(SimplexSessionTest, PresolveResultsAreThreadCountInvariant) {
  // The determinism contract extends through the presolve path: priming,
  // eviction and the exact repair are exact arithmetic over thread-
  // invariant state, so results and pivot counts must not depend on the
  // thread count.
  std::mt19937_64 Rng(911);
  for (int Trial = 0; Trial < 10; ++Trial) {
    size_t N = 3 + Trial % 3, M = 10;
    Matrix A;
    Vector B, C;
    buildBandSystem(Rng, N, M, A, B, C);

    // The hint: the optimal basis of a neighbor, the same system with
    // every third bound shrunk.
    Vector Shrunk = B;
    for (size_t I = 0; I + 1 < A.size(); I += 3)
      Shrunk[I] = Shrunk[I] - Rational(BigInt(1), BigInt(16));
    SimplexSession Neighbor(C);
    for (size_t I = 0; I + 1 < A.size(); ++I)
      Neighbor.addRow(A[I], Shrunk[I]);
    Neighbor.addRow(A.back(), Shrunk.back(), /*PinLast=*/true);
    Neighbor.solve();
    std::vector<SimplexSession::RowId> Hint = Neighbor.lastBasisRows();

    LPResult T1 = solveHinted(A, B, C, Hint, 1);
    LPResult T4 = solveHinted(A, B, C, Hint, 4);
    expectSameResult(T1, T4, "threads 1 vs 4");
    EXPECT_EQ(T1.Pivots, T4.Pivots) << "trial " << Trial;
    EXPECT_EQ(T1.SetupPivots, T4.SetupPivots) << "trial " << Trial;
    EXPECT_EQ(T1.Presolved, T4.Presolved) << "trial " << Trial;
  }
}

TEST(SimplexSessionTest, WarmResultsAreThreadCountInvariant) {
  // The determinism contract extends to warm re-solves: identical exact
  // results and identical pivot counts for 1, 4, and hardware threads.
  std::mt19937_64 Rng(7);
  for (int Trial = 0; Trial < 12; ++Trial) {
    size_t N = 3 + Trial % 3, M = 10;
    Matrix A;
    Vector B, C;
    buildBandSystem(Rng, N, M, A, B, C);

    auto Run = [&](unsigned Threads) {
      Matrix LA = A;
      Vector LB = B;
      SimplexSession Sess(C, Threads);
      std::vector<SimplexSession::RowId> Ids;
      for (size_t I = 0; I + 1 < LA.size(); ++I)
        Ids.push_back(Sess.addRow(LA[I], LB[I]));
      Sess.addRow(LA.back(), LB.back(), /*PinLast=*/true);
      std::vector<LPResult> Results;
      Results.push_back(Sess.solve());
      Rational Step(BigInt(1), BigInt(32));
      for (int Round = 0; Round < 5; ++Round) {
        for (size_t I = Round % 2; I + 1 < LA.size(); I += 2) {
          LB[I] = LB[I] - Step;
          Sess.updateRow(Ids[I], LA[I], LB[I]);
        }
        Results.push_back(Sess.solve());
      }
      return Results;
    };

    std::vector<LPResult> T1 = Run(1), T4 = Run(4), THw = Run(0);
    ASSERT_EQ(T1.size(), T4.size());
    ASSERT_EQ(T1.size(), THw.size());
    for (size_t R = 0; R < T1.size(); ++R) {
      expectSameResult(T1[R], T4[R], "threads 1 vs 4");
      expectSameResult(T1[R], THw[R], "threads 1 vs hw");
      EXPECT_EQ(T1[R].Pivots, T4[R].Pivots) << "round " << R;
      EXPECT_EQ(T1[R].Pivots, THw[R].Pivots) << "round " << R;
      EXPECT_EQ(T1[R].Warm, T4[R].Warm) << "round " << R;
      EXPECT_EQ(T1[R].Warm, THw[R].Warm) << "round " << R;
    }
  }
}

TEST(SimplexSessionTest, MixedDyadicAndNonDyadicRowsMatchMaximizeLP) {
  // The generator's rows are all dyadic, so its integerization always takes
  // the power-of-two shortcut. Rows mixing dyadic entries with 1/3 and 2/7
  // keep the general lcm path covered: the session must match maximizeLP,
  // and both must reach the optimum of the same LP with every row scaled
  // to integers by the product of its denominators (a positive row scale
  // changes no feasible point), which the integerization cannot alter.
  const Rational Pool[] = {
      Rational(BigInt(1), BigInt(3)),      Rational(BigInt(2), BigInt(7)),
      Rational(BigInt(-5), BigInt(21)),    Rational::fromDouble(0.375),
      Rational::fromDouble(-0x1.8p-40),    Rational::fromDouble(0x1.3p-7),
      Rational(2),                         Rational(-1),
      Rational(BigInt(3), BigInt::pow2(70)), Rational()};
  std::mt19937_64 Rng(2024);
  int Optimal = 0;
  for (int Trial = 0; Trial < 60; ++Trial) {
    size_t N = 2 + Trial % 3, M = 4 + Trial % 7;
    Matrix A(M, Vector(N));
    Vector B(M), C(N);
    for (auto &Row : A)
      for (auto &V : Row)
        V = Pool[Rng() % std::size(Pool)];
    for (auto &V : B)
      V = Pool[Rng() % std::size(Pool)] + Rational(3);
    for (auto &V : C)
      V = Pool[Rng() % std::size(Pool)];
    // Box rows keep most trials bounded.
    for (size_t K = 0; K < N; ++K)
      for (int Sign : {1, -1}) {
        Vector Row(N);
        Row[K] = Rational(Sign);
        A.push_back(Row);
        B.push_back(Trial % 2 ? Rational(BigInt(7), BigInt(3))
                              : Rational::fromDouble(0.625));
      }

    LPResult Want = maximizeLP(A, B, C);
    SimplexSession Sess(C);
    for (size_t I = 0; I < A.size(); ++I)
      Sess.addRow(A[I], B[I]);
    LPResult Got = Sess.solve();
    EXPECT_EQ(Want.Pivots, Got.Pivots) << "trial " << Trial;
    expectSameResult(Want, Got, "mixed rows");

    Matrix IntA = A;
    Vector IntB = B;
    for (size_t I = 0; I < A.size(); ++I) {
      Rational Scale(1);
      for (const Rational &V : A[I])
        Scale *= Rational(V.denominator());
      Scale *= Rational(B[I].denominator());
      for (Rational &V : IntA[I]) {
        V *= Scale;
        ASSERT_TRUE(V.isInteger());
      }
      IntB[I] *= Scale;
    }
    LPResult Int = maximizeLP(IntA, IntB, C);
    ASSERT_EQ(Int.StatusCode, Want.StatusCode) << "trial " << Trial;
    if (!Want.isOptimal())
      continue;
    ++Optimal;
    EXPECT_EQ(Int.Objective, Want.Objective) << "trial " << Trial;
    // Want.Z is feasible for the original rows and attains the objective.
    Rational Obj;
    for (size_t K = 0; K < N; ++K)
      Obj += C[K] * Want.Z[K];
    EXPECT_EQ(Obj, Want.Objective) << "trial " << Trial;
    for (size_t I = 0; I < A.size(); ++I) {
      Rational Dot;
      for (size_t K = 0; K < N; ++K)
        Dot += A[I][K] * Want.Z[K];
      EXPECT_LE(Dot.compare(B[I]), 0) << "trial " << Trial << " row " << I;
    }
  }
  EXPECT_GT(Optimal, 30);
}

TEST(SimplexTest, WidePivotsMatchAcrossThreadCounts) {
  // The generator's LP shape: a degree-6 polynomial's 7 coefficients plus
  // the margin d (N = 8), with bands (-sum c_k T^k + d <= -lo,
  // sum c_k T^k + d <= hi) around 1 / (1 + T) at doubles T. The powers of T
  // integerize to entries of hundreds of bits and the basis denominator
  // to thousands, so at 4 threads the pivot update fans out on the pool
  // and at 1 it runs serially: Z, the pivot count and the exact-pricing
  // count must be identical.
  const size_t Degree = 6, N = Degree + 2;
  std::mt19937_64 Rng(99);
  Matrix A;
  Vector B;
  for (int I = 0; I < 64; ++I) {
    double T = std::ldexp(static_cast<double>(Rng() >> 11), -54);
    double Y = 1.0 / (1.0 + T); // IEEE division: the same on every host.
    Vector RowLo(N), RowHi(N);
    Rational TR = Rational::fromDouble(T), Pow(1);
    for (size_t K = 0; K <= Degree; ++K) {
      RowHi[K] = Pow;
      RowLo[K] = -Pow;
      Pow *= TR;
    }
    RowHi[N - 1] = RowLo[N - 1] = Rational(1);
    A.push_back(RowLo);
    B.push_back(-Rational::fromDouble(Y - 0x1p-30));
    A.push_back(RowHi);
    B.push_back(Rational::fromDouble(Y + 0x1p-30));
  }
  Vector C(N);
  C[N - 1] = Rational(1);

  LPResult Serial = maximizeLP(A, B, C, 1);
  LPResult Pooled = maximizeLP(A, B, C, 4);
  ASSERT_TRUE(Serial.isOptimal());
  expectSameResult(Serial, Pooled, "threads 1 vs 4");
  EXPECT_EQ(Serial.Pivots, Pooled.Pivots);
  EXPECT_EQ(Serial.ExactPricings, Pooled.ExactPricings);
  // Each Z_k is y_k / P times an integer row scale, so its reduced
  // denominator divides the final P: a lower bound on how wide the basis
  // got (16 limbs is where the pivot update starts fanning out).
  unsigned DenBits = 0;
  for (const Rational &Z : Serial.Z)
    DenBits = std::max(DenBits, Z.denominator().bitLength());
  EXPECT_GE(DenBits, 1000u);
}

} // namespace
