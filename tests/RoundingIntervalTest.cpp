//===- tests/RoundingIntervalTest.cpp - Interval machinery tests ----------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RoundingInterval.h"

#include "core/PolyGen.h"
#include "oracle/OracleCache.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

using namespace rfp;

namespace {

/// The referee: inferPolyInterval as a walk of one nextafter step at a
/// time (RLIBM-32's AdjLower/AdjHigher with a 128-step cap), the form the
/// bisection must reproduce bit for bit. Capped is set as the library sets
/// it: a valid interval with a bound whose outward walk ran to the cap.
HInterval walkPolyInterval(ElemFunc F, const libm::Reduction &R, double Lo,
                           double Hi) {
  auto OC = [&](double V) { return libm::outputCompensate(F, V, R); };
  double Alpha0, Beta0;
  switch (F) {
  case ElemFunc::Exp:
  case ElemFunc::Exp2:
  case ElemFunc::Exp10: {
    double Scale = libm::tables::Exp2Table[R.J] * libm::pow2Double(R.N);
    Alpha0 = Lo / Scale;
    Beta0 = Hi / Scale;
    break;
  }
  case ElemFunc::Log2: {
    double S = static_cast<double>(R.N) + libm::tables::Log2FTable[R.J];
    Alpha0 = Lo - S;
    Beta0 = Hi - S;
    break;
  }
  case ElemFunc::Log: {
    double S = std::fma(static_cast<double>(R.N), libm::tables::Ln2,
                        libm::tables::LnFTable[R.J]);
    Alpha0 = Lo - S;
    Beta0 = Hi - S;
    break;
  }
  case ElemFunc::Log10: {
    double S = std::fma(static_cast<double>(R.N), libm::tables::Log10_2,
                        libm::tables::Log10FTable[R.J]);
    Alpha0 = Lo - S;
    Beta0 = Hi - S;
    break;
  }
  }

  HInterval Out;
  constexpr int MaxAdjust = 128;
  bool Capped = false;

  double Alpha = Alpha0;
  int Steps = 0;
  if (OC(Alpha) >= Lo) {
    bool Stopped = false;
    while (Steps++ < MaxAdjust) {
      double Prev = std::nextafter(Alpha, -HUGE_VAL);
      if (OC(Prev) < Lo) {
        Stopped = true;
        break;
      }
      Alpha = Prev;
    }
    Capped |= !Stopped;
  } else {
    while (Steps++ < MaxAdjust && OC(Alpha) < Lo)
      Alpha = std::nextafter(Alpha, HUGE_VAL);
    if (OC(Alpha) < Lo)
      return Out;
  }

  double Beta = Beta0;
  Steps = 0;
  if (OC(Beta) <= Hi) {
    bool Stopped = false;
    while (Steps++ < MaxAdjust) {
      double Next = std::nextafter(Beta, HUGE_VAL);
      if (OC(Next) > Hi) {
        Stopped = true;
        break;
      }
      Beta = Next;
    }
    Capped |= !Stopped;
  } else {
    while (Steps++ < MaxAdjust && OC(Beta) > Hi)
      Beta = std::nextafter(Beta, -HUGE_VAL);
    if (OC(Beta) > Hi)
      return Out;
  }

  if (Alpha > Beta || OC(Alpha) > Hi || OC(Beta) < Lo)
    return Out;
  Out.Lo = Alpha;
  Out.Hi = Beta;
  Out.Valid = true;
  Out.Capped = Capped;
  return Out;
}

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}

/// Bit-for-bit equality of two inferred intervals: the sign of a zero and
/// a NaN's payload count.
::testing::AssertionResult sameInterval(const HInterval &Got,
                                        const HInterval &Want) {
  if (Got.Valid == Want.Valid && bitsOf(Got.Lo) == bitsOf(Want.Lo) &&
      bitsOf(Got.Hi) == bitsOf(Want.Hi) && Got.Capped == Want.Capped)
    return ::testing::AssertionSuccess();
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "got [%a, %a] valid %d capped %d, walk gives [%a, %a] valid "
                "%d capped %d",
                Got.Lo, Got.Hi, Got.Valid, Got.Capped, Want.Lo, Want.Hi,
                Want.Valid, Want.Capped);
  return ::testing::AssertionFailure() << Buf;
}

libm::Reduction synthetic(int N, int J) {
  libm::Reduction R{};
  R.PolyPath = true;
  R.N = N;
  R.J = J;
  return R;
}

TEST(RoundingIntervalTest, OddValueGetsOpenNeighbourInterval) {
  FPFormat F34 = FPFormat::fp34();
  // 1 + 2^-25 is the successor of 1.0 in FP34 and has an odd encoding.
  double Y = 1.0 + 0x1p-25;
  ASSERT_TRUE(F34.isRepresentable(Y));
  HInterval I = roundingIntervalRO(Y, F34);
  ASSERT_TRUE(I.Valid);
  EXPECT_GT(I.Lo, 1.0);
  EXPECT_LT(I.Hi, 1.0 + 0x1p-24);
  EXPECT_LE(I.Lo, Y);
  EXPECT_GE(I.Hi, Y);
  // The interval is maximal: one double below Lo (or above Hi) leaves it.
  EXPECT_EQ(std::nextafter(I.Lo, -HUGE_VAL), 1.0);
  EXPECT_EQ(std::nextafter(I.Hi, HUGE_VAL), 1.0 + 0x1p-24);
}

TEST(RoundingIntervalTest, EvenValueIsSingleton) {
  FPFormat F34 = FPFormat::fp34();
  HInterval I = roundingIntervalRO(1.0, F34);
  ASSERT_TRUE(I.Valid);
  EXPECT_TRUE(I.isSingleton());
  EXPECT_EQ(I.Lo, 1.0);
}

TEST(RoundingIntervalTest, EveryPointRoundsBack) {
  // Property: every double sampled inside [Lo, Hi] rounds (RO, FP34) to
  // exactly the value the interval was built for.
  FPFormat F34 = FPFormat::fp34();
  std::mt19937_64 Rng(1);
  for (int T = 0; T < 3000; ++T) {
    double V = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                          static_cast<int>(Rng() % 100) - 80);
    if (!std::isfinite(V) || V == 0.0)
      continue;
    double Y = F34.decode(F34.roundDouble(V, RoundingMode::ToOdd));
    if (std::isinf(Y))
      continue;
    HInterval I = roundingIntervalRO(Y, F34);
    ASSERT_TRUE(I.Valid);
    EXPECT_LE(I.Lo, V);
    EXPECT_GE(I.Hi, V);
    for (double Frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      double P = I.Lo + Frac * (I.Hi - I.Lo);
      if (P < I.Lo || P > I.Hi)
        continue;
      EXPECT_EQ(F34.decode(F34.roundDouble(P, RoundingMode::ToOdd)), Y);
    }
    // Just outside rounds elsewhere (when the boundary is not +-max).
    if (!I.isSingleton()) {
      double Below = std::nextafter(I.Lo, -HUGE_VAL);
      EXPECT_NE(F34.decode(F34.roundDouble(Below, RoundingMode::ToOdd)), Y);
    }
  }
}

TEST(RoundingIntervalTest, SubnormalBoundary) {
  FPFormat F34 = FPFormat::fp34();
  double MinSub = F34.minSubnormal(); // odd encoding (0x...1)
  HInterval I = roundingIntervalRO(MinSub, F34);
  ASSERT_TRUE(I.Valid);
  EXPECT_GT(I.Lo, 0.0);
  EXPECT_LT(I.Hi, 2 * MinSub);
  EXPECT_EQ(F34.decode(F34.roundDouble(I.Lo, RoundingMode::ToOdd)), MinSub);
}

TEST(InferenceTest, ExpFamilyRoundTrip) {
  // For exp-family reductions: every v in the inferred [Alpha, Beta]
  // compensates into [Lo, Hi], and the interval is maximal unless a bound
  // stopped at the adjustment's step cap.
  std::mt19937_64 Rng(2);
  FPFormat F34 = FPFormat::fp34();
  int Checked = 0;
  for (int T = 0; T < 100000 && Checked < 2000; ++T) {
    uint32_t Bits = static_cast<uint32_t>(Rng());
    float X;
    std::memcpy(&X, &Bits, sizeof(X));
    if (!std::isfinite(X))
      continue;
    libm::Reduction R = libm::reduceInput(ElemFunc::Exp, X);
    if (!R.PolyPath)
      continue;
    ++Checked;
    // Build a plausible target interval around e^x.
    double Y = F34.decode(
        F34.roundDouble(std::exp(static_cast<double>(X)), RoundingMode::ToOdd));
    if (std::isinf(Y) || Y == 0.0)
      continue;
    HInterval HI = roundingIntervalRO(Y, F34);
    HInterval PI = inferPolyInterval(ElemFunc::Exp, R, HI.Lo, HI.Hi);
    if (!PI.Valid)
      continue; // narrow interval; the generator would special-case
    for (double V : {PI.Lo, 0.5 * (PI.Lo + PI.Hi), PI.Hi}) {
      double Out = libm::outputCompensate(ElemFunc::Exp, V, R);
      EXPECT_GE(Out, HI.Lo) << X;
      EXPECT_LE(Out, HI.Hi) << X;
    }
    // Maximality: one ulp outside the inferred interval lands outside.
    // A capped interval may stop inside a plateau of the compensation
    // (adjacent poly values rounding to the same double) that is wider
    // than the 128-step window; there the next double out compensates to
    // the bound's own value.
    double Below = std::nextafter(PI.Lo, -HUGE_VAL);
    double OutBelow = libm::outputCompensate(ElemFunc::Exp, Below, R);
    double Above = std::nextafter(PI.Hi, HUGE_VAL);
    double OutAbove = libm::outputCompensate(ElemFunc::Exp, Above, R);
    if (!PI.Capped) {
      EXPECT_LT(OutBelow, HI.Lo) << X;
      EXPECT_GT(OutAbove, HI.Hi) << X;
      continue;
    }
    EXPECT_TRUE(OutBelow < HI.Lo ||
                OutBelow == libm::outputCompensate(ElemFunc::Exp, PI.Lo, R));
    EXPECT_TRUE(OutAbove > HI.Hi ||
                OutAbove == libm::outputCompensate(ElemFunc::Exp, PI.Hi, R));
  }
  EXPECT_GE(Checked, 500);
}

TEST(InferenceTest, LogFamilyRoundTrip) {
  std::mt19937_64 Rng(3);
  FPFormat F34 = FPFormat::fp34();
  int Checked = 0, Capped = 0;
  for (int T = 0; T < 100000 && Checked < 2000; ++T) {
    uint32_t Bits = static_cast<uint32_t>(Rng()) & 0x7fffffff;
    float X;
    std::memcpy(&X, &Bits, sizeof(X));
    if (!std::isfinite(X) || X <= 0)
      continue;
    libm::Reduction R = libm::reduceInput(ElemFunc::Log2, X);
    if (!R.PolyPath)
      continue;
    ++Checked;
    double Y = F34.decode(F34.roundDouble(std::log2(static_cast<double>(X)),
                                          RoundingMode::ToOdd));
    HInterval HI = roundingIntervalRO(Y, F34);
    HInterval PI = inferPolyInterval(ElemFunc::Log2, R, HI.Lo, HI.Hi);
    if (!PI.Valid)
      continue;
    for (double V : {PI.Lo, PI.Hi}) {
      double Out = libm::outputCompensate(ElemFunc::Log2, V, R);
      EXPECT_GE(Out, HI.Lo) << X;
      EXPECT_LE(Out, HI.Hi) << X;
    }
    // The log family's compensation adds e + log2(F), which absorbs far
    // more than 128 steps of a small polynomial value: almost every bound
    // stops at the cap, and only an uncapped interval is maximal.
    Capped += PI.Capped;
    if (!PI.Capped) {
      EXPECT_LT(libm::outputCompensate(ElemFunc::Log2,
                                       std::nextafter(PI.Lo, -HUGE_VAL), R),
                HI.Lo)
          << X;
      EXPECT_GT(libm::outputCompensate(ElemFunc::Log2,
                                       std::nextafter(PI.Hi, HUGE_VAL), R),
                HI.Hi)
          << X;
    }
  }
  EXPECT_GE(Checked, 500);
  EXPECT_GT(Capped, 0);
}

TEST(InferenceTest, EmptyIntervalReported) {
  // A zero-width target on a multiplicative compensation whose scale
  // cannot hit it exactly must come back invalid.
  libm::Reduction R{};
  R.PolyPath = true;
  R.T = 0.01;
  R.N = 0;
  R.J = 5; // scale = 2^(5/16), irrational
  double Target = 1.2345678901234567;
  HInterval PI = inferPolyInterval(ElemFunc::Exp2, R, Target, Target);
  // Either a valid singleton that compensates exactly, or invalid.
  if (PI.Valid) {
    EXPECT_EQ(libm::outputCompensate(ElemFunc::Exp2, PI.Lo, R), Target);
  } else {
    SUCCEED();
  }
}

TEST(InferenceTest, BisectionMatchesTheWalkOnEveryRecord) {
  // Every poly-path record the generator derives at a coarse sample
  // (stride 1048573, boundary windows of 64) for all six functions: the
  // oracle's round-to-odd interval pushed through the bisection and
  // through the walk.
  constexpr uint32_t Stride = 1048573, Window = 64;
  const FPFormat F34 = FPFormat::fp34();
  for (ElemFunc F : AllElemFuncs) {
    std::vector<uint32_t> Bits = windowOnlyBits(windowAnchors(F), Window,
                                                Stride);
    for (uint64_t B = 0; B <= 0xFFFFFFFFull; B += Stride)
      Bits.push_back(static_cast<uint32_t>(B));
    struct Tally {
      uint64_t Records = 0, Mismatches = 0, Capped = 0;
    };
    Tally T = parallelReduce<Tally>(
        Bits.size(), Tally(),
        [&](size_t Begin, size_t End) {
          Tally C;
          for (size_t I = Begin; I < End; ++I) {
            float X;
            std::memcpy(&X, &Bits[I], sizeof(X));
            if (std::isnan(X))
              continue;
            libm::Reduction R = libm::reduceInput(F, X);
            if (!R.PolyPath)
              continue;
            HInterval HI = roundingIntervalROEnc(
                oracle_cache::evalToOdd34(F, Bits[I]), F34);
            HInterval Got = inferPolyInterval(F, R, HI.Lo, HI.Hi);
            HInterval Want = walkPolyInterval(F, R, HI.Lo, HI.Hi);
            ++C.Records;
            C.Capped += Want.Capped;
            ::testing::AssertionResult Same = sameInterval(Got, Want);
            if (!Same && ++C.Mismatches <= 3)
              ADD_FAILURE() << elemFuncName(F) << " x bits 0x" << std::hex
                            << Bits[I] << ": " << Same.message();
          }
          return C;
        },
        [](Tally A, Tally B) {
          return Tally{A.Records + B.Records, A.Mismatches + B.Mismatches,
                       A.Capped + B.Capped};
        });
    EXPECT_EQ(T.Mismatches, 0u) << elemFuncName(F);
    EXPECT_GT(T.Records, 5000u) << elemFuncName(F);
    // The log family's bounds stop at the cap almost always; the exp
    // family's rarely.
    if (isExpFamily(F))
      EXPECT_LT(T.Capped * 20, T.Records) << elemFuncName(F);
    else
      EXPECT_GT(T.Capped * 10, T.Records * 9) << elemFuncName(F);
  }
  oracle_cache::clear();
}

TEST(InferenceTest, BisectionMatchesTheWalkAtTheEdges) {
  // Synthesized reductions whose walks leave the common path: through
  // zero, into and out of the infinities, from a NaN, onto a single
  // double, and out of the window without reaching the target.
  const double Inf = HUGE_VAL, Max = DBL_MAX, Den = 0x1p-1074;
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char *What;
    ElemFunc F;
    int N, J;
    double Lo, Hi;
  };
  const Case Cases[] = {
      // OC(v) = v / 8: Alpha walks down from +0.0 through -0.0's gap to
      // -4 denormals; Beta stops at 11 denormals.
      {"crosses zero going down", ElemFunc::Exp2, -3, 0, 0.0, Den},
      // S = 1 swallows every small v: both walks cross or leave zero and
      // run to the cap around a singleton target.
      {"singleton across zero", ElemFunc::Log2, 1, 0, 1.0, 1.0},
      {"signed zeros", ElemFunc::Exp2, 0, 0, -0.0, 0.0},
      {"negative zero bound", ElemFunc::Exp, 0, 0, -0.0, -0.0},
      {"exact singleton", ElemFunc::Exp2, 0, 0, 1.0, 1.0},
      {"singleton between doubles", ElemFunc::Exp2, 0, 5,
       1.2345678901234567, 1.2345678901234567},
      // roundingIntervalRO's clamps next to the format's infinities.
      {"-DBL_MAX to DBL_MAX, log", ElemFunc::Log, 3, 7, -Max, Max},
      {"-DBL_MAX to DBL_MAX, log10", ElemFunc::Log10, -20, 31, -Max, Max},
      {"-DBL_MAX from -inf", ElemFunc::Exp, -1, 0, -Max, 1.0},
      {"DBL_MAX into inf", ElemFunc::Log2, 5, 3, 2.0, Max},
      {"infinite bounds", ElemFunc::Log2, -7, 9, -Inf, Inf},
      {"infinite bounds, exp", ElemFunc::Exp10, 4, 2, -Inf, Inf},
      {"inf singleton", ElemFunc::Log, 0, 0, Inf, Inf},
      {"near DBL_MAX", ElemFunc::Exp, 0, 0, std::nextafter(Max, 0.0), Max},
      // Exp2Table[15] * v overflows before the 2^-2 scale, so every double
      // near DBL_MAX compensates to inf: the high walk cannot get inside
      // DBL_MAX within the window, and the low walk from -inf cannot get
      // above -DBL_MAX.
      {"unreachable from above", ElemFunc::Exp2, -2, 15, Max / 2, Max},
      {"unreachable from below", ElemFunc::Exp2, -2, 15, -Max, -Max / 2},
      {"NaN low bound", ElemFunc::Exp2, 0, 0, NaN, 1.5},
      {"NaN high bound", ElemFunc::Log, 2, 4, 1.0, NaN},
      {"NaN bounds", ElemFunc::Log10, 2, 4, NaN, NaN},
      {"reversed bounds", ElemFunc::Exp, 3, 8, 2.0, 1.0},
  };
  for (const Case &C : Cases) {
    libm::Reduction R = synthetic(C.N, C.J);
    EXPECT_TRUE(sameInterval(inferPolyInterval(C.F, R, C.Lo, C.Hi),
                             walkPolyInterval(C.F, R, C.Lo, C.Hi)))
        << C.What;
  }

  // Spot checks that the cases reach the paths they are named for.
  auto Infer = [&](const char *What) {
    for (const Case &C : Cases)
      if (std::strcmp(C.What, What) == 0)
        return inferPolyInterval(C.F, synthetic(C.N, C.J), C.Lo, C.Hi);
    ADD_FAILURE() << "no case " << What;
    return HInterval();
  };
  HInterval Z = Infer("crosses zero going down");
  EXPECT_TRUE(Z.Valid && !Z.Capped);
  EXPECT_EQ(Z.Lo, -4 * Den);
  EXPECT_EQ(Z.Hi, 11 * Den);
  HInterval S = Infer("singleton across zero");
  EXPECT_TRUE(S.Valid && S.Capped);
  EXPECT_EQ(S.Lo, -128 * Den);
  EXPECT_EQ(S.Hi, 128 * Den);
  HInterval NZ = Infer("signed zeros");
  EXPECT_TRUE(NZ.Valid);
  EXPECT_TRUE(std::signbit(NZ.Lo) && NZ.Lo == 0.0);
  EXPECT_TRUE(!std::signbit(NZ.Hi) && NZ.Hi == 0.0);
  EXPECT_FALSE(Infer("unreachable from above").Valid);
  EXPECT_FALSE(Infer("unreachable from below").Valid);
  HInterval N = Infer("NaN low bound");
  EXPECT_TRUE(N.Valid && std::isnan(N.Lo) && N.Hi == 1.5);
  HInterval I = Infer("infinite bounds");
  EXPECT_TRUE(I.Valid && I.Capped && I.Lo == -Inf && I.Hi == Inf);

  // Then a seeded fuzz over every function: table indices and scale
  // exponents across their whole range, bounds drawn near the values the
  // walks find hard (zero, the denormals, DBL_MAX, the infinities, NaN)
  // and near the compensation of ordinary polynomial values.
  std::mt19937_64 Rng(25);
  auto Near = [&](double X) {
    int K = static_cast<int>(Rng() % 401) - 200;
    for (; K > 0; --K)
      X = std::nextafter(X, Inf);
    for (; K < 0; ++K)
      X = std::nextafter(X, -Inf);
    return X;
  };
  int Compared = 0;
  for (ElemFunc F : AllElemFuncs) {
    for (int T = 0; T < 4000; ++T) {
      bool Exp = isExpFamily(F);
      int N = Exp ? static_cast<int>(Rng() % 2046) - 1022
                  : static_cast<int>(Rng() % 300) - 150;
      int J = static_cast<int>(Rng() % (Exp ? 16 : 32));
      libm::Reduction R = synthetic(N, J);
      double Poly = std::ldexp(static_cast<double>(Rng() % 2001) - 1000.0,
                               static_cast<int>(Rng() % 80) - 70);
      double Pool[] = {0.0,  -0.0, Den,  -Den, Max, -Max,
                       Inf,  -Inf, NaN,  1.0,  -1.0,
                       libm::outputCompensate(F, Poly, R)};
      auto Pick = [&] {
        double X = Pool[Rng() % (sizeof(Pool) / sizeof(Pool[0]))];
        return Rng() % 4 == 0 ? X : Near(X);
      };
      double Lo = Pick(), Hi = Pick();
      if (Rng() % 2 && Hi < Lo)
        std::swap(Lo, Hi);
      ASSERT_TRUE(sameInterval(inferPolyInterval(F, R, Lo, Hi),
                               walkPolyInterval(F, R, Lo, Hi)))
          << elemFuncName(F) << " N=" << N << " J=" << J << " Lo=" << Lo
          << " Hi=" << Hi;
      ++Compared;
    }
  }
  EXPECT_EQ(Compared, 6 * 4000);
}

} // namespace
