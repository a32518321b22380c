//===- tests/FPFormatTest.cpp - FP format and rounding tests --------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fp/FPFormat.h"

#include "RoundingCases.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

using namespace rfp;

namespace {

TEST(FPFormatTest, BasicParameters) {
  FPFormat F32 = FPFormat::float32();
  EXPECT_EQ(F32.totalBits(), 32u);
  EXPECT_EQ(F32.expBits(), 8u);
  EXPECT_EQ(F32.mantBits(), 23u);
  EXPECT_EQ(F32.precision(), 24u);
  EXPECT_EQ(F32.bias(), 127);
  EXPECT_EQ(F32.minExp(), -126);
  EXPECT_EQ(F32.maxExp(), 127);
  EXPECT_EQ(F32.maxFinite(), static_cast<double>(FLT_MAX));
  EXPECT_EQ(F32.minSubnormal(), 0x1p-149);

  FPFormat F34 = FPFormat::fp34();
  EXPECT_EQ(F34.precision(), 26u);
  EXPECT_EQ(F34.minSubnormal(), 0x1p-151);

  FPFormat BF16 = FPFormat::bfloat16();
  EXPECT_EQ(BF16.mantBits(), 7u);
  EXPECT_EQ(FPFormat::tensorfloat32().mantBits(), 10u);
}

TEST(FPFormatTest, DecodeSpecials) {
  FPFormat F = FPFormat::withBits(16); // FP(16,8) = bfloat16 layout
  EXPECT_TRUE(std::isinf(F.decode(F.plusInf())));
  EXPECT_GT(F.decode(F.plusInf()), 0.0);
  EXPECT_LT(F.decode(F.minusInf()), 0.0);
  EXPECT_TRUE(std::isnan(F.decode(F.quietNaN())));
  EXPECT_EQ(F.decode(0), 0.0);
  EXPECT_TRUE(std::signbit(F.decode(1ull << 15)));
}

TEST(FPFormatTest, NarrowFormatsNestInWiderOnes) {
  // FP(k, 8) encoding j and FP(w, 8) encoding j << (w - k) are the same
  // value, bit for bit, NaNs included (both decode to the canonical NaN):
  // the nesting that lets the verification engine sweep every exhaustive
  // format of a function on its widest format's inputs.
  unsigned Failures = 0;
  auto ExpectNested = [&](unsigned K, unsigned W, uint64_t J) {
    const double Narrow = FPFormat::withBits(K).decode(J);
    const double Wide = FPFormat::withBits(W).decode(J << (W - K));
    uint64_t NB, WB;
    std::memcpy(&NB, &Narrow, sizeof(NB));
    std::memcpy(&WB, &Wide, sizeof(WB));
    if (NB != WB && Failures++ < 8)
      ADD_FAILURE() << "FP(" << K << ") encoding 0x" << std::hex << J
                    << " is not FP(" << std::dec << W << ") encoding 0x"
                    << std::hex << (J << (W - K));
  };
  for (unsigned K = 10; K <= 15; ++K)
    for (uint64_t J = 0; J < (1ull << K); ++J)
      ExpectNested(K, 16, J);
  for (unsigned K = 10; K <= 16; ++K)
    for (uint64_t J = 0; J < (1ull << K); ++J)
      ExpectNested(K, 32, J);
  std::mt19937_64 Rng(19);
  for (unsigned K = 17; K <= 31; ++K) {
    const FPFormat F = FPFormat::withBits(K);
    for (uint64_t J : {F.quietNaN(), F.plusInf(), F.minusInf(),
                       uint64_t{(1ull << K) - 1}})
      ExpectNested(K, 32, J);
    for (int T = 0; T < 20000; ++T)
      ExpectNested(K, 32, Rng() & ((1ull << K) - 1));
  }
  EXPECT_EQ(Failures, 0u);
  EXPECT_TRUE(std::isnan(FPFormat::withBits(12).decode(
      FPFormat::withBits(12).quietNaN())));
}

TEST(FPFormatTest, Float32MatchesHardwareEncoding) {
  // Every decoded FP(32,8) encoding equals the float with the same bits.
  FPFormat F = FPFormat::float32();
  std::mt19937_64 Rng(1);
  for (int T = 0; T < 20000; ++T) {
    uint32_t Bits = static_cast<uint32_t>(Rng());
    float HW;
    std::memcpy(&HW, &Bits, sizeof(HW));
    double Mine = F.decode(Bits);
    if (std::isnan(HW)) {
      EXPECT_TRUE(std::isnan(Mine));
      continue;
    }
    EXPECT_EQ(Mine, static_cast<double>(HW)) << Bits;
  }
}

TEST(FPFormatTest, RoundNearestMatchesHardwareCast) {
  FPFormat F = FPFormat::float32();
  std::mt19937_64 Rng(2);
  for (int T = 0; T < 50000; ++T) {
    double V = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                          static_cast<int>(Rng() % 120) - 90);
    float HW = static_cast<float>(V);
    double Mine = F.decode(F.roundDouble(V, RoundingMode::NearestEven));
    if (std::isnan(HW))
      continue;
    EXPECT_EQ(Mine, static_cast<double>(HW)) << V;
  }
}

TEST(FPFormatTest, DirectedRoundingMatchesFesetround) {
  // Cross-check rz/ru/rd against the hardware double->float conversion
  // with the FP environment switched.
  FPFormat F = FPFormat::float32();
  struct ModePair {
    RoundingMode Mine;
    int Fe;
  } Modes[] = {{RoundingMode::TowardZero, FE_TOWARDZERO},
               {RoundingMode::Upward, FE_UPWARD},
               {RoundingMode::Downward, FE_DOWNWARD}};
  std::mt19937_64 Rng(3);
  for (const ModePair &M : Modes) {
    std::fesetround(M.Fe);
    for (int T = 0; T < 20000; ++T) {
      double V = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                            static_cast<int>(Rng() % 140) - 100);
      volatile float HW = static_cast<float>(V);
      double Mine = F.decode(F.roundDouble(V, M.Mine));
      EXPECT_EQ(Mine, static_cast<double>(HW))
          << V << " mode " << roundingModeName(M.Mine);
    }
    std::fesetround(FE_TONEAREST);
  }
}

TEST(FPFormatTest, RoundExactValuesIdentity) {
  // Rounding a representable value is the identity in every mode.
  FPFormat F = FPFormat::withBits(14);
  for (uint64_t Enc = 0; Enc < F.encodingCount(); ++Enc) {
    if (!F.isFinite(Enc))
      continue;
    double V = F.decode(Enc);
    for (RoundingMode M : StandardRoundingModes)
      EXPECT_EQ(F.decode(F.roundDouble(V, M)), V);
    EXPECT_EQ(F.decode(F.roundDouble(V, RoundingMode::ToOdd)), V);
  }
}

TEST(FPFormatTest, RoundToOddTargetsOddEncodings) {
  // Inexact finite roundings must land on odd encodings.
  FPFormat F = FPFormat::withBits(12);
  std::mt19937_64 Rng(4);
  for (int T = 0; T < 20000; ++T) {
    double V = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                          static_cast<int>(Rng() % 80) - 60);
    if (V == 0.0 || !std::isfinite(V))
      continue;
    uint64_t Enc = F.roundDouble(V, RoundingMode::ToOdd);
    if (F.isFinite(Enc) && F.decode(Enc) != V)
      EXPECT_TRUE(F.encodingIsOdd(Enc)) << V;
  }
}

/// The RLibm-All theorem (paper Section 2.2, Figure 5): rounding to
/// FP(n+2) with round-to-odd and then to any FP(k), 10 <= k <= n, under
/// any standard mode equals direct rounding. The verification engine
/// relies on its k = n case: H and RO_34 that round to odd alike at
/// FP(k+2, 8) round alike at FP(k, 8) in every mode. So every n = 10..32
/// is checked with k = n among the narrow formats, on random values, the
/// boundary inputs of FP(n) and FP(n+2) (subnormals, overflow, +-inf and
/// NaN included) and, for n <= 14, every FP(n+2) value and midpoint with
/// their double neighbours.
class DoubleRoundingTest : public ::testing::TestWithParam<int> {};

TEST_P(DoubleRoundingTest, RoundToOddCommutesWithNarrowing) {
  const int N = GetParam();
  const FPFormat Wide(N + 2, 8);
  std::vector<double> Vs;
  std::mt19937_64 Rng(100 + N);
  for (int T = 0; T < 40000; ++T)
    Vs.push_back(std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                            static_cast<int>(Rng() % 90) - 70));
  for (const FPFormat &F : {FPFormat(N, 8), Wide})
    for (double V : roundcases::inputs(F))
      Vs.push_back(V);
  if (N <= 14) {
    const double Inf = std::numeric_limits<double>::infinity();
    for (uint64_t E = 0; E < Wide.encodingCount(); ++E) {
      if (!Wide.isFinite(E))
        continue;
      const double V = Wide.decode(E);
      const double A = std::fabs(V);
      const double Mid = std::copysign((A + Wide.succValue(A)) / 2, V);
      for (double X : {V, Mid})
        for (double Y : {std::nextafter(X, -Inf), X, std::nextafter(X, Inf)})
          Vs.push_back(Y);
    }
  }

  std::vector<int> Ks;
  for (int K = 10; K < N; K += 3)
    Ks.push_back(K);
  Ks.push_back(N);
  unsigned Failures = 0;
  for (double V : Vs) {
    const double RO = Wide.decode(Wide.roundDouble(V, RoundingMode::ToOdd));
    for (int K : Ks) {
      const FPFormat Narrow(static_cast<unsigned>(K), 8);
      for (RoundingMode M : StandardRoundingModes)
        if (Narrow.roundDouble(V, M) != Narrow.roundDouble(RO, M) &&
            Failures++ < 8)
          ADD_FAILURE() << "n=" << N << " k=" << K << " v=" << std::hexfloat
                        << V << " mode " << roundingModeName(M);
    }
  }
  EXPECT_EQ(Failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(WideWidths, DoubleRoundingTest,
                         ::testing::Range(10, 33));

/// Counter-property (paper Figure 3): double rounding through nearest-even
/// (instead of round-to-odd) does NOT commute; failures must exist.
TEST(FPFormatTest, NearestEvenDoubleRoundingFails) {
  FPFormat Wide(18, 8), Narrow(16, 8);
  std::mt19937_64 Rng(6);
  int Failures = 0;
  for (int T = 0; T < 200000; ++T) {
    double V = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                          static_cast<int>(Rng() % 40) - 40);
    if (!std::isfinite(V))
      continue;
    double RN2 = Wide.decode(Wide.roundDouble(V, RoundingMode::NearestEven));
    if (std::isinf(RN2))
      continue;
    if (Narrow.roundDouble(V, RoundingMode::NearestEven) !=
        Narrow.roundDouble(RN2, RoundingMode::NearestEven))
      ++Failures;
  }
  EXPECT_GT(Failures, 0) << "double rounding through rn should misround";
}

TEST(FPFormatTest, SuccPredWalkCoversFormat) {
  FPFormat F = FPFormat::withBits(11);
  double V = -F.maxFinite();
  uint64_t Steps = 0;
  while (V < F.maxFinite() && Steps < F.encodingCount()) {
    double Next = F.succValue(V);
    EXPECT_GT(Next, V);
    EXPECT_EQ(F.predValue(Next), V) << V;
    V = Next;
    ++Steps;
  }
  EXPECT_EQ(V, F.maxFinite());
  EXPECT_GT(Steps, F.encodingCount() / 2);
}

TEST(FPFormatTest, RoundRationalAgreesWithRoundDouble) {
  // roundDouble (bit extraction) and roundRational (exact quotient) share
  // roundCore, so they must agree on every boundary input of every format
  // in all six modes. Non-finite inputs and zeros have no Rational; they
  // are pinned to their IEEE results directly.
  for (const FPFormat &F : roundcases::formats()) {
    const uint64_t NegZero = 1ull << (F.totalBits() - 1);
    for (double V : roundcases::inputs(F)) {
      bool Finite = std::isfinite(V) && V != 0.0;
      Rational R = Finite ? Rational::fromDouble(V) : Rational();
      for (RoundingMode M : roundcases::AllModes) {
        uint64_t Got = F.roundDouble(V, M);
        uint64_t Want;
        if (Finite)
          Want = F.roundRational(R, M);
        else if (std::isnan(V))
          Want = F.quietNaN();
        else if (std::isinf(V))
          Want = V > 0 ? F.plusInf() : F.minusInf();
        else
          Want = std::signbit(V) ? NegZero : 0;
        ASSERT_EQ(Got, Want)
            << "FP(" << F.totalBits() << ", " << F.expBits() << ") "
            << roundingModeName(M) << " v=" << std::hexfloat << V;
      }
    }
  }
}

TEST(FPFormatTest, RoundRationalBeyondDoublePrecision) {
  FPFormat F = FPFormat::withBits(16);
  // 1 + 2^-100 is not a double; it must round like a value strictly
  // greater than 1 (up for ru/ro, back to 1 for rn/rz/rd).
  Rational V = Rational(1) + Rational(BigInt(1), BigInt::pow2(100));
  EXPECT_EQ(F.decode(F.roundRational(V, RoundingMode::NearestEven)), 1.0);
  EXPECT_EQ(F.decode(F.roundRational(V, RoundingMode::TowardZero)), 1.0);
  EXPECT_EQ(F.decode(F.roundRational(V, RoundingMode::Downward)), 1.0);
  EXPECT_GT(F.decode(F.roundRational(V, RoundingMode::Upward)), 1.0);
  EXPECT_GT(F.decode(F.roundRational(V, RoundingMode::ToOdd)), 1.0);
}

TEST(FPFormatTest, OverflowPerMode) {
  FPFormat F = FPFormat::withBits(16);
  double Big = F.maxFinite() * 4;
  EXPECT_TRUE(F.isInf(F.roundDouble(Big, RoundingMode::NearestEven)));
  EXPECT_TRUE(F.isInf(F.roundDouble(Big, RoundingMode::NearestAway)));
  EXPECT_EQ(F.decode(F.roundDouble(Big, RoundingMode::TowardZero)),
            F.maxFinite());
  EXPECT_TRUE(F.isInf(F.roundDouble(Big, RoundingMode::Upward)));
  EXPECT_EQ(F.decode(F.roundDouble(Big, RoundingMode::Downward)),
            F.maxFinite());
  EXPECT_EQ(F.decode(F.roundDouble(-Big, RoundingMode::Upward)),
            -F.maxFinite());
  EXPECT_TRUE(F.isInf(F.roundDouble(-Big, RoundingMode::Downward)));
  // Round-to-odd saturates at the (odd-encoded) max-finite value.
  EXPECT_EQ(F.decode(F.roundDouble(Big, RoundingMode::ToOdd)), F.maxFinite());
}

TEST(FPFormatTest, UnderflowPerMode) {
  FPFormat F = FPFormat::withBits(16);
  double Tiny = F.minSubnormal() / 4;
  EXPECT_EQ(F.decode(F.roundDouble(Tiny, RoundingMode::NearestEven)), 0.0);
  EXPECT_EQ(F.decode(F.roundDouble(Tiny, RoundingMode::TowardZero)), 0.0);
  EXPECT_EQ(F.decode(F.roundDouble(Tiny, RoundingMode::Downward)), 0.0);
  EXPECT_EQ(F.decode(F.roundDouble(Tiny, RoundingMode::Upward)),
            F.minSubnormal());
  EXPECT_EQ(F.decode(F.roundDouble(Tiny, RoundingMode::ToOdd)),
            F.minSubnormal());
  // Ties at half the smallest subnormal.
  double Half = F.minSubnormal() / 2;
  EXPECT_EQ(F.decode(F.roundDouble(Half, RoundingMode::NearestEven)), 0.0);
  EXPECT_EQ(F.decode(F.roundDouble(Half, RoundingMode::NearestAway)),
            F.minSubnormal());
}

TEST(FPFormatTest, SignedZeroPreserved) {
  FPFormat F = FPFormat::withBits(16);
  EXPECT_EQ(F.roundDouble(0.0, RoundingMode::NearestEven), 0u);
  EXPECT_EQ(F.roundDouble(-0.0, RoundingMode::NearestEven), 1ull << 15);
}

TEST(FPFormatTest, ExhaustiveRoundTripSmallFormat) {
  // decode -> roundDouble(rz) is the identity on every encoding of
  // FP(10,8) (modulo NaN canonicalization).
  FPFormat F = FPFormat::withBits(10);
  for (uint64_t Enc = 0; Enc < F.encodingCount(); ++Enc) {
    if (F.isNaN(Enc)) {
      EXPECT_TRUE(
          F.isNaN(F.roundDouble(F.decode(Enc), RoundingMode::TowardZero)));
      continue;
    }
    EXPECT_EQ(F.roundDouble(F.decode(Enc), RoundingMode::TowardZero), Enc);
  }
}

} // namespace
