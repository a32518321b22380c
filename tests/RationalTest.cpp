//===- tests/RationalTest.cpp - Rational unit and property tests ----------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

using namespace rfp;

namespace {

TEST(RationalTest, NormalizationInvariants) {
  Rational R(BigInt(6), BigInt(-4));
  EXPECT_EQ(R.toString(), "-3/2");
  EXPECT_FALSE(R.denominator().isNegative());
  EXPECT_EQ(Rational(BigInt(0), BigInt(-7)).toString(), "0");
  EXPECT_EQ(Rational(BigInt(10), BigInt(5)).toString(), "2");
  EXPECT_TRUE(Rational(BigInt(10), BigInt(5)).isInteger());
  EXPECT_FALSE(Rational(BigInt(1), BigInt(3)).isInteger());
}

TEST(RationalTest, ArithmeticExactness) {
  Rational Third(BigInt(1), BigInt(3));
  Rational Sum = Third + Third + Third;
  EXPECT_EQ(Sum, Rational(1));
  EXPECT_EQ(Third * Rational(3), Rational(1));
  EXPECT_EQ(Rational(1) / Third, Rational(3));
  EXPECT_EQ(Third - Third, Rational(0));
  EXPECT_EQ((-Third).toString(), "-1/3");
}

TEST(RationalTest, ComparisonTotalOrder) {
  Rational A(BigInt(1), BigInt(3));
  Rational B(BigInt(1), BigInt(2));
  Rational C(BigInt(-1), BigInt(2));
  EXPECT_LT(A, B);
  EXPECT_LT(C, A);
  EXPECT_LE(A, A);
  EXPECT_GT(B, C);
  EXPECT_EQ(A.compare(A), 0);
}

TEST(RationalTest, FromDoubleIsExact) {
  std::mt19937_64 Rng(11);
  for (int T = 0; T < 2000; ++T) {
    double V = std::ldexp(static_cast<double>(static_cast<int64_t>(Rng())),
                          static_cast<int>(Rng() % 600) - 300);
    if (!std::isfinite(V))
      continue;
    Rational R = Rational::fromDouble(V);
    EXPECT_EQ(R.toDouble(), V) << V;
  }
}

TEST(RationalTest, FromDoubleSpecialValues) {
  EXPECT_EQ(Rational::fromDouble(0.0), Rational(0));
  EXPECT_EQ(Rational::fromDouble(1.0), Rational(1));
  EXPECT_EQ(Rational::fromDouble(-2.5).toString(), "-5/2");
  EXPECT_EQ(Rational::fromDouble(0x1p-1074).toString(),
            Rational(BigInt(1), BigInt::pow2(1074)).toString());
  EXPECT_EQ(Rational::fromDouble(DBL_MAX).toDouble(), DBL_MAX);
}

/// fromDouble as first written -- frexp's 53-bit mantissa over 2^-exp,
/// reduced by the normalizing constructor's gcd: the referee for the
/// canonical pair built directly from the bits.
Rational fromDoubleViaGcd(double V) {
  if (V == 0.0)
    return Rational();
  int Exp;
  double Frac = std::frexp(V, &Exp);
  BigInt N(static_cast<int64_t>(std::ldexp(Frac, 53)));
  int E2 = Exp - 53;
  if (E2 >= 0)
    return Rational(N.shl(static_cast<unsigned>(E2)));
  return Rational(std::move(N), BigInt::pow2(static_cast<unsigned>(-E2)));
}

TEST(RationalTest, FromDoubleIsCanonicalAndRoundTrips) {
  std::vector<double> Values = {
      0.0, -0.0, 0x1p-1074, -0x1p-1074,
      0x0.fffffffffffffp-1022,  // Largest subnormal.
      -0x0.fffffffffffffp-1022, 0x0.8p-1022, 0x0.0000000000018p-1022,
      DBL_MIN, DBL_MAX, -DBL_MAX,
      0x1p53, 0x1p53 + 2, -0x1.8p60, 0x1.fffffffffffffp62, 0x1p1023,
      1.5, 0.75, -0x1.8p-1000, 0x1.0000000000001p0, 0x1.00000000000f0p-3,
      0.1, 1.0 / 3.0, -123.456, 1e300};
  for (int K = -1074; K <= 1023; K += 37)
    Values.push_back(std::ldexp(1.0, K));
  std::mt19937_64 Rng(13);
  for (int T = 0; T < 500; ++T) {
    uint64_t Bits = Rng();
    double V;
    std::memcpy(&V, &Bits, sizeof V);
    if (std::isfinite(V))
      Values.push_back(V);
  }
  for (double V : Values) {
    Rational R = Rational::fromDouble(V);
    const BigInt &N = R.numerator(), &D = R.denominator();
    EXPECT_FALSE(D.isNegative()) << V;
    EXPECT_TRUE(D.isPowerOfTwo()) << V;
    EXPECT_TRUE(N.testBit(0) || D.isOne()) << V;
    EXPECT_EQ(R.toDouble(), V) << V;
    Rational Ref = fromDoubleViaGcd(V);
    EXPECT_EQ(N, Ref.numerator()) << V;
    EXPECT_EQ(D, Ref.denominator()) << V;
  }
}

TEST(RationalTest, ToDoubleCorrectRounding) {
  // 1/3 rounds to the nearest double of 0.333...
  EXPECT_EQ(Rational(BigInt(1), BigInt(3)).toDouble(), 1.0 / 3.0);
  EXPECT_EQ(Rational(BigInt(2), BigInt(3)).toDouble(), 2.0 / 3.0);
  EXPECT_EQ(Rational(BigInt(1), BigInt(10)).toDouble(), 0.1);
  EXPECT_EQ(Rational(BigInt(-7), BigInt(11)).toDouble(), -7.0 / 11.0);
  // Hardware division is correctly rounded, so these must match exactly.
  std::mt19937_64 Rng(12);
  for (int T = 0; T < 2000; ++T) {
    int64_t N = static_cast<int64_t>(Rng() >> 16);
    int64_t D = static_cast<int64_t>(Rng() >> 16) + 1;
    if (Rng() & 1)
      N = -N;
    EXPECT_EQ(Rational(BigInt(N), BigInt(D)).toDouble(),
              static_cast<double>(N) / static_cast<double>(D))
        << N << "/" << D;
  }
}

TEST(RationalTest, ToDoubleTieToEven) {
  // (2^53 + 1) / 1 is a tie between 2^53 and 2^53 + 2 -> even (2^53).
  EXPECT_EQ(Rational(BigInt::pow2(53) + BigInt(1)).toDouble(), 0x1p53);
  // (2^54 + 2) / 2 = 2^53 + 1: same tie.
  EXPECT_EQ(Rational(BigInt::pow2(54) + BigInt(2), BigInt(2)).toDouble(),
            0x1p53);
}

TEST(RationalTest, ToDoubleOverflowAndUnderflow) {
  EXPECT_TRUE(std::isinf(Rational(BigInt::pow2(1100)).toDouble()));
  EXPECT_EQ(Rational(BigInt(1), BigInt::pow2(1200)).toDouble(), 0.0);
  // Smallest subnormal region: 2^-1074 representable, half of it ties to 0.
  EXPECT_EQ(Rational(BigInt(1), BigInt::pow2(1074)).toDouble(), 0x1p-1074);
  EXPECT_EQ(Rational(BigInt(1), BigInt::pow2(1075)).toDouble(), 0.0);
  // Just above half the smallest subnormal rounds up to it.
  Rational JustAbove =
      Rational(BigInt(1), BigInt::pow2(1075)) +
      Rational(BigInt(1), BigInt::pow2(1200));
  EXPECT_EQ(JustAbove.toDouble(), 0x1p-1074);
}

TEST(RationalTest, PowAndAbs) {
  Rational Half(BigInt(1), BigInt(2));
  EXPECT_EQ(Half.pow(0), Rational(1));
  EXPECT_EQ(Half.pow(10), Rational(BigInt(1), BigInt(1024)));
  EXPECT_EQ(Rational(-3).pow(3), Rational(-27));
  EXPECT_EQ(Rational(-3).abs(), Rational(3));
}

TEST(RationalTest, HenriciMatchesNaiveCrossMultiply) {
  // Differential check of the Henrici cross-gcd fast paths against the
  // textbook formulas routed through the normalizing public constructor.
  // Random n/d pairs with shared factors force every branch: g == 1,
  // g > 1 with g2 == 1, g2 > 1, integer operands, and exact cancellation.
  std::mt19937_64 Rng(31);
  auto RandomRational = [&Rng]() {
    int64_t N = static_cast<int64_t>(Rng() % 2000) - 1000;
    int64_t D = static_cast<int64_t>(Rng() % 720) + 1;
    return Rational(BigInt(N), BigInt(D));
  };
  for (int T = 0; T < 500; ++T) {
    Rational A = RandomRational();
    Rational B = RandomRational();
    const BigInt &N1 = A.numerator(), &D1 = A.denominator();
    const BigInt &N2 = B.numerator(), &D2 = B.denominator();

    Rational SumRef(N1 * D2 + N2 * D1, D1 * D2);
    EXPECT_EQ(A + B, SumRef);
    Rational DiffRef(N1 * D2 - N2 * D1, D1 * D2);
    EXPECT_EQ(A - B, DiffRef);
    Rational ProdRef(N1 * N2, D1 * D2);
    EXPECT_EQ(A * B, ProdRef);
    if (!B.isZero()) {
      Rational QuotRef(N1 * D2, D1 * N2);
      EXPECT_EQ(A / B, QuotRef);
    }

    // The fast paths must also leave results canonical: positive
    // denominator, fully reduced (gcd of the stored pair is 1).
    Rational S = A + B;
    EXPECT_FALSE(S.denominator().isNegative());
    EXPECT_TRUE(S.isZero() ||
                BigInt::gcd(S.numerator(), S.denominator()).isOne());
    Rational Pr = A * B;
    EXPECT_TRUE(Pr.isZero() ||
                BigInt::gcd(Pr.numerator(), Pr.denominator()).isOne());
  }
}

TEST(RationalTest, HenriciSharedDenominatorFamilies) {
  // Dyadic operands (the LP pipeline's dominant shape) and exact-cancel
  // sums, where gcd(d1, d2) is a full power of two and t can vanish.
  Rational A = Rational::fromDouble(0x1.123456789abcdp-4);
  Rational B = Rational::fromDouble(0x1.fedcba9876543p-6);
  Rational SumRef(A.numerator() * B.denominator() +
                      B.numerator() * A.denominator(),
                  A.denominator() * B.denominator());
  EXPECT_EQ(A + B, SumRef);
  EXPECT_EQ((A + B) - B, A);
  EXPECT_EQ(A - A, Rational(0));
  EXPECT_EQ((A - A).denominator(), BigInt(1));
  // Integer fast path.
  EXPECT_EQ(Rational(7) + Rational(-9), Rational(-2));
  EXPECT_EQ(Rational(7) * Rational(-9), Rational(-63));
}

/// Field-axiom style property sweep over random double-backed rationals.
class RationalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RationalPropertyTest, FieldAxioms) {
  std::mt19937_64 Rng(20 + GetParam());
  std::uniform_real_distribution<double> Dist(-1e6, 1e6);
  for (int T = 0; T < 200; ++T) {
    Rational A = Rational::fromDouble(Dist(Rng));
    Rational B = Rational::fromDouble(Dist(Rng));
    Rational C = Rational::fromDouble(Dist(Rng));
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ((A + B) + C, A + (B + C));
    EXPECT_EQ(A * (B + C), A * B + A * C);
    if (!B.isZero()) {
      EXPECT_EQ((A / B) * B, A);
    }
    EXPECT_EQ(A - A, Rational(0));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalPropertyTest,
                         ::testing::Range(0, 5));

} // namespace
