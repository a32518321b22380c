//===- tests/BigIntTest.cpp - BigInt unit and property tests --------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

using namespace rfp;

namespace {

BigInt randomBig(std::mt19937_64 &Rng, int Limbs, bool AllowNegative = true) {
  BigInt V;
  for (int I = 0; I < Limbs; ++I)
    V = V.shl(32) + BigInt(static_cast<int64_t>(Rng() & 0xffffffffu));
  if (AllowNegative && (Rng() & 1))
    V = -V;
  return V;
}

TEST(BigIntTest, ZeroBasics) {
  BigInt Z;
  EXPECT_TRUE(Z.isZero());
  EXPECT_FALSE(Z.isNegative());
  EXPECT_EQ(Z.bitLength(), 0u);
  EXPECT_EQ(Z.toDecimal(), "0");
  EXPECT_EQ(Z.toInt64(), 0);
  EXPECT_EQ((Z + Z).toDecimal(), "0");
  EXPECT_EQ((-Z).isNegative(), false);
}

TEST(BigIntTest, Int64RoundTrip) {
  for (int64_t V : std::initializer_list<int64_t>{
           0, 1, -1, 42, -42, 0x7fffffff, 0x80000000ll, -0x80000000ll,
           0x123456789abcdefll, INT64_MAX, INT64_MIN + 1}) {
    BigInt B(V);
    EXPECT_TRUE(B.fitsInt64());
    EXPECT_EQ(B.toInt64(), V) << V;
  }
  // INT64_MIN = -2^63 also round-trips.
  BigInt Min(INT64_MIN);
  EXPECT_TRUE(Min.fitsInt64());
  EXPECT_EQ(Min.toInt64(), INT64_MIN);
}

TEST(BigIntTest, FitsInt64Boundary) {
  BigInt TooBig = BigInt::pow2(63); // 2^63 does not fit.
  EXPECT_FALSE(TooBig.fitsInt64());
  EXPECT_TRUE((-TooBig).fitsInt64()); // -2^63 fits.
  EXPECT_TRUE((TooBig - BigInt(1)).fitsInt64());
  EXPECT_FALSE((-TooBig - BigInt(1)).fitsInt64());
}

TEST(BigIntTest, DecimalRoundTrip) {
  const char *Cases[] = {"0",
                         "1",
                         "-1",
                         "4294967295",
                         "4294967296",
                         "18446744073709551616",
                         "-123456789012345678901234567890",
                         "99999999999999999999999999999999999999"};
  for (const char *S : Cases)
    EXPECT_EQ(BigInt::fromDecimal(S).toDecimal(), S);
}

TEST(BigIntTest, HexRendering) {
  EXPECT_EQ(BigInt(255).toHex(), "0xff");
  EXPECT_EQ(BigInt(-16).toHex(), "-0x10");
  EXPECT_EQ(BigInt::pow2(64).toHex(), "0x10000000000000000");
}

TEST(BigIntTest, AdditionProperties) {
  std::mt19937_64 Rng(1);
  for (int T = 0; T < 500; ++T) {
    BigInt A = randomBig(Rng, 1 + T % 8);
    BigInt B = randomBig(Rng, 1 + (T / 2) % 8);
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ((A + B) - B, A);
    EXPECT_EQ(A - A, BigInt(0));
    EXPECT_EQ(A + BigInt(0), A);
  }
}

TEST(BigIntTest, MultiplicationProperties) {
  std::mt19937_64 Rng(2);
  for (int T = 0; T < 300; ++T) {
    BigInt A = randomBig(Rng, 1 + T % 10);
    BigInt B = randomBig(Rng, 1 + (T / 2) % 10);
    BigInt C = randomBig(Rng, 1 + (T / 3) % 6);
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ(A * (B + C), A * B + A * C);
    EXPECT_EQ(A * BigInt(1), A);
    EXPECT_EQ((A * BigInt(0)).isZero(), true);
  }
}

TEST(BigIntTest, DivModIdentity) {
  std::mt19937_64 Rng(3);
  for (int T = 0; T < 1000; ++T) {
    BigInt A = randomBig(Rng, 1 + T % 24);
    BigInt B = randomBig(Rng, 1 + (T / 2) % 12);
    if (B.isZero())
      continue;
    BigInt Q, R;
    BigInt::divMod(A, B, Q, R);
    EXPECT_EQ(Q * B + R, A);
    EXPECT_LT(R.compareMagnitude(B), 0);
    // C semantics: remainder sign follows the dividend.
    if (!R.isZero()) {
      EXPECT_EQ(R.isNegative(), A.isNegative());
    }
  }
}

/// Regression: the Algorithm-D quotient-digit estimate saturates at
/// 2^32 - 1 when the top dividend limb equals the top divisor limb; the
/// remainder estimate must then be recomputed or the digit is off by more
/// than the add-back step can repair.
TEST(BigIntTest, DivModQhatSaturation) {
  std::mt19937_64 Rng(4);
  for (int T = 0; T < 20000; ++T) {
    BigInt B = randomBig(Rng, 2 + T % 5, /*AllowNegative=*/false) + BigInt(1);
    BigInt Q0 = randomBig(Rng, 1 + T % 4, /*AllowNegative=*/false);
    BigInt A = Q0 * B; // Exact multiple: remainder must be zero.
    BigInt Q, R;
    BigInt::divMod(A, B, Q, R);
    EXPECT_EQ(Q, Q0);
    EXPECT_TRUE(R.isZero());
  }
}

TEST(BigIntTest, ShiftInverses) {
  std::mt19937_64 Rng(5);
  for (int T = 0; T < 200; ++T) {
    BigInt A = randomBig(Rng, 1 + T % 6);
    unsigned K = static_cast<unsigned>(Rng() % 130);
    EXPECT_EQ(A.shl(K).shr(K), A);
    // shl by K multiplies by 2^K.
    EXPECT_EQ(A.shl(K), A * BigInt::pow2(K));
  }
}

TEST(BigIntTest, BitQueries) {
  BigInt V = BigInt::fromDecimal("1311768467463790320"); // 0x1234567890abcdf0
  EXPECT_EQ(V.bitLength(), 61u);
  EXPECT_FALSE(V.testBit(0));
  EXPECT_TRUE(V.testBit(4));
  EXPECT_TRUE(V.anyBitBelow(5));
  EXPECT_FALSE(V.anyBitBelow(4));
  EXPECT_EQ(V.countTrailingZeros(), 4u);
  EXPECT_EQ(BigInt::pow2(77).countTrailingZeros(), 77u);
}

TEST(BigIntTest, GcdProperties) {
  std::mt19937_64 Rng(6);
  for (int T = 0; T < 400; ++T) {
    BigInt A = randomBig(Rng, 1 + T % 8);
    BigInt B = randomBig(Rng, 1 + (T / 2) % 8);
    BigInt G = BigInt::gcd(A, B);
    if (A.isZero() && B.isZero()) {
      EXPECT_TRUE(G.isZero());
      continue;
    }
    EXPECT_FALSE(G.isNegative());
    if (!G.isZero()) {
      EXPECT_TRUE((A % G).isZero());
      EXPECT_TRUE((B % G).isZero());
    }
  }
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(7)), BigInt(7));
}

/// Exponents at and around the 32-bit limb boundaries.
const unsigned DyadicExps[] = {0, 1, 31, 32, 33, 63, 64, 65, 200};

/// Euclid's algorithm on magnitudes: the referee for gcd's dyadic path.
BigInt euclidGcd(BigInt A, BigInt B) {
  if (A.isNegative())
    A = -A;
  if (B.isNegative())
    B = -B;
  while (!B.isZero()) {
    BigInt R = A % B;
    A = std::move(B);
    B = std::move(R);
  }
  return A;
}

TEST(BigIntTest, IsPowerOfTwo) {
  EXPECT_FALSE(BigInt().isPowerOfTwo());
  EXPECT_FALSE(BigInt(3).isPowerOfTwo());
  EXPECT_FALSE(BigInt(-6).isPowerOfTwo());
  for (unsigned K : DyadicExps) {
    BigInt P = BigInt::pow2(K);
    EXPECT_TRUE(P.isPowerOfTwo()) << K;
    EXPECT_TRUE((-P).isPowerOfTwo()) << K;
    EXPECT_FALSE((P * BigInt(3)).isPowerOfTwo()) << K;
    EXPECT_FALSE((P + BigInt::pow2(K + 40)).isPowerOfTwo()) << K;
    if (K >= 2) {
      EXPECT_FALSE((P - BigInt(1)).isPowerOfTwo()) << K;
    }
    if (K >= 1) {
      EXPECT_FALSE((P + BigInt(1)).isPowerOfTwo()) << K;
    }
  }
}

TEST(BigIntTest, GcdWithPowersOfTwoMatchesEuclid) {
  std::mt19937_64 Rng(7);
  std::vector<BigInt> Others = {BigInt(1), BigInt(-1), BigInt(3),
                                BigInt(-12)};
  for (int Limbs : {1, 2, 3, 5, 9}) {
    BigInt Odd = randomBig(Rng, Limbs);
    if (!Odd.testBit(0))
      Odd = Odd + BigInt(1);
    for (unsigned Z : {0u, 1u, 37u, 64u, 250u})
      Others.push_back(Odd.shl(Z));
  }
  for (unsigned K : DyadicExps)
    Others.push_back(BigInt::pow2(K));
  for (unsigned K : DyadicExps)
    for (const BigInt &D : {BigInt::pow2(K), -BigInt::pow2(K)})
      for (const BigInt &X : Others) {
        BigInt Want = euclidGcd(D, X);
        EXPECT_EQ(BigInt::gcd(D, X), Want)
            << D.toHex() << " vs " << X.toHex();
        EXPECT_EQ(BigInt::gcd(X, D), Want)
            << X.toHex() << " vs " << D.toHex();
      }
}

TEST(BigIntTest, DivModByPowersOfTwo) {
  // Q * D + R == A with |R| < |D| and R signed like A pins down truncating
  // division; A / D and A % D must agree with divMod.
  std::mt19937_64 Rng(8);
  for (unsigned K : DyadicExps)
    for (const BigInt &D : {BigInt::pow2(K), -BigInt::pow2(K)}) {
      std::vector<BigInt> As = {BigInt(0), BigInt(1), BigInt(-1), D,
                                -D, D - BigInt(1), D + BigInt(1)};
      for (int T = 0; T < 24; ++T) {
        BigInt A = randomBig(Rng, 1 + T % 10);
        As.push_back(A);
        As.push_back(A * D); // Exact multiple.
        As.push_back(A * D + BigInt(T % 2 ? 1 : -1));
      }
      for (const BigInt &A : As) {
        BigInt Q, R;
        BigInt::divMod(A, D, Q, R);
        EXPECT_EQ(Q * D + R, A) << A.toHex() << " / " << D.toHex();
        EXPECT_LT(R.compareMagnitude(D), 0) << A.toHex() << " / " << D.toHex();
        if (!R.isZero()) {
          EXPECT_EQ(R.isNegative(), A.isNegative())
              << A.toHex() << " / " << D.toHex();
        }
        EXPECT_EQ(A / D, Q);
        EXPECT_EQ(A % D, R);
      }
    }
}

TEST(BigIntTest, ToDoubleExactSmall) {
  std::mt19937_64 Rng(7);
  for (int T = 0; T < 500; ++T) {
    int64_t V = static_cast<int64_t>(Rng() >> 12); // 52-bit: exact in double
    if (Rng() & 1)
      V = -V;
    EXPECT_EQ(BigInt(V).toDouble(), static_cast<double>(V));
  }
}

TEST(BigIntTest, ToDoubleRoundsToNearestEven) {
  // 2^60 + 2^6 (half-ulp at 54-bit position... construct a tie):
  // Value = 2^53 + 1: exactly between 2^53 and 2^53 + 2; ties to even 2^53.
  BigInt Tie = BigInt::pow2(53) + BigInt(1);
  EXPECT_EQ(Tie.toDouble(), 0x1p53);
  // 2^53 + 3 rounds up to 2^53 + 4.
  BigInt Up = BigInt::pow2(53) + BigInt(3);
  EXPECT_EQ(Up.toDouble(), 0x1p53 + 4);
  // Sticky bit breaks the tie: 2^54 + 2^1 + 1 -> rounds up.
  BigInt Sticky = BigInt::pow2(54) + BigInt(3);
  EXPECT_EQ(Sticky.toDouble(), 0x1p54 + 4);
}

TEST(BigIntTest, ToDoubleHuge) {
  EXPECT_TRUE(std::isinf(BigInt::pow2(1100).toDouble()));
  EXPECT_EQ(BigInt::pow2(1000).toDouble(), 0x1p1000);
  EXPECT_EQ((-BigInt::pow2(1000)).toDouble(), -0x1p1000);
}

TEST(BigIntTest, KaratsubaMatchesSchoolbook) {
  // Differential check of the Karatsuba dispatch: random operands whose
  // sizes straddle KaratsubaThreshold (below / at / above, balanced and
  // lopsided) must agree with the always-schoolbook reference bit for bit.
  std::mt19937_64 Rng(40);
  const int Th = static_cast<int>(BigInt::KaratsubaThreshold);
  const int Sizes[] = {1,      Th / 2, Th - 1,    Th,        Th + 1,
                       2 * Th, 3 * Th, 4 * Th - 1, 4 * Th + 3};
  for (int LA : Sizes)
    for (int LB : Sizes)
      for (int T = 0; T < 4; ++T) {
        BigInt A = randomBig(Rng, LA);
        BigInt B = randomBig(Rng, LB);
        EXPECT_EQ(A * B, BigInt::mulSchoolbook(A, B))
            << "sizes " << LA << " x " << LB;
      }
}

TEST(BigIntTest, KaratsubaLimbEdgePatterns) {
  // Adversarial limb patterns for the split/recombine paths: all-ones
  // limbs maximize every carry chain, and sparse values exercise the
  // trimmed (short) halves after splitting.
  const int Th = static_cast<int>(BigInt::KaratsubaThreshold);
  BigInt AllOnes;
  for (int I = 0; I < 3 * Th; ++I)
    AllOnes = AllOnes.shl(32) + BigInt(0xffffffffll);
  EXPECT_EQ(AllOnes * AllOnes, BigInt::mulSchoolbook(AllOnes, AllOnes));
  // 2^k * 2^m with huge zero gaps: the split halves trim to single limbs.
  BigInt SparseA = BigInt::pow2(32 * 3 * static_cast<unsigned>(Th) - 1);
  BigInt SparseB = BigInt::pow2(32 * 2 * static_cast<unsigned>(Th) + 7);
  EXPECT_EQ(SparseA * SparseB, BigInt::mulSchoolbook(SparseA, SparseB));
  EXPECT_EQ(AllOnes * SparseB, BigInt::mulSchoolbook(AllOnes, SparseB));
}

TEST(BigIntTest, SmallBufferBoundaryCopyMoveAssign) {
  // The inline capacity is 4 limbs; 3/4 stay inline, 5 spills to the
  // heap. Copy/move/assign across the boundary in both directions must
  // preserve values (and moved-from objects must stay assignable).
  std::mt19937_64 Rng(41);
  for (int LA : {1, 3, 4, 5, 9})
    for (int LB : {1, 3, 4, 5, 9}) {
      BigInt A = randomBig(Rng, LA);
      BigInt B = randomBig(Rng, LB);
      BigInt ACopy = A, BCopy = B;

      BigInt C(A); // copy-construct
      EXPECT_EQ(C, ACopy);
      C = B; // copy-assign across representations
      EXPECT_EQ(C, BCopy);
      C = C; // self-assignment
      EXPECT_EQ(C, BCopy);

      BigInt D(std::move(A)); // move-construct
      EXPECT_EQ(D, ACopy);
      A = BCopy; // moved-from reuse
      EXPECT_EQ(A, BCopy);
      D = std::move(B); // move-assign across representations
      EXPECT_EQ(D, BCopy);
      B = ACopy;
      EXPECT_EQ(B, ACopy);

      std::swap(A, B); // swap mixes inline and heap states
      EXPECT_EQ(A, ACopy);
      EXPECT_EQ(B, BCopy);
    }
}

TEST(BigIntTest, SmallBufferGrowthAcrossBoundary) {
  // Incremental growth through the 4-limb boundary: repeated mul+add
  // forces the inline->heap transition inside arithmetic (not just in
  // copies). Each step must be invertible by divMod, and the decimal
  // round-trip must stay faithful while the representation switches.
  BigInt V(0x7fffffffll);
  BigInt M(0xfffffffbll);
  for (int I = 0; I < 12; ++I) {
    BigInt Prev = V;
    V = V * M + BigInt(I);
    BigInt Q, R;
    BigInt::divMod(V, M, Q, R);
    EXPECT_EQ(Q, Prev) << "step " << I;
    EXPECT_EQ(R, BigInt(I)) << "step " << I;
    EXPECT_EQ(BigInt::fromDecimal(V.toDecimal()), V) << "step " << I;
  }
}

class BigIntParamTest : public ::testing::TestWithParam<int> {};

TEST_P(BigIntParamTest, MulDivRoundTripAtWidth) {
  int Limbs = GetParam();
  std::mt19937_64 Rng(100 + Limbs);
  for (int T = 0; T < 50; ++T) {
    BigInt A = randomBig(Rng, Limbs, false) + BigInt(1);
    BigInt B = randomBig(Rng, std::max(1, Limbs / 2), false) + BigInt(1);
    EXPECT_EQ((A * B) / B, A);
    EXPECT_TRUE(((A * B) % B).isZero());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigIntParamTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32, 64, 128));

} // namespace
