//===- fp/FPFormat.cpp - Parameterized IEEE-like FP formats ---------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fp/FPFormat.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

using namespace rfp;

FPFormat::FPFormat(unsigned TotalBits, unsigned ExpBits)
    : NBits(TotalBits), EBits(ExpBits), MBits(TotalBits - 1 - ExpBits),
      Bias((1 << (ExpBits - 1)) - 1) {
  assert(ExpBits >= 2 && ExpBits <= 11 && "unsupported exponent width");
  assert(TotalBits >= ExpBits + 2 && "need at least one mantissa bit");
  assert(MBits <= 52 && "values must be exactly representable in double");
}

double FPFormat::maxFinite() const {
  return std::ldexp(static_cast<double>((1ull << precision()) - 1),
                    maxExp() - static_cast<int>(MBits));
}

double FPFormat::minSubnormal() const {
  return std::ldexp(1.0, minExp() - static_cast<int>(MBits));
}

double FPFormat::decode(uint64_t Encoding) const {
  assert(Encoding < encodingCount() && "encoding out of range");
  bool Negative = (Encoding >> (NBits - 1)) & 1;
  uint64_t Biased = (Encoding >> MBits) & ((1ull << EBits) - 1);
  uint64_t Mant = Encoding & ((1ull << MBits) - 1);
  double Mag;
  if (Biased == (1ull << EBits) - 1) {
    if (Mant != 0)
      return std::numeric_limits<double>::quiet_NaN();
    Mag = HUGE_VAL;
  } else if (Biased == 0) {
    Mag = std::ldexp(static_cast<double>(Mant), minExp() - static_cast<int>(MBits));
  } else {
    Mag = std::ldexp(static_cast<double>((1ull << MBits) | Mant),
                     static_cast<int>(Biased) - Bias - static_cast<int>(MBits));
  }
  return Negative ? -Mag : Mag;
}

bool FPFormat::isNaN(uint64_t Encoding) const {
  uint64_t Biased = (Encoding >> MBits) & ((1ull << EBits) - 1);
  return Biased == (1ull << EBits) - 1 && (Encoding & ((1ull << MBits) - 1));
}

bool FPFormat::isInf(uint64_t Encoding) const {
  uint64_t Biased = (Encoding >> MBits) & ((1ull << EBits) - 1);
  return Biased == (1ull << EBits) - 1 && !(Encoding & ((1ull << MBits) - 1));
}

uint64_t FPFormat::plusInf() const {
  return ((1ull << EBits) - 1) << MBits;
}

uint64_t FPFormat::minusInf() const {
  return plusInf() | (1ull << (NBits - 1));
}

uint64_t FPFormat::quietNaN() const {
  return plusInf() | (1ull << (MBits - 1));
}

uint64_t FPFormat::overflowResult(bool Negative, RoundingMode M) const {
  uint64_t Sign = Negative ? (1ull << (NBits - 1)) : 0;
  uint64_t MaxFiniteEnc = plusInf() - 1;
  switch (M) {
  case RoundingMode::NearestEven:
  case RoundingMode::NearestAway:
    return Sign | plusInf();
  case RoundingMode::TowardZero:
    return Sign | MaxFiniteEnc;
  case RoundingMode::Upward:
    return Negative ? (Sign | MaxFiniteEnc) : plusInf();
  case RoundingMode::Downward:
    return Negative ? minusInf() : MaxFiniteEnc;
  case RoundingMode::ToOdd:
    // The largest finite value has an all-ones mantissa, hence an odd
    // encoding; truncation already lands on an odd value.
    return Sign | MaxFiniteEnc;
  }
  return Sign | plusInf();
}

uint64_t FPFormat::roundCore(bool Negative, uint64_t TopBits, int64_t MsbExp,
                             bool ExtraSticky, RoundingMode M) const {
  assert((TopBits >> 63) & 1 && "TopBits must be left-aligned");
  int Prec = static_cast<int>(precision());

  // Magnitudes with the leading bit above the max exponent overflow no
  // matter how the low bits round.
  if (MsbExp > maxExp())
    return overflowResult(Negative, M);

  // Number of significant bits this format can keep for this magnitude.
  int64_t Keep = MsbExp >= minExp() ? Prec : Prec + (MsbExp - minExp());

  uint64_t Q, RoundBit, Sticky;
  if (Keep >= 1) {
    Q = TopBits >> (64 - Keep);
    RoundBit = (TopBits >> (63 - Keep)) & 1;
    Sticky = ExtraSticky || (Keep + 1 < 64 && (TopBits << (Keep + 1)) != 0);
  } else {
    // Leading bit at (Keep == 0) or below (Keep < 0) the half-ulp position
    // of the smallest subnormal.
    Q = 0;
    RoundBit = Keep == 0;
    Sticky = ExtraSticky || Keep < 0 || (TopBits << 1) != 0;
  }

  // The mode's rounding rule as arithmetic on the 0/1 round and sticky
  // bits; the switch selects a rule, the data never branches.
  uint64_t Inexact = RoundBit | Sticky, Neg = Negative;
  switch (M) {
  case RoundingMode::NearestEven:
    Q += RoundBit & (Sticky | (Q & 1));
    break;
  case RoundingMode::NearestAway:
    Q += RoundBit;
    break;
  case RoundingMode::TowardZero:
    break;
  case RoundingMode::Upward:
    Q += Inexact & (Neg ^ 1);
    break;
  case RoundingMode::Downward:
    Q += Inexact & Neg;
    break;
  case RoundingMode::ToOdd:
    Q |= Inexact;
    break;
  }

  // The ulp-band identity: Q counts ulps of the binade max(MsbExp, minExp),
  // hidden bit included, so Enc = (Band << MBits) + Q with Band that
  // binade's biased exponent minus one. A mantissa carry walks into the
  // next binade, a carry out of the top binade lands on the inf encoding
  // (the right overflow for every mode that can carry there), and the
  // subnormal band (Band 0, no hidden bit) needs no special case.
  uint64_t Sign = Neg << (NBits - 1);
  uint64_t Band = static_cast<uint64_t>(std::max<int64_t>(MsbExp, minExp()) +
                                        Bias - 1);
  return Sign | ((Band << MBits) + Q);
}

uint64_t FPFormat::roundDouble(double V, RoundingMode M) const {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  bool Negative = Bits >> 63;
  uint64_t Biased = (Bits >> 52) & 0x7ff;
  uint64_t Frac = Bits & ((1ull << 52) - 1);
  if (Biased == 0x7ff)
    return Frac ? quietNaN() : Negative ? minusInf() : plusInf();
  if (Biased == 0) {
    if (Frac == 0)
      return Negative ? (1ull << (NBits - 1)) : 0;
    // Double subnormal Frac * 2^-1074: normalize so the leading bit is
    // bit 63.
    int Lz = __builtin_clzll(Frac);
    return roundCore(Negative, Frac << Lz, 63 - Lz - 1074,
                     /*ExtraSticky=*/false, M);
  }
  return roundCore(Negative, ((1ull << 52) | Frac) << 11,
                   static_cast<int64_t>(Biased) - 1023, /*ExtraSticky=*/false,
                   M);
}

uint64_t FPFormat::roundRational(const Rational &V, RoundingMode M) const {
  if (V.isZero())
    return 0;
  bool Negative = V.isNegative();
  BigInt A = V.numerator().isNegative() ? -V.numerator() : V.numerator();
  const BigInt &B = V.denominator();
  int64_t La = A.bitLength(), Lb = B.bitLength();
  // Make the quotient carry at least 66 significant bits.
  int64_t K = 66 - (La - Lb);
  BigInt Q, R;
  if (K >= 0)
    BigInt::divMod(A.shl(static_cast<unsigned>(K)), B, Q, R);
  else
    BigInt::divMod(A, B.shl(static_cast<unsigned>(-K)), Q, R);
  bool Sticky = !R.isZero();
  unsigned QBits = Q.bitLength();
  assert(QBits >= 66 && "quotient narrower than expected");
  unsigned Drop = QBits - 64;
  Sticky = Sticky || Q.anyBitBelow(Drop);
  BigInt Top = Q.shr(Drop);
  uint64_t TopBits = Top.toUint64();
  int64_t MsbExp = static_cast<int64_t>(QBits) - 1 - K;
  return roundCore(Negative, TopBits, MsbExp, Sticky, M);
}

bool FPFormat::isRepresentable(double V) const {
  if (std::isnan(V))
    return false;
  if (std::isinf(V))
    return true;
  return decode(roundDouble(V, RoundingMode::TowardZero)) == V;
}

double FPFormat::succValue(double V) const {
  assert(isRepresentable(V) && "succValue requires a representable value");
  if (V == 0.0)
    return minSubnormal();
  uint64_t Enc = roundDouble(V, RoundingMode::TowardZero);
  if (V > 0)
    return decode(Enc + 1);
  double R = decode(Enc - 1);
  return R == 0.0 ? 0.0 : R;
}

double FPFormat::predValue(double V) const {
  assert(isRepresentable(V) && "predValue requires a representable value");
  if (V == 0.0)
    return -minSubnormal();
  uint64_t Enc = roundDouble(V, RoundingMode::TowardZero);
  if (V > 0)
    return decode(Enc - 1);
  return decode(Enc + 1);
}
