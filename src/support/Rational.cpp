//===- support/Rational.cpp - Exact rational arithmetic -------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include <cmath>
#include <cstring>

using namespace rfp;

Rational::Rational(BigInt N, BigInt D) : Num(std::move(N)), Den(std::move(D)) {
  assert(!Den.isZero() && "rational with zero denominator");
  normalize();
}

void Rational::normalize() {
  if (Den.isNegative()) {
    Num = -Num;
    Den = -Den;
  }
  if (Num.isZero()) {
    Den = BigInt(1);
    return;
  }
  // Integer-valued rationals (Den == 1) need no gcd; they are common --
  // every Rational(int64_t)/Rational(BigInt) and every dyadic product that
  // cancelled its denominator lands here -- and a gcd against a long
  // numerator is pure waste.
  if (Den.isOne())
    return;
  BigInt G = BigInt::gcd(Num, Den);
  if (!G.isOne()) {
    Num = BigInt::divExact(Num, G);
    Den = BigInt::divExact(Den, G);
  }
}

Rational Rational::fromDouble(double V) {
  assert(std::isfinite(V) && "fromDouble requires a finite value");
  if (V == 0.0)
    return Rational();
  // Decode V = Mant * 2^Exp from its bits and strip Mant's trailing zeros:
  // an odd numerator over a power of two (or an integer) is already the
  // canonical pair, so no gcd runs.
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof Bits);
  uint64_t Mant = Bits & ((1ull << 52) - 1);
  int BiasedExp = static_cast<int>((Bits >> 52) & 0x7ff);
  int Exp = -1074; // Subnormal.
  if (BiasedExp != 0) {
    Mant |= 1ull << 52;
    Exp = BiasedExp - 1075;
  }
  int TZ = __builtin_ctzll(Mant);
  Mant >>= TZ;
  Exp += TZ;
  BigInt N(Mant, /*UnsignedTag=*/true);
  if (Bits >> 63)
    N = -N;
  if (Exp >= 0)
    return Rational(N.shl(static_cast<unsigned>(Exp)), BigInt(1),
                    CanonicalTag{});
  return Rational(std::move(N), BigInt::pow2(static_cast<unsigned>(-Exp)),
                  CanonicalTag{});
}

double rfp::roundScaledToDouble(const BigInt &Q, int64_t BinExp, bool Sticky,
                                bool Negative) {
  assert(!Q.isZero() && !Q.isNegative());
  int64_t Msb = static_cast<int64_t>(Q.bitLength()); // leading bit index + 1
  int64_t ValueExp = Msb - 1 + BinExp;               // exponent of leading bit

  if (ValueExp > 1024)
    return Negative ? -HUGE_VAL : HUGE_VAL;
  if (ValueExp < -1075)
    return Negative ? -0.0 : 0.0;
  if (ValueExp == -1075) {
    // Value is in [2^-1075, 2^-1074): below the smallest subnormal, at or
    // above its midpoint. Exactly the midpoint ties to even (zero).
    bool ExactHalf = !Sticky && !Q.anyBitBelow(static_cast<unsigned>(Msb - 1));
    double R = ExactHalf ? 0.0 : 0x1p-1074;
    return Negative ? -R : R;
  }

  int64_t PrecBits = ValueExp >= -1022 ? 53 : 53 + (ValueExp + 1022);
  int64_t Drop = Msb - PrecBits;
  assert((Drop >= 1 || !Sticky) && "sticky below available precision");

  BigInt M = Drop > 0 ? Q.shr(static_cast<unsigned>(Drop)) : Q;
  bool RoundBit = Drop > 0 && Q.testBit(static_cast<unsigned>(Drop - 1));
  bool StickyAll =
      Sticky || (Drop > 1 && Q.anyBitBelow(static_cast<unsigned>(Drop - 1)));
  if (RoundBit && (StickyAll || M.testBit(0)))
    M = M + BigInt(1);

  // M fits in 54 bits; ldexp handles a carry that bumped the exponent.
  double D = std::ldexp(static_cast<double>(M.toInt64()),
                        static_cast<int>(BinExp + (Drop > 0 ? Drop : 0)));
  return Negative ? -D : D;
}

double Rational::toDouble() const {
  if (Num.isZero())
    return 0.0;
  BigInt A = Num.isNegative() ? -Num : Num;
  const BigInt &B = Den;
  int64_t La = A.bitLength(), Lb = B.bitLength();
  // Scale so the quotient has at least 56 significant bits; the division
  // remainder provides the exact sticky bit.
  int64_t K = 56 - (La - Lb);
  BigInt Q, R;
  if (K >= 0)
    BigInt::divMod(A.shl(static_cast<unsigned>(K)), B, Q, R);
  else
    BigInt::divMod(A, B.shl(static_cast<unsigned>(-K)), Q, R);
  return roundScaledToDouble(Q, -K, !R.isZero(), Num.isNegative());
}

Rational Rational::operator-() const {
  Rational R = *this;
  R.Num = -R.Num;
  return R;
}

Rational Rational::addSub(const Rational &RHS, bool Sub) const {
  // Henrici addition (the mpq_add scheme). With g = gcd(d1, d2):
  //   t = n1*(d2/g) +- n2*(d1/g)   over the lcm (d1/g)*d2,
  //   g2 = gcd(t, g),  result = (t/g2) / ((d1/g)*(d2/g2)),
  // which is fully reduced. When g == 1 (and in particular for integer
  // operands) no reduction is needed at all. Dyadic operands share their
  // smaller power of two, so they take the general path, where every gcd
  // against g and every division by it is a shift.
  if (isZero())
    return Sub ? -RHS : RHS;
  if (RHS.isZero())
    return *this;
  if (Den.isOne() && RHS.Den.isOne()) {
    BigInt T = Sub ? Num - RHS.Num : Num + RHS.Num;
    return Rational(std::move(T), BigInt(1), CanonicalTag{});
  }
  BigInt G = BigInt::gcd(Den, RHS.Den);
  if (G.isOne()) {
    BigInt Cross = RHS.Num * Den;
    BigInt T = Num * RHS.Den;
    T = Sub ? T - Cross : T + Cross;
    if (T.isZero())
      return Rational();
    return Rational(std::move(T), Den * RHS.Den, CanonicalTag{});
  }
  BigInt D1 = BigInt::divExact(Den, G), D2 = BigInt::divExact(RHS.Den, G);
  BigInt Cross = RHS.Num * D1;
  BigInt T = Num * D2;
  T = Sub ? T - Cross : T + Cross;
  if (T.isZero())
    return Rational();
  BigInt G2 = BigInt::gcd(T, G);
  if (G2.isOne())
    return Rational(std::move(T), D1 * RHS.Den, CanonicalTag{});
  return Rational(BigInt::divExact(T, G2),
                  D1 * BigInt::divExact(RHS.Den, G2), CanonicalTag{});
}

Rational Rational::operator+(const Rational &RHS) const {
  return addSub(RHS, /*Sub=*/false);
}

Rational Rational::operator-(const Rational &RHS) const {
  return addSub(RHS, /*Sub=*/true);
}

namespace {

/// V / G for a gcd G of V and another value: exact by construction.
BigInt cancel(const BigInt &V, const BigInt &G) {
  return G.isOne() ? V : BigInt::divExact(V, G);
}

} // namespace

Rational Rational::operator*(const Rational &RHS) const {
  // Henrici multiplication: cancel gcd(n1, d2) and gcd(n2, d1) before the
  // products; the result is then reduced by construction (the inputs are
  // canonical, so no factor of d1 survives against n1, and likewise for
  // d2/n2).
  if (isZero() || RHS.isZero())
    return Rational();
  if (Den.isOne() && RHS.Den.isOne())
    return Rational(Num * RHS.Num, BigInt(1), CanonicalTag{});
  BigInt G1 = BigInt::gcd(Num, RHS.Den);
  BigInt G2 = BigInt::gcd(RHS.Num, Den);
  return Rational(cancel(Num, G1) * cancel(RHS.Num, G2),
                  cancel(Den, G2) * cancel(RHS.Den, G1), CanonicalTag{});
}

Rational Rational::operator/(const Rational &RHS) const {
  assert(!RHS.isZero() && "rational division by zero");
  // a/b / (c/d) = (a*d) / (b*c), reduced via the same cross-gcds; the sign
  // moves to the numerator to restore Den > 0.
  if (isZero())
    return Rational();
  BigInt G1 = BigInt::gcd(Num, RHS.Num);
  BigInt G2 = BigInt::gcd(RHS.Den, Den);
  BigInt N = cancel(Num, G1) * cancel(RHS.Den, G2);
  BigInt D = cancel(Den, G2) * cancel(RHS.Num, G1);
  if (D.isNegative()) {
    N = -N;
    D = -D;
  }
  return Rational(std::move(N), std::move(D), CanonicalTag{});
}

int Rational::compare(const Rational &RHS) const {
  // Sign classes decide most comparisons without any multiplication.
  int SL = Num.isZero() ? 0 : (Num.isNegative() ? -1 : 1);
  int SR = RHS.Num.isZero() ? 0 : (RHS.Num.isNegative() ? -1 : 1);
  if (SL != SR)
    return SL < SR ? -1 : 1;
  if (SL == 0)
    return 0;
  // Denominators are positive, so cross-multiplication preserves order.
  return (Num * RHS.Den).compare(RHS.Num * Den);
}

Rational Rational::pow(unsigned K) const {
  Rational Result(1);
  Rational Base = *this;
  while (K) {
    if (K & 1)
      Result *= Base;
    Base *= Base;
    K >>= 1;
  }
  return Result;
}

std::string Rational::toString() const {
  if (Den.isOne())
    return Num.toDecimal();
  return Num.toDecimal() + "/" + Den.toDecimal();
}
