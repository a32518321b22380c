//===- support/Rational.h - Exact rational arithmetic ----------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational numbers over BigInt. The LP solver runs entirely in this
/// type (the paper relies on SoPlex's exact rational mode), and rounding
/// intervals/polynomial coefficients round-trip through it losslessly:
/// every finite double is exactly representable as a Rational.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_SUPPORT_RATIONAL_H
#define RFP_SUPPORT_RATIONAL_H

#include "support/BigInt.h"

namespace rfp {

/// Exact rational number. Invariants: Den > 0; gcd(|Num|, Den) == 1;
/// zero is 0/1.
///
/// The arithmetic operators use Henrici's cross-gcd fast paths (the mpq
/// scheme): instead of forming the full cross products and reducing the
/// result with one large gcd, they cancel the small gcds between each
/// numerator and the opposite denominator first, so intermediate operands
/// stay near the size of the *reduced* result. Every cancellation divides
/// by a known divisor, so it takes BigInt::divExact. For the LP pipeline's
/// dyadic data (power-of-two denominators) the gcds are cheap shifts --
/// BigInt::gcd answers 2^min(trailing zeros) once either operand is a
/// power of two, and divExact by 2^K is a shifted copy -- and the products
/// shrink by the full cancelled factor. Other gcds (the simplex's
/// read-back of y / P) run Lehmer's algorithm on word-size heads.
/// fromDouble builds the canonical pair (odd numerator over 2^K, or an
/// integer) directly.
class Rational {
public:
  /// Constructs zero.
  Rational() : Num(0), Den(1) {}

  Rational(int64_t V) : Num(V), Den(1) {}
  Rational(BigInt N) : Num(std::move(N)), Den(1) {}
  Rational(BigInt N, BigInt D);

  /// Exact conversion from a finite double (mantissa * 2^exp), built
  /// canonical without a gcd. Asserts on NaN/inf.
  static Rational fromDouble(double V);

  /// Correctly rounded (nearest-even) conversion to double.
  double toDouble() const;

  const BigInt &numerator() const { return Num; }
  const BigInt &denominator() const { return Den; }

  bool isZero() const { return Num.isZero(); }
  bool isNegative() const { return Num.isNegative(); }

  /// True iff the value is an integer (denominator 1).
  bool isInteger() const { return Den.isOne(); }

  Rational operator-() const;
  Rational operator+(const Rational &RHS) const;
  Rational operator-(const Rational &RHS) const;
  Rational operator*(const Rational &RHS) const;
  Rational operator/(const Rational &RHS) const;

  Rational &operator+=(const Rational &RHS) { return *this = *this + RHS; }
  Rational &operator-=(const Rational &RHS) { return *this = *this - RHS; }
  Rational &operator*=(const Rational &RHS) { return *this = *this * RHS; }
  Rational &operator/=(const Rational &RHS) { return *this = *this / RHS; }

  int compare(const Rational &RHS) const;
  bool operator==(const Rational &RHS) const { return compare(RHS) == 0; }
  bool operator!=(const Rational &RHS) const { return compare(RHS) != 0; }
  bool operator<(const Rational &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const Rational &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const Rational &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const Rational &RHS) const { return compare(RHS) >= 0; }

  /// Integer power with K >= 0.
  Rational pow(unsigned K) const;

  Rational abs() const { return isNegative() ? -*this : *this; }

  /// "num/den" in base 10.
  std::string toString() const;

private:
  /// Tag for the private constructor taking an already-canonical pair
  /// (Den > 0, gcd(|Num|, Den) == 1): the Henrici paths produce reduced
  /// results by construction, so re-running the gcd would be pure waste.
  struct CanonicalTag {};
  Rational(BigInt N, BigInt D, CanonicalTag)
      : Num(std::move(N)), Den(std::move(D)) {
    assert(!Den.isNegative() && !Den.isZero() && "canonical denominator");
  }

  /// Shared Henrici add/sub core (Sub negates RHS's numerator).
  Rational addSub(const Rational &RHS, bool Sub) const;

  void normalize();

  BigInt Num;
  BigInt Den;
};

} // namespace rfp

#endif // RFP_SUPPORT_RATIONAL_H
