//===- fp/FPFormat.h - Parameterized IEEE-like FP formats ------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A parameterized binary floating-point format FP(n, E): n total bits, one
/// sign bit, E exponent bits, n-1-E stored mantissa bits, IEEE semantics
/// (bias 2^(E-1)-1, subnormals, +-inf, NaN). The paper's targets are all
/// FP(k, 8) for 10 <= k <= 32, the oracle representation is FP(34, 8), and
/// bfloat16 = FP(16, 8), tensorfloat32 = FP(19, 8).
///
/// Every value of every format with n <= 34 and E <= 11 is exactly
/// representable as a double, so values travel as doubles and encodings as
/// uint64_t. Rounding from double (and from exact Rational) into a format
/// is implemented for all five IEEE modes plus round-to-odd.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_FP_FPFORMAT_H
#define RFP_FP_FPFORMAT_H

#include "support/Rational.h"
#include "support/Rounding.h"

#include <cstdint>

namespace rfp {

/// A binary floating-point format with n total bits and E exponent bits.
class FPFormat {
public:
  /// Creates FP(TotalBits, ExpBits). Requires 1 <= mantissa bits <= 52 and
  /// 2 <= ExpBits <= 11 so every value fits exactly in a double.
  FPFormat(unsigned TotalBits, unsigned ExpBits);

  /// FP(k, 8) for the paper's family of targets (10 <= k <= 34).
  static FPFormat withBits(unsigned TotalBits) { return FPFormat(TotalBits, 8); }
  static FPFormat float32() { return FPFormat(32, 8); }
  static FPFormat bfloat16() { return FPFormat(16, 8); }
  static FPFormat tensorfloat32() { return FPFormat(19, 8); }
  /// The 34-bit oracle representation of RLibm-All.
  static FPFormat fp34() { return FPFormat(34, 8); }

  unsigned totalBits() const { return NBits; }
  unsigned expBits() const { return EBits; }
  /// Stored mantissa bits (without the hidden bit).
  unsigned mantBits() const { return MBits; }
  /// Precision = mantissa bits + hidden bit.
  unsigned precision() const { return MBits + 1; }
  int bias() const { return Bias; }
  /// Minimum unbiased exponent of a normal value.
  int minExp() const { return 1 - Bias; }
  /// Maximum unbiased exponent of a finite value.
  int maxExp() const { return Bias; }

  /// Number of distinct encodings (2^n).
  uint64_t encodingCount() const { return 1ull << NBits; }

  /// Largest finite value, as a double.
  double maxFinite() const;
  /// Smallest positive subnormal, as a double.
  double minSubnormal() const;

  /// Decodes an encoding into its exact double value. NaN decodes to a
  /// quiet double NaN; infinities decode to +-inf.
  double decode(uint64_t Encoding) const;

  bool isNaN(uint64_t Encoding) const;
  bool isInf(uint64_t Encoding) const;
  bool isFinite(uint64_t Encoding) const {
    return !isNaN(Encoding) && !isInf(Encoding);
  }

  uint64_t plusInf() const;
  uint64_t minusInf() const;
  uint64_t quietNaN() const;

  /// Rounds a double into this format under mode \p M. The input double is
  /// treated as an exact real value. Returns an encoding. NaN input yields
  /// the canonical quiet NaN; signed zeros are preserved. Integer-only: it
  /// reads the double's bits, calls no libm function and ignores the
  /// dynamic FP environment.
  uint64_t roundDouble(double V, RoundingMode M) const;

  /// Convenience: roundDouble followed by decode.
  double roundDoubleToValue(double V, RoundingMode M) const {
    return decode(roundDouble(V, M));
  }

  /// Rounds an exact rational into this format under mode \p M.
  /// Used by the oracle; exact for arbitrarily precise inputs.
  uint64_t roundRational(const Rational &V, RoundingMode M) const;

  /// True iff the double \p V is exactly a value of this format.
  bool isRepresentable(double V) const;

  /// True iff the encoding's integer bit-pattern is odd. This is the parity
  /// that round-to-odd targets.
  bool encodingIsOdd(uint64_t Encoding) const { return Encoding & 1; }

  /// Next representable value above \p V in this format (V must be
  /// representable and finite; the result may be +inf).
  double succValue(double V) const;
  /// Previous representable value below \p V (may be -inf).
  double predValue(double V) const;

  bool operator==(const FPFormat &RHS) const {
    return NBits == RHS.NBits && EBits == RHS.EBits;
  }

private:
  /// Shared rounding core: rounds Sign * Mag * 2^MagExp where Mag is an
  /// integer magnitude with exact RoundBit/Sticky semantics folded in by
  /// the callers. MsbExp is the exponent of Mag's leading bit in the value.
  uint64_t roundCore(bool Negative, uint64_t TopBits, int64_t MsbExp,
                     bool ExtraSticky, RoundingMode M) const;

  uint64_t overflowResult(bool Negative, RoundingMode M) const;

  unsigned NBits;
  unsigned EBits;
  unsigned MBits;
  int Bias;
};

} // namespace rfp

#endif // RFP_FP_FPFORMAT_H
