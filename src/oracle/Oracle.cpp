//===- oracle/Oracle.cpp - Correctly rounded result oracle ----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

#include "mp/MPTranscendental.h"
#include "support/Telemetry.h"

#include <cmath>

using namespace rfp;

/// Base-2 exponent below which exp-family results saturate to underflow:
/// two binades under the half-ulp of the smallest subnormal.
static int underflowExp(const FPFormat &F) {
  return F.minExp() - static_cast<int>(F.precision()) - 2;
}

/// Widens the approximation's error interval and checks that both ends
/// round to the same encoding of \p F; that encoding is then the correctly
/// rounded result (Ziv's rounding test at format granularity).
static bool roundsUnambiguously(const MPFloat &Approx, unsigned W,
                                const FPFormat &F, RoundingMode M,
                                uint64_t &EncodingOut) {
  Rational A = Approx.toRational();
  // |err| <= |approx| * 2^-(W - slack).
  Rational Eps = A.abs() *
                 Rational(BigInt(1), BigInt::pow2(W - mpt::ApproxSlackBits));
  uint64_t Lo = F.roundRational(A - Eps, M);
  uint64_t Hi = F.roundRational(A + Eps, M);
  if (Lo != Hi)
    return false;
  EncodingOut = Lo;
  return true;
}

Oracle::Saturation Oracle::expSaturation(ElemFunc Fn, double X,
                                         const FPFormat &F) {
  double Log2Scale = Fn == ElemFunc::Exp2  ? 1.0
                     : Fn == ElemFunc::Exp ? 1.4426950408889634
                                           : 3.321928094887362;
  double ResultLog2 = X * Log2Scale;
  if (ResultLog2 > F.maxExp() + 2)
    return Saturation::Overflow;
  if (ResultLog2 < underflowExp(F))
    return Saturation::Underflow;
  return Saturation::None;
}

uint64_t Oracle::saturatedResult(Saturation S, const FPFormat &F,
                                 RoundingMode M) {
  if (S == Saturation::Overflow)
    return F.roundRational(
        Rational(BigInt::pow2(static_cast<unsigned>(F.maxExp() + 4))), M);
  return F.roundRational(
      Rational(BigInt(1),
               BigInt::pow2(static_cast<unsigned>(-underflowExp(F) + 4))),
      M);
}

uint64_t Oracle::eval(ElemFunc Fn, double X, const FPFormat &F,
                      RoundingMode M) {
  // Domain handling mirrors IEEE libm semantics.
  if (std::isnan(X))
    return F.quietNaN();
  if (isExpFamily(Fn)) {
    if (std::isinf(X))
      return X > 0 ? F.plusInf() : F.roundRational(Rational(0), M);
  } else {
    if (X < 0.0)
      return F.quietNaN();
    if (X == 0.0)
      return F.minusInf();
    if (std::isinf(X))
      return F.plusInf();
  }

  // Clamp exp-family results far outside the format's range (see
  // expSaturation). Inputs merely *near* the overflow and underflow
  // boundaries still take the exact MP path below.
  if (isExpFamily(Fn)) {
    Saturation S = expSaturation(Fn, X, F);
    if (S != Saturation::None)
      return saturatedResult(S, F, M);
  }

  MPFloat XM = MPFloat::fromDouble(X);

  bool IsExact = false;
  MPFloat Exact = mpt::exactResult(Fn, XM, IsExact);
  if (IsExact)
    return F.roundRational(Exact.toRational(), M);

  // Ziv's strategy at format granularity: widen the working precision
  // until the error interval rounds unambiguously (it always does for
  // non-exact results; see mpt::exactResult). This loop is distinct from
  // mpt's zivRound (which serves the direct MP API), so it reports its
  // own escalation counters.
  static const telemetry::Counter ZivCalls =
      telemetry::counter("oracle.ziv.calls");
  static const telemetry::Counter ZivRetries =
      telemetry::counter("oracle.ziv.retries");
  ZivCalls.inc();
  for (unsigned W = F.precision() + 2 * mpt::ApproxSlackBits + 24;
       W <= F.precision() + 1024; W += 64) {
    if (W > F.precision() + 2 * mpt::ApproxSlackBits + 24)
      ZivRetries.inc();
    MPFloat Approx = mpt::evalApprox(Fn, XM, W);
    assert(!Approx.isZero() && "approximation of a non-zero value is zero");
    uint64_t Enc;
    if (roundsUnambiguously(Approx, W, F, M, Enc))
      return Enc;
  }
  assert(false && "oracle Ziv loop failed to disambiguate");
  return F.quietNaN();
}
