//===- oracle/OracleFastTables.cpp - Fast oracle constants ----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The recipe behind OracleFastTables.inc.
//
//===----------------------------------------------------------------------===//

#include "oracle/OracleFastTables.h"

#include "mp/MPTranscendental.h"

#include <cstdint>

using namespace rfp;
using namespace rfp::oracle_fast;

namespace {

constexpr RoundingMode RN = RoundingMode::NearestEven;

/// Working precision of every entry.
constexpr unsigned ConstPrec = 160;

/// \p V split hi/lo: Hi is V rounded to double, Lo the remainder's.
DD ddFromMP(const MPFloat &V) {
  double Hi = V.toDouble();
  MPFloat Rem = MPFloat::sub(V, MPFloat::fromDouble(Hi), 64, RN);
  return {Hi, Rem.toDouble()};
}

ExpConsts computeExp() {
  ExpConsts X;
  MPFloat L2 = mpt::ln2(ConstPrec + 16);
  X.Ln2 = ddFromMP(L2);
  X.Log2E = ddFromMP(MPFloat::div(MPFloat::fromInt(1), L2, ConstPrec, RN));
  X.Log2_10 =
      ddFromMP(MPFloat::div(mpt::ln10(ConstPrec + 16), L2, ConstPrec, RN));
  for (int J = 0; J < 128; ++J)
    X.Pow2[J] =
        ddFromMP(mpt::exp2Approx(MPFloat::fromDouble(J * 0x1p-7), ConstPrec));
  int64_t Fact = 1;
  for (int I = 0; I < 12; ++I) {
    if (I > 1)
      Fact *= I;
    X.InvFact[I] = ddFromMP(MPFloat::div(
        MPFloat::fromInt(1), MPFloat::fromInt(Fact), ConstPrec, RN));
  }
  return X;
}

LogConsts computeLog() {
  LogConsts X;
  MPFloat L2 = mpt::ln2(ConstPrec + 16);
  MPFloat L10 = mpt::ln10(ConstPrec + 16);
  MPFloat One = MPFloat::fromInt(1);
  X.Ln2 = ddFromMP(L2);
  X.Log10_2 = ddFromMP(MPFloat::div(L2, L10, ConstPrec, RN));
  X.InvLn2 = ddFromMP(MPFloat::div(One, L2, ConstPrec, RN));
  X.InvLn10 = ddFromMP(MPFloat::div(One, L10, ConstPrec, RN));
  for (int K = 0; K < 13; ++K) {
    MPFloat T = MPFloat::div(One, MPFloat::fromInt(K + 1), ConstPrec, RN);
    X.SeriesC[K] = ddFromMP((K & 1) ? T.negate() : T);
  }
  X.LnF[0] = X.Log2F[0] = X.Log10F[0] = DD{0.0, 0.0};
  for (int J = 1; J < 256; ++J) {
    MPFloat F = MPFloat::fromDouble(1.0 + J * 0x1p-8); // Exact.
    X.LnF[J] = ddFromMP(mpt::lnApprox(F, ConstPrec));
    X.Log2F[J] = ddFromMP(mpt::log2Approx(F, ConstPrec));
    X.Log10F[J] = ddFromMP(mpt::log10Approx(F, ConstPrec));
  }
  return X;
}

} // namespace

Tables oracle_fast::computeTables() {
  return Tables{computeExp(), computeLog()};
}
