//===- core/RoundingInterval.cpp - Rounding-interval machinery ------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RoundingInterval.h"

#include <cfloat>
#include <cmath>
#include <cstring>

using namespace rfp;

HInterval rfp::roundingIntervalRO(double Y, const FPFormat &F) {
  assert(std::isfinite(Y) && F.isRepresentable(Y) &&
         "rounding interval requires a finite representable value");
  uint64_t Enc = F.roundDouble(Y, RoundingMode::TowardZero);
  assert(F.decode(Enc) == Y);
  return roundingIntervalROEnc(Enc, F);
}

HInterval rfp::roundingIntervalROEnc(uint64_t Enc, const FPFormat &F) {
  assert(F.isFinite(Enc) && "rounding interval requires a finite encoding");
  double Y = F.decode(Enc);

  HInterval R;
  R.Valid = true;
  if (!F.encodingIsOdd(Enc)) {
    // Round-to-odd maps a value onto an even encoding only when it is that
    // exact value; the interval collapses to a point.
    R.Lo = R.Hi = Y;
    return R;
  }
  // Every value strictly between the two even neighbours rounds to Y.
  double Pred = F.predValue(Y);
  double Succ = F.succValue(Y);
  R.Lo = std::isinf(Pred) ? -DBL_MAX
                          : std::nextafter(Pred, HUGE_VAL);
  R.Hi = std::isinf(Succ) ? DBL_MAX : std::nextafter(Succ, -HUGE_VAL);
  return R;
}

namespace {

/// The adjustment window: each bound moves at most this many doubles.
constexpr int MaxAdjust = 128;

/// X after K nextafter steps toward +inf (Up) or -inf. While the path stays
/// finite and on one side of zero, each step moves the encoding by one;
/// elsewhere (nextafter skips -0.0 going down and +0.0 going up, and stops
/// at the infinities) the steps are taken one at a time.
double stepDoubles(double X, int K, bool Up) {
  constexpr uint64_t SignBit = 1ull << 63, InfBits = 0x7ff0000000000000ull;
  uint64_t Bits;
  std::memcpy(&Bits, &X, sizeof(Bits));
  const uint64_t Mag = Bits & ~SignBit;
  const uint64_t Steps = static_cast<uint64_t>(K);
  if (Mag < InfBits) {
    bool Away = Up == !(Bits & SignBit); // The magnitude grows.
    if (Away ? Mag + Steps < InfBits : Mag >= Steps) {
      Bits = Away ? Bits + Steps : Bits - Steps;
      std::memcpy(&X, &Bits, sizeof(X));
      return X;
    }
  }
  for (int I = 0; I < K; ++I)
    X = std::nextafter(X, Up ? HUGE_VAL : -HUGE_VAL);
  return X;
}

/// The first K in [First, MaxAdjust] with Stop(K), or MaxAdjust + 1 when
/// there is none. Stop must be monotone on that range (false, then true).
/// Tests First (where exp-family walks stop), then the cap (where
/// log-family walks stop), then bisects between them.
template <typename StopT> int firstStop(int First, StopT Stop) {
  if (Stop(First))
    return First;
  if (!Stop(MaxAdjust))
    return MaxAdjust + 1;
  int Lo = First, Hi = MaxAdjust; // !Stop(Lo) and Stop(Hi).
  while (Hi - Lo > 1) {
    int Mid = Lo + (Hi - Lo) / 2;
    if (Stop(Mid))
      Hi = Mid;
    else
      Lo = Mid;
  }
  return Hi;
}

/// One bound of the interval, from the approximate inverse \p Start. The
/// walk it reproduces moves outward (up when \p OutUp, for the high bound)
/// while the next double's compensated value is still Inside, or inward
/// while the current one is Outside, at most MaxAdjust doubles either way.
/// Inside and Outside are the walk's own comparisons: with a NaN bound both
/// are false, so the walk takes no step and neither does this. Returns
/// false when no double in the window is Inside.
template <typename OCT, typename InsideT, typename OutsideT>
bool adjustBound(double Start, bool OutUp, OCT OC, InsideT Inside,
                 OutsideT Outside, double &Bound, bool &Capped) {
  // The compensation is monotone non-decreasing and NaN only at NaN, so
  // along either path each predicate below is false up to some step and
  // true from there on: its first true step is where the walk stopped.
  double C0 = OC(Start);
  if (Inside(C0)) {
    int K = firstStop(1, [&](int Step) {
      return Outside(OC(stepDoubles(Start, Step, OutUp)));
    });
    Capped = K > MaxAdjust;
    Bound = stepDoubles(Start, K - 1, OutUp);
    return true;
  }
  int K = !Outside(C0) ? 0 : firstStop(1, [&](int Step) {
    return !Outside(OC(stepDoubles(Start, Step, !OutUp)));
  });
  if (K > MaxAdjust)
    return false;
  Bound = stepDoubles(Start, K, !OutUp);
  return true;
}

} // namespace

HInterval rfp::inferPolyInterval(ElemFunc F, const libm::Reduction &R,
                                 double Lo, double Hi) {
  assert(R.PolyPath && "inference requires a polynomial-path reduction");
  auto OC = [&](double V) { return libm::outputCompensate(F, V, R); };

  // Approximate inverse of the (monotone non-decreasing) compensation.
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
  // Alpha: the smallest double whose compensated value clears Lo. Beta:
  // the largest double whose compensated value stays at or below Hi.
  double Alpha, Beta;
  bool AlphaCapped = false, BetaCapped = false;
  if (!adjustBound(
          Alpha0, /*OutUp=*/false, OC, [&](double C) { return C >= Lo; },
          [&](double C) { return C < Lo; }, Alpha, AlphaCapped) ||
      !adjustBound(
          Beta0, /*OutUp=*/true, OC, [&](double C) { return C <= Hi; },
          [&](double C) { return C > Hi; }, Beta, BetaCapped))
    return Out;

  // The compensated boundaries must land inside [Lo, Hi] (they could fall
  // off the far side when the interval is narrower than one compensation
  // ulp -- the paper then reports an empty reduced interval).
  if (Alpha > Beta || OC(Alpha) > Hi || OC(Beta) < Lo)
    return Out;
  Out.Lo = Alpha;
  Out.Hi = Beta;
  Out.Valid = true;
  Out.Capped = AlphaCapped || BetaCapped;
  return Out;
}
