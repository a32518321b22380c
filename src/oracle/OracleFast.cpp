//===- oracle/OracleFast.cpp - Certified double-double oracle -------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The scalar kernel and the dispatcher over the lane kernels. This TU and
// the lane TUs are built with -ffp-contract=off (src/CMakeLists.txt): every
// fused multiply-add below is an explicit std::fma, so the source alone
// defines the numerics in every build type, and the lane kernels
// (OracleFastLanes.h), which repeat this operation sequence, are
// bit-identical to it by construction.
//
//===----------------------------------------------------------------------===//

#include "oracle/OracleFast.h"

#include "fp/FPFormat.h"
#include "oracle/Oracle.h"
#include "oracle/OracleFastKernels.h"
#include "oracle/OracleFastTables.h"
#include "support/Telemetry.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace rfp;

namespace {

//===----------------------------------------------------------------------===//
// Double-double primitives (two-sum / two-prod building blocks)
//===----------------------------------------------------------------------===//
//
// A DD holds an unevaluated sum Hi + Lo with |Lo| <= ulp(Hi)/2, giving
// ~106 bits of precision. Per-operation relative error bounds below are
// the proved ones from Joldes/Muller/Popescu, "Tight and rigorous error
// bounds for basic building blocks of double-word arithmetic" (TOMS 2017):
// add (AccurateDWPlusDW) <= 3*2^-106, mul (DWTimesDW) <= 7*2^-106. The
// acceptance bounds asserted further down leave >= 2^11 of slack over the
// summed per-op budget, so they are conservative, not tight.

using oracle_fast::DD;
using oracle_fast::ExpConsts;
using oracle_fast::LogConsts;
using namespace oracle_fast::detail;

/// Exact: requires |A| >= |B| (or A == 0).
inline DD quickTwoSum(double A, double B) {
  double S = A + B;
  return {S, B - (S - A)};
}

/// Exact for any A, B (Knuth).
inline DD twoSum(double A, double B) {
  double S = A + B;
  double V = S - A;
  return {S, (A - (S - V)) + (B - V)};
}

/// Exact: Hi + Lo == A * B (hardware FMA).
inline DD twoProd(double A, double B) {
  double P = A * B;
  return {P, std::fma(A, B, -P)};
}

inline DD ddAdd(DD A, DD B) {
  DD S = twoSum(A.Hi, B.Hi);
  DD T = twoSum(A.Lo, B.Lo);
  S.Lo += T.Hi;
  S = quickTwoSum(S.Hi, S.Lo);
  S.Lo += T.Lo;
  return quickTwoSum(S.Hi, S.Lo);
}

inline DD ddMul(DD A, DD B) {
  DD P = twoProd(A.Hi, B.Hi);
  P.Lo = std::fma(A.Hi, B.Lo, A.Lo * B.Hi) + P.Lo;
  return quickTwoSum(P.Hi, P.Lo);
}

inline DD ddMulD(DD A, double B) {
  DD P = twoProd(A.Hi, B);
  P.Lo = std::fma(A.Lo, B, P.Lo);
  return quickTwoSum(P.Hi, P.Lo);
}

/// Y - KD * 2^-7 as a DD: the DD-plus-double sum, twoSum(Y.Hi, B) then
/// Y.Lo, with B = -KD * 2^-7 fused into both of twoSum's uses of it. The
/// product is exact (KD is an integer below 2^15), so the fusing changes
/// no value; it is written out so the source fixes the operation sequence.
inline DD ddSubScaled(DD Y, double KD) {
  double S = std::fma(-KD, 0x1p-7, Y.Hi);
  double V = S - Y.Hi;
  double Lo = (Y.Hi - (S - V)) + std::fma(-KD, 0x1p-7, -V);
  Lo += Y.Lo;
  return quickTwoSum(S, Lo);
}

/// A / B as a DD. The fma remainder R = A - Q1*B is exact (the standard
/// division-correction identity), so the error is one rounding of Q2:
/// relative error <= 2^-105.
inline DD ddDivDD(double A, double B) {
  double Q1 = A / B;
  double R = std::fma(-Q1, B, A);
  return quickTwoSum(Q1, R / B);
}

//===----------------------------------------------------------------------===//
// Certified constants and tables (generated from the MP layer)
//===----------------------------------------------------------------------===//

#include "oracle/OracleFastTables.inc"

//===----------------------------------------------------------------------===//
// Certified evaluation kernels
//===----------------------------------------------------------------------===//

const FPFormat &fp34Fmt() {
  static const FPFormat F = FPFormat::fp34();
  return F;
}

//===----------------------------------------------------------------------===//
// Structural verdicts (closed-form classes, settled before the kernels)
//===----------------------------------------------------------------------===//
//
// Three input classes have an RO_34 encoding known in closed form, so they
// are settled with no enclosure, BigInt or cache work (proofs in DESIGN.md,
// "Certified fast-path oracle"):
//
//   tiny       exp family, 0 < |x| < 2^-29: |b^x - 1| < 2^-27 lies strictly
//              inside the round-to-odd cell beside 1.0, so RO_34 is
//              succ(1) = enc(1) + 1 for x > 0 and pred(1) = enc(1) - 1 for
//              x < 0, both odd. f(0) = 1 is exact and stays with the exact
//              path.
//   special    non-finite x and log-family x <= 0: Oracle::eval answers
//              these by its domain rules alone, without evaluating f.
//   saturated  exp family beyond Oracle::expSaturation's clamps: one
//              encoding per side, Oracle::saturatedResult's.

struct ClosedForms {
  uint64_t One;       ///< enc(1.0): zero mantissa, so even.
  uint64_t Overflow;  ///< Oracle::eval's encoding past the overflow clamp.
  uint64_t Underflow; ///< Oracle::eval's encoding past the underflow clamp.
};

const ClosedForms &closedForms() {
  static const ClosedForms C = [] {
    const FPFormat &F = fp34Fmt();
    constexpr RoundingMode RO = RoundingMode::ToOdd;
    return ClosedForms{
        F.roundDouble(1.0, RO),
        Oracle::saturatedResult(Oracle::Saturation::Overflow, F, RO),
        Oracle::saturatedResult(Oracle::Saturation::Underflow, F, RO)};
  }();
  return C;
}

} // namespace

/// The kernels below run only on inputs this declines: finite x, and x > 0
/// for the log family.
bool rfp::oracle_fast::detail::structuralVerdict(ElemFunc Fn, uint32_t XBits,
                                                 uint64_t &Enc) {
  float Xf;
  std::memcpy(&Xf, &XBits, sizeof(Xf));
  double X = Xf;
  bool ExpFamily = isExpFamily(Fn);
  if ((XBits & 0x7f800000u) == 0x7f800000u || (!ExpFamily && X <= 0.0)) {
    Enc = Oracle::eval(Fn, X, fp34Fmt(), RoundingMode::ToOdd);
    return true;
  }
  if (!ExpFamily)
    return false;
  uint32_t Abs = XBits & 0x7fffffffu;
  if (Abs < TinyBits) {
    if (Abs == 0)
      return false;
    uint64_t One = closedForms().One;
    Enc = (XBits >> 31) ? One - 1 : One + 1;
    return true;
  }
  switch (Oracle::expSaturation(Fn, X, fp34Fmt())) {
  case Oracle::Saturation::Overflow:
    Enc = closedForms().Overflow;
    return true;
  case Oracle::Saturation::Underflow:
    Enc = closedForms().Underflow;
    return true;
  case Oracle::Saturation::None:
    break;
  }
  return false;
}

namespace {

/// Accepts iff the whole enclosure [v - e, v + e] rounds (round-to-odd,
/// FP34) to one encoding. The padding absorbs the two double roundings in
/// forming each endpoint (each < ulp/2 ~ |v|*2^-53, versus pad |v|*2^-50)
/// and the extra nextafter step makes the endpoints outward-safe even at
/// binade boundaries where ulp halves. RO is monotone in value, and
/// same-encoding endpoints of opposite sign are impossible (the sign bit
/// differs), so endpoint agreement proves every value in the enclosure --
/// the true f(x) included -- rounds to that encoding.
inline Verdict certifyRO34(DD V, double AbsErr, uint64_t &Enc) {
  double Pad = AbsErr + std::ldexp(std::fabs(V.Hi), -PadBits);
  double Lo = std::nextafter(V.Hi + (V.Lo - Pad), -HUGE_VAL);
  double Hi = std::nextafter(V.Hi + (V.Lo + Pad), HUGE_VAL);
  const FPFormat &F34 = fp34Fmt();
  uint64_t ELo = F34.roundDouble(Lo, RoundingMode::ToOdd);
  if (ELo != F34.roundDouble(Hi, RoundingMode::ToOdd))
    return Verdict::Boundary;
  Enc = ELo;
  return Verdict::Accepted;
}

/// exp(z) - truncated Taylor for |z| <= 2^-8.4: term 12 is < 2^-131, far
/// below the asserted bound.
inline DD expTaylor(DD Z, const ExpConsts &C) {
  DD S = C.InvFact[11];
  for (int I = 10; I >= 0; --I)
    S = ddAdd(ddMul(S, Z), C.InvFact[I]);
  return S;
}

/// 2^y for y = x * log2(base) evaluated as 2^(k/128) * exp(r*ln2), for
/// finite x.
inline Verdict fastExpKind(ElemFunc Fn, uint32_t XBits, uint64_t &Enc) {
  float Xf;
  std::memcpy(&Xf, &XBits, sizeof(Xf));
  double X = Xf;

  const ExpConsts &C = CommittedTables.Exp;
  DD Y; // Base-2 exponent of the result.
  switch (Fn) {
  case ElemFunc::Exp2:
    Y = DD{X, 0.0};
    break;
  case ElemFunc::Exp:
    Y = ddMulD(C.Log2E, X);
    break;
  default:
    Y = ddMulD(C.Log2_10, X);
    break;
  }
  if (!(Y.Hi > ExpYMin && Y.Hi < ExpYMax))
    return Verdict::Domain;

  double KD = std::nearbyint(Y.Hi * 128.0);
  int64_t K = static_cast<int64_t>(KD);
  DD R = ddSubScaled(Y, KD); // |R| <= 2^-8.49 + ulp.
  DD Z = ddMul(R, C.Ln2);
  DD E = expTaylor(Z, C);
  DD V = ddMul(C.Pow2[K & 127], E);
  int N = static_cast<int>(K >> 7);
  V.Hi = std::ldexp(V.Hi, N); // Exact: both components stay normal
  V.Lo = std::ldexp(V.Lo, N); // (N >= -150, |V.Lo| >= ~2^-53 * V.Hi).

  double AbsErr = std::ldexp(V.Hi, -ExpErrBits);
  return certifyRO34(V, AbsErr, Enc);
}

/// log1p(u)/u - truncated alternating series for 0 <= u < 2^-8: term 14
/// is < 2^-115.
inline DD log1pSeries(DD U, const LogConsts &C) {
  DD S = C.SeriesC[12];
  for (int I = 11; I >= 0; --I)
    S = ddAdd(ddMul(S, U), C.SeriesC[I]);
  return ddMul(S, U);
}

/// log_b(x) = e * log_b(2) + log_b(F) + log1p(f/F)/ln(b) with F = 1 +
/// j/256 read off the top 8 mantissa bits; f = m - F is exact and
/// one-sided (0 <= f < 2^-8). Requires finite x > 0.
inline Verdict fastLogKind(ElemFunc Fn, uint32_t XBits, uint64_t &Enc) {
  uint32_t EF = XBits >> 23;
  uint32_t M23 = XBits & 0x7fffffu;
  int E;
  if (EF == 0) {
    // Subnormal: renormalize so the hidden bit sits at position 23.
    int Sh = std::countl_zero(M23) - 8;
    M23 = (M23 << Sh) & 0x7fffffu;
    E = -126 - Sh;
  } else {
    E = static_cast<int>(EF) - 127;
  }
  uint32_t J = M23 >> 15;
  double F = std::fma(J, 0x1p-8, 1.0); // Exact.
  double Fr = (M23 & 0x7fffu) * 0x1p-23; // m - F, exact.

  const LogConsts &C = CommittedTables.Log;
  DD U = ddDivDD(Fr, F);
  DD L = log1pSeries(U, C); // ln(1 + u)
  DD T1, T2, T3;
  switch (Fn) {
  case ElemFunc::Log:
    T1 = ddMulD(C.Ln2, static_cast<double>(E));
    T2 = C.LnF[J];
    T3 = L;
    break;
  case ElemFunc::Log2:
    T1 = DD{static_cast<double>(E), 0.0};
    T2 = C.Log2F[J];
    T3 = ddMul(L, C.InvLn2);
    break;
  default:
    T1 = ddMulD(C.Log10_2, static_cast<double>(E));
    T2 = C.Log10F[J];
    T3 = ddMul(L, C.InvLn10);
    break;
  }
  DD V = ddAdd(ddAdd(T1, T2), T3);
  double Mag =
      std::fabs(T1.Hi) + std::fabs(T2.Hi) + std::fabs(T3.Hi) + std::fabs(V.Hi);
  double AbsErr = std::ldexp(Mag, -LogErrBits);
  return certifyRO34(V, AbsErr, Enc);
}

inline Verdict fastEval(ElemFunc Fn, uint32_t XBits, uint64_t &Enc) {
  if (oracle_fast::detail::structuralVerdict(Fn, XBits, Enc))
    return Verdict::Accepted;
  return isExpFamily(Fn) ? fastExpKind(Fn, XBits, Enc)
                         : fastLogKind(Fn, XBits, Enc);
}

struct FastCounters {
  telemetry::Counter Accepts = telemetry::counter("oracle.fast.accepts");
  telemetry::Counter Fallbacks = telemetry::counter("oracle.fast.fallbacks");
  telemetry::Counter Rejects = telemetry::counter("oracle.fast.rejects");
  /// Batch elements, under the ISA whose kernel ran (indexed by BatchISA;
  /// NEON has no oracle kernel).
  telemetry::Counter Elems[3] = {
      telemetry::counter("oracle.fast.elems.scalar"),
      telemetry::counter("oracle.fast.elems.avx2"),
      telemetry::counter("oracle.fast.elems.avx512"),
  };
};

const FastCounters &fastCounters() {
  static FastCounters C;
  return C;
}

std::atomic<int> EnabledFlag{-1};

/// A batch kernel: a lane kernel, or null for the scalar loop.
struct BatchKernel {
  LaneKernelFn Lanes;
  BatchISA ISA;
};

/// \p ISA's lane kernel if it is usable, the scalar loop otherwise. NEON
/// keeps the scalar loop.
BatchKernel kernelFor(BatchISA ISA) {
  if (batchISAUsable(ISA)) {
#ifdef RFP_HAVE_AVX512_KERNELS
    if (ISA == BatchISA::AVX512)
      return {evalToOdd34AVX512, ISA};
#endif
#ifdef RFP_HAVE_AVX2_KERNELS
    if (ISA == BatchISA::AVX2)
      return {evalToOdd34AVX2, ISA};
#endif
  }
  return {nullptr, BatchISA::Scalar};
}

/// The process's kernel, resolved once from the ISA libm's batch kernels
/// also run on (support/BatchISA.h).
const BatchKernel &activeKernel() {
  static const BatchKernel K = kernelFor(activeBatchISA());
  return K;
}

void runBatch(const BatchKernel &K, ElemFunc Fn, const uint32_t *XBits,
              size_t N, uint64_t *Enc, uint8_t *Status) {
  uint64_t Tally[3] = {0, 0, 0}; // Indexed by Verdict.
  if (K.Lanes) {
    const FPFormat &F34 = fp34Fmt();
    const LaneContext Ctx{F34.totalBits(), F34.expBits(),
                          Oracle::expSaturationClamp(Fn, F34)};
    K.Lanes(Fn, Ctx, XBits, N, Enc, Status, Tally);
  } else {
    for (size_t I = 0; I < N; ++I) {
      Verdict V = fastEval(Fn, XBits[I], Enc[I]);
      Status[I] = V == Verdict::Accepted;
      ++Tally[static_cast<unsigned>(V)];
    }
  }
  const FastCounters &C = fastCounters();
  C.Accepts.add(Tally[static_cast<unsigned>(Verdict::Accepted)]);
  C.Fallbacks.add(Tally[static_cast<unsigned>(Verdict::Boundary)]);
  C.Rejects.add(Tally[static_cast<unsigned>(Verdict::Domain)]);
  C.Elems[static_cast<unsigned>(K.ISA)].add(N);
}

} // namespace

const oracle_fast::Tables &rfp::oracle_fast::tables() {
  return CommittedTables;
}

bool rfp::oracle_fast::enabled() {
  int V = EnabledFlag.load(std::memory_order_relaxed);
  if (V < 0) {
    const char *Env = std::getenv("RFP_ORACLE_FAST");
    V = (!Env || std::strcmp(Env, "0") != 0) ? 1 : 0;
    EnabledFlag.store(V, std::memory_order_relaxed);
  }
  return V != 0;
}

void rfp::oracle_fast::setEnabled(bool On) {
  EnabledFlag.store(On ? 1 : 0, std::memory_order_relaxed);
}

bool rfp::oracle_fast::tryEvalToOdd34(ElemFunc Fn, uint32_t XBits,
                                      uint64_t &Enc) {
  const FastCounters &C = fastCounters();
  switch (fastEval(Fn, XBits, Enc)) {
  case Verdict::Accepted:
    C.Accepts.inc();
    return true;
  case Verdict::Boundary:
    C.Fallbacks.inc();
    return false;
  case Verdict::Domain:
    C.Rejects.inc();
    return false;
  }
  return false;
}

void rfp::oracle_fast::evalToOdd34Batch(ElemFunc Fn, const uint32_t *XBits,
                                        size_t N, uint64_t *Enc,
                                        uint8_t *Status) {
  runBatch(activeKernel(), Fn, XBits, N, Enc, Status);
}

void rfp::oracle_fast::evalToOdd34Batch(BatchISA ISA, ElemFunc Fn,
                                        const uint32_t *XBits, size_t N,
                                        uint64_t *Enc, uint8_t *Status) {
  runBatch(kernelFor(ISA), Fn, XBits, N, Enc, Status);
}

BatchISA rfp::oracle_fast::batchISA() { return activeKernel().ISA; }
