//===- oracle/OracleFastLanes.h - Fast oracle kernel on lanes --*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The certified fast oracle's kernel written once over a lane-ops type V,
/// for OracleFastAVX2.cpp (4 lanes) and OracleFastAVX512.cpp (8 lanes) to
/// instantiate. Include it only from those TUs: everything here has
/// internal linkage, including this TU's own copy of the committed tables,
/// so no wide-ISA copy of a symbol is ever shared with baseline code.
///
/// Every lane repeats the scalar kernel's (OracleFast.cpp) operation
/// sequence: the same IEEE operations in the same order, with the same
/// explicit fused multiply-adds, and all these TUs are built with
/// -ffp-contract=off, so each lane's values are the scalar kernel's bit for
/// bit, under every FP rounding mode. Its library calls become lane
/// operations with the same results:
///
///   ldexp(v, n)          v * 2^n: exact, since n is in [-150, 127] and
///                        every scaled value stays normal
///   nextafter(v, -+inf)  -+1 on the bit pattern, with explicit zero and
///                        sign cases (the kernel's values are finite)
///   nearbyint(v)         rounding to an integer in the current direction
///   roundDouble(v, RO)   round8 / round4 <ToOdd> (fp/RoundLanes.h), the
///                        integer rule roundBatch's kernels use
///
/// The log kernel reads x's exponent and top mantissa bits off the double
/// x, whose normalized form renormalizes float subnormals exactly as the
/// scalar count-leading-zeros step does.
///
/// Lanes in a structural class (tiny, special, saturated) take the scalar
/// structuralVerdict, the one definition of the closed forms; the masks
/// that pick them are its predicate lane by lane, the saturation mask
/// being Oracle::expSaturation's double compare (LaneContext::Sat).
///
/// V provides, with D the double lanes, I the 64-bit integer lanes and M a
/// lane mask:
///
///   W                       lane count
///   RoundFmt, ro(F, I)      round8/round4<ToOdd> of the bit patterns
///   set, add, sub, mul, div, abs, roundCur
///   fma / fms / fnma / fnms a*b + c, a*b - c, -(a*b) + c, -(a*b) - c,
///                           one rounding each
///   gt, lt, le -> M         ordered double compares
///   iset, iadd, isub, iand, srl<S>, sll<S>, ieq, igt -> M, sel(M, a, b)
///   asI, asD                bit casts
///   toD, toI                small integers to double and back (exact)
///   gather(Base, Idx)       Base[Idx] per lane
///   load(P, Bits, X)        W float bit patterns, zero-extended, and x
///   store(P, Bits, I)       masked store of the lanes set in Bits
///   bits(M)                 the mask as W low bits
///
//===----------------------------------------------------------------------===//

#ifndef RFP_ORACLE_ORACLEFASTLANES_H
#define RFP_ORACLE_ORACLEFASTLANES_H

#include "oracle/OracleFastKernels.h"
#include "oracle/OracleFastTables.h"

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace rfp {
namespace {

namespace lanes {
#include "oracle/OracleFastTables.inc"
} // namespace lanes

/// 2^-N, for constant expressions.
constexpr double pow2Neg(int N) {
  double V = 1.0;
  for (int I = 0; I < N; ++I)
    V *= 0.5;
  return V;
}

template <class V> struct OracleLanes {
  using D = typename V::D;
  using I = typename V::I;
  using Verdict = oracle_fast::detail::Verdict;
  static constexpr int W = V::W;
  static constexpr unsigned Full = (1u << W) - 1u;

  struct DD {
    D Hi, Lo;
  };

  static DD dd(const oracle_fast::DD &C) { return {V::set(C.Hi), V::set(C.Lo)}; }
  template <int S> static I srl(I A) { return V::template srl<S>(A); }
  template <int S> static I sll(I A) { return V::template sll<S>(A); }

  //===--------------------------------------------------------------------===//
  // Double-double primitives, as OracleFast.cpp writes them
  //===--------------------------------------------------------------------===//

  static DD quickTwoSum(D A, D B) {
    D S = V::add(A, B);
    return {S, V::sub(B, V::sub(S, A))};
  }

  static DD twoSum(D A, D B) {
    D S = V::add(A, B);
    D T = V::sub(S, A);
    return {S, V::add(V::sub(A, V::sub(S, T)), V::sub(B, T))};
  }

  static DD twoProd(D A, D B) {
    D P = V::mul(A, B);
    return {P, V::fms(A, B, P)};
  }

  static DD ddAdd(DD A, DD B) {
    DD S = twoSum(A.Hi, B.Hi);
    DD T = twoSum(A.Lo, B.Lo);
    S.Lo = V::add(S.Lo, T.Hi);
    S = quickTwoSum(S.Hi, S.Lo);
    S.Lo = V::add(S.Lo, T.Lo);
    return quickTwoSum(S.Hi, S.Lo);
  }

  static DD ddMul(DD A, DD B) {
    DD P = twoProd(A.Hi, B.Hi);
    P.Lo = V::add(V::fma(A.Hi, B.Lo, V::mul(A.Lo, B.Hi)), P.Lo);
    return quickTwoSum(P.Hi, P.Lo);
  }

  static DD ddMulD(DD A, D B) {
    DD P = twoProd(A.Hi, B);
    P.Lo = V::fma(A.Lo, B, P.Lo);
    return quickTwoSum(P.Hi, P.Lo);
  }

  static DD ddSubScaled(DD Y, D KD) {
    const D Step = V::set(0x1p-7);
    D S = V::fnma(KD, Step, Y.Hi);
    D T = V::sub(S, Y.Hi);
    D Lo = V::add(V::sub(Y.Hi, V::sub(S, T)), V::fnms(KD, Step, T));
    Lo = V::add(Lo, Y.Lo);
    return quickTwoSum(S, Lo);
  }

  static DD ddDivDD(D A, D B) {
    D Q1 = V::div(A, B);
    D R = V::fnma(Q1, B, A);
    return quickTwoSum(Q1, V::div(R, B));
  }

  //===--------------------------------------------------------------------===//
  // Certification
  //===--------------------------------------------------------------------===//

  /// nextafter(x, -inf) and nextafter(x, +inf) of finite x, as bits.
  static I nextDown(D X) {
    I B = V::asI(X);
    D Zero = V::set(0.0);
    return V::sel(V::gt(X, Zero), V::isub(B, V::iset(1)),
                  V::sel(V::lt(X, Zero), V::iadd(B, V::iset(1)),
                         V::iset(INT64_MIN + 1)));
  }
  static I nextUp(D X) {
    I B = V::asI(X);
    D Zero = V::set(0.0);
    return V::sel(V::gt(X, Zero), V::iadd(B, V::iset(1)),
                  V::sel(V::lt(X, Zero), V::isub(B, V::iset(1)),
                         V::iset(1)));
  }

  /// certifyRO34: the lanes whose padded enclosure rounds to one FP34
  /// encoding, which is left in \p Enc.
  static unsigned certify(const typename V::RoundFmt &F, DD Val, D AbsErr,
                          I &Enc) {
    D Pad = V::add(AbsErr, V::mul(V::abs(Val.Hi),
                                  V::set(pow2Neg(oracle_fast::detail::PadBits))));
    I ELo = V::ro(F, nextDown(V::add(Val.Hi, V::sub(Val.Lo, Pad))));
    I EHi = V::ro(F, nextUp(V::add(Val.Hi, V::add(Val.Lo, Pad))));
    Enc = ELo;
    return V::bits(V::ieq(ELo, EHi));
  }

  //===--------------------------------------------------------------------===//
  // Kernels
  //===--------------------------------------------------------------------===//

  static DD expTaylor(DD Z) {
    const oracle_fast::ExpConsts &C = lanes::CommittedTables.Exp;
    DD S = dd(C.InvFact[11]);
    for (int K = 10; K >= 0; --K)
      S = ddAdd(ddMul(S, Z), dd(C.InvFact[K]));
    return S;
  }

  /// fastExpKind on every lane; \p InRange gets the lanes inside the
  /// kernel's range (the others are Domain).
  template <ElemFunc F>
  static unsigned expLanes(const typename V::RoundFmt &Fmt, D X,
                           unsigned &InRange, I &Enc) {
    const oracle_fast::ExpConsts &C = lanes::CommittedTables.Exp;
    DD Y;
    if constexpr (F == ElemFunc::Exp2)
      Y = {X, V::set(0.0)};
    else
      Y = ddMulD(dd(F == ElemFunc::Exp ? C.Log2E : C.Log2_10), X);
    InRange = V::bits(V::gt(Y.Hi, V::set(oracle_fast::detail::ExpYMin))) &
              V::bits(V::lt(Y.Hi, V::set(oracle_fast::detail::ExpYMax)));

    D KD = V::roundCur(V::mul(Y.Hi, V::set(128.0)));
    I K = V::toI(KD);
    DD Z = ddMul(ddSubScaled(Y, KD), dd(C.Ln2));
    DD E = expTaylor(Z);
    I J2 = sll<1>(V::iand(K, V::iset(127))); // Pow2 is {Hi, Lo} pairs.
    DD P = {V::gather(&C.Pow2[0].Hi, J2), V::gather(&C.Pow2[0].Lo, J2)};
    DD Val = ddMul(P, E);
    // 2^N for N = K >> 7, K in [-19136, 16320]: a logical shift of
    // K + 2^20 >= 0 gives N + 2^13.
    I N13 = srl<7>(V::iadd(K, V::iset(1 << 20)));
    D Scale = V::asD(sll<52>(V::iadd(N13, V::iset(1023 - (1 << 13)))));
    Val.Hi = V::mul(Val.Hi, Scale);
    Val.Lo = V::mul(Val.Lo, Scale);

    D AbsErr =
        V::mul(Val.Hi, V::set(pow2Neg(oracle_fast::detail::ExpErrBits)));
    return certify(Fmt, Val, AbsErr, Enc);
  }

  static DD log1pSeries(DD U) {
    const oracle_fast::LogConsts &C = lanes::CommittedTables.Log;
    DD S = dd(C.SeriesC[12]);
    for (int K = 11; K >= 0; --K)
      S = ddAdd(ddMul(S, U), dd(C.SeriesC[K]));
    return ddMul(S, U);
  }

  /// fastLogKind on every lane (meaningful where x > 0 is finite).
  template <ElemFunc F>
  static unsigned logLanes(const typename V::RoundFmt &Fmt, D X, I &Enc) {
    const oracle_fast::LogConsts &C = lanes::CommittedTables.Log;
    I XB = V::asI(X);
    I E = V::isub(srl<52>(XB), V::iset(1023));
    I M23 = V::iand(srl<29>(XB), V::iset(0x7fffff));
    I J = srl<15>(M23);
    D Fd = V::fma(V::toD(J), V::set(0x1p-8), V::set(1.0));
    D Fr = V::mul(V::toD(V::iand(M23, V::iset(0x7fff))), V::set(0x1p-23));

    DD U = ddDivDD(Fr, Fd);
    DD L = log1pSeries(U);
    D Ed = V::toD(E);
    I J2 = sll<1>(J);
    DD T1, T2, T3;
    if constexpr (F == ElemFunc::Log) {
      T1 = ddMulD(dd(C.Ln2), Ed);
      T2 = {V::gather(&C.LnF[0].Hi, J2), V::gather(&C.LnF[0].Lo, J2)};
      T3 = L;
    } else if constexpr (F == ElemFunc::Log2) {
      T1 = {Ed, V::set(0.0)};
      T2 = {V::gather(&C.Log2F[0].Hi, J2), V::gather(&C.Log2F[0].Lo, J2)};
      T3 = ddMul(L, dd(C.InvLn2));
    } else {
      T1 = ddMulD(dd(C.Log10_2), Ed);
      T2 = {V::gather(&C.Log10F[0].Hi, J2), V::gather(&C.Log10F[0].Lo, J2)};
      T3 = ddMul(L, dd(C.InvLn10));
    }
    DD Val = ddAdd(ddAdd(T1, T2), T3);
    D Mag = V::add(V::add(V::add(V::abs(T1.Hi), V::abs(T2.Hi)), V::abs(T3.Hi)),
                   V::abs(Val.Hi));
    D AbsErr = V::mul(Mag, V::set(pow2Neg(oracle_fast::detail::LogErrBits)));
    return certify(Fmt, Val, AbsErr, Enc);
  }

  //===--------------------------------------------------------------------===//
  // The batch frame
  //===--------------------------------------------------------------------===//

  /// W inputs, of which the lanes in \p Live count: structural lanes get
  /// the scalar closed forms, the rest the kernel; Enc is written on
  /// accepted lanes only, Status on every live lane.
  template <ElemFunc F>
  static void block(const oracle_fast::detail::LaneContext &Ctx,
                    const typename V::RoundFmt &Fmt, const uint32_t *XBits,
                    uint64_t *Enc, uint8_t *Status, unsigned Live,
                    uint64_t *Tally) {
    I Bits;
    D X;
    V::load(XBits, Bits, X);

    // structuralVerdict's predicate, lane by lane.
    const I ExpMask = V::iset(0x7f800000);
    unsigned Struct = V::bits(V::ieq(V::iand(Bits, ExpMask), ExpMask));
    if constexpr (isExpFamily(F)) {
      I Abs = V::iand(Bits, V::iset(0x7fffffff));
      Struct |= V::bits(V::igt(V::iset(oracle_fast::detail::TinyBits), Abs)) &
                ~V::bits(V::ieq(Abs, V::iset(0)));
      D R = V::mul(X, V::set(Ctx.Sat.Log2Scale));
      Struct |= V::bits(V::gt(R, V::set(Ctx.Sat.Over))) |
                V::bits(V::lt(R, V::set(Ctx.Sat.Under)));
    } else {
      Struct |= V::bits(V::le(X, V::set(0.0)));
    }
    Struct &= Live;

    unsigned Kernel = Live & ~Struct, Acc = 0, Domain = 0;
    if (Kernel) {
      I E;
      if constexpr (isExpFamily(F)) {
        unsigned InRange;
        Acc = expLanes<F>(Fmt, X, InRange, E) & InRange & Kernel;
        Domain = Kernel & ~InRange;
      } else {
        Acc = logLanes<F>(Fmt, X, E) & Kernel;
      }
      V::store(Enc, Acc, E);
    }
    for (unsigned S = Struct; S; S &= S - 1) {
      unsigned L = static_cast<unsigned>(__builtin_ctz(S));
      [[maybe_unused]] bool InClass =
          oracle_fast::detail::structuralVerdict(F, XBits[L], Enc[L]);
      assert(InClass && "lane class mask disagrees with structuralVerdict");
    }

    unsigned Certain = Acc | Struct;
    for (int L = 0; L < W; ++L)
      if ((Live >> L) & 1u)
        Status[L] = (Certain >> L) & 1u;
    Tally[static_cast<unsigned>(Verdict::Accepted)] +=
        static_cast<unsigned>(__builtin_popcount(Certain));
    Tally[static_cast<unsigned>(Verdict::Boundary)] +=
        static_cast<unsigned>(__builtin_popcount(Kernel & ~Domain & ~Acc));
    Tally[static_cast<unsigned>(Verdict::Domain)] +=
        static_cast<unsigned>(__builtin_popcount(Domain));
  }

  /// Full blocks in place; the tail through zero-padded copies, of which
  /// only the accepted lanes' Enc is copied back.
  template <ElemFunc F>
  static void run(const oracle_fast::detail::LaneContext &Ctx,
                  const uint32_t *XBits, size_t N, uint64_t *Enc,
                  uint8_t *Status, uint64_t *Tally) {
    const typename V::RoundFmt Fmt(Ctx.TotalBits, Ctx.ExpBits);
    size_t I0 = 0;
    for (; I0 + W <= N; I0 += W)
      block<F>(Ctx, Fmt, XBits + I0, Enc + I0, Status + I0, Full, Tally);
    if (I0 == N)
      return;
    size_t Rem = N - I0;
    uint32_t TailBits[W] = {};
    uint64_t TailEnc[W];
    uint8_t TailStatus[W];
    for (size_t K = 0; K < Rem; ++K)
      TailBits[K] = XBits[I0 + K];
    block<F>(Ctx, Fmt, TailBits, TailEnc, TailStatus, (1u << Rem) - 1u,
             Tally);
    for (size_t K = 0; K < Rem; ++K) {
      Status[I0 + K] = TailStatus[K];
      if (TailStatus[K])
        Enc[I0 + K] = TailEnc[K];
    }
  }
};

/// Two of V's vectors as one lane type of twice the width: every op runs
/// on both halves, so each step of the kernel's long dependency chains has
/// an independent twin to overlap with.
template <class V> struct PairOps {
  static constexpr int W = 2 * V::W;
  struct D {
    typename V::D A, B;
  };
  struct I {
    typename V::I A, B;
  };
  struct M {
    typename V::M A, B;
  };
  using RoundFmt = typename V::RoundFmt;

  static D set(double X) { return {V::set(X), V::set(X)}; }
  static D add(D X, D Y) { return {V::add(X.A, Y.A), V::add(X.B, Y.B)}; }
  static D sub(D X, D Y) { return {V::sub(X.A, Y.A), V::sub(X.B, Y.B)}; }
  static D mul(D X, D Y) { return {V::mul(X.A, Y.A), V::mul(X.B, Y.B)}; }
  static D div(D X, D Y) { return {V::div(X.A, Y.A), V::div(X.B, Y.B)}; }
  static D fma(D X, D Y, D Z) {
    return {V::fma(X.A, Y.A, Z.A), V::fma(X.B, Y.B, Z.B)};
  }
  static D fms(D X, D Y, D Z) {
    return {V::fms(X.A, Y.A, Z.A), V::fms(X.B, Y.B, Z.B)};
  }
  static D fnma(D X, D Y, D Z) {
    return {V::fnma(X.A, Y.A, Z.A), V::fnma(X.B, Y.B, Z.B)};
  }
  static D fnms(D X, D Y, D Z) {
    return {V::fnms(X.A, Y.A, Z.A), V::fnms(X.B, Y.B, Z.B)};
  }
  static D abs(D X) { return {V::abs(X.A), V::abs(X.B)}; }
  static D roundCur(D X) { return {V::roundCur(X.A), V::roundCur(X.B)}; }
  static M gt(D X, D Y) { return {V::gt(X.A, Y.A), V::gt(X.B, Y.B)}; }
  static M lt(D X, D Y) { return {V::lt(X.A, Y.A), V::lt(X.B, Y.B)}; }
  static M le(D X, D Y) { return {V::le(X.A, Y.A), V::le(X.B, Y.B)}; }

  static I iset(int64_t X) { return {V::iset(X), V::iset(X)}; }
  static I iadd(I X, I Y) { return {V::iadd(X.A, Y.A), V::iadd(X.B, Y.B)}; }
  static I isub(I X, I Y) { return {V::isub(X.A, Y.A), V::isub(X.B, Y.B)}; }
  static I iand(I X, I Y) { return {V::iand(X.A, Y.A), V::iand(X.B, Y.B)}; }
  template <int S> static I srl(I X) {
    return {V::template srl<S>(X.A), V::template srl<S>(X.B)};
  }
  template <int S> static I sll(I X) {
    return {V::template sll<S>(X.A), V::template sll<S>(X.B)};
  }
  static M ieq(I X, I Y) { return {V::ieq(X.A, Y.A), V::ieq(X.B, Y.B)}; }
  static M igt(I X, I Y) { return {V::igt(X.A, Y.A), V::igt(X.B, Y.B)}; }
  static I sel(M Mask, I X, I Y) {
    return {V::sel(Mask.A, X.A, Y.A), V::sel(Mask.B, X.B, Y.B)};
  }

  static I asI(D X) { return {V::asI(X.A), V::asI(X.B)}; }
  static D asD(I X) { return {V::asD(X.A), V::asD(X.B)}; }
  static D toD(I X) { return {V::toD(X.A), V::toD(X.B)}; }
  static I toI(D X) { return {V::toI(X.A), V::toI(X.B)}; }
  static D gather(const double *Base, I Idx) {
    return {V::gather(Base, Idx.A), V::gather(Base, Idx.B)};
  }
  static void load(const uint32_t *P, I &Bits, D &X) {
    V::load(P, Bits.A, X.A);
    V::load(P + V::W, Bits.B, X.B);
  }
  static void store(uint64_t *P, unsigned Lanes, I X) {
    V::store(P, Lanes & ((1u << V::W) - 1u), X.A);
    V::store(P + V::W, Lanes >> V::W, X.B);
  }
  static unsigned bits(M Mask) {
    return V::bits(Mask.A) | V::bits(Mask.B) << V::W;
  }
  static I ro(const RoundFmt &F, I X) { return {V::ro(F, X.A), V::ro(F, X.B)}; }
};

/// evalToOdd34Batch's contract on V's lanes.
template <class V>
void evalToOdd34Lanes(ElemFunc Fn, const oracle_fast::detail::LaneContext &Ctx,
                      const uint32_t *XBits, size_t N, uint64_t *Enc,
                      uint8_t *Status, uint64_t *Tally) {
  using L = OracleLanes<V>;
  switch (Fn) {
  case ElemFunc::Exp:
    return L::template run<ElemFunc::Exp>(Ctx, XBits, N, Enc, Status, Tally);
  case ElemFunc::Exp2:
    return L::template run<ElemFunc::Exp2>(Ctx, XBits, N, Enc, Status, Tally);
  case ElemFunc::Exp10:
    return L::template run<ElemFunc::Exp10>(Ctx, XBits, N, Enc, Status,
                                            Tally);
  case ElemFunc::Log:
    return L::template run<ElemFunc::Log>(Ctx, XBits, N, Enc, Status, Tally);
  case ElemFunc::Log2:
    return L::template run<ElemFunc::Log2>(Ctx, XBits, N, Enc, Status, Tally);
  case ElemFunc::Log10:
    return L::template run<ElemFunc::Log10>(Ctx, XBits, N, Enc, Status,
                                            Tally);
  }
}

} // namespace
} // namespace rfp

#endif // RFP_ORACLE_ORACLEFASTLANES_H
