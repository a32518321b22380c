//===- fp/RoundLanes.h - FPFormat::roundDouble across lanes ----*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lane form of FPFormat::roundDouble, integer-only, for formats with
/// precision <= 52 (DESIGN.md, "Rounding tier"): round8 on eight AVX-512
/// lanes and round4 on four AVX2 lanes. libm's rounding kernels
/// (libm/BatchKernels{AVX2,AVX512}.cpp) and the fast oracle's FP34
/// round-to-odd step (oracle/OracleFast{AVX2,AVX512}.cpp) are both built
/// on them, so the rule exists once.
///
/// Include only from a TU built with the matching ISA flags. Everything
/// here has internal linkage, so no wide-ISA copy of a symbol can be shared
/// with baseline code.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_FP_ROUNDLANES_H
#define RFP_FP_ROUNDLANES_H

#include "support/Rounding.h"

#include <cstdint>
#include <immintrin.h>

namespace rfp {
namespace {

#ifdef __AVX512F__

inline __m512i splat8(uint64_t V) {
  return _mm512_set1_epi64(static_cast<long long>(V));
}

/// FP(TotalBits, ExpBits)'s constants as 64-bit lanes. Exponents are kept
/// in the double's bias: MinEb / MaxEb are the format's minExp / maxExp
/// plus 1023.
struct RoundFmt8 {
  __m512i MinEb, MaxEb, ShiftBase, SignBit, PlusInf, QNaN;
  __m128i MantBits, SignShift;

  RoundFmt8(unsigned TotalBits, unsigned ExpBits) {
    unsigned MBits = TotalBits - 1 - ExpBits;
    uint64_t Bias = (1ull << (ExpBits - 1)) - 1;
    uint64_t Inf = ((1ull << ExpBits) - 1) << MBits;
    MinEb = splat8(1024 - Bias);
    MaxEb = splat8(1023 + Bias);
    ShiftBase = splat8(51 - MBits);
    SignBit = splat8(1ull << (TotalBits - 1));
    PlusInf = splat8(Inf);
    QNaN = splat8(Inf | (1ull << (MBits - 1)));
    MantBits = _mm_cvtsi32_si128(static_cast<int>(MBits));
    SignShift = _mm_cvtsi32_si128(static_cast<int>(64 - TotalBits));
  }
};

/// Eight lanes of FPFormat::roundDouble under mode M, from the doubles'
/// bit patterns \p B. Double subnormals read as biased exponent 1 without
/// the hidden bit, so Sig * 2^(Eb - 1075) is every finite lane's exact
/// value. Q is that value in ulps of the binade max(e, minExp), truncated,
/// with the round bit and sticky read off the same srlv/sllv pair; the
/// encoding is the binade's band plus Q, which carries into the next
/// binade (and from the top binade into the inf encoding) by itself. Zeros
/// need nothing: Sig = 0 gives Q = 0 in band 0.
template <RoundingMode M>
inline __m512i round8(const RoundFmt8 &F, __m512i B) {
  const __m512i One = splat8(1);
  __m512i E = _mm512_and_si512(_mm512_srli_epi64(B, 52), splat8(0x7ff));
  __m512i Frac = _mm512_and_si512(B, splat8((1ull << 52) - 1));
  __m512i Sig = _mm512_mask_or_epi64(Frac, _mm512_test_epi64_mask(E, E), Frac,
                                     splat8(1ull << 52));
  __m512i Eb = _mm512_max_epu64(E, One);
  __m512i Band = _mm512_max_epu64(Eb, F.MinEb);
  __m512i Shift = _mm512_add_epi64(F.ShiftBase, _mm512_sub_epi64(Band, Eb));
  __m512i T = _mm512_srlv_epi64(Sig, Shift); // Q:round bit
  __mmask8 RoundBit = _mm512_test_epi64_mask(T, One);
  __mmask8 Sticky = _mm512_cmpneq_epu64_mask(Sig, _mm512_sllv_epi64(T, Shift));
  __mmask8 Inexact = RoundBit | Sticky;
  __mmask8 Neg = _mm512_movepi64_mask(B);
  __m512i Q = _mm512_srli_epi64(T, 1);

  __mmask8 Inc = 0;    // lanes whose Q steps up by one ulp
  __mmask8 OvfFin = 0; // overflow lanes that saturate at max-finite
  if constexpr (M == RoundingMode::NearestEven) {
    Inc = RoundBit & (Sticky | _mm512_test_epi64_mask(Q, One));
  } else if constexpr (M == RoundingMode::NearestAway) {
    Inc = RoundBit;
  } else if constexpr (M == RoundingMode::TowardZero) {
    OvfFin = 0xff;
  } else if constexpr (M == RoundingMode::Upward) {
    Inc = Inexact & static_cast<__mmask8>(~Neg);
    OvfFin = Neg;
  } else if constexpr (M == RoundingMode::Downward) {
    Inc = Inexact & Neg;
    OvfFin = static_cast<__mmask8>(~Neg);
  } else {
    static_assert(M == RoundingMode::ToOdd, "unhandled rounding mode");
    Q = _mm512_mask_or_epi64(Q, Inexact, Q, One);
    OvfFin = 0xff;
  }
  Q = _mm512_mask_add_epi64(Q, Inc, Q, One);

  __m512i Sign = _mm512_and_si512(_mm512_srl_epi64(B, F.SignShift), F.SignBit);
  __m512i Out = _mm512_or_si512(
      Sign, _mm512_add_epi64(
                _mm512_sll_epi64(_mm512_sub_epi64(Band, F.MinEb), F.MantBits),
                Q));

  // Leading bit above maxExp: the mode's overflow result. Then the
  // double's own inf and NaN lanes (E = 0x7ff also compared above).
  __m512i OvfMag = _mm512_mask_sub_epi64(F.PlusInf, OvfFin, F.PlusInf, One);
  Out = _mm512_mask_or_epi64(Out, _mm512_cmpgt_epu64_mask(E, F.MaxEb), Sign,
                             OvfMag);
  __mmask8 InfNaN = _mm512_cmpeq_epi64_mask(E, splat8(0x7ff));
  Out = _mm512_mask_or_epi64(Out, InfNaN, Sign, F.PlusInf);
  return _mm512_mask_mov_epi64(
      Out, InfNaN & _mm512_test_epi64_mask(Frac, Frac), F.QNaN);
}

#endif // __AVX512F__

#ifdef __AVX2__

inline __m256i splat4(uint64_t V) {
  return _mm256_set1_epi64x(static_cast<long long>(V));
}

/// RoundFmt8 at four lanes.
struct RoundFmt4 {
  __m256i MinEb, MaxEb, ShiftBase, SignBit, PlusInf, QNaN;
  __m128i MantBits, SignShift;

  RoundFmt4(unsigned TotalBits, unsigned ExpBits) {
    unsigned MBits = TotalBits - 1 - ExpBits;
    uint64_t Bias = (1ull << (ExpBits - 1)) - 1;
    uint64_t Inf = ((1ull << ExpBits) - 1) << MBits;
    MinEb = splat4(1024 - Bias);
    MaxEb = splat4(1023 + Bias);
    ShiftBase = splat4(51 - MBits);
    SignBit = splat4(1ull << (TotalBits - 1));
    PlusInf = splat4(Inf);
    QNaN = splat4(Inf | (1ull << (MBits - 1)));
    MantBits = _mm_cvtsi32_si128(static_cast<int>(MBits));
    SignShift = _mm_cvtsi32_si128(static_cast<int>(64 - TotalBits));
  }
};

/// Four lanes of FPFormat::roundDouble under mode M: round8 with the masks
/// as 0/1 lanes (the mode rules are plain integer adds) and all-ones
/// compare results as blend selectors.
template <RoundingMode M>
inline __m256i round4(const RoundFmt4 &F, __m256i B) {
  const __m256i One = splat4(1);
  __m256i E = _mm256_and_si256(_mm256_srli_epi64(B, 52), splat4(0x7ff));
  __m256i Frac = _mm256_and_si256(B, splat4((1ull << 52) - 1));
  __m256i Subnormal = _mm256_cmpeq_epi64(E, _mm256_setzero_si256());
  __m256i Sig =
      _mm256_or_si256(Frac, _mm256_andnot_si256(Subnormal, splat4(1ull << 52)));
  __m256i Eb = _mm256_sub_epi64(E, Subnormal); // max(E, 1)
  __m256i Band =
      _mm256_blendv_epi8(Eb, F.MinEb, _mm256_cmpgt_epi64(F.MinEb, Eb));
  __m256i Shift = _mm256_add_epi64(F.ShiftBase, _mm256_sub_epi64(Band, Eb));
  __m256i T = _mm256_srlv_epi64(Sig, Shift); // Q:round bit
  __m256i RoundBit = _mm256_and_si256(T, One);
  __m256i Sticky = _mm256_andnot_si256(
      _mm256_cmpeq_epi64(Sig, _mm256_sllv_epi64(T, Shift)), One);
  __m256i Inexact = _mm256_or_si256(RoundBit, Sticky);
  __m256i Neg = _mm256_srli_epi64(B, 63);
  __m256i Q = _mm256_srli_epi64(T, 1);

  __m256i OvfFin; // 1 on overflow lanes that saturate at max-finite
  if constexpr (M == RoundingMode::NearestEven) {
    Q = _mm256_add_epi64(
        Q, _mm256_and_si256(RoundBit, _mm256_or_si256(Sticky, Q)));
    OvfFin = _mm256_setzero_si256();
  } else if constexpr (M == RoundingMode::NearestAway) {
    Q = _mm256_add_epi64(Q, RoundBit);
    OvfFin = _mm256_setzero_si256();
  } else if constexpr (M == RoundingMode::TowardZero) {
    OvfFin = One;
  } else if constexpr (M == RoundingMode::Upward) {
    Q = _mm256_add_epi64(Q, _mm256_andnot_si256(Neg, Inexact));
    OvfFin = Neg;
  } else if constexpr (M == RoundingMode::Downward) {
    Q = _mm256_add_epi64(Q, _mm256_and_si256(Inexact, Neg));
    OvfFin = _mm256_xor_si256(Neg, One);
  } else {
    static_assert(M == RoundingMode::ToOdd, "unhandled rounding mode");
    Q = _mm256_or_si256(Q, Inexact);
    OvfFin = One;
  }

  __m256i Sign = _mm256_and_si256(_mm256_srl_epi64(B, F.SignShift), F.SignBit);
  __m256i Out = _mm256_or_si256(
      Sign, _mm256_add_epi64(
                _mm256_sll_epi64(_mm256_sub_epi64(Band, F.MinEb), F.MantBits),
                Q));

  __m256i Ovf = _mm256_or_si256(Sign, _mm256_sub_epi64(F.PlusInf, OvfFin));
  Out = _mm256_blendv_epi8(Out, Ovf, _mm256_cmpgt_epi64(E, F.MaxEb));
  __m256i InfNaN = _mm256_cmpeq_epi64(E, splat4(0x7ff));
  Out = _mm256_blendv_epi8(Out, _mm256_or_si256(Sign, F.PlusInf), InfNaN);
  __m256i NaN = _mm256_andnot_si256(
      _mm256_cmpeq_epi64(Frac, _mm256_setzero_si256()), InfNaN);
  return _mm256_blendv_epi8(Out, F.QNaN, NaN);
}

#endif // __AVX2__

} // namespace
} // namespace rfp

#endif // RFP_FP_ROUNDLANES_H
