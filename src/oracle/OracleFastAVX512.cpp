//===- oracle/OracleFastAVX512.cpp - Fast oracle on AVX-512 lanes ---------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fast oracle's lane kernel (OracleFastLanes.h) on eight AVX-512 double
// lanes. Built with libm's AVX-512 batch-kernel flags plus
// -ffp-contract=off (src/CMakeLists.txt), and like those TUs it odr-uses
// no inline function from a shared header: everything here has internal
// linkage, and the format crosses in as LaneContext's two integers.
//
//===----------------------------------------------------------------------===//

// GCC's intrinsics seed masked-lane sources with _mm512_undefined_*(),
// which -Wuninitialized flags inside avx512fintrin.h (a known false
// positive; no lane of ours reads them).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include "fp/RoundLanes.h"
#include "oracle/OracleFastLanes.h"

#include <immintrin.h>

using namespace rfp;

namespace {

struct AVX512Ops {
  static constexpr int W = 8;
  using D = __m512d;
  using I = __m512i;
  using M = __mmask8;
  using RoundFmt = RoundFmt8;

  static D set(double V) { return _mm512_set1_pd(V); }
  static D add(D A, D B) { return _mm512_add_pd(A, B); }
  static D sub(D A, D B) { return _mm512_sub_pd(A, B); }
  static D mul(D A, D B) { return _mm512_mul_pd(A, B); }
  static D div(D A, D B) { return _mm512_div_pd(A, B); }
  static D fma(D A, D B, D C) { return _mm512_fmadd_pd(A, B, C); }
  static D fms(D A, D B, D C) { return _mm512_fmsub_pd(A, B, C); }
  static D fnma(D A, D B, D C) { return _mm512_fnmadd_pd(A, B, C); }
  static D fnms(D A, D B, D C) { return _mm512_fnmsub_pd(A, B, C); }
  static D abs(D A) { return _mm512_abs_pd(A); }
  static D roundCur(D A) {
    return _mm512_roundscale_pd(A, _MM_FROUND_CUR_DIRECTION |
                                       _MM_FROUND_NO_EXC);
  }
  static M gt(D A, D B) { return _mm512_cmp_pd_mask(A, B, _CMP_GT_OQ); }
  static M lt(D A, D B) { return _mm512_cmp_pd_mask(A, B, _CMP_LT_OQ); }
  static M le(D A, D B) { return _mm512_cmp_pd_mask(A, B, _CMP_LE_OQ); }

  static I iset(int64_t V) { return _mm512_set1_epi64(V); }
  static I iadd(I A, I B) { return _mm512_add_epi64(A, B); }
  static I isub(I A, I B) { return _mm512_sub_epi64(A, B); }
  static I iand(I A, I B) { return _mm512_and_si512(A, B); }
  template <int S> static I srl(I A) { return _mm512_srli_epi64(A, S); }
  template <int S> static I sll(I A) { return _mm512_slli_epi64(A, S); }
  static M ieq(I A, I B) { return _mm512_cmpeq_epi64_mask(A, B); }
  static M igt(I A, I B) { return _mm512_cmpgt_epi64_mask(A, B); }
  static I sel(M Mask, I A, I B) { return _mm512_mask_blend_epi64(Mask, B, A); }

  static I asI(D A) { return _mm512_castpd_si512(A); }
  static D asD(I A) { return _mm512_castsi512_pd(A); }
  static D toD(I A) { return _mm512_cvtepi64_pd(A); }
  static I toI(D A) { return _mm512_cvttpd_epi64(A); }
  static D gather(const double *Base, I Idx) {
    return _mm512_i64gather_pd(Idx, Base, 8);
  }

  static void load(const uint32_t *P, I &Bits, D &X) {
    __m256i V = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(P));
    Bits = _mm512_cvtepu32_epi64(V);
    X = _mm512_cvtps_pd(_mm256_castsi256_ps(V));
  }
  static void store(uint64_t *P, unsigned Lanes, I V) {
    _mm512_mask_storeu_epi64(P, static_cast<__mmask8>(Lanes), V);
  }
  static unsigned bits(M Mask) { return Mask; }
  static I ro(const RoundFmt &F, I B) {
    return round8<RoundingMode::ToOdd>(F, B);
  }
};

} // namespace

void rfp::oracle_fast::detail::evalToOdd34AVX512(
    ElemFunc Fn, const LaneContext &Ctx, const uint32_t *XBits, size_t N,
    uint64_t *Enc, uint8_t *Status, uint64_t *Tally) {
  evalToOdd34Lanes<PairOps<AVX512Ops>>(Fn, Ctx, XBits, N, Enc, Status, Tally);
}
