//===- oracle/OracleFastAVX2.cpp - Fast oracle on AVX2 lanes --------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fast oracle's lane kernel (OracleFastLanes.h) on four AVX2 double
// lanes. Built with libm's AVX2 batch-kernel flags plus -ffp-contract=off
// (src/CMakeLists.txt), and like those TUs it odr-uses no inline function
// from a shared header: everything here has internal linkage, and the
// format crosses in as LaneContext's two integers.
//
// AVX2 has no 64-bit integer <-> double conversions; the kernel's integers
// are small (|v| < 2^31), so they convert through 32-bit lanes, which is
// exact and gives +0 for 0 under every rounding mode.
//
//===----------------------------------------------------------------------===//

// GCC's gather intrinsics seed the masked-lane source with
// _mm256_undefined_pd(), which -Wmaybe-uninitialized flags inside
// avx2intrin.h (a known false positive; every lane of our gathers is
// unmasked).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include "fp/RoundLanes.h"
#include "oracle/OracleFastLanes.h"

#include <immintrin.h>

using namespace rfp;

namespace {

struct AVX2Ops {
  static constexpr int W = 4;
  using D = __m256d;
  using I = __m256i;
  using M = __m256i; ///< All-ones lanes.
  using RoundFmt = RoundFmt4;

  static D set(double V) { return _mm256_set1_pd(V); }
  static D add(D A, D B) { return _mm256_add_pd(A, B); }
  static D sub(D A, D B) { return _mm256_sub_pd(A, B); }
  static D mul(D A, D B) { return _mm256_mul_pd(A, B); }
  static D div(D A, D B) { return _mm256_div_pd(A, B); }
  static D fma(D A, D B, D C) { return _mm256_fmadd_pd(A, B, C); }
  static D fms(D A, D B, D C) { return _mm256_fmsub_pd(A, B, C); }
  static D fnma(D A, D B, D C) { return _mm256_fnmadd_pd(A, B, C); }
  static D fnms(D A, D B, D C) { return _mm256_fnmsub_pd(A, B, C); }
  static D abs(D A) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), A);
  }
  static D roundCur(D A) {
    return _mm256_round_pd(A, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  }
  static M gt(D A, D B) {
    return _mm256_castpd_si256(_mm256_cmp_pd(A, B, _CMP_GT_OQ));
  }
  static M lt(D A, D B) {
    return _mm256_castpd_si256(_mm256_cmp_pd(A, B, _CMP_LT_OQ));
  }
  static M le(D A, D B) {
    return _mm256_castpd_si256(_mm256_cmp_pd(A, B, _CMP_LE_OQ));
  }

  static I iset(int64_t V) { return _mm256_set1_epi64x(V); }
  static I iadd(I A, I B) { return _mm256_add_epi64(A, B); }
  static I isub(I A, I B) { return _mm256_sub_epi64(A, B); }
  static I iand(I A, I B) { return _mm256_and_si256(A, B); }
  template <int S> static I srl(I A) { return _mm256_srli_epi64(A, S); }
  template <int S> static I sll(I A) { return _mm256_slli_epi64(A, S); }
  static M ieq(I A, I B) { return _mm256_cmpeq_epi64(A, B); }
  static M igt(I A, I B) { return _mm256_cmpgt_epi64(A, B); }
  static I sel(M Mask, I A, I B) { return _mm256_blendv_epi8(B, A, Mask); }

  static I asI(D A) { return _mm256_castpd_si256(A); }
  static D asD(I A) { return _mm256_castsi256_pd(A); }
  /// The low 32 bits of each lane, packed into four 32-bit lanes.
  static __m128i low32(I A) {
    return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        A, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6)));
  }
  static D toD(I A) { return _mm256_cvtepi32_pd(low32(A)); }
  static I toI(D A) { return _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(A)); }
  static D gather(const double *Base, I Idx) {
    return _mm256_i64gather_pd(Base, Idx, 8);
  }

  static void load(const uint32_t *P, I &Bits, D &X) {
    __m128i V = _mm_loadu_si128(reinterpret_cast<const __m128i *>(P));
    Bits = _mm256_cvtepu32_epi64(V);
    X = _mm256_cvtps_pd(_mm_castsi128_ps(V));
  }
  static void store(uint64_t *P, unsigned Lanes, I V) {
    const I LaneBit = _mm256_setr_epi64x(1, 2, 4, 8);
    I Mask = _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(Lanes), LaneBit), LaneBit);
    _mm256_maskstore_epi64(reinterpret_cast<long long *>(P), Mask, V);
  }
  static unsigned bits(M Mask) {
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(Mask)));
  }
  static I ro(const RoundFmt &F, I B) {
    return round4<RoundingMode::ToOdd>(F, B);
  }
};

} // namespace

void rfp::oracle_fast::detail::evalToOdd34AVX2(
    ElemFunc Fn, const LaneContext &Ctx, const uint32_t *XBits, size_t N,
    uint64_t *Enc, uint8_t *Status, uint64_t *Tally) {
  evalToOdd34Lanes<PairOps<AVX2Ops>>(Fn, Ctx, XBits, N, Enc, Status, Tally);
}
