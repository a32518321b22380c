//===- libm/BatchKernelsAVX512.cpp - AVX-512 batch kernels ----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Hand-written AVX-512 (F+DQ+BW+VL) kernels for the batch API: the AVX2
// kernels' structure at eight double lanes, with two AVX-512-specific
// upgrades:
//
//  * Predication is native. Lane classification lives in __mmask8
//    registers instead of double-width compare masks, the special-case
//    list check is one vpcmpeqd per entry straight into a mask, and the
//    loop tail is a *masked* block -- `_mm256_maskz_loadu_ps` /
//    `_mm512_mask_storeu_pd` with Live = (1 << rem) - 1 -- so a 5-element
//    call takes the same straight-line path as a 4096-element one and
//    there is no scalar tail loop at all.
//  * Multi-piece coefficient fetch is one `vbroadcastf64x4` of the
//    32-byte SoA row plus one `vpermpd` (_mm512_permutexvar_pd) keyed by
//    the 64-bit piece indices, the 8-lane analogue of the AVX2 file's
//    vpermps trick; the gather fallback remains for PiecePad != 4.
//
// The bit-identity argument is the AVX2 file's verbatim: fallback lanes
// call the scalar core itself; vector lanes mirror the scalar cores'
// *compiled* operation sequence (the same FMA placements -- EVEX encodings
// of the same fused/plain choices, and IEEE semantics per lane are
// width-invariant); the Knuth kernels use the contraction map documented
// at knuthEvalV in BatchKernelsAVX2.cpp and are re-proven by the
// dispatcher's one-time parity probe. BatchParityTest and `bench_batch
// --verify` pin the invariant under RFP_BATCH_ISA=avx512.
//
// This is libm's only TU compiled with the -mavx512* flags
// (src/CMakeLists.txt); like the AVX2 TU it avoids odr-using any inline
// function from the shared headers, so no AVX-512-compiled copy of a
// common symbol can ever be selected by the linker for baseline machines.
// Everything is namespace-local, including this TU's own
// internal-linkage copies of the generated tables (bound as
// constant-expression template arguments so every table-shape branch
// folds; see the AVX2 file's header for the measured rationale). The
// rounding kernels at the end of the file (the vector tier behind
// libm::roundBatch, built on fp/RoundLanes.h's internal-linkage round8)
// take the format as two integers rather than an FPFormat, so they too
// odr-use nothing from the shared headers.
//
//===----------------------------------------------------------------------===//

#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include "fp/RoundLanes.h"
#include "libm/BatchKernels.h"
#include "libm/Frame.h"
#include "libm/RangeReduction.h"

#include <immintrin.h>

using namespace rfp;
using namespace rfp::libm;

namespace {

namespace exp_gen {
#include "libm/generated/ExpBatch.inc"
#include "libm/generated/ExpCoeffs.inc"
} // namespace exp_gen
namespace exp2_gen {
#include "libm/generated/Exp2Batch.inc"
#include "libm/generated/Exp2Coeffs.inc"
} // namespace exp2_gen
namespace exp10_gen {
#include "libm/generated/Exp10Batch.inc"
#include "libm/generated/Exp10Coeffs.inc"
} // namespace exp10_gen
namespace log_gen {
#include "libm/generated/LogBatch.inc"
#include "libm/generated/LogCoeffs.inc"
} // namespace log_gen
namespace log2_gen {
#include "libm/generated/Log2Batch.inc"
#include "libm/generated/Log2Coeffs.inc"
} // namespace log2_gen
namespace log10_gen {
#include "libm/generated/Log10Batch.inc"
#include "libm/generated/Log10Coeffs.inc"
} // namespace log10_gen

/// Per-function table lookup in EvalScheme order, resolvable in constant
/// expressions.
template <ElemFunc F> struct Gen;
#define RFP_GEN_TRAITS(Func, ns)                                               \
  template <> struct Gen<ElemFunc::Func> {                                     \
    static constexpr const SchemeTable *Scheme[4] = {                          \
        &ns::Horner, &ns::Knuth, &ns::Estrin, &ns::EstrinFMA};                 \
    static constexpr const BatchSchemeTable *Batch[4] = {                      \
        &ns::HornerBatch, &ns::KnuthBatch, &ns::EstrinBatch,                   \
        &ns::EstrinFMABatch};                                                  \
  };
RFP_GEN_TRAITS(Exp, exp_gen)
RFP_GEN_TRAITS(Exp2, exp2_gen)
RFP_GEN_TRAITS(Exp10, exp10_gen)
RFP_GEN_TRAITS(Log, log_gen)
RFP_GEN_TRAITS(Log2, log2_gen)
RFP_GEN_TRAITS(Log10, log10_gen)
#undef RFP_GEN_TRAITS

inline __m512d broadcast(double V) { return _mm512_set1_pd(V); }

//===----------------------------------------------------------------------===//
// Coefficient access
//===----------------------------------------------------------------------===//

/// Per-block coefficient selector: raw 32-bit piece indices for the gather
/// fallback, 64-bit indices for the permutexvar fast path (PiecePad == 4:
/// the whole padded row fits one vbroadcastf64x4, and indices 0..3 select
/// from the repeated lower half).
template <const BatchSchemeTable &B> struct CoeffSel {
  __m256i Piece;
  __m512i Perm;
};

template <const BatchSchemeTable &B>
inline CoeffSel<B> makeSel(__m256i Piece) {
  CoeffSel<B> S;
  S.Piece = Piece;
  S.Perm = _mm512_undefined_epi32();
  if constexpr (B.NumPieces > 1 && B.PiecePad == 4)
    S.Perm = _mm512_cvtepi32_epi64(Piece);
  return S;
}

template <const BatchSchemeTable &B>
inline __m512d coeff(int I, const CoeffSel<B> &S) {
  const double *Row = B.CoeffsSoA + I * B.PiecePad;
  if constexpr (B.NumPieces == 1)
    return _mm512_set1_pd(Row[0]);
  else if constexpr (B.PiecePad == 4)
    return _mm512_permutexvar_pd(
        S.Perm, _mm512_broadcast_f64x4(_mm256_load_pd(Row)));
  else
    return _mm512_i32gather_pd(S.Piece, Row, 8);
}

//===----------------------------------------------------------------------===//
// Polynomial evaluation (mirrors poly/EvalScheme.h as compiled)
//===----------------------------------------------------------------------===//

template <const BatchSchemeTable &B, unsigned Degree>
inline __m512d hornerNV(const CoeffSel<B> &Sel, __m512d X) {
  __m512d Acc = coeff<B>(Degree, Sel);
  for (unsigned I = Degree; I-- > 0;)
    Acc = _mm512_fmadd_pd(Acc, X, coeff<B>(I, Sel));
  return Acc;
}

template <const BatchSchemeTable &B, unsigned Degree, unsigned I = 0>
inline void loadCoeffsV(__m512d *V, const CoeffSel<B> &Sel) {
  if constexpr (I <= Degree) {
    V[I] = coeff<B>(static_cast<int>(I), Sel);
    loadCoeffsV<B, Degree, I + 1>(V, Sel);
  }
}

template <unsigned N, unsigned I = 0>
inline void estrinRoundV(__m512d *V, __m512d Y) {
  if constexpr (I <= N / 2) {
    if constexpr (2 * I + 1 <= N)
      V[I] = _mm512_fmadd_pd(V[2 * I + 1], Y, V[2 * I]);
    else
      V[I] = V[2 * I];
    estrinRoundV<N, I + 1>(V, Y);
  }
}

template <unsigned N>
inline void estrinLevelsV(__m512d *V, __m512d Y) {
  if constexpr (N >= 1) {
    estrinRoundV<N>(V, Y);
    estrinLevelsV<N / 2>(V, _mm512_mul_pd(Y, Y));
  }
}

template <const BatchSchemeTable &B, unsigned Degree>
inline __m512d estrinFMANV(const CoeffSel<B> &Sel, __m512d X) {
  __m512d V[Degree + 1];
  loadCoeffsV<B, Degree>(V, Sel);
  estrinLevelsV<Degree>(V, X);
  return V[0];
}

template <EvalScheme S, const BatchSchemeTable &B, unsigned Degree>
inline __m512d evalDegree(const CoeffSel<B> &Sel, __m512d X) {
  if constexpr (S == EvalScheme::Horner)
    return hornerNV<B, Degree>(Sel, X);
  else
    return estrinFMANV<B, Degree>(Sel, X);
}

template <const BatchSchemeTable &B> constexpr unsigned maxDegreeOf() {
  unsigned M = 0;
  for (int P = 0; P < B.NumPieces; ++P)
    if (static_cast<unsigned>(B.Degrees[P]) > M)
      M = static_cast<unsigned>(B.Degrees[P]);
  return M;
}

/// Same exact-padding proof as the AVX2 file (see padIsExact there).
template <const BatchSchemeTable &B> constexpr bool padIsExact() {
  unsigned M = maxDegreeOf<B>();
  for (int P = 0; P < B.NumPieces; ++P) {
    unsigned D = static_cast<unsigned>(B.Degrees[P]);
    if (B.CoeffsSoA[D * B.PiecePad + P] == 0.0)
      return false;
    for (unsigned I = D + 1; I <= M; ++I)
      if (B.CoeffsSoA[I * B.PiecePad + P] != 0.0)
        return false;
  }
  return true;
}

template <EvalScheme S, const BatchSchemeTable &B, int K>
inline void mixedDegreeStep(__m256i LaneDeg, const CoeffSel<B> &Sel, __m512d X,
                            __m512d &R) {
  if constexpr (K < B.NumDistinctDegrees) {
    constexpr int D = B.DistinctDegrees[K];
    __mmask8 M = _mm256_cmpeq_epi32_mask(LaneDeg, _mm256_set1_epi32(D));
    if (M)
      R = _mm512_mask_mov_pd(
          R, M, evalDegree<S, B, static_cast<unsigned>(D)>(Sel, X));
    mixedDegreeStep<S, B, K + 1>(LaneDeg, Sel, X, R);
  }
}

template <EvalScheme S, const BatchSchemeTable &B>
inline __m512d evalPolyV(__m256i Piece, __m512d X) {
  CoeffSel<B> Sel = makeSel<B>(Piece);
  if constexpr (B.UniformDegree != 0) {
    return evalDegree<S, B, static_cast<unsigned>(B.UniformDegree)>(Sel, X);
  } else if constexpr (padIsExact<B>()) {
    return evalDegree<S, B, maxDegreeOf<B>()>(Sel, X);
  } else {
    __m256i LaneDeg =
        _mm256_i32gather_epi32(reinterpret_cast<const int *>(B.Degrees),
                               Piece, 4);
    __m512d R = _mm512_setzero_pd();
    mixedDegreeStep<S, B, 0>(LaneDeg, Sel, X, R);
    return R;
  }
}

//===----------------------------------------------------------------------===//
// Range reduction
//===----------------------------------------------------------------------===//

/// Reduction context for eight lanes. On lanes where Ok is clear, T / N /
/// J hold sanitized garbage; the result lane is overwritten by the scalar
/// core.
struct VecRed {
  __m512d T;
  __m256i N;
  __m256i J;
  __mmask8 Ok;
};

/// exp / exp10 (mirrors reduceExpKind, see the AVX2 file for the llround
/// emulation argument; the +-1 halfway adjustments are masked adds here,
/// which leave non-adjusted lanes bit-untouched).
template <ElemFunc F>
inline VecRed reduceExpKindV(__m512d Xd) {
  constexpr bool IsExp = F == ElemFunc::Exp;
  constexpr double Huge = IsExp ? ExpHugeThreshold : Exp10HugeThreshold;
  constexpr double Tiny = IsExp ? ExpTinyThreshold : Exp10TinyThreshold;
  constexpr double Small = IsExp ? ExpSmallThreshold : Exp10SmallThreshold;
  constexpr double S16 =
      IsExp ? tables::SixteenByLn2 : tables::SixteenLog2_10;
  constexpr double CWHi = IsExp ? tables::Ln2By16Hi : tables::Log10_2By16Hi;
  constexpr double CWLo = IsExp ? tables::Ln2By16Lo : tables::Log10_2By16Lo;

  // Ordered compares are false on NaN lanes, so NaN falls back implicitly.
  __m512d Abs = _mm512_abs_pd(Xd);
  __mmask8 Ok = _mm512_cmp_pd_mask(Xd, broadcast(Huge), _CMP_LT_OQ) &
                _mm512_cmp_pd_mask(Xd, broadcast(Tiny), _CMP_GT_OQ) &
                _mm512_cmp_pd_mask(Abs, broadcast(Small), _CMP_GE_OQ);

  __m512d V = _mm512_mul_pd(Xd, broadcast(S16));
  __m512d Kd =
      _mm512_roundscale_pd(V, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d Diff = _mm512_sub_pd(V, Kd);
  __m512d Zero = _mm512_setzero_pd();
  __m512d One = broadcast(1.0);
  __mmask8 Up = _mm512_cmp_pd_mask(Diff, broadcast(0.5), _CMP_EQ_OQ) &
                _mm512_cmp_pd_mask(V, Zero, _CMP_GT_OQ);
  __mmask8 Down = _mm512_cmp_pd_mask(Diff, broadcast(-0.5), _CMP_EQ_OQ) &
                  _mm512_cmp_pd_mask(V, Zero, _CMP_LT_OQ);
  Kd = _mm512_mask_add_pd(Kd, Up, Kd, One);
  Kd = _mm512_mask_sub_pd(Kd, Down, Kd, One);

  __m512d T1 = _mm512_fnmadd_pd(Kd, broadcast(CWHi), Xd);
  __m256i K = _mm512_cvttpd_epi32(Kd); // exact: Kd integral, |K| < 2^12 ok

  VecRed R;
  R.T = _mm512_fnmadd_pd(Kd, broadcast(CWLo), T1);
  R.N = _mm256_srai_epi32(K, 4);
  R.J = _mm256_and_si256(K, _mm256_set1_epi32(15)); // always in [0, 16)
  R.Ok = Ok;
  return R;
}

/// exp2 (mirrors reduceExp2): K = floor(Xd * 16) and T = Xd - K/16, both
/// exact; integer inputs (exact powers of two) fall back.
inline VecRed reduceExp2V(__m512d Xd) {
  __m512d Floor16 = _mm512_floor_pd(_mm512_mul_pd(Xd, broadcast(16.0)));
  __m512d Abs = _mm512_abs_pd(Xd);
  __mmask8 Ok =
      _mm512_cmp_pd_mask(Xd, broadcast(Exp2HugeThreshold), _CMP_LT_OQ) &
      _mm512_cmp_pd_mask(Xd, broadcast(Exp2TinyThreshold), _CMP_GE_OQ) &
      _mm512_cmp_pd_mask(Abs, broadcast(Exp2SmallThreshold), _CMP_GE_OQ) &
      _mm512_cmp_pd_mask(Xd, _mm512_floor_pd(Xd), _CMP_NEQ_OQ);
  __m256i K = _mm512_cvttpd_epi32(Floor16); // exact on ok lanes (|16x|<2448)

  VecRed R;
  R.T = _mm512_fnmadd_pd(Floor16, broadcast(0x1p-4), Xd); // exact either way
  R.N = _mm256_srai_epi32(K, 4);
  R.J = _mm256_and_si256(K, _mm256_set1_epi32(15));
  R.Ok = Ok;
  return R;
}

/// log family (mirrors reduceLogKind) for positive *normal* inputs; see
/// the AVX2 file for the exactness argument. All masks are native here.
inline VecRed reduceLogKindV(__m256i Bits) {
  __mmask8 Ok =
      _mm256_cmpgt_epi32_mask(Bits, _mm256_set1_epi32(0x007fffff)) &
      _mm256_cmpgt_epi32_mask(_mm256_set1_epi32(0x7f800000), Bits);
  __m256i E =
      _mm256_sub_epi32(_mm256_srli_epi32(Bits, 23), _mm256_set1_epi32(127));
  __m256i Mant = _mm256_and_si256(Bits, _mm256_set1_epi32(0x7fffff));
  __m256i J = _mm256_srli_epi32(Mant, 18); // top 5 mantissa bits, in [0, 32)
  __m512d M = _mm512_fmadd_pd(_mm512_cvtepi32_pd(Mant), broadcast(0x1p-23),
                              broadcast(1.0));
  __m512d Fv = _mm512_fmadd_pd(_mm512_cvtepi32_pd(J), broadcast(0x1p-5),
                               broadcast(1.0));
  __m512d Frac = _mm512_sub_pd(M, Fv); // exact (Sterbenz)
  __m512d T =
      _mm512_mul_pd(Frac, _mm512_i32gather_pd(J, tables::OneByFTable, 8));

  // Table-exact lanes (T == 0 and J == 0: x a power of two) take the
  // scalar path, which resolves the log2 / log / log10 special results.
  __mmask8 Exact = _mm512_cmp_pd_mask(T, _mm512_setzero_pd(), _CMP_EQ_OQ) &
                   _mm256_cmpeq_epi32_mask(J, _mm256_setzero_si256());

  VecRed R;
  R.T = T;
  R.N = E;
  R.J = J;
  R.Ok = Ok & static_cast<__mmask8>(~Exact);
  return R;
}

//===----------------------------------------------------------------------===//
// Piece dispatch and output compensation
//===----------------------------------------------------------------------===//

template <ElemFunc F>
inline __m256i pieceIndexV(__m512d T, int NumPieces) {
  if (NumPieces <= 1)
    return _mm256_setzero_si256();
  constexpr ReducedDomain D = reducedDomainOf(F);
  double Scale = NumPieces / (D.TMax - D.TMin);
  __m512d P = _mm512_mul_pd(_mm512_sub_pd(T, broadcast(D.TMin)),
                            broadcast(Scale));
  __m256i Pi = _mm512_cvttpd_epi32(P); // NaN/overflow -> INT_MIN, clamped
  Pi = _mm256_max_epi32(Pi, _mm256_setzero_si256());
  Pi = _mm256_min_epi32(Pi, _mm256_set1_epi32(NumPieces - 1));
  return Pi;
}

/// outputCompensate as compiled; operation order identical to the AVX2
/// file (and hence the scalar cores).
template <ElemFunc F>
inline __m512d compensateV(__m512d PolyVal, const VecRed &R) {
  if constexpr (isExpFamily(F)) {
    __m512d Scaled = _mm512_mul_pd(
        _mm512_i32gather_pd(R.J, tables::Exp2Table, 8), PolyVal);
    __m512i Pow2 = _mm512_slli_epi64(
        _mm512_cvtepi32_epi64(
            _mm256_add_epi32(R.N, _mm256_set1_epi32(1023))), 52);
    return _mm512_mul_pd(Scaled, _mm512_castsi512_pd(Pow2));
  } else if constexpr (F == ElemFunc::Log2) {
    __m512d Nd = _mm512_cvtepi32_pd(R.N);
    return _mm512_add_pd(
        _mm512_add_pd(Nd, _mm512_i32gather_pd(R.J, tables::Log2FTable, 8)),
        PolyVal);
  } else {
    constexpr double C =
        F == ElemFunc::Log ? tables::Ln2 : tables::Log10_2;
    const double *Tab =
        F == ElemFunc::Log ? tables::LnFTable : tables::Log10FTable;
    __m512d Nd = _mm512_cvtepi32_pd(R.N);
    return _mm512_add_pd(
        _mm512_fmadd_pd(Nd, broadcast(C), _mm512_i32gather_pd(R.J, Tab, 8)),
        PolyVal);
  }
}

//===----------------------------------------------------------------------===//
// Knuth adapted forms
//===----------------------------------------------------------------------===//

/// Adapted coefficient I per lane: see kcoeff in BatchKernelsAVX2.cpp; the
/// two-piece blend is a native masked blend here.
template <const SchemeTable &T>
inline __m512d kcoeff(int I, __mmask8 PieceOneM) {
  if constexpr (T.NumPieces == 1) {
    (void)PieceOneM;
    return broadcast(T.Adapted[0][I]);
  } else {
    static_assert(T.NumPieces == 2, "vector Knuth handles <= 2 pieces");
    return _mm512_mask_blend_pd(PieceOneM, broadcast(T.Adapted[0][I]),
                                broadcast(T.Adapted[1][I]));
  }
}

template <const SchemeTable &T> constexpr unsigned knuthDegree() {
  for (int P = 1; P < T.NumPieces; ++P)
    if (T.Degrees[P] != T.Degrees[0])
      return 0;
  return T.Degrees[0];
}

/// evalKnuthOps as compiled, 8 lanes. The contraction map (which multiply
/// is fused into which add, and the log/log2 fusion of the final *a6 into
/// the compensation add) is documented at knuthEvalV in
/// BatchKernelsAVX2.cpp; this is the same sequence in EVEX encodings.
template <ElemFunc F, const SchemeTable &T>
inline __m512d knuthEvalV(__m256i Piece, const VecRed &R) {
  constexpr unsigned D = knuthDegree<T>();
  static_assert(D == 4 || D == 5 || D == 6, "unsupported adapted degree");
  __mmask8 PM = 0;
  if constexpr (T.NumPieces > 1)
    PM = _mm256_cmpgt_epi32_mask(Piece, _mm256_setzero_si256());
  (void)Piece;
  __m512d X = R.T;
  if constexpr (D == 4) {
    static_assert(isExpFamily(F), "degree-4 adapted form is exp only");
    __m512d Y = _mm512_fmadd_pd(_mm512_add_pd(X, kcoeff<T>(0, PM)), X,
                                kcoeff<T>(1, PM));
    __m512d U = _mm512_fmadd_pd(
        _mm512_add_pd(_mm512_add_pd(X, Y), kcoeff<T>(2, PM)), Y,
        kcoeff<T>(3, PM));
    return compensateV<F>(_mm512_mul_pd(U, kcoeff<T>(4, PM)), R);
  } else if constexpr (D == 5) {
    static_assert(isExpFamily(F), "degree-5 adapted form is exp2/exp10 only");
    __m512d T0 = _mm512_add_pd(X, kcoeff<T>(0, PM));
    __m512d Y = _mm512_mul_pd(T0, T0);
    __m512d P = _mm512_fmadd_pd(_mm512_add_pd(Y, kcoeff<T>(1, PM)), Y,
                                kcoeff<T>(2, PM));
    __m512d U = _mm512_fmadd_pd(P, _mm512_add_pd(X, kcoeff<T>(3, PM)),
                                kcoeff<T>(4, PM));
    return compensateV<F>(_mm512_mul_pd(U, kcoeff<T>(5, PM)), R);
  } else {
    static_assert(F == ElemFunc::Log || F == ElemFunc::Log2,
                  "degree-6 adapted form is log/log2 only");
    __m512d Z = _mm512_fmadd_pd(_mm512_add_pd(X, kcoeff<T>(0, PM)), X,
                                kcoeff<T>(1, PM));
    __m512d W = _mm512_fmadd_pd(_mm512_add_pd(X, kcoeff<T>(2, PM)), Z,
                                kcoeff<T>(3, PM));
    __m512d U = _mm512_fmadd_pd(
        _mm512_add_pd(_mm512_add_pd(Z, W), kcoeff<T>(4, PM)), W,
        kcoeff<T>(5, PM));
    __m512d Nd = _mm512_cvtepi32_pd(R.N);
    __m512d Comp;
    if constexpr (F == ElemFunc::Log2)
      Comp = _mm512_add_pd(Nd,
                           _mm512_i32gather_pd(R.J, tables::Log2FTable, 8));
    else
      Comp = _mm512_fmadd_pd(Nd, broadcast(tables::Ln2),
                             _mm512_i32gather_pd(R.J, tables::LnFTable, 8));
    return _mm512_fmadd_pd(U, kcoeff<T>(6, PM), Comp);
  }
}

//===----------------------------------------------------------------------===//
// The kernel frame
//===----------------------------------------------------------------------===//

/// Eight lanes under a live mask: reduce, match the special-case list,
/// evaluate, compensate, masked-store -- then overwrite every live
/// fallback lane with the scalar core's result. A full block passes
/// Live = 0xff; the loop tail passes (1 << rem) - 1 and the masked
/// load/store never touch memory beyond N.
template <ElemFunc F, EvalScheme S, const SchemeTable &T,
          const BatchSchemeTable &B>
inline void block8(double (*Core)(float), const float *In, double *H,
                   __mmask8 Live) {
  __m256 Xf = _mm256_maskz_loadu_ps(Live, In);
  __m256i XBits = _mm256_castps_si256(Xf);
  __m512d Xd = _mm512_cvtps_pd(Xf);

  VecRed R;
  if constexpr (F == ElemFunc::Exp2)
    R = reduceExp2V(Xd);
  else if constexpr (isExpFamily(F))
    R = reduceExpKindV<F>(Xd);
  else
    R = reduceLogKindV(XBits);

  __mmask8 Spec = 0;
  for (int I = 0; I < T.NumSpecials; ++I)
    Spec |= _mm256_cmpeq_epi32_mask(
        XBits, _mm256_set1_epi32(static_cast<int>(T.Specials[I].Bits)));
  unsigned Fallback =
      (static_cast<unsigned>(static_cast<__mmask8>(~R.Ok)) |
       static_cast<unsigned>(Spec)) &
      static_cast<unsigned>(Live);

  __m256i Piece = pieceIndexV<F>(R.T, B.NumPieces);
  __m512d Res;
  if constexpr (S == EvalScheme::Knuth)
    Res = knuthEvalV<F, T>(Piece, R);
  else
    Res = compensateV<F>(evalPolyV<S, B>(Piece, R.T), R);
  _mm512_mask_storeu_pd(H, Live, Res);

  while (Fallback) {
    unsigned L = static_cast<unsigned>(__builtin_ctz(Fallback));
    Fallback &= Fallback - 1;
    H[L] = Core(In[L]);
  }
}

template <ElemFunc F, EvalScheme S>
void kernel(const float *In, double *H, size_t N) {
  constexpr const SchemeTable &T = *Gen<F>::Scheme[static_cast<int>(S)];
  constexpr const BatchSchemeTable &B = *Gen<F>::Batch[static_cast<int>(S)];
  double (*Core)(float) = detail::scalarCoreFor(F, S);
  size_t I = 0;
  for (; I + 8 <= N; I += 8)
    block8<F, S, T, B>(Core, In + I, H + I, 0xff);
  if (I < N)
    block8<F, S, T, B>(Core, In + I, H + I,
                       static_cast<__mmask8>((1u << (N - I)) - 1u));
}

/// The Knuth slot: a vector kernel where the variant is generated.
template <ElemFunc F> constexpr BatchKernelFn knuthKernelFor() {
  if constexpr (Gen<F>::Scheme[static_cast<int>(EvalScheme::Knuth)]->Available)
    return kernel<F, EvalScheme::Knuth>;
  else
    return nullptr;
}

//===----------------------------------------------------------------------===//
// Format/mode rounding
//===----------------------------------------------------------------------===//

/// Eight lanes of round8 (fp/RoundLanes.h) under a live mask: the loop
/// tail's masked load and store never touch memory beyond N.
template <RoundingMode M>
inline void roundBlock8(const RoundFmt8 &F, const double *H, uint64_t *Enc,
                        __mmask8 Live) {
  _mm512_mask_storeu_epi64(
      Enc, Live,
      round8<M>(F, _mm512_castpd_si512(_mm512_maskz_loadu_pd(Live, H))));
}

template <RoundingMode M>
void roundKernel(const double *H, uint64_t *Enc, size_t N, unsigned TotalBits,
                 unsigned ExpBits) {
  const RoundFmt8 F(TotalBits, ExpBits);
  size_t I = 0;
  for (; I + 8 <= N; I += 8)
    roundBlock8<M>(F, H + I, Enc + I, 0xff);
  if (I < N)
    roundBlock8<M>(F, H + I, Enc + I,
                   static_cast<__mmask8>((1u << (N - I)) - 1u));
}

} // namespace

#define RFP_AVX512_ROW(F)                                                      \
  {kernel<F, EvalScheme::Horner>, knuthKernelFor<F>(),                         \
   kernel<F, EvalScheme::Estrin>, kernel<F, EvalScheme::EstrinFMA>}

const BatchKernelFn rfp::libm::detail::AVX512BatchKernels[6][4] = {
    RFP_AVX512_ROW(ElemFunc::Exp),   RFP_AVX512_ROW(ElemFunc::Exp2),
    RFP_AVX512_ROW(ElemFunc::Exp10), RFP_AVX512_ROW(ElemFunc::Log),
    RFP_AVX512_ROW(ElemFunc::Log2),  RFP_AVX512_ROW(ElemFunc::Log10),
};

#undef RFP_AVX512_ROW

const RoundKernelFn rfp::libm::detail::AVX512RoundKernels[6] = {
    roundKernel<RoundingMode::NearestEven>,
    roundKernel<RoundingMode::NearestAway>,
    roundKernel<RoundingMode::TowardZero>,
    roundKernel<RoundingMode::Upward>,
    roundKernel<RoundingMode::Downward>,
    roundKernel<RoundingMode::ToOdd>,
};
